//! Tokenizers used by the set-based similarity measures and by the
//! prefix/position filter indexes.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::ops::Range;

/// How a string attribute value is decomposed into tokens.
///
/// `Word` splits on whitespace after lowercasing and stripping punctuation
/// edges; `QGram(q)` slides a window of `q` characters over the padded,
/// lowercased string. Tokens are *sets* (duplicates removed) as in standard
/// set-similarity-join formulations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Tokenizer {
    /// Whitespace-delimited word tokens.
    Word,
    /// Character q-grams (the paper uses q = 3).
    QGram(u8),
}

impl Tokenizer {
    /// Tokenize into a deduplicated, sorted token set.
    pub fn tokenize(self, s: &str) -> BTreeSet<String> {
        match self {
            Tokenizer::Word => word_tokens(s).into_iter().collect(),
            Tokenizer::QGram(q) => qgrams(s, q as usize).into_iter().collect(),
        }
    }

    /// Tokenize preserving order and duplicates (used by TF weighting and by
    /// the hybrid measures that align token sequences).
    pub fn tokenize_seq(self, s: &str) -> Vec<String> {
        match self {
            Tokenizer::Word => word_tokens(s),
            Tokenizer::QGram(q) => qgrams(s, q as usize),
        }
    }

    /// Tokenize into a sorted, deduplicated `Vec<String>` — the same token
    /// set as [`Tokenizer::tokenize`] but in a flat buffer, for profile
    /// building where the strings are immediately interned to ids.
    pub fn tokenize_sorted(self, s: &str) -> Vec<String> {
        let mut toks = self.tokenize_seq(s);
        toks.sort_unstable();
        toks.dedup();
        toks
    }

    /// Suffix used in feature names (`jaccard_word`, `dice_3gram`, ...).
    pub fn suffix(self) -> String {
        match self {
            Tokenizer::Word => "word".into(),
            Tokenizer::QGram(q) => format!("{q}gram"),
        }
    }
}

/// Lowercased word tokens with leading/trailing punctuation stripped.
pub fn word_tokens(s: &str) -> Vec<String> {
    s.split_whitespace()
        .map(|w| {
            w.trim_matches(|c: char| !c.is_alphanumeric())
                .to_lowercase()
        })
        .filter(|w| !w.is_empty())
        .collect()
}

/// The tokens of [`word_tokens`], written back to back into one reused
/// buffer for the per-pair kernels: `text` holds the lowercased tokens and
/// `toks` their byte ranges. Words split on Unicode whitespace, lose
/// non-alphanumeric edges, and lowercase with `str::to_lowercase` (which
/// maps a word-final `Σ` to `ς`); an ASCII word lowercases byte by byte,
/// which gives the same text. `word_tokens` keeps its one-allocation-per-
/// token form: building it on this buffer measured ~20% slower.
pub(crate) fn word_tokens_into(s: &str, text: &mut String, toks: &mut Vec<Range<usize>>) {
    text.clear();
    toks.clear();
    for w in s.split_whitespace() {
        let w = w.trim_matches(|c: char| !c.is_alphanumeric());
        if w.is_empty() {
            continue;
        }
        let start = text.len();
        if w.is_ascii() {
            text.extend(w.bytes().map(|b| char::from(b.to_ascii_lowercase())));
        } else {
            text.push_str(&w.to_lowercase());
        }
        toks.push(start..text.len());
    }
}

/// Character q-grams of the lowercased string. Strings shorter than `q`
/// yield a single token (the whole string) so short values still index.
pub fn qgrams(s: &str, q: usize) -> Vec<String> {
    let lower = s.to_lowercase();
    let chars: Vec<char> = lower.chars().collect();
    if chars.is_empty() || q == 0 {
        return Vec::new();
    }
    if chars.len() <= q {
        return vec![lower];
    }
    chars.windows(q).map(|w| w.iter().collect()).collect()
}

/// Number of word tokens in a value — the "length in words" that the length
/// filter of Example 6 in the paper indexes.
pub fn word_len(s: &str) -> usize {
    word_tokens(s).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_tokens_normalize() {
        assert_eq!(
            word_tokens("The  Quick, brown fox!"),
            vec!["the", "quick", "brown", "fox"]
        );
        assert_eq!(word_tokens(""), Vec::<String>::new());
        assert_eq!(word_tokens("...  ,"), Vec::<String>::new());
    }

    #[test]
    fn qgrams_slide() {
        assert_eq!(qgrams("abcd", 3), vec!["abc", "bcd"]);
        assert_eq!(qgrams("ab", 3), vec!["ab"]);
        assert_eq!(qgrams("", 3), Vec::<String>::new());
    }

    #[test]
    fn tokenize_dedups() {
        let t = Tokenizer::Word.tokenize("a b a b c");
        assert_eq!(t.len(), 3);
        let seq = Tokenizer::Word.tokenize_seq("a b a b c");
        assert_eq!(seq.len(), 5);
    }

    #[test]
    fn tokenize_sorted_matches_set() {
        for s in ["a b a b c", "The  Quick, brown fox!", "", "... ,"] {
            for t in [Tokenizer::Word, Tokenizer::QGram(3)] {
                let sorted = t.tokenize_sorted(s);
                let set: Vec<String> = t.tokenize(s).into_iter().collect();
                assert_eq!(sorted, set, "tokenizer {t:?} on {s:?}");
            }
        }
    }

    #[test]
    fn qgram_tokenizer_lowercases() {
        let t = Tokenizer::QGram(3).tokenize("ABC");
        assert!(t.contains("abc"));
    }
}
