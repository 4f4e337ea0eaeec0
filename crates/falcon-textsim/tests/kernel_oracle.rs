//! Differential tests: the library's integer, allocation-free kernels
//! against straightforward `f64` reference implementations kept here as
//! oracles. Every measure must agree bit for bit (`to_bits`), on ASCII,
//! multi-byte, case-expanding (`İ`, `ß`, final `Σ`) and exotic-whitespace
//! input, on empty and punctuation-only strings, and on strings longer than
//! 64 characters.

use falcon_textsim::{align, edit, hybrid, tokenize, SimContext, SimFunction, TfIdfModel};
use proptest::prelude::*;

/// Reference kernels: one allocation-heavy `f64` implementation per
/// measure, written for clarity rather than speed.
mod oracle {
    const MATCH: f64 = 1.0;
    const MISMATCH: f64 = -1.0;
    const GAP: f64 = -1.0;
    const GAP_OPEN: f64 = -1.0;
    const GAP_EXTEND: f64 = -0.5;

    fn score(a: char, b: char) -> f64 {
        if a == b {
            MATCH
        } else {
            MISMATCH
        }
    }

    pub fn needleman_wunsch_sim(a: &str, b: &str) -> f64 {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() || b.is_empty() {
            return if a.is_empty() && b.is_empty() {
                1.0
            } else {
                0.0
            };
        }
        let mut prev: Vec<f64> = (0..=b.len()).map(|j| j as f64 * GAP).collect();
        let mut cur = vec![0.0; b.len() + 1];
        for (i, ca) in a.iter().enumerate() {
            cur[0] = (i + 1) as f64 * GAP;
            for (j, cb) in b.iter().enumerate() {
                cur[j + 1] = (prev[j] + score(*ca, *cb))
                    .max(prev[j + 1] + GAP)
                    .max(cur[j] + GAP);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        let raw = prev[b.len()];
        (raw / a.len().min(b.len()) as f64).clamp(0.0, 1.0)
    }

    pub fn smith_waterman_sim(a: &str, b: &str) -> f64 {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() || b.is_empty() {
            return if a.is_empty() && b.is_empty() {
                1.0
            } else {
                0.0
            };
        }
        let mut prev = vec![0.0f64; b.len() + 1];
        let mut cur = vec![0.0f64; b.len() + 1];
        let mut best = 0.0f64;
        for ca in &a {
            for (j, cb) in b.iter().enumerate() {
                cur[j + 1] = (prev[j] + score(*ca, *cb))
                    .max(prev[j + 1] + GAP)
                    .max(cur[j] + GAP)
                    .max(0.0);
                best = best.max(cur[j + 1]);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        (best / a.len().min(b.len()) as f64).clamp(0.0, 1.0)
    }

    pub fn smith_waterman_gotoh_sim(a: &str, b: &str) -> f64 {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() || b.is_empty() {
            return if a.is_empty() && b.is_empty() {
                1.0
            } else {
                0.0
            };
        }
        let n = b.len();
        let mut h_prev = vec![0.0f64; n + 1];
        let mut e_prev = vec![f64::NEG_INFINITY; n + 1];
        let mut best = 0.0f64;
        for ca in &a {
            let mut h_cur = vec![0.0f64; n + 1];
            let mut e_cur = vec![f64::NEG_INFINITY; n + 1];
            let mut f = f64::NEG_INFINITY;
            for (j, cb) in b.iter().enumerate() {
                e_cur[j + 1] = (h_prev[j + 1] + GAP_OPEN).max(e_prev[j + 1] + GAP_EXTEND);
                f = (h_cur[j] + GAP_OPEN).max(f + GAP_EXTEND);
                h_cur[j + 1] = (h_prev[j] + score(*ca, *cb))
                    .max(e_cur[j + 1])
                    .max(f)
                    .max(0.0);
                best = best.max(h_cur[j + 1]);
            }
            h_prev = h_cur;
            e_prev = e_cur;
        }
        (best / a.len().min(b.len()) as f64).clamp(0.0, 1.0)
    }

    pub fn levenshtein(a: &str, b: &str) -> usize {
        let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
        let (short, long) = if a.len() <= b.len() {
            (&a, &b)
        } else {
            (&b, &a)
        };
        if short.is_empty() {
            return long.len();
        }
        let mut prev: Vec<usize> = (0..=short.len()).collect();
        let mut cur = vec![0usize; short.len() + 1];
        for (i, lc) in long.iter().enumerate() {
            cur[0] = i + 1;
            for (j, sc) in short.iter().enumerate() {
                let sub = prev[j] + usize::from(lc != sc);
                cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[short.len()]
    }

    pub fn levenshtein_sim(a: &str, b: &str) -> f64 {
        let max = a.chars().count().max(b.chars().count());
        if max == 0 {
            return 1.0;
        }
        1.0 - levenshtein(a, b) as f64 / max as f64
    }

    pub fn jaro(a: &str, b: &str) -> f64 {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let window = (a.len().max(b.len()) / 2).saturating_sub(1);
        let mut b_used = vec![false; b.len()];
        let mut matches_a = Vec::new();
        for (i, ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            for j in lo..hi {
                if !b_used[j] && b[j] == *ca {
                    b_used[j] = true;
                    matches_a.push(*ca);
                    break;
                }
            }
        }
        let m = matches_a.len();
        if m == 0 {
            return 0.0;
        }
        let matches_b: Vec<char> = b
            .iter()
            .zip(b_used.iter())
            .filter_map(|(c, used)| used.then_some(*c))
            .collect();
        let transpositions = matches_a
            .iter()
            .zip(matches_b.iter())
            .filter(|(x, y)| x != y)
            .count()
            / 2;
        let m = m as f64;
        (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
    }

    pub fn jaro_winkler(a: &str, b: &str) -> f64 {
        let j = jaro(a, b);
        let prefix = a
            .chars()
            .zip(b.chars())
            .take(4)
            .take_while(|(x, y)| x == y)
            .count() as f64;
        j + prefix * 0.1 * (1.0 - j)
    }

    pub fn word_tokens(s: &str) -> Vec<String> {
        s.split_whitespace()
            .map(|w| {
                w.trim_matches(|c: char| !c.is_alphanumeric())
                    .to_lowercase()
            })
            .filter(|w| !w.is_empty())
            .collect()
    }

    pub fn monge_elkan(a: &str, b: &str) -> f64 {
        let ta = word_tokens(a);
        let tb = word_tokens(b);
        if ta.is_empty() || tb.is_empty() {
            return if ta.is_empty() && tb.is_empty() {
                1.0
            } else {
                0.0
            };
        }
        directional(&ta, &tb).max(directional(&tb, &ta))
    }

    fn directional(xs: &[String], ys: &[String]) -> f64 {
        let total: f64 = xs
            .iter()
            .map(|x| ys.iter().map(|y| jaro_winkler(x, y)).fold(0.0f64, f64::max))
            .sum();
        total / xs.len() as f64
    }

    /// Soft TF/IDF over the model's public IDF weights, with the oracle
    /// Jaro-Winkler.
    pub fn soft_cosine(model: &super::TfIdfModel, a: &str, b: &str, theta: f64) -> Option<f64> {
        let weights = |s: &str| {
            let mut toks = word_tokens(s);
            toks.sort_unstable();
            let mut tf: Vec<(String, f64)> = Vec::new();
            for tok in toks {
                match tf.last_mut() {
                    Some((t, w)) if *t == tok => *w += 1.0,
                    _ => tf.push((tok, 1.0)),
                }
            }
            for (tok, w) in tf.iter_mut() {
                *w *= model.idf(tok);
            }
            tf
        };
        if word_tokens(a).is_empty() || word_tokens(b).is_empty() {
            return None;
        }
        let (va, vb) = (weights(a), weights(b));
        let mut dot = 0.0;
        for (tok_a, wa) in &va {
            let mut best: Option<(f64, f64)> = None;
            for (tok_b, wb) in &vb {
                let s = if tok_a == tok_b {
                    1.0
                } else {
                    jaro_winkler(tok_a, tok_b)
                };
                if s >= theta && best.is_none_or(|(bs, _)| s > bs) {
                    best = Some((s, *wb));
                }
            }
            if let Some((s, wb)) = best {
                dot += wa * wb * s;
            }
        }
        let na: f64 = va.iter().map(|(_, w)| w * w).sum::<f64>().sqrt();
        let nb: f64 = vb.iter().map(|(_, w)| w * w).sum::<f64>().sqrt();
        Some((dot / (na * nb)).clamp(0.0, 1.0))
    }

    pub fn fmt_num(x: f64) -> String {
        if x.fract() == 0.0 && x.abs() < 1e15 {
            format!("{}", x as i64)
        } else {
            format!("{x}")
        }
    }
}

/// Units that stress every path: ASCII letters, digits and punctuation;
/// multi-byte letters; `İ` and `ß`/`Σ`, whose lowercase forms differ in
/// length or context; and whitespace that only Unicode splitting sees.
const UNITS: &[char] = &[
    'a', 'b', 'c', 'd', 'A', 'B', '1', '7', ' ', ' ', '.', ',', '-', '\'', 'é', 'ü', 'İ', 'ß', 'Σ',
    'σ', '日', '本', '\u{0B}', '\u{85}', '\u{A0}', '\t',
];

const ASCII_UNITS: &[char] = &['a', 'b', 'c', 'd', 'e', 'A', 'B', '1', ' ', ' ', '.', '-'];

/// Strings from 0 to 90 units (past the 64-unit mark), mixing ASCII-only
/// strings (the byte path) with strings from the full unit set (the
/// `char` path).
fn text() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::collection::vec(unit(ASCII_UNITS), 0..90),
        proptest::collection::vec(unit(UNITS), 0..90),
        proptest::collection::vec(unit(UNITS), 0..8),
        Just(Vec::new()),
        Just(".,- '".chars().collect()),
    ]
    .prop_map(|cs| cs.into_iter().collect())
}

/// A string and a near copy of it with a few edits, so the alignment and
/// Jaro kernels see high-similarity pairs, not only random ones.
fn near_pair() -> impl Strategy<Value = (String, String)> {
    (
        text(),
        proptest::collection::vec((0usize..100, unit(UNITS)), 0..4),
    )
        .prop_map(|(a, edits)| {
            let mut b: Vec<char> = a.chars().collect();
            for (at, c) in edits {
                if b.is_empty() || at % 3 == 0 {
                    b.insert(at % (b.len() + 1), c);
                } else if at % 3 == 1 {
                    let i = at % b.len();
                    b[i] = c;
                } else {
                    b.remove(at % b.len());
                }
            }
            (a, b.into_iter().collect())
        })
}

fn pair() -> impl Strategy<Value = (String, String)> {
    prop_oneof![(text(), text()), near_pair()]
}

/// A two-string similarity kernel.
type Kernel = fn(&str, &str) -> f64;

fn assert_bits(name: &str, a: &str, b: &str, got: f64, want: f64) {
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "{name} on {a:?} / {b:?}: {got} vs oracle {want}"
    );
}

/// One unit drawn from `units`.
fn unit(units: &'static [char]) -> impl Strategy<Value = char> {
    (0..units.len()).prop_map(move |i| units[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn alignment_kernels_equal_oracle(ab in pair()) {
        let (a, b) = ab;
        for (x, y) in [(&a, &b), (&b, &a)] {
            assert_bits("needleman_wunsch", x, y,
                align::needleman_wunsch_sim(x, y), oracle::needleman_wunsch_sim(x, y));
            assert_bits("smith_waterman", x, y,
                align::smith_waterman_sim(x, y), oracle::smith_waterman_sim(x, y));
            assert_bits("smith_waterman_gotoh", x, y,
                align::smith_waterman_gotoh_sim(x, y), oracle::smith_waterman_gotoh_sim(x, y));
        }
    }

    #[test]
    fn edit_kernels_equal_oracle(ab in pair()) {
        let (a, b) = ab;
        for (x, y) in [(&a, &b), (&b, &a)] {
            prop_assert_eq!(edit::levenshtein(x, y), oracle::levenshtein(x, y));
            assert_bits("levenshtein_sim", x, y,
                edit::levenshtein_sim(x, y), oracle::levenshtein_sim(x, y));
            assert_bits("jaro", x, y, edit::jaro(x, y), oracle::jaro(x, y));
            assert_bits("jaro_winkler", x, y,
                edit::jaro_winkler(x, y), oracle::jaro_winkler(x, y));
        }
    }

    #[test]
    fn token_kernels_equal_oracle(ab in pair()) {
        let (a, b) = ab;
        prop_assert_eq!(tokenize::word_tokens(&a), oracle::word_tokens(&a));
        for (x, y) in [(&a, &b), (&b, &a)] {
            assert_bits("monge_elkan", x, y, hybrid::monge_elkan(x, y), oracle::monge_elkan(x, y));
        }
        let model = TfIdfModel::build([a.as_str(), b.as_str(), "a b c", "d é"].into_iter());
        for (x, y) in [(&a, &b), (&b, &a)] {
            let got = model.soft_cosine(x, y, 0.9);
            let want = oracle::soft_cosine(&model, x, y, 0.9);
            prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits),
                "soft_tf_idf on {:?} / {:?}", x, y);
        }
    }

    /// The dispatching entry points (`score_str` for strings, `score_num`
    /// for the numeric Levenshtein feature) reach the same kernels.
    #[test]
    fn dispatch_equals_oracle(ab in pair(), x in -1e6f64..1e6, y in -1e6f64..1e6) {
        let (a, b) = ab;
        let ctx = SimContext::empty();
        let oracles: [(SimFunction, Kernel); 7] = [
            (SimFunction::NeedlemanWunsch, oracle::needleman_wunsch_sim),
            (SimFunction::SmithWaterman, oracle::smith_waterman_sim),
            (SimFunction::SmithWatermanGotoh, oracle::smith_waterman_gotoh_sim),
            (SimFunction::Levenshtein, oracle::levenshtein_sim),
            (SimFunction::Jaro, oracle::jaro),
            (SimFunction::JaroWinkler, oracle::jaro_winkler),
            (SimFunction::MongeElkan, oracle::monge_elkan),
        ];
        for (sim, reference) in oracles {
            let want = (!a.is_empty() && !b.is_empty()).then(|| reference(&a, &b));
            prop_assert_eq!(sim.score_str(&a, &b, &ctx).map(f64::to_bits), want.map(f64::to_bits),
                "{:?} on {:?} / {:?}", sim, a, b);
        }
        for (x, y) in [(x, y), (x.round(), y.round()), (x, x), (0.5, 1e20)] {
            let want = oracle::levenshtein_sim(&oracle::fmt_num(x), &oracle::fmt_num(y));
            prop_assert_eq!(SimFunction::Levenshtein.score_num(x, y).map(f64::to_bits),
                Some(want.to_bits()), "score_num on {} / {}", x, y);
        }
    }
}

#[test]
fn fixed_cases_equal_oracle() {
    let long = "the quick brown fox jumps over the lazy dog while the cat naps in the sun";
    let cases = [
        ("", ""),
        ("", "abc"),
        ("...", "!!"),
        ("İstanbul", "istanbul"),
        ("STRASSE", "straße"),
        ("ΟΔΟΣ ΟΔΟΣ", "οδος οδοσ"),
        ("a\u{0B}b", "a b"),
        ("x\u{85}y\u{A0}z", "x y z"),
        (
            long,
            "the quick brown fox jumped over a lazy dog while a cat napped",
        ),
        ("martha", "marhta"),
        ("dixon", "dicksonx"),
    ];
    for (a, b) in cases {
        for (x, y) in [(a, b), (b, a)] {
            let pairs = [
                (
                    align::needleman_wunsch_sim(x, y),
                    oracle::needleman_wunsch_sim(x, y),
                ),
                (
                    align::smith_waterman_sim(x, y),
                    oracle::smith_waterman_sim(x, y),
                ),
                (
                    align::smith_waterman_gotoh_sim(x, y),
                    oracle::smith_waterman_gotoh_sim(x, y),
                ),
                (edit::levenshtein_sim(x, y), oracle::levenshtein_sim(x, y)),
                (edit::jaro(x, y), oracle::jaro(x, y)),
                (edit::jaro_winkler(x, y), oracle::jaro_winkler(x, y)),
                (hybrid::monge_elkan(x, y), oracle::monge_elkan(x, y)),
            ];
            for (k, (got, want)) in pairs.into_iter().enumerate() {
                assert_eq!(got.to_bits(), want.to_bits(), "kernel {k} on {x:?} / {y:?}");
            }
        }
    }
}
