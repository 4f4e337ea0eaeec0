//! Hybrid token/character measures (Monge-Elkan).

use crate::edit::jaro_winkler_units;
use crate::scratch::{decode, with_scratch, Work};
use crate::tokenize::word_tokens_into;
use std::ops::Range;

/// Monge-Elkan similarity: for each token of `a`, take the best
/// Jaro-Winkler match among tokens of `b`, and average. Symmetrized by
/// taking the max of both directions so `monge_elkan(a, b) ==
/// monge_elkan(b, a)`. Tokens are [`crate::tokenize::word_tokens`].
pub fn monge_elkan(a: &str, b: &str) -> f64 {
    with_scratch(|s| {
        word_tokens_into(a, &mut s.text_a, &mut s.toks_a);
        word_tokens_into(b, &mut s.text_b, &mut s.toks_b);
        if s.toks_a.is_empty() || s.toks_b.is_empty() {
            return if s.toks_a.is_empty() && s.toks_b.is_empty() {
                1.0
            } else {
                0.0
            };
        }
        if s.text_a.is_ascii() && s.text_b.is_ascii() {
            let (ta, tb) = (s.text_a.as_bytes(), s.text_b.as_bytes());
            return monge_elkan_units(ta, &s.toks_a, tb, &s.toks_b, &mut s.work);
        }
        to_char_ranges(&s.text_a, &mut s.toks_a, &mut s.a);
        to_char_ranges(&s.text_b, &mut s.toks_b, &mut s.b);
        monge_elkan_units(&s.a, &s.toks_a, &s.b, &s.toks_b, &mut s.work)
    })
}

/// Decode `text` into `chars` and turn the byte ranges in `toks` into
/// `char` ranges; the tokens are contiguous, so they stay in order.
fn to_char_ranges(text: &str, toks: &mut [Range<usize>], chars: &mut Vec<char>) {
    decode(text, chars);
    let mut at = 0;
    for r in toks.iter_mut() {
        let n = text[r.clone()].chars().count();
        *r = at..at + n;
        at += n;
    }
}

fn monge_elkan_units<T: Eq>(
    a: &[T],
    ta: &[Range<usize>],
    b: &[T],
    tb: &[Range<usize>],
    w: &mut Work,
) -> f64 {
    directional(a, ta, b, tb, w).max(directional(b, tb, a, ta, w))
}

fn directional<T: Eq>(
    x: &[T],
    xs: &[Range<usize>],
    y: &[T],
    ys: &[Range<usize>],
    w: &mut Work,
) -> f64 {
    let total: f64 = xs
        .iter()
        .map(|xr| {
            ys.iter()
                .map(|yr| jaro_winkler_units(&x[xr.clone()], &y[yr.clone()], w))
                .fold(0.0f64, f64::max)
        })
        .sum();
    total / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_is_one() {
        assert_eq!(monge_elkan("john smith", "john smith"), 1.0);
        assert_eq!(monge_elkan("", ""), 1.0);
    }

    #[test]
    fn empty_vs_nonempty_is_zero() {
        assert_eq!(monge_elkan("", "abc"), 0.0);
    }

    #[test]
    fn tolerates_token_reordering() {
        let s = monge_elkan("smith john", "john smith");
        assert!(s > 0.99, "{s}");
    }

    #[test]
    fn tolerates_typos() {
        let s = monge_elkan("jon smith", "john smyth");
        assert!(s > 0.8, "{s}");
        let d = monge_elkan("alpha beta", "gamma delta");
        assert!(s > d);
    }

    #[test]
    fn symmetric() {
        let a = "peter christen";
        let b = "christen p";
        assert!((monge_elkan(a, b) - monge_elkan(b, a)).abs() < 1e-12);
    }
}
