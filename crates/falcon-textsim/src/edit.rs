//! Character-level edit similarity measures: Levenshtein, Jaro and
//! Jaro-Winkler.
//!
//! Each public function runs a generic kernel over bytes when both strings
//! are ASCII and over decoded `char`s otherwise, in this thread's reused
//! buffers (see `scratch.rs`).

use crate::scratch::{by_units, reset, Work};

/// Raw Levenshtein edit distance (unit costs), O(|a|·|b|) time and O(min)
/// space.
pub fn levenshtein(a: &str, b: &str) -> usize {
    by_units(a, b, levenshtein_units, levenshtein_units)
}

fn levenshtein_units<T: Eq>(a: &[T], b: &[T], w: &mut Work) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return long.len();
    }
    // One row over the shorter string, in two passes per row as in
    // `align.rs`: substitution and deletion first, insertion second.
    let (h, t) = (&mut w.h, &mut w.t);
    h.clear();
    h.extend(0..=short.len() as i32);
    reset(t, short.len(), 0);
    for (i, lc) in long.iter().enumerate() {
        for ((tj, hj), sc) in t.iter_mut().zip(h.windows(2)).zip(short) {
            *tj = (hj[0] + i32::from(lc != sc)).min(hj[1] + 1);
        }
        let mut left = i as i32 + 1;
        h[0] = left;
        for (hj, &tj) in h[1..].iter_mut().zip(t.iter()) {
            left = tj.min(left + 1);
            *hj = left;
        }
    }
    h[short.len()] as usize
}

/// Normalized Levenshtein similarity `1 - ED / max(|a|, |b|)` in `[0, 1]`.
pub fn levenshtein_sim(a: &str, b: &str) -> f64 {
    by_units(a, b, levenshtein_sim_units, levenshtein_sim_units)
}

fn levenshtein_sim_units<T: Eq>(a: &[T], b: &[T], w: &mut Work) -> f64 {
    let max = a.len().max(b.len());
    if max == 0 {
        return 1.0;
    }
    1.0 - levenshtein_units(a, b, w) as f64 / max as f64
}

/// Jaro similarity in `[0, 1]`.
pub fn jaro(a: &str, b: &str) -> f64 {
    by_units(a, b, jaro_units, jaro_units)
}

fn jaro_units<T: Eq>(a: &[T], b: &[T], w: &mut Work) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    // Match flags as bitsets: a token-sized string resets one word.
    let (used_a, used_b) = (&mut w.used_a, &mut w.used_b);
    reset(used_a, a.len().div_ceil(64), 0);
    reset(used_b, b.len().div_ceil(64), 0);
    let mut m = 0usize;
    for (i, ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if b[j] == *ca && used_b[j / 64] & (1 << (j % 64)) == 0 {
                used_b[j / 64] |= 1 << (j % 64);
                used_a[i / 64] |= 1 << (i % 64);
                m += 1;
                break;
            }
        }
    }
    if m == 0 {
        return 0.0;
    }
    // Pair the k-th matched unit of `a` with the k-th matched unit of `b`.
    let transpositions = set_bits(used_a)
        .zip(set_bits(used_b))
        .filter(|&(i, j)| a[i] != b[j])
        .count()
        / 2;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Positions of the set bits of a bitset, in increasing order.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(k, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                k * 64 + bit
            })
        })
    })
}

/// Jaro-Winkler similarity with the standard prefix scale 0.1 and prefix cap
/// of 4 characters.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    by_units(a, b, jaro_winkler_units, jaro_winkler_units)
}

pub(crate) fn jaro_winkler_units<T: Eq>(a: &[T], b: &[T], w: &mut Work) -> f64 {
    let j = jaro_units(a, b, w);
    let prefix = a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count() as f64;
    j + prefix * 0.1 * (1.0 - j)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
    }

    #[test]
    fn levenshtein_sim_bounds() {
        assert_eq!(levenshtein_sim("", ""), 1.0);
        assert_eq!(levenshtein_sim("abc", "abc"), 1.0);
        assert_eq!(levenshtein_sim("abc", "xyz"), 0.0);
        let s = levenshtein_sim("kitten", "sitting");
        assert!((s - (1.0 - 3.0 / 7.0)).abs() < 1e-12);
    }

    #[test]
    fn jaro_known_values() {
        assert!((jaro("martha", "marhta") - 0.944444).abs() < 1e-4);
        assert!((jaro("dixon", "dicksonx") - 0.766667).abs() < 1e-4);
        assert_eq!(jaro("abc", "abc"), 1.0);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_winkler_boosts_prefix() {
        let jw = jaro_winkler("martha", "marhta");
        assert!((jw - 0.961111).abs() < 1e-4);
        assert!(jaro_winkler("prefix", "preface") > jaro("prefix", "preface"));
        assert_eq!(jaro_winkler("same", "same"), 1.0);
    }

    #[test]
    fn jaro_is_symmetric() {
        for (a, b) in [("dwayne", "duane"), ("crate", "trace"), ("a", "ab")] {
            assert!((jaro(a, b) - jaro(b, a)).abs() < 1e-12);
        }
    }
}
