//! Sequence-alignment similarity measures: Needleman-Wunsch (global),
//! Smith-Waterman (local) and Smith-Waterman-Gotoh (affine gaps).
//!
//! Figure 5 lists these as matching-stage-only measures for short strings.
//! Scores use match = +1, mismatch = -1, gap open/extend penalties as noted,
//! normalized by the length of the shorter string so results land in
//! `[0, 1]` (negative raw scores clamp to 0).
//!
//! The DPs run in exact integer units. Match +1, mismatch -1 and gap -1 are
//! already integers; Smith-Waterman-Gotoh's open -1 and extend -0.5 become
//! -2 and -1 in doubled units (match and mismatch +2/-2), and the raw score
//! is halved before normalizing. Every cell of the `f64` formulation is a
//! small integer or half-integer, exactly representable, so the integer
//! DP reaches the same raw score and the normalized result is bit-identical.
//!
//! Each DP row runs in two passes. The first takes the moves that read only
//! the previous row (diagonal and vertical); it has no loop-carried
//! dependency and vectorizes. The second folds in the horizontal move, the
//! row's only left-to-right dependency, with one `max` per cell. Integer
//! `max` is associative, so regrouping the terms cannot change a cell.

use crate::scratch::{by_units, reset, Work};

/// Gotoh's unreachable gap state (`-inf` in the `f64` formulation). Scores
/// are never below zero, so `h - 2` beats it wherever both are compared,
/// and it is at most decremented once, so it cannot overflow.
const NO_GAP: i32 = i32::MIN / 2;

/// Score of aligning two units, in units of the match score.
#[inline]
fn score<T: Eq>(a: &T, b: &T) -> i32 {
    if a == b {
        1
    } else {
        -1
    }
}

/// `raw / min(|a|, |b|)` clamped to `[0, 1]`.
fn normalize(raw: f64, la: usize, lb: usize) -> f64 {
    (raw / la.min(lb) as f64).clamp(0.0, 1.0)
}

/// `Some(score)` when one side is empty: 1 for two empty strings, else 0.
fn empty_score(la: usize, lb: usize) -> Option<f64> {
    if la == 0 || lb == 0 {
        Some(if la == 0 && lb == 0 { 1.0 } else { 0.0 })
    } else {
        None
    }
}

/// Needleman-Wunsch global alignment score, normalized to `[0, 1]`.
pub fn needleman_wunsch_sim(a: &str, b: &str) -> f64 {
    by_units(a, b, needleman_wunsch_units, needleman_wunsch_units)
}

fn needleman_wunsch_units<T: Eq>(a: &[T], b: &[T], w: &mut Work) -> f64 {
    if let Some(s) = empty_score(a.len(), b.len()) {
        return s;
    }
    let (h, t) = (&mut w.h, &mut w.t);
    h.clear();
    h.extend((0..=b.len() as i32).map(|j| -j));
    reset(t, b.len(), 0);
    for (i, ca) in a.iter().enumerate() {
        // Diagonal and vertical moves read only the previous row.
        for ((tj, hj), cb) in t.iter_mut().zip(h.windows(2)).zip(b) {
            *tj = (hj[0] + score(ca, cb)).max(hj[1] - 1);
        }
        let mut left = -(i as i32 + 1);
        h[0] = left;
        for (hj, &tj) in h[1..].iter_mut().zip(t.iter()) {
            left = tj.max(left - 1);
            *hj = left;
        }
    }
    normalize(f64::from(h[b.len()]), a.len(), b.len())
}

/// Smith-Waterman local alignment score, normalized to `[0, 1]`.
pub fn smith_waterman_sim(a: &str, b: &str) -> f64 {
    by_units(a, b, smith_waterman_units, smith_waterman_units)
}

fn smith_waterman_units<T: Eq>(a: &[T], b: &[T], w: &mut Work) -> f64 {
    if let Some(s) = empty_score(a.len(), b.len()) {
        return s;
    }
    let (h, t) = (&mut w.h, &mut w.t);
    reset(h, b.len() + 1, 0);
    reset(t, b.len(), 0);
    let mut best = 0;
    for ca in a {
        for ((tj, hj), cb) in t.iter_mut().zip(h.windows(2)).zip(b) {
            *tj = (hj[0] + score(ca, cb)).max(hj[1] - 1).max(0);
        }
        let mut left = 0;
        for (hj, &tj) in h[1..].iter_mut().zip(t.iter()) {
            left = tj.max(left - 1);
            *hj = left;
            best = best.max(left);
        }
    }
    normalize(f64::from(best), a.len(), b.len())
}

/// Smith-Waterman-Gotoh: local alignment with affine gap penalties
/// (open -1, extend -0.5), normalized to `[0, 1]`.
pub fn smith_waterman_gotoh_sim(a: &str, b: &str) -> f64 {
    by_units(a, b, smith_waterman_gotoh_units, smith_waterman_gotoh_units)
}

fn smith_waterman_gotoh_units<T: Eq>(a: &[T], b: &[T], w: &mut Work) -> f64 {
    if let Some(s) = empty_score(a.len(), b.len()) {
        return s;
    }
    // Doubled units: match/mismatch +-2, gap open -2, gap extend -1.
    // h: best score ending at (i, j); e: gap in a; f: gap in b.
    let (h, e, t) = (&mut w.h, &mut w.e, &mut w.t);
    reset(h, b.len() + 1, 0);
    reset(e, b.len(), NO_GAP);
    reset(t, b.len(), 0);
    let mut best = 0;
    for ca in a {
        for (((tj, ej), hj), cb) in t.iter_mut().zip(e.iter_mut()).zip(h.windows(2)).zip(b) {
            *ej = (hj[1] - 2).max(*ej - 1);
            *tj = (hj[0] + 2 * score(ca, cb)).max(*ej).max(0);
        }
        let mut left = 0;
        let mut f = NO_GAP;
        for (hj, &tj) in h[1..].iter_mut().zip(t.iter()) {
            f = (left - 2).max(f - 1);
            left = tj.max(f);
            *hj = left;
            best = best.max(left);
        }
    }
    normalize(f64::from(best) * 0.5, a.len(), b.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_strings_score_one() {
        for f in [
            needleman_wunsch_sim,
            smith_waterman_sim,
            smith_waterman_gotoh_sim,
        ] {
            assert_eq!(f("hello", "hello"), 1.0);
            assert_eq!(f("", ""), 1.0);
        }
    }

    #[test]
    fn disjoint_strings_score_zero() {
        for f in [
            needleman_wunsch_sim,
            smith_waterman_sim,
            smith_waterman_gotoh_sim,
        ] {
            assert_eq!(f("aaaa", "bbbb"), 0.0);
            assert_eq!(f("a", ""), 0.0);
        }
    }

    #[test]
    fn local_beats_global_on_substring() {
        // Smith-Waterman finds the local "water" block; NW pays for the
        // unmatched flanks.
        let sw = smith_waterman_sim("water", "the waterfall");
        let nw = needleman_wunsch_sim("water", "the waterfall");
        assert!(sw > nw);
        assert_eq!(sw, 1.0); // "water" fully embedded
    }

    #[test]
    fn gotoh_prefers_one_long_gap() {
        // With affine gaps, one long gap is cheaper than many scattered ones,
        // so gotoh >= plain SW on a string with a single inserted run.
        let g = smith_waterman_gotoh_sim("abcdef", "abcXXXXdef");
        let s = smith_waterman_sim("abcdef", "abcXXXXdef");
        assert!(g >= s - 1e-12);
    }

    #[test]
    fn scores_in_unit_interval() {
        for (a, b) in [("abc", "abd"), ("ab", "ba"), ("xyz", "zyxwv"), ("q", "qq")] {
            for f in [
                needleman_wunsch_sim,
                smith_waterman_sim,
                smith_waterman_gotoh_sim,
            ] {
                let v = f(a, b);
                assert!((0.0..=1.0).contains(&v), "{a} vs {b} -> {v}");
            }
        }
    }
}
