//! Per-thread scratch buffers for the character-level kernels.
//!
//! The alignment, edit-distance, Jaro and Monge-Elkan kernels run once per
//! feature per pair, so the match stage calls them millions of times. Each
//! call borrows this thread's buffers instead of allocating. Two ASCII
//! strings are compared as bytes; anything else is decoded once into the
//! reused `char` buffers. The kernels are generic over the unit type, so
//! the byte and `char` paths run the same code.

use std::cell::RefCell;
use std::ops::Range;

/// DP rows and match flags the kernels write into.
#[derive(Default)]
pub(crate) struct Work {
    /// Score row of the integer DPs.
    pub(crate) h: Vec<i32>,
    /// Per-row candidates computed from the previous row alone.
    pub(crate) t: Vec<i32>,
    /// Vertical-gap row of Smith-Waterman-Gotoh.
    pub(crate) e: Vec<i32>,
    /// Jaro match flags over the first string, one bit per unit.
    pub(crate) used_a: Vec<u64>,
    /// Jaro match flags over the second string, one bit per unit.
    pub(crate) used_b: Vec<u64>,
}

/// Everything one thread reuses across kernel calls.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Decoded first string (or token text) on the `char` path.
    pub(crate) a: Vec<char>,
    /// Decoded second string (or token text) on the `char` path.
    pub(crate) b: Vec<char>,
    /// Lowercased token text of the first string (Monge-Elkan).
    pub(crate) text_a: String,
    /// Lowercased token text of the second string (Monge-Elkan).
    pub(crate) text_b: String,
    /// Token ranges into `text_a`, later into `a`.
    pub(crate) toks_a: Vec<Range<usize>>,
    /// Token ranges into `text_b`, later into `b`.
    pub(crate) toks_b: Vec<Range<usize>>,
    /// Kernel work buffers.
    pub(crate) work: Work,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Run `f` with this thread's scratch. Not re-entrant: a kernel that needs
/// another kernel calls its generic core, not its public entry point.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Run a two-string kernel on the cheapest unit: `bytes` when both strings
/// are ASCII (one byte is one `char`), otherwise `chars` on the decoded
/// strings. Callers pass the same generic kernel twice.
pub(crate) fn by_units<R>(
    a: &str,
    b: &str,
    bytes: impl FnOnce(&[u8], &[u8], &mut Work) -> R,
    chars: impl FnOnce(&[char], &[char], &mut Work) -> R,
) -> R {
    with_scratch(|s| {
        if a.is_ascii() && b.is_ascii() {
            bytes(a.as_bytes(), b.as_bytes(), &mut s.work)
        } else {
            decode(a, &mut s.a);
            decode(b, &mut s.b);
            chars(&s.a, &s.b, &mut s.work)
        }
    })
}

/// Decode `s` into `out`, replacing its contents.
pub(crate) fn decode(s: &str, out: &mut Vec<char>) {
    out.clear();
    out.extend(s.chars());
}

/// Reset `row` to `n` copies of `v`, keeping its allocation.
pub(crate) fn reset<T: Copy>(row: &mut Vec<T>, n: usize, v: T) {
    row.clear();
    row.resize(n, v);
}
