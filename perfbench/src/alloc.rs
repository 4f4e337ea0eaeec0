//! A counting global allocator: live heap bytes and their high-water mark.
//!
//! Every allocation of the benchmark process goes through [`Counting`], so
//! `peak_heap_mb` covers the program's own buffers as well as the
//! benchmark's inputs.
//!
//! Updating one shared counter on every allocation bounced its cache line
//! between the cores and slowed the `match_only` job by half on a 2-core
//! host. Each thread therefore keeps a private running delta and adds it to
//! the shared counter once it reaches [`FLUSH`] bytes either way. The shared
//! count is off by less than `FLUSH` per live thread, plus less than
//! `FLUSH` per exited thread that never flushed its remainder — a few MB
//! over a whole run, small beside the peaks measured. The counters publish
//! no other data, hence `Relaxed` ordering.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

const FLUSH: isize = 4 << 10;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it never
    // allocates (it is read from inside the allocator).
    static DELTA: Cell<isize> = const { Cell::new(0) };
}

fn note(bytes: isize) {
    DELTA.with(|d| {
        let v = d.get() + bytes;
        if v.abs() < FLUSH {
            d.set(v);
            return;
        }
        d.set(0);
        let now = LIVE.fetch_add(v, Relaxed) + v;
        if v > 0 {
            PEAK.fetch_max(now, Relaxed);
        }
    });
}

fn size(bytes: usize) -> isize {
    isize::try_from(bytes).unwrap_or(isize::MAX)
}

/// [`System`] plus live/peak byte counters.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters only
// observe sizes and never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(size(layout.size()));
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(size(layout.size()));
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence by `System`)
        // with `layout`, as `GlobalAlloc::dealloc` requires of the caller.
        unsafe { System.dealloc(ptr, layout) };
        note(-size(layout.size()));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(size(new_size) - size(layout.size()));
        }
        p
    }
}

/// Restart the high-water mark at the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Highest live heap, in bytes, since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    usize::try_from(PEAK.load(Relaxed)).unwrap_or(0)
}
