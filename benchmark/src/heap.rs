//! Peak heap growth over a fixed amount of work.
//!
//! The benchmark binary's global allocator is the system allocator plus
//! three counters that only move inside a [`peak_growth_mib`] window. Live
//! bytes are counted from the window's start, so the peak is how far the
//! work grew the heap beyond what set-up left behind. A reallocation
//! counts its new buffer before releasing the old one, as a moving
//! reallocation holds both.
//!
//! Resident-set size was the first choice, but on a glibc host it is not a
//! property of the input: whether a growing buffer's reallocation copies
//! depends on the allocator's dynamic mmap threshold, which depends on
//! what the process freed before, so the RSS high-water mark of one
//! `corpus_scan` scan landed on 18, 26 or 35 MiB for the same corpus. The
//! live-heap peak does not depend on allocator history.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering::Relaxed};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

// Statistics only: they publish no other data, so `Relaxed` suffices.
static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

struct Counting;

fn grow(bytes: usize) {
    let now = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(now, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the counters never touch
// the memory, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && COUNTING.load(Relaxed) {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && COUNTING.load(Relaxed) {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        if COUNTING.load(Relaxed) {
            shrink(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && COUNTING.load(Relaxed) {
            grow(new_size);
            shrink(layout.size());
        }
        p
    }
}

/// Run `work` and return its result with the peak growth of live heap
/// bytes during it, in MiB. Windows must not overlap.
pub fn peak_growth_mib<T>(work: impl FnOnce() -> T) -> (T, f64) {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let out = work();
    COUNTING.store(false, Relaxed);
    (out, PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_covers_the_largest_live_set_not_the_final_one() {
        let (len, peak) = peak_growth_mib(|| {
            let big = std::hint::black_box(vec![1u8; 8 << 20]);
            drop(big);
            let small = std::hint::black_box(vec![1u8; 1 << 20]);
            small.len()
        });
        assert_eq!(len, 1 << 20);
        // Other tests' threads may allocate inside the window too.
        assert!((8.0..64.0).contains(&peak), "peak {peak} MiB");
    }
}
