//! Heap accounting for `peak_heap_mb`: the benchmark's global allocator
//! forwards every call to the system allocator and keeps live and peak
//! byte counts.
//!
//! The process's resident-set high-water mark is not used: the system
//! allocator's own policy makes it differ by a fifth between runs of
//! equal work. The heap high-water mark counts exactly what the program
//! allocated, so it repeats for a seed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The counting allocator installed as the benchmark's global allocator.
pub struct Counting;

// The counters are statistics that publish no other data, so `Relaxed`
// suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every method passes its arguments unchanged to `System`, so the
// memory it returns meets `GlobalAlloc`'s contract exactly as `System`'s
// does; the bookkeeping touches only the two atomic counters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`, and that `new_size` is valid for its alignment.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

/// Highest number of heap bytes live at once since the last
/// [`reset_peak`] (or since the process started).
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}

/// Restart the high-water mark from the bytes live now, and return
/// them: [`peak_bytes`] minus this baseline is what was allocated on top
/// of the data already held.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_large_allocation_raises_the_peak() {
        let v = std::hint::black_box(vec![1u8; 8 << 20]);
        assert!(peak_bytes() >= v.len());
    }
}
