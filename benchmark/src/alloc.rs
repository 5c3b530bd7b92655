//! The traced binary's global allocator: `testkit-alloc` counts the
//! calls; this wrapper adds the live-byte gauge `testkit-alloc` lacks
//! (it never sees the size of a freed block), which is what "bytes the
//! engine still holds after a flood" needs.

use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicI64, Ordering};

use testkit_alloc::CountingAllocator;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

/// Counting allocator plus a live-bytes gauge. Installed only by
/// `puzzle-bench-traced`; the untraced binary runs on the system
/// allocator so end-to-end numbers carry no counting cost.
pub struct LedgerAllocator;

// SAFETY: every call is forwarded unchanged to `CountingAllocator`
// (itself a pass-through to `System`); the only addition is a relaxed
// counter update, which allocates nothing and publishes no other data.
unsafe impl GlobalAlloc for LedgerAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { CountingAllocator.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { CountingAllocator.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { CountingAllocator.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { CountingAllocator.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls so far (0 forever in the untraced binary).
pub fn allocations() -> u64 {
    testkit_alloc::allocation_count()
}

/// Heap bytes currently allocated and not yet freed.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}
