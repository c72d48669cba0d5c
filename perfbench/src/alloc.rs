//! A counting global allocator, off unless the traced mode turns it on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts bytes obtained from [`System`] while enabled: the size of
/// every allocation plus the growth of every reallocation. Frees are
/// not subtracted — the figure is bytes allocated, not bytes live.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);

// Both statics are statistics that publish no other data, so relaxed
// ordering suffices; the traced replay that reads them is single-threaded.
fn count(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: the caller's guarantees for `ptr`, `layout` and
        // `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Starts or stops counting.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Bytes counted so far.
pub fn allocated() -> u64 {
    BYTES.load(Ordering::Relaxed)
}
