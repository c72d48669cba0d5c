//! Deterministic allocation gate for the BLIF parser: bytes allocated
//! while parsing a 25k-gate industrial design, as a multiple of the
//! text's size. Byte counts do not depend on the host's speed, so
//! this gates what wall time cannot.
//!
//! The counting allocator counts what `perfbench` counts: the size of
//! every allocation plus the growth of every reallocation, frees not
//! subtracted. Only the thread that enabled counting is counted, and
//! the binary holds this one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use scanpath::netlist::{parse_blif, write_blif};
use scanpath::workloads::industrial::{generate_industrial, IndustrialSpec};

/// Bytes a parse may allocate per byte of BLIF. The finished `Netlist`
/// alone takes about 4.5×; the builder's name arena and spans bring
/// the parse to 9.9×.
const MAX_BYTES_PER_TEXT_BYTE: f64 = 12.0;

struct Counting;

thread_local! {
    /// Bytes counted on this thread, or `None` while counting is off.
    static COUNTED: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count(bytes: usize) {
    // `try_with`: allocations made while a thread tears down its
    // locals are simply not counted.
    let _ = COUNTED.try_with(|c| {
        if let Some(total) = c.get() {
            c.set(Some(total + bytes as u64));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only a
// const-initialised thread-local `Cell` and never allocates.
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

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes `f` allocates on the calling thread.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNTED.with(|c| c.set(Some(0)));
    let out = f();
    let bytes = COUNTED.with(|c| c.replace(None)).expect("counting was on");
    (out, bytes)
}

#[test]
fn parsing_a_25k_gate_design_allocates_at_most_12x_its_text() {
    let n = generate_industrial(&IndustrialSpec::sized("ind25k", 25_000, 0xDAC96));
    let text = write_blif(&n);
    let (parsed, bytes) = allocated_by(|| parse_blif(&text));
    // Dropped outside the counted region; the gate measures the parse.
    let parsed = parsed.expect("generated BLIF parses");
    assert!(parsed.gate_count() >= 25_000);
    let ratio = bytes as f64 / text.len() as f64;
    eprintln!("parse of {} text bytes allocated {bytes} bytes ({ratio:.1}x)", text.len());
    assert!(
        ratio <= MAX_BYTES_PER_TEXT_BYTE,
        "parse allocated {ratio:.1}x its text, over the {MAX_BYTES_PER_TEXT_BYTE}x gate"
    );
}
