//! Deterministic allocation gates on a 25k-gate industrial design: the
//! BLIF parse in bytes (as a multiple of the text's size) and in
//! allocations per gate, and path enumeration in bytes per gate. Byte
//! and allocation counts do not depend on the host's speed, so these
//! gate what wall time cannot.
//!
//! The counting allocator counts what `perfbench` counts: the size of
//! every allocation plus the growth of every reallocation, frees not
//! subtracted. It also counts allocations, reallocations not included.
//! Only the thread that enabled counting is counted, so the tests of
//! this binary do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

use scanpath::netlist::{parse_blif, write_blif, Netlist};
use scanpath::tpi::paths::enumerate_paths;
use scanpath::tpi::{PartialScanFlow, PartialScanMethod};
use scanpath::workloads::industrial::{generate_industrial, IndustrialSpec};
use scanpath::workloads::{generate, suite};

/// Bytes a parse may allocate per byte of BLIF. The builder's interned
/// names, their index and the gates' fanin symbols plus the finished
/// `Netlist` measure 6.5× (7.9× when the builder copied every name
/// occurrence and kept a 16-byte span per fanin); the bound keeps that
/// measurement's 27 % margin.
const MAX_BYTES_PER_TEXT_BYTE: f64 = 8.2;

/// Allocations a parse may make per parsed gate. It measures 2.0: the
/// fanin and fanout lists of each gate, the builder's symbols and the
/// netlist's names taking a handful of allocations in all.
const MAX_ALLOCS_PER_GATE: f64 = 2.5;

/// Bytes path enumeration may allocate per gate. The design's ~4,000
/// flip-flops each start a DFS, and their frame stacks measure 91.5
/// bytes per gate; an on-path marker per flip-flop, rather than one per
/// worker, would add a byte per gate for every flip-flop.
const MAX_ENUMERATION_BYTES_PER_GATE: f64 = 256.0;

/// Bytes a TPTIME run on `dsip` may allocate per gate. It measures 1,178
/// with cone-local regions (one gate-sized slot table per region) and
/// Eqs. 2–4 kept as a flat table of costs and choices; building each
/// region over a whole-netlist topological order and merging cloned
/// sub-solutions measured 2,841, cloning the netlist per plan and
/// re-implying it after every edit 25,068.
const MAX_TPTIME_BYTES_PER_GATE: f64 = 2_000.0;

/// Bytes a CB run on `dsip` may allocate per gate. It measures 685 (716
/// with a second baseline STA, 798 with `BTreeSet` s-graphs);
/// re-implying the whole netlist after every scan conversion measured
/// 4,881.
const MAX_CB_BYTES_PER_GATE: f64 = 2_000.0;

/// Bytes a TD-CB run on `dsip` may allocate per gate: the selection
/// loop's bytes per round, over its 56 rounds. It measures 685 with one
/// remaining s-graph edited in place, one reusable cycle-breaking work
/// graph and one baseline STA (718 with two); cloning the s-graph and
/// copying every adjacency set into `BTreeSet`s each round measured
/// 3,400.
const MAX_TDCB_BYTES_PER_GATE: f64 = 1_200.0;

/// What a counted region allocated.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    bytes: u64,
    allocs: u64,
}

struct Counting;

thread_local! {
    /// Counts on this thread, or `None` while counting is off.
    static COUNTED: Cell<Option<Counts>> = const { Cell::new(None) };
}

fn count(bytes: usize, allocs: u64) {
    // `try_with`: allocations made while a thread tears down its
    // locals are simply not counted.
    let _ = COUNTED.try_with(|c| {
        if let Some(total) = c.get() {
            c.set(Some(Counts {
                bytes: total.bytes + bytes as u64,
                allocs: total.allocs + allocs,
            }));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only a
// const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 1);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 1);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()), 0);
        // SAFETY: the caller's guarantees for `ptr`, `layout` and
        // `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What `f` allocates on the calling thread.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    COUNTED.with(|c| c.set(Some(Counts::default())));
    let out = f();
    let counts = COUNTED.with(|c| c.replace(None)).expect("counting was on");
    (out, counts)
}

/// The 25k-gate design and its BLIF text, generated once per binary.
fn design() -> &'static (Netlist, String) {
    static DESIGN: OnceLock<(Netlist, String)> = OnceLock::new();
    DESIGN.get_or_init(|| {
        let n = generate_industrial(&IndustrialSpec::sized("ind25k", 25_000, 0xDAC96));
        let text = write_blif(&n);
        (n, text)
    })
}

/// Parses the design's text under counting. The netlist is dropped
/// outside the counted region; the gates measure the parse.
fn counted_parse() -> (Netlist, Counts) {
    let (_, text) = design();
    let (parsed, counts) = allocated_by(|| parse_blif(text));
    let parsed = parsed.expect("generated BLIF parses");
    assert!(parsed.gate_count() >= 25_000);
    (parsed, counts)
}

#[test]
fn parsing_a_25k_gate_design_allocates_at_most_8_2x_its_text() {
    let text_len = design().1.len();
    let (_, counts) = counted_parse();
    let ratio = counts.bytes as f64 / text_len as f64;
    eprintln!("parse of {text_len} text bytes allocated {} bytes ({ratio:.1}x)", counts.bytes);
    assert!(
        ratio <= MAX_BYTES_PER_TEXT_BYTE,
        "parse allocated {ratio:.1}x its text, over the {MAX_BYTES_PER_TEXT_BYTE}x gate"
    );
}

#[test]
fn parsing_a_25k_gate_design_allocates_at_most_2_5_times_per_gate() {
    let (parsed, counts) = counted_parse();
    let per_gate = counts.allocs as f64 / parsed.gate_count() as f64;
    eprintln!(
        "parse of {} gates made {} allocations ({per_gate:.2} per gate)",
        parsed.gate_count(),
        counts.allocs
    );
    assert!(
        per_gate <= MAX_ALLOCS_PER_GATE,
        "parse made {per_gate:.2} allocations per gate, over the {MAX_ALLOCS_PER_GATE} gate"
    );
}

#[test]
fn enumerating_paths_allocates_linearly() {
    let (n, _) = design();
    let (paths, counts) = allocated_by(|| enumerate_paths(n, 10, usize::MAX));
    let per_gate = counts.bytes as f64 / n.gate_count() as f64;
    eprintln!(
        "enumerating {} paths over {} gates allocated {} bytes ({per_gate:.1} per gate)",
        paths.len(),
        n.gate_count(),
        counts.bytes
    );
    assert!(
        per_gate <= MAX_ENUMERATION_BYTES_PER_GATE,
        "enumeration allocated {per_gate:.1} bytes per gate, over the \
         {MAX_ENUMERATION_BYTES_PER_GATE} gate"
    );
}

/// Bytes per gate of `dsip` that a whole partial-scan run under `method`
/// allocates, verification included.
fn partial_scan_bytes_per_gate(method: PartialScanMethod) -> f64 {
    let spec = suite().into_iter().find(|s| s.name == "dsip").expect("dsip is in the suite");
    let n = generate(&spec);
    let (r, counts) = allocated_by(|| PartialScanFlow::new(method).run(&n));
    let per_gate = counts.bytes as f64 / n.gate_count() as f64;
    eprintln!(
        "{} on dsip ({} gates, {} scanned) allocated {} bytes ({per_gate:.0} per gate)",
        method.label(),
        n.gate_count(),
        r.row.selected_ffs,
        counts.bytes
    );
    per_gate
}

#[test]
fn tptime_allocates_at_most_2000_bytes_per_gate() {
    let per_gate = partial_scan_bytes_per_gate(PartialScanMethod::TpTime);
    assert!(per_gate <= MAX_TPTIME_BYTES_PER_GATE, "TPTIME allocated {per_gate:.0} bytes per gate");
}

#[test]
fn cb_allocates_at_most_2000_bytes_per_gate() {
    let per_gate = partial_scan_bytes_per_gate(PartialScanMethod::Cb);
    assert!(per_gate <= MAX_CB_BYTES_PER_GATE, "CB allocated {per_gate:.0} bytes per gate");
}

#[test]
fn tdcb_allocates_at_most_1200_bytes_per_gate() {
    let per_gate = partial_scan_bytes_per_gate(PartialScanMethod::TdCb);
    assert!(per_gate <= MAX_TDCB_BYTES_PER_GATE, "TD-CB allocated {per_gate:.0} bytes per gate");
}
