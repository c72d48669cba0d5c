//! Deterministic allocation gates on a 25k-gate industrial design: the
//! BLIF parse in bytes (as a multiple of the text's size) and in
//! allocations per gate, a netlist clone in allocations, and path
//! enumeration in bytes per gate; on the
//! suite circuits, path enumeration in allocations per flip-flop and the
//! partial-scan flows in bytes per gate. Byte and allocation counts do
//! not depend on the host's speed, so these gate what wall time cannot.
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
/// `Netlist`, whose fanin and fanout lists sit in two arenas, measure
/// 5.23× (6.2× with a fanin and a fanout `Vec` per gate, 6.5× when the
/// build re-checked the fanout mirror it had just built, 7.9× when the
/// builder copied every name occurrence and kept a 16-byte span per
/// fanin); the bound keeps a 26 % margin.
const MAX_BYTES_PER_TEXT_BYTE: f64 = 6.6;

/// Allocations a parse may make per parsed gate. It measures 0.0092
/// (233 allocations for 25,271 gates): the builder's symbols, the
/// netlist's names and the two adjacency arenas take a handful of
/// buffers each, and the rest is the parser's own scratch. A fanin and
/// a fanout `Vec` per gate measured 2.00. The bound keeps a 27 % margin.
const MAX_ALLOCS_PER_GATE: f64 = 0.0117;

/// Allocations a `Netlist::clone` may make, whatever the design's size.
/// It measures 7, one per buffer: the design name, the gate kinds, each
/// gate's name and list spans, the name arena, the name index and the
/// two adjacency arenas. A fanin and a fanout `Vec` per gate made two
/// more per gate.
const MAX_CLONE_ALLOCS: u64 = 7;

/// Bytes path enumeration may allocate per gate. The design's ~4,000
/// flip-flops each start a DFS over one reused scratch, which measures
/// 27.5 bytes per gate (91.5 with a frame stack allocated per
/// flip-flop); an on-path marker per flip-flop, rather than one per
/// worker, would add a byte per gate for every flip-flop. The bound
/// keeps a 27 % margin.
const MAX_ENUMERATION_BYTES_PER_GATE: f64 = 35.0;

/// Allocations path enumeration may make per flip-flop on `dsip` and
/// `s5378`, suite circuits with paths to record (the industrial design
/// has none). It measures 3.1 on `dsip` and 2.7 on `s5378`: a
/// flip-flop's DFS records its paths in three flat runs (ends, gates,
/// side inputs) while its frame stack and current-path buffers are
/// reused from the flip-flop before; the bound keeps a 27 % margin. Collecting each entered gate's
/// side inputs in a fresh `Vec`, with two owned `Vec`s per recorded path
/// and four hash indices, measured 207 and 303.
const MAX_ENUMERATION_ALLOCS_PER_FF: f64 = 4.0;

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
fn parsing_a_25k_gate_design_allocates_at_most_6_6x_its_text() {
    let text_len = design().1.len();
    let (_, counts) = counted_parse();
    let ratio = counts.bytes as f64 / text_len as f64;
    eprintln!("parse of {text_len} text bytes allocated {} bytes ({ratio:.2}x)", counts.bytes);
    assert!(
        ratio <= MAX_BYTES_PER_TEXT_BYTE,
        "parse allocated {ratio:.1}x its text, over the {MAX_BYTES_PER_TEXT_BYTE}x gate"
    );
}

#[test]
fn parsing_a_25k_gate_design_allocates_at_most_0_0117_times_per_gate() {
    let (parsed, counts) = counted_parse();
    let per_gate = counts.allocs as f64 / parsed.gate_count() as f64;
    eprintln!(
        "parse of {} gates made {} allocations ({per_gate:.4} per gate)",
        parsed.gate_count(),
        counts.allocs
    );
    assert!(
        per_gate <= MAX_ALLOCS_PER_GATE,
        "parse made {per_gate:.4} allocations per gate, over the {MAX_ALLOCS_PER_GATE} gate"
    );
}

#[test]
fn cloning_a_25k_gate_netlist_allocates_at_most_7_times() {
    let (parsed, _) = counted_parse();
    let (clone, counts) = allocated_by(|| parsed.clone());
    eprintln!("clone of {} gates made {} allocations", parsed.gate_count(), counts.allocs);
    assert_eq!(clone, parsed);
    assert!(
        counts.allocs <= MAX_CLONE_ALLOCS,
        "clone made {} allocations, over the {MAX_CLONE_ALLOCS} gate",
        counts.allocs
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

#[test]
fn enumerating_paths_allocates_at_most_4_times_per_flip_flop() {
    for name in ["dsip", "s5378"] {
        let spec = suite().into_iter().find(|s| s.name == name).expect("suite circuit");
        let n = generate(&spec);
        let (paths, counts) = allocated_by(|| enumerate_paths(&n, 10, usize::MAX));
        let per_ff = counts.allocs as f64 / n.dffs().len() as f64;
        eprintln!(
            "enumerating {} paths from {} flip-flops of {name} made {} allocations \
             ({per_ff:.1} per flip-flop)",
            paths.len(),
            n.dffs().len(),
            counts.allocs
        );
        assert!(!paths.is_empty(), "{name} has paths to record");
        assert!(
            per_ff <= MAX_ENUMERATION_ALLOCS_PER_FF,
            "enumeration on {name} made {per_ff:.1} allocations per flip-flop, over the \
             {MAX_ENUMERATION_ALLOCS_PER_FF} gate"
        );
    }
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
