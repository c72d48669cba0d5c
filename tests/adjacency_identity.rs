//! Adjacency-order identity gate: every gate's fanin list and fanout
//! list, in order, after netlist edits.
//!
//! The flow digests hash the transformed netlist as BLIF, which lists
//! fanins only, and the lists that lose entries in the flows mostly end
//! empty. This gate pins the order in which the editing vocabulary
//! leaves *surviving* entries on wide nets:
//!
//! - seeded edit sequences over small netlists whose inputs and
//!   flip-flops drive wide nets: `connect`, `splice_on_net` around pins
//!   of the new gate's own, both test points, both scan muxes,
//!   `set_scan_sources`, `replace_fanin` and `replace_fanins`; the
//!   adjacency is hashed after every edit;
//! - the full-scan flow's output on a 25k-gate industrial design, and on
//!   the 100k-gate preset (`#[ignore]`d; run it in release mode):
//!
//! ```text
//! cargo test --release --test adjacency_identity -- --include-ignored
//! ```

use rand::prelude::*;
use scanpath::netlist::{GateId, GateKind, Netlist};
use scanpath::tpi::FullScanFlow;
use scanpath::workloads::industrial::{gen100k, generate_industrial, IndustrialSpec};

/// FNV-1a, 64 bits.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Folds every gate's kind, fanin list and fanout list, in order, into
/// `h`.
fn hash_adjacency(h: &mut Fnv, n: &Netlist) {
    h.u32(n.gate_count() as u32);
    for g in n.gate_ids() {
        h.bytes(n.kind(g).label().as_bytes());
        h.u32(n.fanin(g).len() as u32);
        for &f in n.fanin(g) {
            h.u32(f.index() as u32);
        }
        h.u32(n.fanout(g).len() as u32);
        for &(sink, pin) in n.fanout(g) {
            h.u32(sink.index() as u32);
            h.u32(pin);
        }
    }
}

fn adjacency_digest(n: &Netlist) -> u64 {
    let mut h = Fnv::new();
    hash_adjacency(&mut h, n);
    h.0
}

/// A net that still has this many entries after losing one counts as
/// wide.
const WIDE: usize = 4;

/// Seeded edit sequences.
const SEEDS: u64 = 24;
/// Edits per sequence.
const EDITS: usize = 120;

/// A small netlist whose inputs and flip-flops drive wide nets. Every
/// fanin comes from a source or an earlier gate, so it is acyclic.
fn base(rng: &mut StdRng) -> Netlist {
    let mut n = Netlist::new("edits");
    let mut sources: Vec<GateId> = (0..6).map(|i| n.add_input(format!("a{i}"))).collect();
    let ffs: Vec<GateId> = (0..8).map(|i| n.add_gate(GateKind::Dff, format!("f{i}"))).collect();
    sources.extend(&ffs);
    let kinds = [
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Inv,
        GateKind::Buf,
        GateKind::Mux,
    ];
    let mut comb = Vec::new();
    for i in 0..150 {
        let kind = kinds[rng.gen_range(0..kinds.len())];
        let g = n.add_gate(kind, format!("g{i}"));
        let arity = kind.fixed_arity().unwrap_or_else(|| rng.gen_range(2..5));
        for _ in 0..arity {
            // Skewed towards the first few sources, so some nets are
            // tens of entries wide; a quarter of the pins read an
            // earlier gate.
            let src = if !comb.is_empty() && rng.gen_range(0..4) == 0 {
                comb[rng.gen_range(0..comb.len())]
            } else {
                let s = rng.gen_range(0..sources.len());
                sources[rng.gen_range(0..=s)]
            };
            n.connect(src, g).unwrap();
        }
        comb.push(g);
    }
    for &ff in &ffs {
        n.connect(comb[rng.gen_range(0..comb.len())], ff).unwrap();
    }
    for i in 0..10 {
        n.add_output(format!("o{i}"), comb[rng.gen_range(0..comb.len())]).unwrap();
    }
    n.validate().unwrap();
    n
}

/// The inputs and flip-flops: the only gates an edit wires in as a new
/// source, so no edit closes a combinational cycle.
fn sources(n: &Netlist) -> Vec<GateId> {
    n.gate_ids().filter(|&g| matches!(n.kind(g), GateKind::Input | GateKind::Dff)).collect()
}

/// Every pin of the netlist, as `(sink, pin)`.
fn pins(n: &Netlist) -> Vec<(GateId, u32)> {
    n.gate_ids().flat_map(|g| (0..n.fanin(g).len() as u32).map(move |p| (g, p))).collect()
}

/// One seeded edit on `n`. Returns how many entries it took off a net
/// that stayed wide.
fn edit(n: &mut Netlist, rng: &mut StdRng, muxes: &mut Vec<GateId>) -> usize {
    let srcs = sources(n);
    let src = |rng: &mut StdRng| srcs[rng.gen_range(0..srcs.len())];
    // Not `T` or `T'`: an OR test point on `T` would feed `T'` from
    // itself.
    let test = [n.test_input(), n.test_input_bar()];
    let targets: Vec<GateId> = n
        .gate_ids()
        .filter(|&g| n.kind(g) != GateKind::Output && !test.contains(&Some(g)))
        .collect();
    let target = targets[rng.gen_range(0..targets.len())];
    let pins = pins(n);
    // The old source of every pin the edit moves, to count survivors.
    let mut moved: Vec<GateId> = Vec::new();
    match rng.gen_range(0..9) {
        0 => {
            let variadic: Vec<GateId> = n
                .gate_ids()
                .filter(|&g| n.kind(g).is_combinational() && n.kind(g).fixed_arity().is_none())
                .collect();
            let sink = variadic[rng.gen_range(0..variadic.len())];
            n.connect(src(rng), sink).unwrap();
        }
        1 => {
            // The new gate takes the target on pins of its own before
            // the splice; those entries stay on the target's list.
            let new = n.add_gate(GateKind::And, "splice");
            n.connect(target, new).unwrap();
            n.connect(src(rng), new).unwrap();
            if rng.gen_range(0..2) == 0 {
                n.connect(target, new).unwrap();
            }
            n.splice_on_net(target, new).unwrap();
            n.connect(src(rng), new).unwrap();
        }
        2 => {
            n.insert_and_test_point(target).unwrap();
        }
        3 => {
            n.insert_or_test_point(target).unwrap();
        }
        4 => {
            muxes.push(n.insert_scan_mux(target, src(rng)).unwrap());
        }
        5 => {
            let (sink, pin) = pins[rng.gen_range(0..pins.len())];
            moved.push(n.fanin(sink)[pin as usize]);
            muxes.push(n.insert_scan_mux_at_pin(sink, pin, src(rng)).unwrap());
        }
        6 if !muxes.is_empty() => {
            let pairs: Vec<(GateId, GateId)> = (0..rng.gen_range(1..8))
                .map(|_| (muxes[rng.gen_range(0..muxes.len())], src(rng)))
                .collect();
            moved.extend(pairs.iter().map(|&(mux, _)| n.fanin(mux)[1]));
            n.set_scan_sources(&pairs).unwrap();
        }
        7 => {
            let (sink, pin) = pins[rng.gen_range(0..pins.len())];
            moved.push(n.fanin(sink)[pin as usize]);
            n.replace_fanin(sink, pin, src(rng)).unwrap();
        }
        _ => {
            let edits: Vec<(GateId, u32, GateId)> = (0..rng.gen_range(1..12))
                .map(|_| {
                    let (sink, pin) = pins[rng.gen_range(0..pins.len())];
                    (sink, pin, src(rng))
                })
                .collect();
            moved.extend(edits.iter().map(|&(sink, pin, _)| n.fanin(sink)[pin as usize]));
            n.replace_fanins(&edits).unwrap();
        }
    }
    moved.iter().filter(|&&old| n.fanout(old).len() >= WIDE).count()
}

/// Pinned digest of the adjacency after every edit of every sequence.
const PINNED_EDITS: u64 = 0x3d41_1e18_bbac_c931;

/// Pinned adjacency digest of each full-scan output.
const PINNED_FLOWS: &[(&str, u64)] =
    &[("ind25k", 0xcf15_aa13_3a76_18aa), ("ind100k", 0x4966_f1b1_505f_8d73)];

#[test]
fn seeded_edit_sequences_keep_their_list_order() {
    let mut h = Fnv::new();
    let mut survivors = 0;
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut n = base(&mut rng);
        let mut muxes = Vec::new();
        for _ in 0..EDITS {
            survivors += edit(&mut n, &mut rng, &mut muxes);
            hash_adjacency(&mut h, &n);
        }
        n.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
    assert!(survivors >= 1_000, "only {survivors} edits left survivors on a wide net");
    assert_eq!(h.0, PINNED_EDITS, "edit digest {:#018x}", h.0);
}

fn assert_flow_adjacency(n: &Netlist) {
    let got = adjacency_digest(&FullScanFlow::default().run(n).netlist);
    let pinned = PINNED_FLOWS.iter().find(|(c, _)| *c == n.name()).map(|p| p.1);
    assert_eq!(Some(got), pinned, "{}: adjacency digest {got:#018x}", n.name());
}

#[test]
fn ind25k_full_scan_output() {
    assert_flow_adjacency(&generate_industrial(&IndustrialSpec::sized("ind25k", 25_000, 7)));
}

#[test]
#[ignore = "large circuit; run in release mode"]
fn ind100k_full_scan_output() {
    assert_flow_adjacency(&generate_industrial(&gen100k()));
}
