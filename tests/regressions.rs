//! Explicit replays of the shrunk failure cases recorded in
//! `tests/properties.proptest-regressions`.
//!
//! The recorded `cc` hashes seed upstream proptest's generation
//! pipeline and cannot be decoded independently, but the file's
//! comments contain the fully shrunk inputs; each test below re-runs
//! the property bodies from `tests/properties.rs` against one of them.
//! A spec with extra recorded arguments (`pick`, `k`) replays the
//! properties taking that argument; spec-only entries replay every
//! spec-only property.
//!
//! The last test is a hand-built circuit, minimized from a generated
//! workload on which incremental TPGREED diverged from full
//! recomputation.

use scanpath::lint::{verify_flow, DftClaims, LintCode};
use scanpath::netlist::{GateKind, Netlist, NetlistBuilder, TechLibrary};
use scanpath::scan::SGraph;
use scanpath::sim::{Implication, Trit};
use scanpath::sta::{ClockConstraint, Sta};
use scanpath::tpi::tpgreed::{verify_outcome, GainUpdate, TpGreed, TpGreedConfig};
use scanpath::tpi::{enumerate_paths, Region};
use scanpath::workloads::{generate, CircuitSpec, StructureClass};

/// `mixed(0.3, 4, 2, 0).with_hard_rings(1, 3)` — strategy class 2.
fn hard_ring_class() -> StructureClass {
    StructureClass::mixed(0.3, 4, 2, 0).with_hard_rings(1, 3)
}

fn spec(
    name: &str,
    inputs: usize,
    ffs: usize,
    gates: usize,
    structure: StructureClass,
    seed: u64,
) -> CircuitSpec {
    CircuitSpec { name: name.into(), inputs, outputs: 1, ffs, target_gates: gates, structure, seed }
}

fn replay_implication_preview_roundtrip(spec: &CircuitSpec, pick: usize) {
    let n = generate(spec);
    let mut imp = Implication::new(&n);
    let nets: Vec<_> = n.gate_ids().collect();
    let target = nets[pick % nets.len()];
    if matches!(n.kind(target), GateKind::Output) {
        return;
    }
    let before: Vec<Trit> = nets.iter().map(|&g| imp.value(g)).collect();
    let p = imp.preview_force(target, Trit::One);
    imp.undo_preview(p);
    let after: Vec<Trit> = nets.iter().map(|&g| imp.value(g)).collect();
    assert_eq!(before, after, "preview/undo must be exact");
    imp.force(target, Trit::One);
    let v1: Vec<Trit> = nets.iter().map(|&g| imp.value(g)).collect();
    let delta = imp.force(target, Trit::One);
    assert!(delta.is_empty());
    let v2: Vec<Trit> = nets.iter().map(|&g| imp.value(g)).collect();
    assert_eq!(v1, v2);
}

fn replay_incremental_sta_matches_full(spec: &CircuitSpec, pick: usize) {
    let mut n = generate(spec);
    let lib = TechLibrary::paper();
    let mut sta = Sta::analyze(&n, &lib, ClockConstraint::LongestPath);
    sta.freeze_clock();
    let combs = n.comb_gates();
    let victim = combs[pick % combs.len()];
    let tp = n.insert_and_test_point(victim).unwrap();
    let mut seeds = vec![tp, victim];
    seeds.extend(n.fanin(tp).iter().copied());
    seeds.push(n.test_input().unwrap());
    sta.update_after_edit(&n, &seeds);
    let full = Sta::analyze(&n, &lib, ClockConstraint::Period(sta.clock_period()));
    for g in n.gate_ids() {
        assert!(
            (sta.arrival(g) - full.arrival(g)).abs() < 1e-9,
            "arrival differs at {}",
            n.gate_name(g)
        );
        let (a, b) = (sta.required(g), full.required(g));
        assert!(
            (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()),
            "required differs at {}",
            n.gate_name(g)
        );
    }
}

fn replay_regions_are_trees(spec: &CircuitSpec, pick: usize) {
    let n = generate(spec);
    let combs = n.comb_gates();
    if combs.is_empty() {
        return;
    }
    let target = combs[pick % combs.len()];
    let region = Region::build(&n, target);
    assert_eq!(region.path_count(target), 1);
    let mut seen = std::collections::HashSet::new();
    let mut stack = vec![target];
    while let Some(g) = stack.pop() {
        assert!(seen.insert(g), "tree property violated");
        if n.kind(g).is_source() {
            continue;
        }
        for &f in n.fanin(g) {
            if region.single_path(f) {
                stack.push(f);
            }
        }
    }
}

fn replay_path_enumeration_respects_kbound(spec: &CircuitSpec, k: usize) {
    let n = generate(spec);
    let ps = enumerate_paths(&n, k, usize::MAX);
    for id in ps.ids() {
        let p = ps.path(id);
        assert!(p.side_input_count() <= k);
        for c in p.side_inputs {
            assert!(!p.gates.contains(&c.source));
            assert!(p.gates.contains(&c.sink));
        }
    }
}

fn replay_spec_only_properties(spec: &CircuitSpec) {
    // generated_netlists_validate
    let n = generate(spec);
    n.validate().unwrap();
    assert_eq!(n.dffs().len(), spec.ffs);

    // tpgreed_outcome_verifies
    let cfg = TpGreedConfig::default();
    let (outcome, paths) = TpGreed::new(&n, cfg.clone()).run_with_paths();
    verify_outcome(&n, &paths, &outcome).unwrap();
    let full = TpGreed::new(&n, TpGreedConfig { gain_update: GainUpdate::Full, ..cfg }).run();
    assert_eq!(&full.test_points, &outcome.test_points);
    assert_eq!(&full.scan_paths, &outcome.scan_paths);

    // scan_paths_form_disjoint_chains
    let mut out_deg = std::collections::HashMap::new();
    let mut in_deg = std::collections::HashMap::new();
    for (f, t) in outcome.scan_path_endpoints(&paths) {
        *out_deg.entry(f).or_insert(0u32) += 1;
        *in_deg.entry(t).or_insert(0u32) += 1;
    }
    assert!(out_deg.values().all(|&d| d <= 1));
    assert!(in_deg.values().all(|&d| d <= 1));

    // cycle_breaking_yields_fvs
    let g = SGraph::build(&n).expect("generated circuits are combinationally acyclic");
    let r = scanpath::scan::break_cycles(&g, &scanpath::scan::CycleBreakOptions::classic());
    assert!(r.complete());
    assert!(!g.has_cycle(&r.selected));
}

/// Regression 1: ffs-only circuit (zero combinational targets) with a
/// hard ring, recorded with `pick = 30`.
#[test]
fn regression_prop202351_pick_30() {
    let s = spec("prop202351", 8, 29, 0, hard_ring_class(), 202351);
    replay_implication_preview_roundtrip(&s, 30);
    replay_regions_are_trees(&s, 30);
    if !generate(&s).comb_gates().is_empty() {
        replay_incremental_sta_matches_full(&s, 30);
    }
}

/// Regression 2: pure datapath class with free enables, spec-only.
#[test]
fn regression_prop752028() {
    let s = spec("prop752028", 9, 22, 53, StructureClass::datapath(4, 2, 1), 752028);
    replay_spec_only_properties(&s);
}

/// Regression 3: recorded with `k = 4` against path enumeration.
#[test]
fn regression_prop484454_k_4() {
    let s = spec("prop484454", 4, 20, 65, hard_ring_class(), 484454);
    replay_path_enumeration_respects_kbound(&s, 4);
}

/// Regression 4: narrow-PI hard-ring circuit, spec-only.
#[test]
fn regression_prop390521() {
    let s = spec("prop390521", 2, 28, 80, hard_ring_class(), 390521);
    replay_spec_only_properties(&s);
}

/// Incremental TPGREED once committed a stale gain. After `b = 0`, the
/// candidate `g0 = 1` is previewed while `h` is still unknown: its wave
/// turns NAND `g3` from 1 to X. Committing `h = 1` leaves `g3` at 1 but
/// makes the same preview drive `g3` to 0, and nothing re-examined the
/// candidate, because `g3` itself did not change. Incremental then
/// committed `g3 = 0` where Full commits `g0 = 1`. A commit must
/// re-dirty every candidate whose wave reached a sink of a changed net.
#[test]
fn incremental_rescores_candidates_whose_wave_reached_a_changed_fanin() {
    let mut b = NetlistBuilder::new("stale_gain");
    b.input("a");
    b.input("b");
    b.dff("f0", "d");
    b.dff("f1", "g13");
    b.input("c");
    b.dff("f2", "g8");
    b.dff("f3", "g9");
    b.dff("f4", "g11");
    b.input("e");
    b.input("h");
    b.gate(GateKind::Buf, "g0", &["b"]);
    b.gate(GateKind::Inv, "g1", &["h"]);
    b.gate(GateKind::Or, "g2", &["f1", "f3"]);
    b.gate(GateKind::Nand, "g3", &["h", "g0"]);
    b.gate(GateKind::Nand, "g4", &["g3", "c"]);
    b.gate(GateKind::And, "g5", &["g4", "f2"]);
    b.gate(GateKind::Or, "g8", &["g1", "g2"]);
    b.gate(GateKind::Nand, "g9", &["g5", "h"]);
    b.gate(GateKind::Nand, "g10", &["e", "g3"]);
    b.gate(GateKind::Nand, "g11", &["g10", "g2"]);
    b.gate(GateKind::Xor, "g6", &["a", "f4"]);
    b.input("d");
    b.gate(GateKind::And, "g7", &["b", "g6"]);
    b.gate(GateKind::Or, "g13", &["f0", "g7"]);
    let n = b.finish().unwrap();
    let run = |gain_update| {
        let cfg = TpGreedConfig { gain_update, ..TpGreedConfig::default() };
        let (outcome, paths) = TpGreed::new(&n, cfg).run_with_paths();
        verify_outcome(&n, &paths, &outcome).unwrap();
        let names: Vec<(String, Trit)> =
            outcome.test_points.iter().map(|&(g, v)| (n.gate_name(g).to_string(), v)).collect();
        (names, outcome.scan_paths)
    };
    let full = run(GainUpdate::Full);
    assert_eq!(full.0[2], ("g0".to_string(), Trit::One), "the case still exercises g0 = 1");
    assert_eq!(run(GainUpdate::Incremental), full);
}

/// A flip-flop in a region's cone is a source: Definition 1 counts
/// combinational paths only, so the path through `f`'s D pin must not
/// count toward `g`'s paths to `t`. The region used to add it whenever
/// `f` sorted before `g` in the reverse topological order, which
/// happened when `f` was declared before the inputs.
#[test]
fn region_path_counts_do_not_run_through_flip_flops() {
    for ff_first in [true, false] {
        let mut n = Netlist::new("ff_in_cone");
        let early = ff_first.then(|| n.add_gate(GateKind::Dff, "f"));
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::And, "g");
        let f = early.unwrap_or_else(|| n.add_gate(GateKind::Dff, "f"));
        let t = n.add_gate(GateKind::Or, "t");
        for (src, sink) in [(a, g), (b, g), (g, f), (f, t), (g, t)] {
            n.connect(src, sink).unwrap();
        }
        n.add_output("o", t).unwrap();
        let region = Region::build(&n, t);
        assert_eq!(region.path_count(g), 1, "flip-flop declared first: {ff_first}");
        assert!(region.single_path(g), "flip-flop declared first: {ff_first}");
    }
}

/// The s-graph is built in level order, which needs acyclic
/// combinational logic. `verify_flow` used to build it on every
/// original; on one with a combinational loop it must report the loop
/// (TPI001) and skip the s-graph check, even when the claims say the
/// s-graph is acyclic, rather than fail to build it.
#[test]
fn verify_flow_on_a_comb_cyclic_original_reports_the_cycle() {
    let mut n = Netlist::new("comb_loop");
    let f = n.add_gate(GateKind::Dff, "f");
    let a = n.add_gate(GateKind::And, "a");
    let b = n.add_gate(GateKind::Inv, "b");
    // f -> a -> b -> f is sequential feedback; a <-> b is a
    // combinational loop.
    for (src, sink) in [(f, a), (b, a), (a, b), (b, f)] {
        n.connect(src, sink).unwrap();
    }
    n.add_output("o", b).unwrap();
    let claims = DftClaims { claims_acyclic: true, ..DftClaims::default() };
    let diags = verify_flow(&n, &n, &claims);
    assert!(diags.iter().any(|d| d.code == LintCode::CombCycle), "{diags:?}");
    assert!(!diags.iter().any(|d| d.code == LintCode::SGraphCyclic), "{diags:?}");
}
