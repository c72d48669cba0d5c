//! Property-based tests over randomly generated circuits, covering the
//! invariants listed in DESIGN.md §7.

use proptest::prelude::*;
use scanpath::netlist::{GateKind, Netlist, TechLibrary};
use scanpath::scan::SGraph;
use scanpath::sim::{Implication, Trit};
use scanpath::sta::{ClockConstraint, Sta};
use scanpath::tpi::tpgreed::{verify_outcome, GainUpdate, TpGreed, TpGreedConfig};
use scanpath::tpi::{enumerate_paths, Region};
use scanpath::workloads::{generate, CircuitSpec, StructureClass};

/// Strategy: a small random circuit spec.
fn spec_strategy() -> impl Strategy<Value = CircuitSpec> {
    (2usize..10, 1usize..6, 6usize..40, 0usize..150, 0u64..1_000_000, 0usize..3).prop_map(
        |(inputs, outputs, ffs, gates, seed, class)| {
            let structure = match class {
                0 => StructureClass::datapath(4, 2, 1),
                1 => StructureClass::mixed(0.5, 3, 3, 1),
                _ => StructureClass::mixed(0.3, 4, 2, 0).with_hard_rings(1, 3),
            };
            CircuitSpec {
                name: format!("prop{seed}"),
                inputs,
                outputs,
                ffs,
                target_gates: gates,
                structure,
                seed,
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated netlists always validate (arities, mirrors, acyclicity).
    #[test]
    fn generated_netlists_validate(spec in spec_strategy()) {
        let n = generate(&spec);
        n.validate().unwrap();
        prop_assert_eq!(n.dffs().len(), spec.ffs);
    }

    /// Implication is idempotent and survives preview round trips.
    #[test]
    fn implication_preview_roundtrip(spec in spec_strategy(), pick in 0usize..64) {
        let n = generate(&spec);
        let mut imp = Implication::new(&n);
        let nets: Vec<_> = n.gate_ids().collect();
        let target = nets[pick % nets.len()];
        if matches!(n.kind(target), GateKind::Output) {
            return Ok(());
        }
        let before: Vec<Trit> = nets.iter().map(|&g| imp.value(g)).collect();
        let p = imp.preview_force(target, Trit::One);
        imp.undo_preview(p);
        let after: Vec<Trit> = nets.iter().map(|&g| imp.value(g)).collect();
        prop_assert_eq!(before, after, "preview/undo must be exact");
        // Idempotence of a real force.
        imp.force(target, Trit::One);
        let v1: Vec<Trit> = nets.iter().map(|&g| imp.value(g)).collect();
        let delta = imp.force(target, Trit::One);
        prop_assert!(delta.is_empty());
        let v2: Vec<Trit> = nets.iter().map(|&g| imp.value(g)).collect();
        prop_assert_eq!(v1, v2);
    }

    /// Incremental STA equals a full recomputation after a random
    /// test-point insertion.
    #[test]
    fn incremental_sta_matches_full(spec in spec_strategy(), pick in 0usize..64) {
        let mut n = generate(&spec);
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
            prop_assert!((sta.arrival(g) - full.arrival(g)).abs() < 1e-9,
                "arrival differs at {}", n.gate_name(g));
            let (a, b) = (sta.required(g), full.required(g));
            prop_assert!((a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()),
                "required differs at {}", n.gate_name(g));
        }
    }

    /// TPGREED outcomes verify from scratch, and both gain-update modes
    /// select identically.
    #[test]
    fn tpgreed_outcome_verifies(spec in spec_strategy()) {
        let n = generate(&spec);
        let cfg = TpGreedConfig::default();
        let (outcome, paths) = TpGreed::new(&n, cfg.clone()).run_with_paths();
        verify_outcome(&n, &paths, &outcome).unwrap();
        let full = TpGreed::new(
            &n,
            TpGreedConfig { gain_update: GainUpdate::Full, ..cfg },
        )
        .run();
        prop_assert_eq!(&full.test_points, &outcome.test_points);
        prop_assert_eq!(&full.scan_paths, &outcome.scan_paths);
    }

    /// The `threads` knob never changes TPGREED's selections: the
    /// parallel sweep (4 workers) produces the exact `test_points` and
    /// `scan_paths` sequences of the sequential run, for both gain-update
    /// strategies.
    #[test]
    fn tpgreed_parallel_matches_sequential(spec in spec_strategy()) {
        let n = generate(&spec);
        for update in [GainUpdate::Full, GainUpdate::Incremental] {
            let cfg = TpGreedConfig { gain_update: update, ..TpGreedConfig::default() };
            let seq = TpGreed::new(&n, cfg.clone()).run();
            let par = TpGreed::new(&n, cfg).with_threads(4).run();
            prop_assert_eq!(&par.test_points, &seq.test_points, "{:?}", update);
            prop_assert_eq!(&par.scan_paths, &seq.scan_paths, "{:?}", update);
            prop_assert_eq!(par.iterations, seq.iterations, "{:?}", update);
        }
    }

    /// Scan-path endpoints form vertex-disjoint simple paths (in/out
    /// degree at most one, acyclic) — the chain-structure invariant.
    #[test]
    fn scan_paths_form_disjoint_chains(spec in spec_strategy()) {
        let n = generate(&spec);
        let (outcome, paths) = TpGreed::new(&n, TpGreedConfig::default()).run_with_paths();
        let mut out_deg = std::collections::HashMap::new();
        let mut in_deg = std::collections::HashMap::new();
        for (f, t) in outcome.scan_path_endpoints(&paths) {
            *out_deg.entry(f).or_insert(0u32) += 1;
            *in_deg.entry(t).or_insert(0u32) += 1;
        }
        prop_assert!(out_deg.values().all(|&d| d <= 1));
        prop_assert!(in_deg.values().all(|&d| d <= 1));
    }

    /// Every enumerated path's side-input count respects K_bound, and
    /// side inputs never sit on the path itself.
    #[test]
    fn path_enumeration_respects_kbound(spec in spec_strategy(), k in 0usize..6) {
        let n = generate(&spec);
        let ps = enumerate_paths(&n, k, usize::MAX);
        for id in ps.ids() {
            let p = ps.path(id);
            prop_assert!(p.side_input_count() <= k);
            for c in p.side_inputs {
                prop_assert!(!p.gates.contains(&c.source));
                prop_assert!(p.gates.contains(&c.sink));
            }
        }
    }

    /// Regions are trees and contain the target (Lemma 1).
    #[test]
    fn regions_are_trees(spec in spec_strategy(), pick in 0usize..64) {
        let n = generate(&spec);
        let combs = n.comb_gates();
        let target = combs[pick % combs.len()];
        let region = Region::build(&n, target);
        prop_assert_eq!(region.path_count(target), 1);
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![target];
        while let Some(g) = stack.pop() {
            prop_assert!(seen.insert(g), "tree property violated");
            if n.kind(g).is_source() {
                continue; // the cone (and the Eq. 2-4 recursion) stop here
            }
            for &f in n.fanin(g) {
                if region.single_path(f) {
                    stack.push(f);
                }
            }
        }
    }

    /// The classic cycle breaker always produces a feedback vertex set.
    #[test]
    fn cycle_breaking_yields_fvs(spec in spec_strategy()) {
        let n = generate(&spec);
        let g = SGraph::build(&n).expect("generated circuits are combinationally acyclic");
        let r = scanpath::scan::break_cycles(&g, &scanpath::scan::CycleBreakOptions::classic());
        prop_assert!(r.complete());
        prop_assert!(!g.has_cycle(&r.selected));
    }

    /// Generated circuits carry no Error-severity structural lints
    /// before any flow runs (warnings are expected: the generators
    /// leave dead cones on purpose).
    #[test]
    fn generated_netlists_are_lint_clean(spec in spec_strategy()) {
        use scanpath::lint::{has_errors, lint_netlist, LintConfig};
        let n = generate(&spec);
        let diags = lint_netlist(&n, &LintConfig::default());
        prop_assert!(!has_errors(&diags), "{}: {:?}", spec.name, diags);
    }
}

/// Non-proptest sanity: a netlist round-trips through `.bench` text.
#[test]
fn bench_roundtrip_on_generated_circuit() {
    let spec = CircuitSpec {
        name: "rt".into(),
        inputs: 5,
        outputs: 3,
        ffs: 12,
        target_gates: 60,
        structure: StructureClass::mixed(0.5, 3, 2, 1),
        seed: 99,
    };
    let n = generate(&spec);
    let text = scanpath::netlist::write_bench(&n);
    let back = scanpath::netlist::parse_bench("rt", &text).unwrap();
    assert_eq!(n.dffs().len(), back.dffs().len());
    assert_eq!(n.comb_gates().len(), back.comb_gates().len());
    let _ = Netlist::new("unused");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The ultimate DFT contract: both flows' transformed netlists are
    /// mission-mode equivalent to the original (random lock-step check).
    #[test]
    fn flows_preserve_mission_behavior(spec in spec_strategy(), seed in 0u64..1000) {
        use scanpath::sim::mission_equivalent;
        use scanpath::tpi::flow::{FullScanFlow, PartialScanFlow, PartialScanMethod};
        let n = generate(&spec);
        let full = FullScanFlow::default().run(&n);
        prop_assert!(full.flush.passed());
        prop_assert_eq!(mission_equivalent(&n, &full.netlist, 24, seed), None);
        let tp = PartialScanFlow::new(PartialScanMethod::TpTime).run(&n);
        prop_assert_eq!(mission_equivalent(&n, &tp.netlist, 24, seed), None);
    }
}
