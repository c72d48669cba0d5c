//! Equivalence suite for the word-parallel lane engine.
//!
//! TPGREED scores every candidate on the 64-lane bit-plane engine; the
//! scalar `Implication::preview_force` survives as its reference. Three
//! layers of evidence:
//!
//! 1. a property test comparing a full 64-lane batch against 64 scalar
//!    previews net-for-net — changes, per-net values, and the post-undo
//!    state — on randomly generated circuits;
//! 2. a midsize debug-build check that TPGREED selections are identical
//!    across gain-update modes (Full/Incremental) and thread counts,
//!    against the paper's baseline `(GainUpdate::Full, threads 1)`;
//! 3. `#[ignore]`d release-only checks that CI runs (see `ci.sh`): a
//!    ≥10k-gate version of (2), and Incremental ≡ Full on two suite
//!    circuits where Incremental once committed a stale gain.
//!
//! Per-candidate gains are checked against a literal Equation 1
//! evaluation by the unit test `sweep_gains_match_the_equation_1_oracle`
//! in `tpgreed.rs`.

use proptest::prelude::*;
use tpi_core::{GainUpdate, TpGreed, TpGreedConfig};
use tpi_netlist::{parse_blif, write_blif, GateId, Netlist};
use tpi_sim::{Implication, LaneEngine, Trit, LANES};
use tpi_workloads::{generate, suite, CircuitSpec, StructureClass};

/// A generated mixed-structure circuit for the property test.
fn prop_circuit(gates: usize, seed: u64) -> Netlist {
    generate(&CircuitSpec {
        name: "lane-equiv".into(),
        inputs: 8,
        outputs: 6,
        ffs: 24,
        target_gates: gates,
        structure: StructureClass::mixed(0.5, 4, 6, 2),
        seed,
    })
}

/// Up to [`LANES`] preview roots: X-valued combinational nets spread
/// across the circuit with an rng-chosen offset, values alternating.
fn pick_roots(n: &Netlist, imp: &Implication<'_>, offset: usize) -> Vec<(GateId, Trit)> {
    let cands: Vec<GateId> =
        n.gate_ids().filter(|&g| n.kind(g).is_combinational() && imp.value(g) == Trit::X).collect();
    if cands.is_empty() {
        return Vec::new();
    }
    let stride = (cands.len() / LANES).max(1);
    (0..LANES.min(cands.len()))
        .map(|lane| {
            let g = cands[(offset + lane * stride) % cands.len()];
            (g, if lane % 2 == 0 { Trit::Zero } else { Trit::One })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One 64-lane batch must match 64 independent scalar previews:
    /// same change set, same values net for net, and an undo that
    /// restores the exact committed mirror.
    #[test]
    fn lane_batch_matches_64_scalar_previews(
        gates in 150usize..600,
        seed in 0u64..500,
        offset in 0usize..4096,
    ) {
        let n = prop_circuit(gates, seed);
        let mut imp = Implication::new(&n);
        let roots = pick_roots(&n, &imp, offset);
        prop_assert!(!roots.is_empty());

        let mut lanes = LaneEngine::mirror(&imp);
        lanes.preview_batch(&roots);

        for (lane, &(net, value)) in roots.iter().enumerate() {
            let pv = imp.preview_force(net, value);

            // Net-for-net: every scalar change is visible in the lane's
            // planes with the same value.
            for a in pv.changes() {
                prop_assert_eq!(
                    lanes.lane_value(lane, a.net), a.value,
                    "lane {} net {:?}", lane, a.net
                );
            }
            let mut got = lanes.lane_changes(lane);
            got.sort_unstable_by_key(|a| a.net.index());
            let mut want = pv.changes().to_vec();
            want.sort_unstable_by_key(|a| a.net.index());
            prop_assert_eq!(got, want, "lane {} change set", lane);

            imp.undo_preview(pv);
        }

        // Undo restores the committed mirror on every net and lane.
        lanes.undo_batch();
        for g in n.gate_ids() {
            for lane in [0, 31, 63] {
                prop_assert_eq!(lanes.lane_value(lane, g), imp.value(g));
            }
        }
    }
}

/// Deterministic selection fingerprint of one TPGREED run: test points
/// in insertion order, scan-path endpoints in establishment order, and
/// the iteration count.
type Fingerprint = (Vec<(GateId, Trit)>, Vec<(GateId, GateId)>, usize);

/// Runs TPGREED on `n` under the given mode/threads and returns the
/// deterministic selection fingerprint.
fn selections(n: &Netlist, gain_update: GainUpdate, threads: usize) -> Fingerprint {
    let cfg = TpGreedConfig { gain_update, ..TpGreedConfig::default() };
    let (outcome, paths) = TpGreed::new(n, cfg).with_threads(threads).run_with_paths();
    (outcome.test_points.clone(), outcome.scan_path_endpoints(&paths), outcome.iterations)
}

/// Every (mode, threads) combination must select byte-identical test
/// points and scan paths in the same order as the paper's baseline,
/// full gain recomputation on one thread.
fn assert_all_agree(n: &Netlist) {
    let reference = selections(n, GainUpdate::Full, 1);
    let variants = [
        (GainUpdate::Full, 0),
        (GainUpdate::Incremental, 1),
        (GainUpdate::Incremental, 2),
        (GainUpdate::Incremental, 0),
    ];
    for (mode, threads) in variants {
        assert_eq!(
            selections(n, mode, threads),
            reference,
            "{mode:?}/threads={threads} diverged from Full/threads=1"
        );
    }
}

#[test]
fn modes_and_threads_select_identically_midsize() {
    let n = generate(&CircuitSpec {
        name: "midsize".into(),
        inputs: 12,
        outputs: 10,
        ffs: 120,
        target_gates: 2_000,
        structure: StructureClass::mixed(0.55, 4, 12, 4),
        seed: 17,
    });
    assert_all_agree(&n);
}

/// Release-build version of the equivalence check on a ≥10k-gate
/// deep-cone circuit (the lane engine's target regime). Too slow for
/// the debug tier — `ci.sh` runs it with `--release -- --include-ignored`.
#[test]
#[ignore = "release-only: run via ci.sh or --include-ignored"]
fn modes_and_threads_select_identically_10k() {
    let n = generate(&CircuitSpec {
        name: "deep10k".into(),
        inputs: 40,
        outputs: 40,
        ffs: 250,
        target_gates: 8_000,
        structure: StructureClass::deep_logic(0.5, 4, 25, 6, 24, 0.55),
        seed: 606,
    });
    assert!(n.gate_count() >= 10_000, "workload shrank below 10k gates: {}", n.gate_count());
    assert_all_agree(&n);
}

/// Incremental TPGREED must select exactly what Full selects, on a
/// circuit of the Table II suite, optionally re-seeded and round-tripped
/// through BLIF (which renumbers the gates). Both cases below once
/// diverged: Incremental committed a candidate on a gain from before a
/// commit that changed a fanin of a gate its preview wave had reached
/// (`tests/regressions.rs` holds a hand-built instance).
fn assert_incremental_matches_full(name: &str, seed: Option<u64>, blif: bool) {
    let mut spec = suite().into_iter().find(|s| s.name == name).expect("a suite circuit");
    if let Some(seed) = seed {
        spec.seed = seed;
    }
    let mut n = generate(&spec);
    if blif {
        n = parse_blif(&write_blif(&n)).expect("written BLIF parses");
    }
    let (inc, full) =
        (selections(&n, GainUpdate::Incremental, 1), selections(&n, GainUpdate::Full, 1));
    let first = inc.0.iter().zip(&full.0).position(|(a, b)| a != b);
    assert!(
        inc == full,
        "{name}: Incremental diverged from Full (first differing test point: {first:?}; \
         {} vs {} test points)",
        inc.0.len(),
        full.0.len()
    );
}

#[test]
#[ignore = "release-only: run via ci.sh or --include-ignored"]
fn incremental_matches_full_on_s38417_blif() {
    assert_incremental_matches_full("s38417", None, true);
}

#[test]
#[ignore = "release-only: run via ci.sh or --include-ignored"]
fn incremental_matches_full_on_reseeded_s15850() {
    assert_incremental_matches_full("s15850", Some(14_572_278_437_626_255_623), false);
}
