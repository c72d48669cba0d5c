//! Equivalence gate for `Region::build`: the cone-local builder must
//! give the same path count to every gate of the fanin cone, and the
//! same tree gates, as the reference builder in `topo_region` (the one
//! that sorted the cone by a whole-netlist topological order).
//!
//! Targets are every flip-flop's D net plus a seeded sample of other
//! nets, on the suite, the smoke suite and seeded `CircuitSpec`s, and on
//! the TPTIME-transformed netlists the placement verifier sees, which
//! carry scan muxes and test points. The five large suite circuits are
//! `#[ignore]`d and run in release mode:
//!
//! ```text
//! cargo test --release --test region_oracle -- --include-ignored
//! ```

#[allow(dead_code)]
mod topo_region;

use scanpath::netlist::{GateId, Netlist, Region};
use scanpath::tpi::{PartialScanFlow, PartialScanMethod};
use scanpath::workloads::{generate, smoke_suite, suite, CircuitSpec, StructureClass};

/// Nets sampled per netlist besides the flip-flops' D nets.
const SAMPLED_NETS: usize = 64;

/// Every flip-flop's D net, then `SAMPLED_NETS` nets drawn with a
/// seeded xorshift.
fn targets(n: &Netlist, seed: u64) -> Vec<GateId> {
    let mut targets: Vec<GateId> = n.dffs().iter().map(|&ff| n.fanin(ff)[0]).collect();
    let mut state = seed | 1;
    for _ in 0..SAMPLED_NETS {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        targets.push(GateId::from_index((state % n.gate_count() as u64) as usize));
    }
    targets
}

/// Asserts that both builders agree on every target of `n`.
fn assert_regions_match(n: &Netlist, targets: &[GateId]) {
    for &t in targets {
        let region = Region::build(n, t);
        let reference = topo_region::Region::build(n, t);
        let mut cone = region.cone().to_vec();
        cone.sort_unstable();
        let mut reference_cone: Vec<GateId> =
            n.gate_ids().filter(|&g| g == t || reference.path_count(g) > 0).collect();
        reference_cone.sort_unstable();
        assert_eq!(cone, reference_cone, "{}: cone of {}", n.name(), n.gate_name(t));
        for &g in &cone {
            assert_eq!(
                region.path_count(g),
                reference.path_count(g),
                "{}: paths from {} to {}",
                n.name(),
                n.gate_name(g),
                n.gate_name(t)
            );
            assert_eq!(region.cone_index(g).map(|i| region.cone()[i]), Some(g));
        }
        assert_eq!(
            region.tree_gates(),
            reference.tree_gates(),
            "{}: tree of {}",
            n.name(),
            n.gate_name(t)
        );
    }
}

/// Both builders on the generated circuit and on its TPTIME-transformed
/// netlist, where every placement's D net is a target too. Returns the
/// number of placements.
fn assert_circuit_matches(spec: &CircuitSpec) -> usize {
    let n = generate(spec);
    assert_regions_match(&n, &targets(&n, spec.seed));
    let r = PartialScanFlow::new(PartialScanMethod::TpTime).run(&n);
    let t = &r.netlist;
    let mut on_transformed = targets(t, spec.seed ^ 0x5eed);
    on_transformed.extend(r.claims.placements.iter().map(|p| t.fanin(p.ff)[0]));
    assert_regions_match(t, &on_transformed);
    r.claims.placements.len()
}

fn assert_suite_matches(names: &[&str]) {
    for spec in suite().into_iter().filter(|s| names.contains(&s.name.as_str())) {
        assert!(assert_circuit_matches(&spec) > 0, "{}: no placement", spec.name);
    }
}

#[test]
fn regions_match_the_reference_on_the_smoke_suite_and_seeded_circuits() {
    let classes = [
        StructureClass::mixed(0.5, 4, 5, 1),
        StructureClass::datapath(4, 2, 1),
        StructureClass::mixed(0.3, 4, 2, 0).with_hard_rings(1, 3),
        StructureClass::mixed(0.8, 3, 8, 2),
    ];
    let mut specs = smoke_suite();
    for seed in 0..24u64 {
        specs.push(CircuitSpec {
            name: format!("region{seed}"),
            inputs: 6 + (seed % 5) as usize,
            outputs: 4,
            ffs: 12 + (seed % 13) as usize,
            target_gates: 80 + 20 * (seed % 16) as usize,
            structure: classes[(seed % 4) as usize],
            seed: 2_000 + seed,
        });
    }
    let placements: usize = specs.iter().map(assert_circuit_matches).sum();
    assert!(placements > 50, "only {placements} placements");
}

#[test]
fn regions_match_the_reference_on_the_suite() {
    assert_suite_matches(&["dsip", "s5378", "s9234", "bigkey", "mult32b", "mult32a"]);
}

/// Release only (`ci.sh` runs it with `--include-ignored`).
#[test]
#[ignore = "large circuits; run in release mode"]
fn regions_match_the_reference_on_the_large_suite() {
    assert_suite_matches(&["s13207", "s15850", "s35932", "s38417", "s38584"]);
}
