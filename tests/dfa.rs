//! Cross-crate validation of the `tpi-dfa` analyses.
//!
//! Three angles, per DESIGN.md §13:
//!
//! * **Oracles** — the one-pass CHK dominator tree is checked against a
//!   naive `O(V·E)`-per-node remove-and-recheck reachability oracle on
//!   every smoke-suite circuit.
//! * **Structural invariance (properties)** — SCOAP numbers and the
//!   dominator tree are functions of the circuit *structure*: permuting
//!   gate creation order must not move a single number, and threading a
//!   transparent `Buf` into every edge must leave every original gate's
//!   SCOAP triple unchanged.
//! * **Flow contracts** — `GainModel::Scoap` selections are byte-stable
//!   across worker counts *and* gain-update modes.

use proptest::prelude::*;
use rand::prelude::*;
use scanpath::dfa::{DomTree, Scoap};
use scanpath::netlist::{GateId, GateKind, Netlist};
use scanpath::sim::NetView;
use scanpath::tpi::{FlowOptions, FullScanFlow, GainModel, GainUpdate, TpGreedConfig};
use scanpath::workloads::{generate, smoke_suite, CircuitSpec, StructureClass};
use std::collections::{HashMap, HashSet};

// ---------------------------------------------------------------------
// Dominator oracle
// ---------------------------------------------------------------------

/// Mirror of the observation-graph capture rule: `v` reaches the
/// virtual sink directly when it is an output port or drives one (or a
/// flip-flop D pin).
fn captured(view: &NetView, v: usize) -> bool {
    view.kind(v) == GateKind::Output
        || view
            .fanouts(v)
            .iter()
            .any(|&s| matches!(view.kind(s as usize), GateKind::Output | GateKind::Dff))
}

/// Whether `v` can reach the virtual sink with gate `avoid` deleted
/// from the observation graph (`avoid == usize::MAX` deletes nothing).
fn reaches_sink_avoiding(view: &NetView, v: usize, avoid: usize) -> bool {
    if v == avoid {
        return false;
    }
    let mut seen = vec![false; view.gate_count()];
    let mut stack = vec![v];
    seen[v] = true;
    while let Some(g) = stack.pop() {
        if captured(view, g) {
            return true;
        }
        for &w in view.comb_fanouts(g) {
            let w = w as usize;
            if w != avoid && !seen[w] {
                seen[w] = true;
                stack.push(w);
            }
        }
    }
    false
}

/// `Some(set of real-gate dominators of v)` (v and the sink excluded),
/// or `None` when `v` cannot be observed at all.
fn naive_dominators(view: &NetView, v: usize) -> Option<HashSet<usize>> {
    if !reaches_sink_avoiding(view, v, usize::MAX) {
        return None;
    }
    Some((0..view.gate_count()).filter(|&d| d != v && !reaches_sink_avoiding(view, v, d)).collect())
}

/// The CHK tree's claim for the same set: every node on the idom chain
/// from `v` (exclusive) up to the sink (exclusive).
fn idom_chain(tree: &DomTree, v: usize) -> HashSet<usize> {
    let mut chain = HashSet::new();
    let mut cur = v;
    loop {
        let d = tree.idom(cur).expect("chain is only walked for observable nets");
        if d == tree.sink() {
            return chain;
        }
        chain.insert(d as usize);
        cur = d as usize;
    }
}

#[test]
fn dominator_tree_matches_the_naive_reachability_oracle() {
    for spec in smoke_suite() {
        let n = generate(&spec);
        let view = NetView::new(&n);
        let tree = DomTree::observation(&view);
        for v in 0..view.gate_count() {
            match naive_dominators(&view, v) {
                None => {
                    assert_eq!(tree.idom(v), None, "{}: gate {v} is a dead cone", spec.name);
                }
                Some(naive) => {
                    assert_eq!(
                        idom_chain(&tree, v),
                        naive,
                        "{}: dominators of gate {v} ({})",
                        spec.name,
                        n.gate_name(GateId::from_index(v))
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Structural-invariance properties
// ---------------------------------------------------------------------

/// Strategy: a small random circuit spec.
fn spec_strategy() -> impl Strategy<Value = CircuitSpec> {
    (2usize..8, 1usize..4, 1usize..10, 8usize..80, 0u64..1_000_000, 0usize..2).prop_map(
        |(inputs, outputs, ffs, gates, seed, class)| {
            let structure = match class {
                0 => StructureClass::datapath(4, 2, 1),
                _ => StructureClass::mixed(0.5, 3, 3, 1),
            };
            CircuitSpec {
                name: format!("dfa{seed}"),
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

/// Rebuilds `n` with non-port gates created in a seeded random order
/// (pin order preserved). With `with_bufs`, additionally threads a
/// fresh transparent `Buf` into every fanin edge of every gate whose
/// fanins are pairwise distinct (multi-pin sink occurrences change
/// SCOAP side-cost semantics, so those edges stay direct).
fn rebuild(n: &Netlist, seed: u64, with_bufs: bool) -> Netlist {
    let mut ids: Vec<GateId> = n.gate_ids().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..ids.len()).rev() {
        let j = rng.gen_range(0..=i);
        ids.swap(i, j);
    }
    let mut out = Netlist::new(n.name());
    let mut map: HashMap<GateId, GateId> = HashMap::new();
    for &g in &ids {
        let new = match n.kind(g) {
            GateKind::Input => out.add_input(n.gate_name(g)),
            GateKind::Output => continue,
            kind => out.add_gate(kind, n.gate_name(g)),
        };
        map.insert(g, new);
    }
    let mut bufs = 0usize;
    for &g in &ids {
        if n.kind(g) == GateKind::Output {
            continue;
        }
        let fanin = n.fanin(g);
        let distinct = fanin.iter().collect::<HashSet<_>>().len() == fanin.len();
        for &f in fanin {
            let mut src = map[&f];
            if with_bufs && distinct {
                let b = out.add_gate(GateKind::Buf, format!("__buf{bufs}"));
                bufs += 1;
                out.connect(src, b).unwrap();
                src = b;
            }
            out.connect(src, map[&g]).unwrap();
        }
    }
    for g in n.gate_ids() {
        if n.kind(g) == GateKind::Output {
            let f = n.fanin(g)[0];
            out.add_output(n.gate_name(g), map[&f]).unwrap();
        }
    }
    out.validate().expect("rebuild preserves well-formedness");
    out
}

/// `(cc0, cc1, co)` per original gate name (ports and inserted buffers
/// excluded — outputs have no SCOAP identity of their own).
fn scoap_by_name(n: &Netlist) -> HashMap<String, (u32, u32, u32)> {
    let s = Scoap::analyze(&NetView::new(n));
    n.gate_ids()
        .filter(|&g| n.kind(g) != GateKind::Output && !n.gate_name(g).starts_with("__buf"))
        .map(|g| {
            let i = g.index();
            (n.gate_name(g).to_string(), (s.cc0[i], s.cc1[i], s.co[i]))
        })
        .collect()
}

/// `idom` per gate name: `Some("<name>")` for a real bottleneck,
/// `Some("S")` for independent routes, `None` for dead cones.
fn idoms_by_name(n: &Netlist) -> HashMap<String, Option<String>> {
    let tree = DomTree::observation(&NetView::new(n));
    n.gate_ids()
        .filter(|&g| n.kind(g) != GateKind::Output)
        .map(|g| {
            let d = tree.idom(g.index()).map(|d| {
                if d == tree.sink() {
                    "S".to_string()
                } else {
                    n.gate_name(GateId::from_index(d as usize)).to_string()
                }
            });
            (n.gate_name(g).to_string(), d)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// SCOAP and the dominator tree are pure functions of the circuit
    /// structure, not of gate creation (and hence topo traversal) order.
    #[test]
    fn analyses_are_invariant_under_gate_creation_order(
        spec in spec_strategy(),
        seed in 0u64..1000,
    ) {
        let n = generate(&spec);
        let permuted = rebuild(&n, seed, false);
        prop_assert_eq!(scoap_by_name(&n), scoap_by_name(&permuted));
        prop_assert_eq!(idoms_by_name(&n), idoms_by_name(&permuted));
    }

    /// Transparent buffers are invisible to SCOAP: threading a `Buf`
    /// into every (distinct-fanin) edge leaves every original gate's
    /// triple unchanged — the same hash-through rule the cache-key
    /// fingerprint applies.
    #[test]
    fn scoap_is_invariant_under_buf_insertion(
        spec in spec_strategy(),
        seed in 0u64..1000,
    ) {
        let n = generate(&spec);
        let buffered = rebuild(&n, seed, true);
        prop_assert_eq!(scoap_by_name(&n), scoap_by_name(&buffered));
    }
}

// ---------------------------------------------------------------------
// Flow contracts
// ---------------------------------------------------------------------

#[test]
fn scoap_selections_are_thread_and_mode_independent() {
    let spec = &smoke_suite()[0];
    let n = generate(spec);
    let mut runs = Vec::new();
    for gain_update in [GainUpdate::Full, GainUpdate::Incremental] {
        let flow = FullScanFlow {
            config: TpGreedConfig {
                gain_model: GainModel::Scoap,
                gain_update,
                ..TpGreedConfig::default()
            },
        };
        for threads in [1usize, 0] {
            let r = flow
                .run_with(&n, &FlowOptions::new().with_threads(threads))
                .expect("scoap full-scan runs");
            runs.push((gain_update, threads, r));
        }
    }
    // Selections against the paper's baseline, Full recomputation on one
    // thread: same transformed netlist, chain and test-mode PI values.
    let base = &runs[0].2;
    for (gain_update, threads, r) in &runs[1..] {
        let label = format!("{gain_update:?} --threads {threads} vs Full --threads 1");
        assert_eq!(r.netlist, base.netlist, "{label}: transformed netlist");
        assert_eq!(r.chain, base.chain, "{label}: scan chain");
        assert_eq!(r.pi_values, base.pi_values, "{label}: PI values");
    }
    // Within one mode the whole deterministic section — selections and
    // every work counter — is byte-identical across thread counts.
    // (`candidates_evaluated` differs between modes by design.)
    for pair in runs.chunks(2) {
        assert_eq!(
            pair[0].2.metrics.deterministic_json(),
            pair[1].2.metrics.deterministic_json(),
            "{:?}: --threads 0 diverged from --threads 1",
            pair[0].0
        );
    }
}
