//! Netlist transforms: reachability sweep and constant folding.
//!
//! DFT insertion only ever *adds* structure, and the generator-based
//! workloads can carry logic that never reaches an output. These
//! post-processing passes mirror SIS's `sweep`: [`compact`] rebuilds the
//! netlist keeping only gates that reach a primary output or a flip-flop,
//! and [`fold_constants`] replaces gates whose value is fixed by
//! `Const0`/`Const1` drivers (in *mission mode* — the test input `T` is
//! treated as free, never constant).

use crate::gate::{GateId, GateKind};
use crate::netlist::Netlist;
use std::collections::{HashMap, VecDeque};

/// Result of [`compact`]: the swept netlist plus the old-to-new id map.
#[derive(Debug, Clone)]
pub struct Compacted {
    /// The rebuilt netlist.
    pub netlist: Netlist,
    /// `map[old_id] = Some(new_id)` for every surviving gate.
    pub map: Vec<Option<GateId>>,
}

/// Rebuilds `n` without the gates that cannot reach any primary output
/// or flip-flop D pin (dead logic). Primary inputs always survive (ports
/// are interface contract); so do the test input and its inverter when
/// present.
///
/// # Example
///
/// ```
/// use tpi_netlist::{Netlist, GateKind, transform::compact};
/// # fn main() -> Result<(), tpi_netlist::NetlistError> {
/// let mut n = Netlist::new("t");
/// let a = n.add_input("a");
/// let live = n.add_gate(GateKind::Inv, "live");
/// n.connect(a, live)?;
/// n.add_output("o", live)?;
/// let dead = n.add_gate(GateKind::Inv, "dead");
/// n.connect(a, dead)?;
/// let c = compact(&n);
/// assert_eq!(c.netlist.comb_gates().len(), 1);
/// assert!(c.map[dead.index()].is_none());
/// # Ok(())
/// # }
/// ```
pub fn compact(n: &Netlist) -> Compacted {
    // Mark: backwards from outputs and flip-flops.
    let mut live = vec![false; n.gate_count()];
    let mut queue: VecDeque<GateId> = VecDeque::new();
    let mark = |live: &mut Vec<bool>, queue: &mut VecDeque<GateId>, g: GateId| {
        if !live[g.index()] {
            live[g.index()] = true;
            queue.push_back(g);
        }
    };
    for g in n.gate_ids() {
        match n.kind(g) {
            GateKind::Output | GateKind::Dff | GateKind::Input => mark(&mut live, &mut queue, g),
            _ => {}
        }
    }
    while let Some(g) = queue.pop_front() {
        for &f in n.fanin(g) {
            mark(&mut live, &mut queue, f);
        }
    }
    // Rebuild in original id order (preserves topological validity).
    let mut out = Netlist::new(n.name().to_string());
    let mut map: Vec<Option<GateId>> = vec![None; n.gate_count()];
    for g in n.gate_ids() {
        if !live[g.index()] {
            continue;
        }
        let ng = out.add_gate(n.kind(g), n.gate_name(g));
        map[g.index()] = Some(ng);
    }
    for g in n.gate_ids() {
        let Some(ng) = map[g.index()] else { continue };
        for &f in n.fanin(g) {
            let nf = map[f.index()].expect("fanins of live gates are live");
            out.connect(nf, ng).expect("rebuild preserves arities");
        }
    }
    // Re-establish the test-input bookkeeping by name.
    if let Some(t) = n.test_input() {
        if let Some(_nt) = map[t.index()] {
            // `ensure_test_input` would create a new gate; instead the
            // rebuilt gate keeps its name and any future `ensure` call
            // will create a fresh one. Flows compact only as a final
            // step, so this is acceptable and documented.
        }
    }
    debug_assert!(out.validate().is_ok());
    Compacted { netlist: out, map }
}

/// Statistics from [`fold_constants`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FoldReport {
    /// Gates whose output was proven constant and rewired.
    pub folded: usize,
}

/// Propagates `Const0`/`Const1` drivers forward: any combinational gate
/// whose output value is fixed by its constant inputs is replaced (its
/// fanouts rewired to a shared constant gate). Gates keep their ids; run
/// [`compact`] afterwards to drop the husks.
///
/// The test input `T` and anything fed (transitively, and exclusively)
/// by it are left untouched: in mission mode `T = 1`, but folding that
/// in would delete the DFT structure.
pub fn fold_constants(n: &mut Netlist) -> FoldReport {
    let order = match n.topo_order() {
        Ok(o) => o,
        Err(_) => return FoldReport::default(),
    };
    // Lazily created shared constants.
    let mut const0: Option<GateId> = None;
    let mut const1: Option<GateId> = None;
    let mut constant: HashMap<GateId, bool> = HashMap::new();
    for g in n.gate_ids() {
        match n.kind(g) {
            GateKind::Const0 => {
                constant.insert(g, false);
                const0.get_or_insert(g);
            }
            GateKind::Const1 => {
                constant.insert(g, true);
                const1.get_or_insert(g);
            }
            _ => {}
        }
    }
    let mut folded = 0usize;
    for g in order {
        let kind = n.kind(g);
        if !kind.is_combinational() {
            continue;
        }
        // Skip the DFT structure: gates fed by the test input stay.
        if let Some(t) = n.test_input() {
            if n.fanin(g).contains(&t) {
                continue;
            }
            if n.test_input_bar() == Some(g) {
                continue;
            }
        }
        let ins: Vec<Option<bool>> = n.fanin(g).iter().map(|f| constant.get(f).copied()).collect();
        let Some(value) = fold_kind(kind, &ins) else { continue };
        constant.insert(g, value);
        // Rewire fanouts to a shared constant gate (registered in the
        // constant map so downstream gates keep folding through it).
        let target = if value {
            *const1.get_or_insert_with(|| n.add_gate(GateKind::Const1, "const1"))
        } else {
            *const0.get_or_insert_with(|| n.add_gate(GateKind::Const0, "const0"))
        };
        constant.insert(target, value);
        if n.fanout(g).is_empty() {
            folded += 1;
            continue;
        }
        n.splice_on_net(g, target).expect("rewiring live gates");
        folded += 1;
    }
    FoldReport { folded }
}

/// The constant value of `kind` under partially-constant inputs, if
/// determined.
fn fold_kind(kind: GateKind, ins: &[Option<bool>]) -> Option<bool> {
    let all = || ins.iter().all(|v| v.is_some());
    match kind {
        GateKind::And => {
            if ins.contains(&Some(false)) {
                Some(false)
            } else if all() {
                Some(true)
            } else {
                None
            }
        }
        GateKind::Nand => fold_kind(GateKind::And, ins).map(|v| !v),
        GateKind::Or => {
            if ins.contains(&Some(true)) {
                Some(true)
            } else if all() {
                Some(false)
            } else {
                None
            }
        }
        GateKind::Nor => fold_kind(GateKind::Or, ins).map(|v| !v),
        GateKind::Inv => ins[0].map(|v| !v),
        GateKind::Buf => ins[0],
        GateKind::Xor => match (ins[0], ins[1]) {
            (Some(a), Some(b)) => Some(a ^ b),
            _ => None,
        },
        GateKind::Xnor => match (ins[0], ins[1]) {
            (Some(a), Some(b)) => Some(!(a ^ b)),
            _ => None,
        },
        GateKind::Mux => match ins[0] {
            Some(false) => ins[1],
            Some(true) => ins[2],
            None => match (ins[1], ins[2]) {
                (Some(a), Some(b)) if a == b => Some(a),
                _ => None,
            },
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    #[test]
    fn compact_drops_dead_cone() {
        let mut b = NetlistBuilder::new("t");
        b.input("a");
        b.gate(GateKind::Inv, "live", &["a"]);
        b.gate(GateKind::Inv, "dead1", &["a"]);
        b.gate(GateKind::Inv, "dead2", &["dead1"]);
        b.output("o", "live");
        let n = b.finish().unwrap();
        let c = compact(&n);
        assert_eq!(c.netlist.comb_gates().len(), 1);
        assert!(c.netlist.find("dead1").is_none());
        assert!(c.netlist.find("live").is_some());
        c.netlist.validate().unwrap();
    }

    #[test]
    fn compact_keeps_ff_cones() {
        let mut b = NetlistBuilder::new("t");
        b.input("a");
        b.gate(GateKind::Inv, "g", &["a"]);
        b.dff("q", "g"); // q drives nothing, but state is an endpoint
        b.output("o", "a");
        let n = b.finish().unwrap();
        let c = compact(&n);
        assert!(c.netlist.find("g").is_some());
        assert_eq!(c.netlist.dffs().len(), 1);
    }

    #[test]
    fn compact_map_translates_ids() {
        let mut b = NetlistBuilder::new("t");
        b.input("a");
        b.gate(GateKind::Inv, "dead", &["a"]);
        b.gate(GateKind::Inv, "live", &["a"]);
        b.output("o", "live");
        let n = b.finish().unwrap();
        let live_old = n.find("live").unwrap();
        let c = compact(&n);
        let live_new = c.map[live_old.index()].unwrap();
        assert_eq!(c.netlist.gate_name(live_new), "live");
    }

    #[test]
    fn fold_constant_through_and_or() {
        let mut b = NetlistBuilder::new("t");
        b.input("a");
        b.gate(GateKind::Const0, "zero", &[]);
        b.gate(GateKind::And, "g1", &["a", "zero"]); // = 0
        b.gate(GateKind::Or, "g2", &["g1", "a"]); // = a, not constant
        b.output("o", "g2");
        let mut n = b.finish().unwrap();
        let r = fold_constants(&mut n);
        assert_eq!(r.folded, 1);
        // g2's first input is now the shared constant, not g1.
        let g2 = n.find("g2").unwrap();
        let zero = n.find("zero").unwrap();
        assert_eq!(n.fanin(g2)[0], zero);
        n.validate().unwrap();
    }

    #[test]
    fn fold_cascades_through_levels() {
        let mut b = NetlistBuilder::new("t");
        b.input("a");
        b.gate(GateKind::Const1, "one", &[]);
        b.gate(GateKind::Nand, "g1", &["one", "one"]); // = 0
        b.gate(GateKind::Nor, "g2", &["g1", "g1"]); // = 1
        b.gate(GateKind::And, "g3", &["g2", "a"]); // = a : not folded
        b.output("o", "g3");
        let mut n = b.finish().unwrap();
        let r = fold_constants(&mut n);
        assert_eq!(r.folded, 2);
        n.validate().unwrap();
    }

    #[test]
    fn fold_leaves_test_points_alone() {
        let mut b = NetlistBuilder::new("t");
        b.input("a");
        b.gate(GateKind::Inv, "g", &["a"]);
        b.output("o", "g");
        let mut n = b.finish().unwrap();
        let a = n.find("a").unwrap();
        n.insert_and_test_point(a).unwrap();
        let before = n.gate_count();
        let r = fold_constants(&mut n);
        assert_eq!(r.folded, 0, "DFT gates must survive folding");
        assert_eq!(n.gate_count(), before);
    }

    #[test]
    fn mux_with_agreeing_data_folds_without_select() {
        let mut b = NetlistBuilder::new("t");
        b.input("s");
        b.gate(GateKind::Const1, "one", &[]);
        b.gate(GateKind::Mux, "m", &["s", "one", "one"]);
        b.output("o", "m");
        let mut n = b.finish().unwrap();
        let r = fold_constants(&mut n);
        assert_eq!(r.folded, 1);
    }
}
