//! Non-reconvergent fanin regions (§IV.A, Definition 1).
//!
//! Given a connection `c`, its non-reconvergent fanin region is the set
//! of connections in `c`'s fanin cone that have *exactly one* path to
//! `c`. Lemma 1: the region forms a tree rooted at `c` — which is what
//! lets Theorem 1 treat every `slack()` value as a constant during the
//! recursive cost evaluation of Equations 2–4 (no slack updates needed
//! mid-recursion).
//!
//! A region is built locally: one breadth-first pass collects the
//! target's fanin cone and one Kahn pass over that cone, sinks before
//! fanins, accumulates the saturated path counts. Apart from zeroing a
//! gate-sized slot table, nothing outside the cone is visited, so
//! building one region per planned flip-flop stays cheap on large
//! netlists.
//!
//! The module lives in `tpi-netlist` (it is a purely structural
//! property) so both the TPTIME planner in `tpi-core` and the
//! independent placement verifier in `tpi-lint` can use it without a
//! dependency cycle.

use crate::gate::{Conn, GateId};
use crate::netlist::Netlist;

/// The non-reconvergent fanin region of a target net.
///
/// The target is identified by the *net* `t` feeding the connection of
/// interest (the paper's `c = [t, sink]`); everything in this module is
/// net-centric, matching the rest of the workspace.
///
/// # Example
///
/// The paper's Figure 7: `g1` fans out to both `a` and `e`, but only one
/// of `g1`'s paths reaches `c`, so `a`, `b` and `d` are in the region
/// while `j` and `k` (whose gate `g3` reaches `c` twice) are not. See
/// `tpi-workloads::figures::fig7` and the test below for the exact
/// construction.
#[derive(Debug, Clone)]
pub struct Region {
    target: GateId,
    /// Per gate of the netlist: 1 + its index in `cone`, or 0 outside
    /// the cone.
    slot: Vec<u32>,
    /// The target's fanin cone, the target first, in breadth-first
    /// discovery order.
    cone: Vec<GateId>,
    /// Per cone gate: the number of distinct paths from its output to
    /// the target's output, saturated at 2.
    path_count: Vec<u8>,
}

impl Region {
    /// Builds the region for the net driven by `target`.
    ///
    /// Besides one zeroed gate-sized slot table, the work is linear in
    /// the fanin cone: a breadth-first pass from the target collects
    /// the cone (stopping at sources) and counts, for every cone gate,
    /// its fanout entries into expanded cone gates; a Kahn pass from
    /// the target then pushes each gate's saturated path count into its
    /// fanins once all of those entries have been seen. No netlist-wide
    /// order is needed.
    ///
    /// # Panics
    /// Panics if the fanin cone has a combinational cycle.
    pub fn build(n: &Netlist, target: GateId) -> Self {
        // 1. The fanin cone (combinational traversal only: stop at
        //    sources). An expanded gate's fanin entries are exactly the
        //    in-cone, non-source fanout entries of its fanins, so the
        //    same pass counts what each gate waits for.
        let mut slot = vec![0u32; n.gate_count()];
        let mut cone = vec![target];
        let mut pending: Vec<u32> = vec![0];
        slot[target.index()] = 1;
        let mut next = 0;
        while let Some(&g) = cone.get(next) {
            next += 1;
            if n.kind(g).is_source() {
                continue;
            }
            for &f in n.fanin(g) {
                let s = &mut slot[f.index()];
                if *s == 0 {
                    cone.push(f);
                    pending.push(0);
                    *s = cone.len() as u32;
                }
                pending[*s as usize - 1] += 1;
            }
        }
        // 2. Path counts, sinks before their fanins: a gate is ready once
        //    every in-cone sink entry has added its count. A flip-flop
        //    sink ends the path (Definition 1 counts combinational paths),
        //    so sources pass nothing on.
        let mut path_count = vec![0u8; cone.len()];
        path_count[0] = 1;
        let mut ready = vec![0usize];
        let mut popped = 0;
        while let Some(i) = ready.pop() {
            popped += 1;
            let g = cone[i];
            if n.kind(g).is_source() {
                continue;
            }
            let count = path_count[i];
            for &f in n.fanin(g) {
                let j = slot[f.index()] as usize - 1;
                path_count[j] = (path_count[j] + count).min(2);
                pending[j] -= 1;
                if pending[j] == 0 {
                    ready.push(j);
                }
            }
        }
        assert_eq!(popped, cone.len(), "netlist must be acyclic");
        Region { target, slot, cone, path_count }
    }

    /// The target net this region was built for.
    #[inline]
    pub fn target(&self) -> GateId {
        self.target
    }

    /// The target's fanin cone, the target first: every gate with a
    /// combinational path into the target.
    #[inline]
    pub fn cone(&self) -> &[GateId] {
        &self.cone
    }

    /// `g`'s position in [`Region::cone`], or `None` outside the cone;
    /// lets callers keep per-region tables indexed by cone position.
    #[inline]
    pub fn cone_index(&self, g: GateId) -> Option<usize> {
        match self.slot.get(g.index()) {
            Some(&s) if s > 0 => Some(s as usize - 1),
            _ => None,
        }
    }

    /// Number of distinct paths from `g`'s output to the target (0, 1,
    /// or 2 meaning "two or more").
    #[inline]
    pub fn path_count(&self, g: GateId) -> u8 {
        self.cone_index(g).map_or(0, |i| self.path_count[i])
    }

    /// True when `g`'s output has exactly one path to the target — the
    /// condition under which the Eq. 2–4 recursion may descend into `g`'s
    /// fanins (every fanin connection `[h, g]` is then in the region).
    #[inline]
    pub fn single_path(&self, g: GateId) -> bool {
        self.path_count(g) == 1
    }

    /// Whether the connection is in the region (Definition 1): its sink
    /// has exactly one path to the target.
    pub fn contains(&self, conn: Conn) -> bool {
        self.single_path(conn.sink) || conn.sink == self.target
    }

    /// All gates with exactly one path to the target (the region's tree
    /// nodes). Sorted for determinism.
    pub fn tree_gates(&self) -> Vec<GateId> {
        let mut v: Vec<GateId> = self
            .cone
            .iter()
            .zip(&self.path_count)
            .filter(|&(_, &c)| c == 1)
            .map(|(&g, _)| g)
            .collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::gate::GateKind;

    /// The paper's Figure 7, transliterated:
    ///
    /// * `g1` fans out to `a` (toward `c`) and to `e` (elsewhere);
    /// * `g3` reaches `c` along two different paths (through `j`-side
    ///   and `k`-side reconvergence);
    /// * connections `a`, `b`, `d` are in the region of `c`; `j`, `k`
    ///   are not.
    fn fig7() -> (Netlist, GateId, GateId, GateId, GateId) {
        let mut b = NetlistBuilder::new("fig7");
        b.input("i1");
        b.input("i2");
        b.input("i3");
        // g3 with two fanouts that reconverge at gc.
        b.gate(GateKind::And, "g3", &["i1", "i2"]); // j, k are its fanins
        b.gate(GateKind::Inv, "p1", &["g3"]);
        b.gate(GateKind::Inv, "p2", &["g3"]);
        b.gate(GateKind::And, "gb", &["p1", "p2"]); // b's source, reconvergent
                                                    // g1 with fanouts a (toward c) and e (away).
        b.gate(GateKind::And, "g1", &["i3", "i1"]);
        b.gate(GateKind::Inv, "ga", &["g1"]); // a rides into the cone
        b.gate(GateKind::Inv, "ge", &["g1"]); // e leaves the cone
        b.gate(GateKind::And, "gd", &["ga", "gb"]); // d's source
        b.gate(GateKind::And, "gc", &["gd", "i2"]); // target net c
        b.output("oc", "gc");
        b.output("oe", "ge");
        let n = b.finish().unwrap();
        let gc = n.find("gc").unwrap();
        let g1 = n.find("g1").unwrap();
        let g3 = n.find("g3").unwrap();
        let gd = n.find("gd").unwrap();
        (n, gc, g1, g3, gd)
    }

    #[test]
    fn fig7_region_matches_paper() {
        let (n, gc, g1, g3, gd) = fig7();
        let r = Region::build(&n, gc);
        assert_eq!(r.path_count(gc), 1);
        assert!(r.single_path(gd), "d in region");
        assert!(r.single_path(n.find("ga").unwrap()), "a's sink side in region");
        assert!(r.single_path(g1), "g1 has one path to c (through a)");
        assert_eq!(r.path_count(g3), 2, "g3 reconverges: j, k out of region");
        assert!(!r.single_path(g3));
        assert!(r.single_path(n.find("gb").unwrap()), "b itself in region");
    }

    #[test]
    fn region_is_a_tree() {
        // Lemma 1: within the region, every gate feeds the target along
        // exactly one path, so following single-path gates from the
        // target never revisits a gate.
        let (n, gc, _g1, _g3, _gd) = fig7();
        let r = Region::build(&n, gc);
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![gc];
        while let Some(g) = stack.pop() {
            assert!(seen.insert(g), "tree property violated at {}", n.gate_name(g));
            for &f in n.fanin(g) {
                if r.single_path(f) {
                    stack.push(f);
                }
            }
        }
    }

    #[test]
    fn gate_outside_cone_has_zero_paths() {
        let (n, gc, _g1, _g3, _gd) = fig7();
        let r = Region::build(&n, gc);
        let ge = n.find("ge").unwrap();
        assert_eq!(r.path_count(ge), 0);
        assert!(!r.single_path(ge));
    }

    #[test]
    fn source_target_region_is_trivial() {
        let mut b = NetlistBuilder::new("t");
        b.input("a");
        b.gate(GateKind::Inv, "g", &["a"]);
        b.output("o", "g");
        let n = b.finish().unwrap();
        let a = n.find("a").unwrap();
        let r = Region::build(&n, a);
        assert_eq!(r.path_count(a), 1);
        assert_eq!(r.tree_gates(), vec![a]);
    }

    #[test]
    fn diamond_excludes_reconvergent_source() {
        // a -> (i1, i2) -> and : a has two paths to the AND.
        let mut b = NetlistBuilder::new("t");
        b.input("a");
        b.gate(GateKind::Inv, "i1", &["a"]);
        b.gate(GateKind::Inv, "i2", &["a"]);
        b.gate(GateKind::And, "g", &["i1", "i2"]);
        b.output("o", "g");
        let n = b.finish().unwrap();
        let r = Region::build(&n, n.find("g").unwrap());
        assert_eq!(r.path_count(n.find("a").unwrap()), 2);
        assert!(r.single_path(n.find("i1").unwrap()));
        assert!(r.single_path(n.find("i2").unwrap()));
    }
}
