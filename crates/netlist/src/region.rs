//! Non-reconvergent fanin regions (§IV.A, Definition 1).
//!
//! Given a connection `c`, its non-reconvergent fanin region is the set
//! of connections in `c`'s fanin cone that have *exactly one* path to
//! `c`. Lemma 1: the region forms a tree rooted at `c` — which is what
//! lets Theorem 1 treat every `slack()` value as a constant during the
//! recursive cost evaluation of Equations 2–4 (no slack updates needed
//! mid-recursion).
//!
//! The module lives in `tpi-netlist` (it is a purely structural
//! property) so both the TPTIME planner in `tpi-core` and the
//! independent placement verifier in `tpi-lint` can use it without a
//! dependency cycle.

use crate::gate::{Conn, GateId};
use crate::netlist::Netlist;
use std::collections::{HashMap, VecDeque};

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
    /// For every gate in the target's fanin cone (and the target): the
    /// number of distinct paths from its output to the target's output,
    /// saturated at 2.
    path_count: HashMap<GateId, u8>,
}

impl Region {
    /// Builds the region for the net driven by `target`.
    ///
    /// Runs in linear time in the size of the fanin cone: one reverse
    /// BFS to collect the cone, one forward pass (in reverse-reachability
    /// order) accumulating saturated path counts.
    pub fn build(n: &Netlist, target: GateId) -> Self {
        // 1. Fanin cone of the target (combinational traversal only:
        //    stop at sources).
        let mut cone: HashMap<GateId, u8> = HashMap::new();
        let mut queue = VecDeque::new();
        cone.insert(target, 1);
        if !n.kind(target).is_source() {
            queue.push_back(target);
        }
        let mut members = vec![target];
        while let Some(g) = queue.pop_front() {
            for &f in n.fanin(g) {
                if let std::collections::hash_map::Entry::Vacant(e) = cone.entry(f) {
                    e.insert(0);
                    members.push(f);
                    if !n.kind(f).is_source() {
                        queue.push_back(f);
                    }
                }
            }
        }
        // 2. Path counts: process gates in an order where a gate comes
        //    after all cone gates it feeds... i.e. reverse topological
        //    order restricted to the cone. The BFS discovery order from
        //    the target happens to visit feeders after their sinks only
        //    for trees; reconvergence needs a real ordering, so sort by
        //    the netlist's topological position, descending.
        let order = n.topo_order().expect("netlist must be acyclic");
        let mut pos = vec![0usize; n.gate_count()];
        for (i, &g) in order.iter().enumerate() {
            pos[g.index()] = i;
        }
        members.sort_by_key(|g| std::cmp::Reverse(pos[g.index()]));
        let mut path_count: HashMap<GateId, u8> = HashMap::new();
        path_count.insert(target, 1);
        for &g in &members {
            if g == target {
                continue;
            }
            let mut count: u16 = 0;
            for &(sink, _) in n.fanout(g) {
                // A flip-flop sink ends the path (Definition 1 counts
                // combinational paths); counting through it would also
                // depend on where it sorts.
                if n.kind(sink).is_source() {
                    continue;
                }
                if let Some(&c) = path_count.get(&sink) {
                    count += c as u16;
                }
                if count >= 2 {
                    break;
                }
            }
            path_count.insert(g, count.min(2) as u8);
        }
        Region { target, path_count }
    }

    /// The target net this region was built for.
    #[inline]
    pub fn target(&self) -> GateId {
        self.target
    }

    /// Number of distinct paths from `g`'s output to the target (0, 1,
    /// or 2 meaning "two or more").
    pub fn path_count(&self, g: GateId) -> u8 {
        self.path_count.get(&g).copied().unwrap_or(0)
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
        let mut v: Vec<GateId> =
            self.path_count.iter().filter(|&(_, &c)| c == 1).map(|(&g, _)| g).collect();
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
