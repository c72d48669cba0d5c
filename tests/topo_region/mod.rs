//! The reference region builder: `Region::build` as it stood before it
//! became cone-local, kept verbatim (imports aside) as the oracle
//! `tests/region_oracle.rs` compares the production builder against. It
//! sorts the cone by a whole-netlist topological order and keeps path
//! counts in a `HashMap`; only its results matter here.

use scanpath::netlist::{Conn, GateId, Netlist};
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
