//! The flip-flop connectivity graph (s-graph).

use tpi_netlist::{levelize, GateId, GateKind, Netlist, TopoError};

/// Sorted `u32` adjacency lists in one arena: list `v` is
/// `data[start[v]..start[v] + len[v]]`, with room for `cap[v]` entries.
/// Removing an entry shifts the list's tail left; an insert or union that
/// outgrows its room moves the list to the end of the arena.
#[derive(Debug, Clone, Default)]
pub(crate) struct Adjacency {
    start: Vec<usize>,
    len: Vec<u32>,
    cap: Vec<u32>,
    data: Vec<u32>,
}

impl Adjacency {
    /// Lists from compressed-sparse-row form: list `v` is
    /// `data[offsets[v]..offsets[v + 1]]`, already sorted.
    fn from_csr(offsets: &[usize], data: Vec<u32>) -> Self {
        let len: Vec<u32> = offsets.windows(2).map(|w| (w[1] - w[0]) as u32).collect();
        Adjacency { start: offsets[..offsets.len() - 1].to_vec(), cap: len.clone(), len, data }
    }

    #[inline]
    pub(crate) fn list(&self, v: usize) -> &[u32] {
        let s = self.start[v];
        &self.data[s..s + self.len[v] as usize]
    }

    #[inline]
    pub(crate) fn len(&self, v: usize) -> usize {
        self.len[v] as usize
    }

    /// Removes `x` from list `v`, if present.
    fn remove(&mut self, v: usize, x: u32) {
        let s = self.start[v];
        let l = self.len[v] as usize;
        if let Ok(at) = self.data[s..s + l].binary_search(&x) {
            self.data.copy_within(s + at + 1..s + l, s + at);
            self.len[v] -= 1;
        }
    }

    fn clear(&mut self, v: usize) {
        self.len[v] = 0;
    }

    /// Gives list `v` room for `need` entries, moving it to the end of
    /// the arena (with its entries) when it has less.
    fn reserve(&mut self, v: usize, need: usize) {
        if need <= self.cap[v] as usize {
            return;
        }
        let cap = need.max(2 * self.cap[v] as usize);
        let (old, len) = (self.start[v], self.len[v] as usize);
        let at = self.data.len();
        self.data.resize(at + cap, 0);
        self.data.copy_within(old..old + len, at);
        self.start[v] = at;
        self.cap[v] = cap as u32;
    }

    /// Inserts `x` into list `v`; false if it was there already.
    pub(crate) fn insert(&mut self, v: usize, x: u32) -> bool {
        let Err(at) = self.list(v).binary_search(&x) else {
            return false;
        };
        let len = self.len[v] as usize;
        self.reserve(v, len + 1);
        let s = self.start[v];
        self.data.copy_within(s + at..s + len, s + at + 1);
        self.data[s + at] = x;
        self.len[v] += 1;
        true
    }

    /// List `v` becomes the entries of its union with the sorted `add`
    /// that pass `keep`. `merged` is scratch.
    pub(crate) fn union(
        &mut self,
        v: usize,
        add: &[u32],
        keep: impl Fn(u32) -> bool,
        merged: &mut Vec<u32>,
    ) {
        merged.clear();
        let mut j = 0;
        for &a in self.list(v) {
            while j < add.len() && add[j] < a {
                merged.push(add[j]);
                j += 1;
            }
            if add.get(j) == Some(&a) {
                j += 1;
            }
            merged.push(a);
        }
        merged.extend_from_slice(&add[j..]);
        merged.retain(|&x| keep(x));
        self.reserve(v, merged.len());
        let s = self.start[v];
        self.data[s..s + merged.len()].copy_from_slice(merged);
        self.len[v] = merged.len() as u32;
    }

    /// Becomes a copy of `other`, reusing this arena's buffers.
    pub(crate) fn reset_from(&mut self, other: &Adjacency) {
        self.start.clone_from(&other.start);
        self.len.clone_from(&other.len);
        self.cap.clone_from(&other.cap);
        self.data.clone_from(&other.data);
    }
}

/// The s-graph of a sequential circuit: one node per flip-flop, one edge
/// `i -> j` when a combinational path runs from `F_i`'s output to `F_j`'s
/// D input. Partial-scan cycle breaking (refs. \[4, 6, 7\] of the paper)
/// operates on this graph.
///
/// Nodes can be removed in place ([`remove`](Self::remove)): a removed
/// flip-flop keeps its index but loses every edge, which is how a scanned
/// flip-flop leaves the cycles it was on.
///
/// # Example
///
/// ```
/// use tpi_netlist::{Netlist, GateKind};
/// use tpi_scan::SGraph;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut n = Netlist::new("loop2");
/// let f1 = n.add_gate(GateKind::Dff, "f1");
/// let f2 = n.add_gate(GateKind::Dff, "f2");
/// let i1 = n.add_gate(GateKind::Inv, "i1");
/// let i2 = n.add_gate(GateKind::Inv, "i2");
/// n.connect(f1, i1)?;
/// n.connect(i1, f2)?;
/// n.connect(f2, i2)?;
/// n.connect(i2, f1)?;
/// let mut g = SGraph::build(&n)?;
/// assert!(g.has_edge(f1, f2) && g.has_edge(f2, f1));
/// assert!(g.has_cycle(&[]));
/// assert!(!g.has_cycle(&[f1]));
/// g.remove(f2);
/// assert!(!g.has_cycle(&[]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SGraph {
    /// The flip-flops in netlist (= ascending id) order.
    ffs: Vec<GateId>,
    pub(crate) succ: Adjacency,
    pub(crate) pred: Adjacency,
    /// False for removed nodes.
    pub(crate) alive: Vec<bool>,
}

impl SGraph {
    /// Builds the s-graph of `n` by forward reachability through the
    /// combinational network from each flip-flop output.
    ///
    /// Flip-flops are propagated 64 at a time, one bit each in a `u64`
    /// plane per gate. A chunk visits only the union of its flip-flops'
    /// fanout cones, in level order, so each gate ORs in all of its
    /// fanins' bits before it passes them on; the bits that reach a
    /// flip-flop's D input are its predecessors.
    ///
    /// # Errors
    /// Returns [`TopoError`] when the combinational logic has a cycle:
    /// the level order needs an acyclic network.
    pub fn build(n: &Netlist) -> Result<Self, TopoError> {
        let level = levelize(n)?;
        let ffs = n.dffs();
        let nn = ffs.len();
        let mut node = vec![u32::MAX; n.gate_count()];
        for (i, f) in ffs.iter().enumerate() {
            node[f.index()] = i as u32;
        }
        let depth = level.iter().copied().max().unwrap_or(0) as usize;
        let mut sweep = Sweep {
            n,
            level: &level,
            node: &node,
            plane: vec![0; n.gate_count()],
            buckets: vec![Vec::new(); depth + 1],
            top: 0,
            d_bits: vec![0; nn],
            d_touched: Vec::new(),
        };
        // (to, from) pairs; each `to`'s sources arrive in ascending order.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (c, chunk) in ffs.chunks(64).enumerate() {
            let base = (c * 64) as u32;
            sweep.top = 0;
            for (bit, &ff) in chunk.iter().enumerate() {
                sweep.spread(ff.index(), 1 << bit);
            }
            let mut l = 1;
            while l <= sweep.top {
                let bucket = std::mem::take(&mut sweep.buckets[l]);
                for &g in &bucket {
                    let bits = sweep.plane[g as usize];
                    sweep.spread(g as usize, bits);
                }
                // Every fanin of a gate sits on a lower level, so the
                // gates of this level are final and their planes free.
                for &g in &bucket {
                    sweep.plane[g as usize] = 0;
                }
                sweep.buckets[l] = bucket;
                sweep.buckets[l].clear();
                l += 1;
            }
            for &j in &sweep.d_touched {
                let mut bits = std::mem::take(&mut sweep.d_bits[j as usize]);
                while bits != 0 {
                    edges.push((j, base + bits.trailing_zeros()));
                    bits &= bits - 1;
                }
            }
            sweep.d_touched.clear();
        }

        // Predecessor lists by a stable counting sort on `to`; successor
        // lists by walking those in ascending `to`. Both come out sorted.
        let mut pred_off = vec![0usize; nn + 1];
        for &(j, _) in &edges {
            pred_off[j as usize + 1] += 1;
        }
        for v in 0..nn {
            pred_off[v + 1] += pred_off[v];
        }
        let mut fill = pred_off.clone();
        let mut pred_data = vec![0u32; edges.len()];
        let mut succ_off = vec![0usize; nn + 1];
        for &(j, i) in &edges {
            pred_data[fill[j as usize]] = i;
            fill[j as usize] += 1;
            succ_off[i as usize + 1] += 1;
        }
        for v in 0..nn {
            succ_off[v + 1] += succ_off[v];
        }
        fill.copy_from_slice(&succ_off);
        let mut succ_data = vec![0u32; edges.len()];
        for j in 0..nn {
            for &i in &pred_data[pred_off[j]..pred_off[j + 1]] {
                succ_data[fill[i as usize]] = j as u32;
                fill[i as usize] += 1;
            }
        }
        Ok(SGraph {
            ffs,
            succ: Adjacency::from_csr(&succ_off, succ_data),
            pred: Adjacency::from_csr(&pred_off, pred_data),
            alive: vec![true; nn],
        })
    }

    /// The flip-flops (nodes), in netlist order.
    #[inline]
    pub fn ffs(&self) -> &[GateId] {
        &self.ffs
    }

    /// Number of nodes (removed ones included).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.ffs.len()
    }

    /// Number of directed edges (self-loops included).
    pub fn edge_count(&self) -> usize {
        (0..self.node_count()).map(|v| self.succ.len(v)).sum()
    }

    /// The dense node index of a flip-flop.
    pub fn node(&self, ff: GateId) -> Option<usize> {
        self.ffs.binary_search(&ff).ok()
    }

    /// Successor node indices of node `i`, ascending.
    #[inline]
    pub fn succ(&self, i: usize) -> &[u32] {
        self.succ.list(i)
    }

    /// Predecessor node indices of node `i`, ascending.
    #[inline]
    pub fn pred(&self, i: usize) -> &[u32] {
        self.pred.list(i)
    }

    /// Whether the edge `from -> to` exists.
    pub fn has_edge(&self, from: GateId, to: GateId) -> bool {
        match (self.node(from), self.node(to)) {
            (Some(i), Some(j)) => self.succ(i).binary_search(&(j as u32)).is_ok(),
            _ => false,
        }
    }

    /// Removes flip-flop `ff` in place (used when a scanned flip-flop no
    /// longer participates in cycles): its node stays, edgeless.
    pub fn remove(&mut self, ff: GateId) {
        let Some(v) = self.node(ff) else {
            return;
        };
        if !std::mem::replace(&mut self.alive[v], false) {
            return;
        }
        let x = v as u32;
        for &s in self.succ.list(v) {
            self.pred.remove(s as usize, x);
        }
        for &p in self.pred.list(v) {
            self.succ.remove(p as usize, x);
        }
        self.succ.clear(v);
        self.pred.clear(v);
    }

    /// Flip-flops that lie on at least one directed cycle: members of a
    /// strongly connected component of size >= 2, plus self-loop nodes.
    /// Computed by an iterative Kosaraju pass.
    pub fn cyclic_nodes(&self) -> Vec<GateId> {
        let nn = self.ffs.len();
        // Pass 1: finish order on the forward graph.
        let mut visited = vec![false; nn];
        let mut order: Vec<usize> = Vec::with_capacity(nn);
        // (node, position in its successor list)
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for start in 0..nn {
            if visited[start] {
                continue;
            }
            visited[start] = true;
            stack.push((start, 0));
            while let Some((v, pos)) = stack.last_mut() {
                let v = *v;
                if let Some(&c) = self.succ(v).get(*pos) {
                    *pos += 1;
                    let c = c as usize;
                    if !visited[c] {
                        visited[c] = true;
                        stack.push((c, 0));
                    }
                } else {
                    order.push(v);
                    stack.pop();
                }
            }
        }
        // Pass 2: components on the reverse graph, in reverse finish order.
        let mut comp = vec![usize::MAX; nn];
        let mut comp_size = Vec::new();
        let mut todo = Vec::new();
        for &start in order.iter().rev() {
            if comp[start] != usize::MAX {
                continue;
            }
            let c = comp_size.len();
            comp_size.push(0usize);
            todo.push(start);
            comp[start] = c;
            while let Some(v) = todo.pop() {
                comp_size[c] += 1;
                for &p in self.pred(v) {
                    let p = p as usize;
                    if comp[p] == usize::MAX {
                        comp[p] = c;
                        todo.push(p);
                    }
                }
            }
        }
        (0..nn)
            .filter(|&v| comp_size[comp[v]] >= 2 || self.succ(v).binary_search(&(v as u32)).is_ok())
            .map(|v| self.ffs[v])
            .collect()
    }

    /// Whether a directed cycle survives after deleting `removed` nodes.
    /// (An empty `removed` asks whether the circuit has feedback at all;
    /// a feedback vertex set makes this return false.)
    pub fn has_cycle(&self, removed: &[GateId]) -> bool {
        let nn = self.ffs.len();
        let mut gone: Vec<bool> = self.alive.iter().map(|&a| !a).collect();
        for v in removed.iter().filter_map(|&f| self.node(f)) {
            gone[v] = true;
        }
        // Kahn's elimination over the surviving nodes.
        let mut indeg = vec![0u32; nn];
        let mut alive = 0usize;
        for v in (0..nn).filter(|&v| !gone[v]) {
            alive += 1;
            indeg[v] = self.pred(v).iter().filter(|&&p| !gone[p as usize]).count() as u32;
        }
        let mut ready: Vec<usize> = (0..nn).filter(|&v| !gone[v] && indeg[v] == 0).collect();
        let mut seen = 0usize;
        while let Some(v) = ready.pop() {
            seen += 1;
            for &s in self.succ(v) {
                let s = s as usize;
                if gone[s] {
                    continue;
                }
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push(s);
                }
            }
        }
        seen != alive
    }
}

/// One chunk's propagation state in [`SGraph::build`], reused across
/// chunks.
struct Sweep<'a> {
    n: &'a Netlist,
    level: &'a [u32],
    /// Node index of each flip-flop gate (`u32::MAX` elsewhere).
    node: &'a [u32],
    /// The chunk's flip-flop bits reaching each gate; nonzero exactly
    /// while the gate waits in its level's bucket.
    plane: Vec<u64>,
    buckets: Vec<Vec<u32>>,
    /// The deepest level a gate of this chunk waits on.
    top: usize,
    /// The chunk's flip-flop bits reaching each flip-flop's D input.
    d_bits: Vec<u64>,
    /// Flip-flops whose `d_bits` are nonzero.
    d_touched: Vec<u32>,
}

impl Sweep<'_> {
    /// Passes `bits` from gate `g` to its fanouts: a flip-flop sink
    /// records them, a combinational one queues on its level.
    fn spread(&mut self, g: usize, bits: u64) {
        for &(sink, _) in self.n.fanout(GateId::from_index(g)) {
            let s = sink.index();
            match self.n.kind(sink) {
                GateKind::Dff => {
                    let j = self.node[s];
                    if self.d_bits[j as usize] == 0 {
                        self.d_touched.push(j);
                    }
                    self.d_bits[j as usize] |= bits;
                }
                k if k.is_combinational() => {
                    if self.plane[s] == 0 {
                        let l = self.level[s] as usize;
                        self.buckets[l].push(s as u32);
                        self.top = self.top.max(l);
                    }
                    self.plane[s] |= bits;
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, VecDeque};
    use tpi_netlist::{GateKind, Netlist};
    use tpi_workloads::industrial::{generate_industrial, IndustrialSpec};
    use tpi_workloads::{generate, smoke_suite, suite, CircuitSpec, StructureClass};

    /// The per-flip-flop BFS the level-ordered build replaced, kept as
    /// its oracle: one breadth-first search from each flip-flop through
    /// the combinational network. Returns sorted successor and
    /// predecessor lists.
    fn bfs_lists(n: &Netlist) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
        let ffs = n.dffs();
        let mut succs = vec![BTreeSet::new(); ffs.len()];
        let mut preds = vec![BTreeSet::new(); ffs.len()];
        let mut seen = vec![u32::MAX; n.gate_count()];
        for (i, &ff) in ffs.iter().enumerate() {
            let mut queue = VecDeque::new();
            queue.push_back(ff);
            seen[ff.index()] = i as u32;
            while let Some(g) = queue.pop_front() {
                for &(sink, _) in n.fanout(g) {
                    match n.kind(sink) {
                        GateKind::Dff => {
                            let j = ffs.binary_search(&sink).unwrap();
                            succs[i].insert(j as u32);
                            preds[j].insert(i as u32);
                        }
                        k if k.is_combinational() && seen[sink.index()] != i as u32 => {
                            seen[sink.index()] = i as u32;
                            queue.push_back(sink);
                        }
                        _ => {}
                    }
                }
            }
        }
        let flat = |sets: Vec<BTreeSet<u32>>| sets.into_iter().map(Vec::from_iter).collect();
        (flat(succs), flat(preds))
    }

    /// Every node's successor and predecessor lists equal the oracle's.
    fn assert_matches_oracle(n: &Netlist) {
        let g = SGraph::build(n).unwrap();
        let (succs, preds) = bfs_lists(n);
        assert_eq!(g.node_count(), succs.len(), "{}: nodes", n.name());
        for v in 0..g.node_count() {
            assert_eq!(g.succ(v), succs[v].as_slice(), "{}: succ of node {v}", n.name());
            assert_eq!(g.pred(v), preds[v].as_slice(), "{}: pred of node {v}", n.name());
        }
    }

    fn suite_circuit(name: &str) -> Netlist {
        generate(&suite().into_iter().find(|s| s.name == name).expect("suite circuit"))
    }

    /// Table II circuits whose oracle BFS is too slow for a debug run.
    const LARGE: [&str; 3] = ["s13207", "s15850", "s38417"];

    #[test]
    fn build_equals_the_bfs_oracle_on_the_suite() {
        for spec in suite().iter().filter(|s| !LARGE.contains(&s.name.as_str())) {
            assert_matches_oracle(&generate(spec));
        }
    }

    #[test]
    #[ignore = "large circuits; run in release with --include-ignored"]
    fn build_equals_the_bfs_oracle_on_the_large_suite_circuits() {
        for name in LARGE {
            assert_matches_oracle(&suite_circuit(name));
        }
    }

    #[test]
    fn build_equals_the_bfs_oracle_on_the_smoke_suite() {
        for spec in smoke_suite() {
            assert_matches_oracle(&generate(&spec));
        }
    }

    #[test]
    fn build_equals_the_bfs_oracle_on_seeded_circuits() {
        for seed in 0..6u64 {
            let structure = match seed % 3 {
                0 => StructureClass::mixed(0.5, 4, 20, 2),
                1 => StructureClass::datapath(4, 3, 2),
                _ => StructureClass::multiplier(12),
            };
            let spec = CircuitSpec {
                name: format!("seeded{seed}"),
                inputs: 10,
                outputs: 8,
                ffs: 90 + 40 * seed as usize,
                target_gates: 700,
                structure,
                seed,
            };
            assert_matches_oracle(&generate(&spec));
            assert_matches_oracle(&generate_industrial(&IndustrialSpec::sized(
                format!("ind{seed}"),
                3_000,
                seed,
            )));
        }
    }

    #[test]
    fn combinational_cycle_is_an_error() {
        let mut n = Netlist::new("t");
        let f = n.add_gate(GateKind::Dff, "f");
        let a = n.add_gate(GateKind::And, "a");
        let b = n.add_gate(GateKind::Inv, "b");
        n.connect(f, a).unwrap();
        n.connect(b, a).unwrap();
        n.connect(a, b).unwrap();
        n.connect(b, f).unwrap();
        assert!(SGraph::build(&n).is_err());
    }

    /// f1 -> f2 -> f3 -> f1 ring plus a self-loop on f4.
    fn ring_and_self_loop() -> (Netlist, Vec<GateId>) {
        let mut n = Netlist::new("t");
        let f: Vec<GateId> = (0..4).map(|i| n.add_gate(GateKind::Dff, format!("f{i}"))).collect();
        let via = |n: &mut Netlist, a: GateId, b: GateId| {
            let inv = n.add_gate(GateKind::Inv, "");
            n.connect(a, inv).unwrap();
            n.connect(inv, b).unwrap();
        };
        via(&mut n, f[0], f[1]);
        via(&mut n, f[1], f[2]);
        via(&mut n, f[2], f[0]);
        via(&mut n, f[3], f[3]);
        (n, f)
    }

    #[test]
    fn edges_follow_combinational_reachability() {
        let (n, f) = ring_and_self_loop();
        let g = SGraph::build(&n).unwrap();
        assert!(g.has_edge(f[0], f[1]));
        assert!(g.has_edge(f[1], f[2]));
        assert!(g.has_edge(f[2], f[0]));
        assert!(g.has_edge(f[3], f[3]));
        assert!(!g.has_edge(f[0], f[2]));
        assert_eq!(g.edge_count(), 4);
        assert_matches_oracle(&n);
    }

    #[test]
    fn multi_gate_paths_create_single_edge() {
        let mut n = Netlist::new("t");
        let f1 = n.add_gate(GateKind::Dff, "f1");
        let f2 = n.add_gate(GateKind::Dff, "f2");
        let a = n.add_input("a");
        let g1 = n.add_gate(GateKind::And, "g1");
        let g2 = n.add_gate(GateKind::Or, "g2");
        n.connect(f1, g1).unwrap();
        n.connect(a, g1).unwrap();
        n.connect(g1, g2).unwrap();
        n.connect(a, g2).unwrap();
        n.connect(g2, f2).unwrap();
        let g = SGraph::build(&n).unwrap();
        assert!(g.has_edge(f1, f2));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn cycle_detection_and_fvs_check() {
        let (n, f) = ring_and_self_loop();
        let g = SGraph::build(&n).unwrap();
        assert!(g.has_cycle(&[]));
        assert!(g.has_cycle(&[f[0]]), "self-loop on f3 remains");
        assert!(!g.has_cycle(&[f[0], f[3]]));
        assert!(!g.has_cycle(&[f[1], f[3]]));
    }

    #[test]
    fn removal_in_place_drops_the_nodes_edges() {
        let (n, f) = ring_and_self_loop();
        let mut g = SGraph::build(&n).unwrap();
        g.remove(f[1]);
        assert!(!g.has_edge(f[0], f[1]) && !g.has_edge(f[1], f[2]));
        assert!(g.has_cycle(&[]), "self-loop on f3 remains");
        assert_eq!(g.cyclic_nodes(), vec![f[3]]);
        assert_eq!(g.edge_count(), 2);
        g.remove(f[3]);
        assert!(!g.has_cycle(&[]));
        assert!(g.cyclic_nodes().is_empty());
        assert_eq!(g.node_count(), 4);
    }

    #[test]
    fn cyclic_nodes_are_exactly_the_cycle_members() {
        // ring f0->f1->f2->f0, self-loop f3, plus a dangling feeder f4
        // and a vertex f5 between nothing (acyclic).
        let (n, f) = ring_self_loop_and_tail();
        let g = SGraph::build(&n).unwrap();
        let mut cyc = g.cyclic_nodes();
        cyc.sort();
        let mut expect = vec![f[0], f[1], f[2], f[3]];
        expect.sort();
        assert_eq!(cyc, expect);
    }

    /// ring f0..f2, self-loop f3, f4 -> f0 feeder, f2 -> f5 sink.
    fn ring_self_loop_and_tail() -> (Netlist, Vec<GateId>) {
        let mut n = Netlist::new("t");
        let mut ffs = Vec::new();
        let mut merges = Vec::new();
        for i in 0..6 {
            let or = n.add_gate(GateKind::Or, format!("m{i}"));
            let f = n.add_gate(GateKind::Dff, format!("f{i}"));
            n.connect(or, f).unwrap();
            ffs.push(f);
            merges.push(or);
        }
        let edge = |n: &mut Netlist, a: usize, b: usize| {
            n.connect(ffs[a], merges[b]).unwrap();
        };
        edge(&mut n, 0, 1);
        edge(&mut n, 1, 2);
        edge(&mut n, 2, 0);
        edge(&mut n, 3, 3);
        edge(&mut n, 4, 0);
        edge(&mut n, 2, 5);
        (n, ffs)
    }

    #[test]
    fn pipeline_has_no_cycle() {
        let mut n = Netlist::new("t");
        let f1 = n.add_gate(GateKind::Dff, "f1");
        let f2 = n.add_gate(GateKind::Dff, "f2");
        n.connect(f1, f2).unwrap();
        let d = n.add_input("d");
        n.connect(d, f1).unwrap();
        let g = SGraph::build(&n).unwrap();
        assert!(!g.has_cycle(&[]));
        assert!(g.has_edge(f1, f2));
    }
}
