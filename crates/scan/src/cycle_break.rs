//! Cycle-breaking flip-flop selection for partial scan.
//!
//! Implements the Lee–Reddy algorithm (paper ref. \[6\]) as modified by
//! Jou–Cheng for timing-driven selection (ref. \[7\]), exactly as §IV.B of
//! the paper describes: a graph-reduction phase with five operations
//! (source, sink, self-loop, unit-in, unit-out) interleaved with a
//! heuristic phase that selects the vertex with the maximal sum of fanins
//! and fanouts.
//!
//! The timing-driven flavor is expressed through the `selectable`
//! predicate of [`CycleBreakOptions`]: a flip-flop whose slack cannot
//! absorb a scan mux is never selected, and the unit-in/unit-out
//! contractions are only applied to unselectable vertices so that
//! selectable ones stay available for the heuristic (the ref. \[7\]
//! modification).

use crate::sgraph::{Adjacency, SGraph};
use tpi_netlist::GateId;

/// Options controlling [`break_cycles`].
pub struct CycleBreakOptions<'a> {
    /// Whether a flip-flop may be selected for scan. The classic
    /// area-driven CB passes `|_| true`; TD-CB passes a slack check.
    pub selectable: Box<dyn Fn(GateId) -> bool + 'a>,
    /// Apply unit-in/unit-out contractions to *selectable* vertices too
    /// (classic Lee–Reddy behavior). TD-CB sets this to `false`.
    pub contract_selectable: bool,
}

impl<'a> CycleBreakOptions<'a> {
    /// Classic area-driven configuration (the paper's "CB" column).
    pub fn classic() -> Self {
        CycleBreakOptions { selectable: Box::new(|_| true), contract_selectable: true }
    }

    /// Timing-driven configuration (the paper's "TD-CB" column): only
    /// flip-flops passing `selectable` may be chosen.
    pub fn timing_driven(selectable: impl Fn(GateId) -> bool + 'a) -> Self {
        CycleBreakOptions { selectable: Box::new(selectable), contract_selectable: false }
    }
}

impl std::fmt::Debug for CycleBreakOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CycleBreakOptions")
            .field("contract_selectable", &self.contract_selectable)
            .finish_non_exhaustive()
    }
}

/// Result of [`break_cycles`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleBreakResult {
    /// Flip-flops selected for scan, in selection order.
    pub selected: Vec<GateId>,
    /// Flip-flops whose cycles could not be broken under the
    /// selectability constraint (empty when a full solution was found).
    /// These are exactly the vertices the paper hands to the
    /// minimal-degradation fallback of §IV.B.
    pub unresolved: Vec<GateId>,
}

impl CycleBreakResult {
    /// True when every cycle was broken.
    pub fn complete(&self) -> bool {
        self.unresolved.is_empty()
    }
}

/// The graph the reductions edit: the s-graph's sorted `u32` adjacency
/// lists plus an alive mask. Deleting a vertex only clears its mask bit
/// and its neighbours' live degrees; its entries stay behind in their
/// lists, hidden by the mask, until a contraction rewrites the list.
#[derive(Debug, Default)]
struct WorkGraph {
    succ: Adjacency,
    pred: Adjacency,
    alive: Vec<bool>,
    alive_count: usize,
    /// Live predecessors per vertex.
    indeg: Vec<u32>,
    /// Live successors per vertex.
    outdeg: Vec<u32>,
    /// Whether each vertex is its own successor.
    self_loop: Vec<bool>,
    /// Vertices whose adjacency changed since the reduction last looked
    /// at them, one bit each.
    dirty: Vec<u64>,
}

impl WorkGraph {
    /// Becomes a copy of `g`, every live vertex dirty, reusing buffers.
    fn reset_from(&mut self, g: &SGraph) {
        let nn = g.node_count();
        self.succ.reset_from(&g.succ);
        self.pred.reset_from(&g.pred);
        self.alive.clone_from(&g.alive);
        self.alive_count = self.alive.iter().filter(|&&a| a).count();
        self.indeg.clear();
        self.indeg.extend((0..nn).map(|v| self.pred.len(v) as u32));
        self.outdeg.clear();
        self.outdeg.extend((0..nn).map(|v| self.succ.len(v) as u32));
        self.self_loop.clear();
        self.self_loop
            .extend((0..nn).map(|v| self.succ.list(v).binary_search(&(v as u32)).is_ok()));
        self.dirty.clear();
        self.dirty.resize(nn.div_ceil(64), 0);
        for v in (0..nn).filter(|&v| self.alive[v]) {
            self.dirty[v / 64] |= 1 << (v % 64);
        }
    }

    /// The first dirty vertex at or after `from`, its bit cleared.
    fn take_dirty(&mut self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut word = *self.dirty.get(w)? & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                let v = w * 64 + word.trailing_zeros() as usize;
                self.dirty[w] &= !(1 << (v % 64));
                return Some(v);
            }
            w += 1;
            word = *self.dirty.get(w)?;
        }
    }

    fn degree(&self, v: usize) -> u32 {
        self.indeg[v] + self.outdeg[v]
    }

    /// Deletes `v`; its live neighbours lose a degree and turn dirty.
    /// Branch-free per entry: about half the entries are stale, in no
    /// predictable pattern.
    fn remove_vertex(&mut self, v: usize) {
        self.alive[v] = false;
        self.alive_count -= 1;
        for &s in self.succ.list(v) {
            let s = s as usize;
            let live = u32::from(self.alive[s]);
            self.indeg[s] -= live;
            self.dirty[s / 64] |= u64::from(live) << (s % 64);
        }
        for &p in self.pred.list(v) {
            let p = p as usize;
            let live = u32::from(self.alive[p]);
            self.outdeg[p] -= live;
            self.dirty[p / 64] |= u64::from(live) << (p % 64);
        }
    }

    /// Contracts `v` into the graph: `v`'s predecessors gain edges to all
    /// of `v`'s successors, then `v` disappears. Preserves cycles that
    /// run through `v`. `scratch` holds three reusable buffers.
    fn contract(&mut self, v: usize, scratch: &mut [Vec<u32>; 3]) {
        let [preds, succs, merged] = scratch;
        let alive = &self.alive;
        let live = |x: &&u32| alive[**x as usize] && **x as usize != v;
        preds.clear();
        preds.extend(self.pred.list(v).iter().filter(live));
        succs.clear();
        succs.extend(self.succ.list(v).iter().filter(live));
        self.remove_vertex(v);
        for &p in preds.iter() {
            let p = p as usize;
            join(&mut self.succ, p, succs, &self.alive, merged, &mut self.outdeg[p]);
            // p -> v -> p closes a new self-loop on p.
            self.self_loop[p] |= succs.binary_search(&(p as u32)).is_ok();
        }
        for &s in succs.iter() {
            let s = s as usize;
            join(&mut self.pred, s, preds, &self.alive, merged, &mut self.indeg[s]);
        }
    }
}

/// Adds the live vertices `add` to list `v` of `adj` and keeps `live`,
/// the list's live count, exact. A unit-in or unit-out contraction adds a
/// single vertex to all but one list; that one is inserted in place,
/// anything longer is merged, and the merge drops stale entries.
fn join(
    adj: &mut Adjacency,
    v: usize,
    add: &[u32],
    alive: &[bool],
    merged: &mut Vec<u32>,
    live: &mut u32,
) {
    if let [x] = add {
        *live += u32::from(adj.insert(v, *x));
    } else {
        adj.union(v, add, |x| alive[x as usize], merged);
        *live = merged.len() as u32;
    }
}

/// Reusable cycle-breaking state: the work graph the reductions edit
/// and the scratch buffers of its contractions. Each
/// [`run`](Self::run) resets them from the s-graph it is given instead
/// of reallocating, so a selection loop that breaks cycles once per
/// round keeps one breaker.
#[derive(Debug, Default)]
pub struct CycleBreaker {
    work: WorkGraph,
    selectable: Vec<bool>,
    /// The selectable vertices still alive, ascending.
    candidates: Vec<u32>,
    scratch: [Vec<u32>; 3],
}

impl CycleBreaker {
    /// A breaker with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs the cycle-breaking selection on `g` under `options`; see
    /// [`break_cycles`]. Removed nodes of `g` take no part.
    ///
    /// The result is empty (nothing selected, nothing unresolved)
    /// exactly when `g` is acyclic: the reductions never break a cycle,
    /// and they consume an acyclic graph whole.
    pub fn run(&mut self, g: &SGraph, options: &CycleBreakOptions<'_>) -> CycleBreakResult {
        let nn = g.node_count();
        let ffs = g.ffs();
        let w = &mut self.work;
        w.reset_from(g);
        self.selectable.clear();
        self.selectable.extend((0..nn).map(|v| w.alive[v] && (options.selectable)(ffs[v])));
        let selectable = &self.selectable;
        self.candidates.clear();
        self.candidates.extend((0..nn as u32).filter(|&v| selectable[v as usize]));
        let mut selected = Vec::new();
        let mut unresolved = Vec::new();

        while w.alive_count > 0 {
            // --- Reduction phase: run to a fixed point, sweeping the
            // vertices in ascending order, pass after pass, until a pass
            // changes nothing. A vertex whose adjacency has not changed
            // since it was last looked at would be left alone again, so
            // each pass visits only the dirty ones.
            let mut next = 0;
            while let Some(v) = w.take_dirty(next).or_else(|| w.take_dirty(0)) {
                next = v + 1;
                if !w.alive[v] {
                    continue;
                }
                // Self-loop operation: the vertex must be scanned.
                if w.self_loop[v] {
                    if selectable[v] {
                        selected.push(ffs[v]);
                    } else {
                        unresolved.push(ffs[v]);
                    }
                    w.remove_vertex(v);
                    continue;
                }
                // Source / sink operations: acyclic fringe.
                if w.indeg[v] == 0 || w.outdeg[v] == 0 {
                    w.remove_vertex(v);
                    continue;
                }
                // Unit-in / unit-out operations (contractions). The
                // timing-driven variant only contracts unselectable
                // vertices, keeping selectable ones for the heuristic.
                if (w.indeg[v] == 1 || w.outdeg[v] == 1)
                    && (options.contract_selectable || !selectable[v])
                {
                    w.contract(v, &mut self.scratch);
                }
            }

            // --- Heuristic phase: pick the best selectable vertex, the
            // highest degree and, among ties, the highest index (the last
            // maximum in ascending order): the largest key
            // `(degree + 1) << 32 | index`, 0 when none is left.
            let mut best = 0u64;
            self.candidates.retain(|&v| {
                let live = w.alive[v as usize];
                if live {
                    best = best.max(u64::from(w.degree(v as usize) + 1) << 32 | u64::from(v));
                }
                live
            });
            if best == 0 {
                // No selectable vertex left; whatever remains is stuck in
                // cycles that need the minimal-degradation fallback.
                unresolved
                    .extend((0..nn).filter(|&v| w.alive[v] && w.outdeg[v] > 0).map(|v| ffs[v]));
                break;
            }
            let best = (best & u64::from(u32::MAX)) as usize;
            selected.push(ffs[best]);
            w.remove_vertex(best);
        }

        CycleBreakResult { selected, unresolved }
    }
}

/// Runs the cycle-breaking selection on `g` under `options`, with a
/// fresh [`CycleBreaker`].
///
/// Returns the selected feedback set and any unresolved vertices (see
/// [`CycleBreakResult`]). When `options.selectable` always returns true
/// the result is a complete feedback vertex set: removing `selected` from
/// `g` leaves an acyclic graph (property-tested).
pub fn break_cycles(g: &SGraph, options: &CycleBreakOptions<'_>) -> CycleBreakResult {
    CycleBreaker::new().run(g, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use tpi_netlist::{GateKind, Netlist};

    /// The `BTreeSet` working copy the flat work graph replaced, kept
    /// with its reduction loop as the oracle of [`CycleBreaker::run`].
    /// Like the s-graph copies it used to reduce, removed nodes start
    /// alive and edgeless.
    struct Work {
        succ: Vec<BTreeSet<usize>>,
        pred: Vec<BTreeSet<usize>>,
        alive: Vec<bool>,
    }

    impl Work {
        fn remove_vertex(&mut self, v: usize) {
            self.alive[v] = false;
            let outs: Vec<usize> = self.succ[v].iter().copied().collect();
            for s in outs {
                self.pred[s].remove(&v);
            }
            let ins: Vec<usize> = self.pred[v].iter().copied().collect();
            for p in ins {
                self.succ[p].remove(&v);
            }
            self.succ[v].clear();
            self.pred[v].clear();
        }

        fn contract(&mut self, v: usize) {
            let preds: Vec<usize> = self.pred[v].iter().copied().collect();
            let succs: Vec<usize> = self.succ[v].iter().copied().collect();
            for &p in &preds {
                for &s in &succs {
                    if p == v || s == v {
                        continue;
                    }
                    self.succ[p].insert(s);
                    self.pred[s].insert(p);
                }
            }
            self.remove_vertex(v);
        }

        fn degree(&self, v: usize) -> usize {
            self.succ[v].len() + self.pred[v].len()
        }
    }

    fn oracle_break_cycles(g: &SGraph, options: &CycleBreakOptions<'_>) -> CycleBreakResult {
        let nn = g.node_count();
        let set = |l: &[u32]| l.iter().map(|&x| x as usize).collect::<BTreeSet<usize>>();
        let mut w = Work {
            succ: (0..nn).map(|v| set(g.succ(v))).collect(),
            pred: (0..nn).map(|v| set(g.pred(v))).collect(),
            alive: vec![true; nn],
        };
        let mut selected = Vec::new();
        let mut unresolved = Vec::new();
        let selectable = |v: usize| (options.selectable)(g.ffs()[v]);

        loop {
            let mut changed = true;
            while changed {
                changed = false;
                for v in 0..nn {
                    if !w.alive[v] {
                        continue;
                    }
                    if w.succ[v].contains(&v) {
                        if selectable(v) {
                            selected.push(g.ffs()[v]);
                        } else {
                            unresolved.push(g.ffs()[v]);
                        }
                        w.remove_vertex(v);
                        changed = true;
                        continue;
                    }
                    if w.pred[v].is_empty() || w.succ[v].is_empty() {
                        w.remove_vertex(v);
                        changed = true;
                        continue;
                    }
                    if (w.pred[v].len() == 1 || w.succ[v].len() == 1)
                        && (options.contract_selectable || !selectable(v))
                    {
                        w.contract(v);
                        changed = true;
                    }
                }
            }
            let Some(best) =
                (0..nn).filter(|&v| w.alive[v] && selectable(v)).max_by_key(|&v| w.degree(v))
            else {
                for v in 0..nn {
                    if w.alive[v] && !w.succ[v].is_empty() {
                        unresolved.push(g.ffs()[v]);
                    }
                }
                break;
            };
            selected.push(g.ffs()[best]);
            w.remove_vertex(best);
            if !w.alive.iter().any(|&a| a) {
                break;
            }
        }
        CycleBreakResult { selected, unresolved }
    }

    /// Builds `k` flip-flops, each fed by a variadic OR "merge" gate so
    /// tests can add any number of FF->FF edges.
    fn ff_bank(k: usize) -> (Netlist, Vec<GateId>, Vec<GateId>) {
        let mut n = Netlist::new("bank");
        let mut ffs = Vec::new();
        let mut merges = Vec::new();
        for i in 0..k {
            let or = n.add_gate(GateKind::Or, format!("m{i}"));
            let f = n.add_gate(GateKind::Dff, format!("f{i}"));
            n.connect(or, f).unwrap();
            ffs.push(f);
            merges.push(or);
        }
        (n, ffs, merges)
    }

    fn edge(n: &mut Netlist, ffs: &[GateId], merges: &[GateId], a: usize, b: usize) {
        n.connect(ffs[a], merges[b]).unwrap();
    }

    fn ring(k: usize) -> (Netlist, Vec<GateId>) {
        let (mut n, ffs, merges) = ff_bank(k);
        for i in 0..k {
            edge(&mut n, &ffs, &merges, i, (i + 1) % k);
        }
        (n, ffs)
    }

    #[test]
    fn single_ring_needs_one_ff() {
        let (n, _f) = ring(5);
        let g = SGraph::build(&n).unwrap();
        let r = break_cycles(&g, &CycleBreakOptions::classic());
        assert!(r.complete());
        assert_eq!(r.selected.len(), 1);
        assert!(!g.has_cycle(&r.selected));
    }

    #[test]
    fn self_loop_forces_selection() {
        let (mut n, ffs, merges) = ff_bank(1);
        edge(&mut n, &ffs, &merges, 0, 0);
        let g = SGraph::build(&n).unwrap();
        let r = break_cycles(&g, &CycleBreakOptions::classic());
        assert_eq!(r.selected, vec![ffs[0]]);
    }

    #[test]
    fn acyclic_graph_selects_nothing() {
        let (mut n, ffs, merges) = ff_bank(2);
        edge(&mut n, &ffs, &merges, 0, 1);
        let d = n.add_input("d");
        n.connect(d, merges[0]).unwrap();
        let g = SGraph::build(&n).unwrap();
        let r = break_cycles(&g, &CycleBreakOptions::classic());
        assert!(r.complete());
        assert!(r.selected.is_empty());
    }

    #[test]
    fn two_rings_sharing_a_vertex_need_one_selection() {
        // f0->f1->f0 and f0->f2->f0 : selecting f0 breaks both.
        let (mut n, f, merges) = ff_bank(3);
        edge(&mut n, &f, &merges, 0, 1);
        edge(&mut n, &f, &merges, 1, 0);
        edge(&mut n, &f, &merges, 0, 2);
        edge(&mut n, &f, &merges, 2, 0);
        let g = SGraph::build(&n).unwrap();
        let r = break_cycles(&g, &CycleBreakOptions::classic());
        assert!(r.complete());
        assert_eq!(r.selected, vec![f[0]], "max-degree heuristic picks the hub");
        assert!(!g.has_cycle(&r.selected));
    }

    #[test]
    fn timing_constraint_shifts_selection() {
        // Ring of 3 where f0 is not selectable: TD-CB must pick another.
        let (n, f) = ring(3);
        let g = SGraph::build(&n).unwrap();
        let banned = f[0];
        let opts = CycleBreakOptions::timing_driven(move |ff| ff != banned);
        let r = break_cycles(&g, &opts);
        assert!(r.complete());
        assert_eq!(r.selected.len(), 1);
        assert_ne!(r.selected[0], f[0]);
        assert!(!g.has_cycle(&r.selected));
    }

    #[test]
    fn unselectable_self_loop_is_unresolved() {
        let (mut n, ffs, merges) = ff_bank(1);
        edge(&mut n, &ffs, &merges, 0, 0);
        let g = SGraph::build(&n).unwrap();
        let opts = CycleBreakOptions::timing_driven(|_| false);
        let r = break_cycles(&g, &opts);
        assert!(!r.complete());
        assert_eq!(r.unresolved, vec![ffs[0]]);
        assert!(r.selected.is_empty());
    }

    #[test]
    fn nothing_selectable_reports_all_cyclic_vertices() {
        let (n, _f) = ring(4);
        let g = SGraph::build(&n).unwrap();
        let opts = CycleBreakOptions::timing_driven(|_| false);
        let r = break_cycles(&g, &opts);
        assert!(!r.complete());
        assert!(!r.unresolved.is_empty());
    }

    #[test]
    fn classic_always_produces_a_feedback_vertex_set() {
        // Deterministic pseudo-random digraphs; FVS property must hold.
        let mut seed = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for trial in 0..20 {
            let k = 4 + (trial % 8);
            let (mut n, f, merges) = ff_bank(k);
            for i in 0..k {
                for j in 0..k {
                    if next() % 4 == 0 {
                        edge(&mut n, &f, &merges, i, j);
                    }
                }
            }
            let g = SGraph::build(&n).unwrap();
            let r = break_cycles(&g, &CycleBreakOptions::classic());
            assert!(r.complete(), "classic CB must always complete");
            assert!(!g.has_cycle(&r.selected), "selected set must be an FVS (trial {trial})");
        }
    }

    /// xorshift64, the test's only source of randomness.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        /// True with probability `num / den`.
        fn chance(&mut self, num: u64, den: u64) -> bool {
            self.next() % den < num
        }
    }

    /// A random digraph on `k` flip-flops: each ordered pair `i != j` is
    /// an edge with probability `num / den`, each self-loop with
    /// probability `self_num / 64`.
    fn random_sgraph(rng: &mut Rng, k: usize, num: u64, den: u64, self_num: u64) -> SGraph {
        let (mut n, f, merges) = ff_bank(k);
        for i in 0..k {
            for j in 0..k {
                let hit = if i == j { rng.chance(self_num, 64) } else { rng.chance(num, den) };
                if hit {
                    edge(&mut n, &f, &merges, i, j);
                }
            }
        }
        SGraph::build(&n).unwrap()
    }

    #[test]
    fn flat_reduction_equals_the_btreeset_oracle() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let mut breaker = CycleBreaker::new();
        let (mut empty, mut cyclic) = (0, 0);
        // (nodes, edge probability num/den, self-loop chance in 64ths)
        let shapes: [(usize, u64, u64, u64); 6] = [
            (30, 1, 40, 0),
            (60, 3, 60, 0),
            (150, 2, 150, 1),
            (80, 1, 100, 0),
            (24, 1, 3, 2),
            (40, 1, 2, 8),
        ];
        for trial in 0..360 {
            let (k, num, den, self_num) = shapes[trial % shapes.len()];
            let mut g = random_sgraph(&mut rng, k, num, den, self_num);
            // Remove a random node set in place, as the selection loop does.
            let remove_den = [0, 16, 4, 2][(trial / 6) % 4];
            for &ff in &g.ffs().to_vec() {
                if remove_den > 0 && rng.chance(1, remove_den) {
                    g.remove(ff);
                }
            }
            let salt = rng.next();
            let ban_den = [0, 8, 3][(trial / 24) % 3];
            let selectable = move |ff: GateId| {
                let h = (ff.index() as u64 ^ salt).wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33;
                ban_den == 0 || !h.is_multiple_of(ban_den)
            };
            let modes = [
                CycleBreakOptions { selectable: Box::new(selectable), contract_selectable: true },
                CycleBreakOptions::timing_driven(selectable),
            ];
            for opts in &modes {
                let got = breaker.run(&g, opts);
                assert_eq!(got, oracle_break_cycles(&g, opts), "trial {trial} {opts:?}");
                let nothing = got.selected.is_empty() && got.unresolved.is_empty();
                assert_eq!(nothing, !g.has_cycle(&[]), "trial {trial}: empty iff acyclic");
                if nothing {
                    empty += 1;
                } else {
                    cyclic += 1;
                }
            }
        }
        assert!(
            empty > 100 && cyclic > 300,
            "both verdicts exercised: {empty} empty, {cyclic} not"
        );
    }
}
