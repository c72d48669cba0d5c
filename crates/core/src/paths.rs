//! FF-to-FF combinational path enumeration (§III.A).
//!
//! The algorithm builds a sparse matrix `A` where entry `A_ij` is the set
//! of combinational paths from flip-flop `F_i` to flip-flop `F_j`. Since
//! establishing a scan path through a path with many side inputs is
//! costly, only paths with at most `K_bound` side inputs are recorded.

use std::collections::HashMap;
use tpi_netlist::{Conn, GateId, GateKind, Netlist};
pub use tpi_par::Threads;

/// Identifier of a path inside a [`PathSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathId(pub(crate) u32);

impl PathId {
    /// Dense index of the path.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One candidate scan path: a combinational path between two flip-flops
/// together with its side inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanPathCandidate {
    /// Source flip-flop (`g_1` in the paper's path `[g_1, ..., g_k]`).
    pub from: GateId,
    /// Destination flip-flop.
    pub to: GateId,
    /// Combinational gates along the path, in order (excluding the FFs).
    pub gates: Vec<GateId>,
    /// Side inputs: connections whose sink lies on the path but whose
    /// source does not.
    pub side_inputs: Vec<Conn>,
    /// Whether a bit shifted along the path arrives complemented.
    pub inverting: bool,
}

impl ScanPathCandidate {
    /// The paper's `|p_k|`: number of side inputs.
    #[inline]
    pub fn side_input_count(&self) -> usize {
        self.side_inputs.len()
    }
}

/// The sparse path matrix `A` of §III.A plus reverse indices used by the
/// greedy insertion loop.
///
/// # Example
///
/// ```
/// use tpi_netlist::{Netlist, GateKind};
/// use tpi_core::paths::enumerate_paths;
/// # fn main() -> Result<(), tpi_netlist::NetlistError> {
/// let mut n = Netlist::new("t");
/// let f1 = n.add_gate(GateKind::Dff, "f1");
/// let x = n.add_input("x");
/// let g = n.add_gate(GateKind::And, "g");
/// n.connect(f1, g)?;
/// n.connect(x, g)?;
/// let f2 = n.add_gate(GateKind::Dff, "f2");
/// n.connect(g, f2)?;
/// n.connect(x, f1)?;
/// let ps = enumerate_paths(&n, 10, usize::MAX);
/// assert_eq!(ps.len(), 1);
/// assert_eq!(ps.path(ps.pair(f1, f2)[0]).side_input_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PathSet {
    paths: Vec<ScanPathCandidate>,
    by_pair: HashMap<(GateId, GateId), Vec<PathId>>,
    /// side-input source net -> paths listing it as a side input
    by_side_source: HashMap<GateId, Vec<PathId>>,
    /// on-path net -> paths running through it
    by_path_net: HashMap<GateId, Vec<PathId>>,
    /// source flip-flop -> paths starting there
    by_from: HashMap<GateId, Vec<PathId>>,
    /// Number of paths pruned by the safety cap.
    truncated: usize,
}

impl PathSet {
    /// Total number of recorded paths.
    #[inline]
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// True when no path was recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Number of candidate paths dropped by the safety cap (0 in normal
    /// operation; the paper's `K_bound` is the intended limiter).
    #[inline]
    pub fn truncated(&self) -> usize {
        self.truncated
    }

    /// The path record for `id`.
    #[inline]
    pub fn path(&self, id: PathId) -> &ScanPathCandidate {
        &self.paths[id.index()]
    }

    /// All path ids, in discovery order.
    pub fn ids(&self) -> impl Iterator<Item = PathId> + '_ {
        (0..self.paths.len() as u32).map(PathId)
    }

    /// Entry `A_ij`: paths from `from` to `to`.
    pub fn pair(&self, from: GateId, to: GateId) -> &[PathId] {
        self.by_pair.get(&(from, to)).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Paths that list the net `src` as a side-input source.
    pub fn paths_with_side_source(&self, src: GateId) -> &[PathId] {
        self.by_side_source.get(&src).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Paths that run through the net `g`.
    pub fn paths_through(&self, g: GateId) -> &[PathId] {
        self.by_path_net.get(&g).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All `(from, to)` pairs with at least one path.
    pub fn pairs(&self) -> impl Iterator<Item = (GateId, GateId)> + '_ {
        self.by_pair.keys().copied()
    }

    /// All `(from, to)` pairs together with their path id lists.
    pub fn pairs_with_ids(&self) -> impl Iterator<Item = (&(GateId, GateId), &Vec<PathId>)> {
        self.by_pair.iter()
    }

    /// Paths originating at flip-flop `ff`.
    pub fn paths_from(&self, ff: GateId) -> &[PathId] {
        self.by_from.get(&ff).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Gate kinds a scan path may ride through: the primitive gates the paper
/// handles (AND, OR, NAND, NOR, inverters) plus buffers. XOR/XNOR/MUX are
/// excluded as path gates (their shift polarity would depend on the side
/// value), but they may appear as side-input *sources*.
fn rideable(kind: GateKind) -> bool {
    matches!(
        kind,
        GateKind::And
            | GateKind::Or
            | GateKind::Nand
            | GateKind::Nor
            | GateKind::Inv
            | GateKind::Buf
    )
}

/// [`PathId`] is a `u32`: recording more paths than `u32::MAX` would
/// silently wrap the id and corrupt every reverse index, so the cap is
/// clamped here before any enumeration starts.
fn clamp_max_paths(max_paths: usize) -> usize {
    max_paths.min(u32::MAX as usize)
}

/// Paths found by the DFS out of a single source flip-flop, in discovery
/// order. `attempted` counts every completed path, including those beyond
/// the recording cap, so the merged [`PathSet::truncated`] figure is
/// exact.
#[derive(Debug, Default)]
struct FfPaths {
    found: Vec<ScanPathCandidate>,
    attempted: usize,
}

/// Iterative DFS over the fanout cone of one flip-flop.
///
/// This used to be a recursive `explore`; deep combinational chains
/// (tens of thousands of gates between two flip-flops) overflowed the
/// stack, so the recursion is now an explicit frame stack. Each frame
/// remembers how to undo its entry mutations (side inputs pushed, parity
/// flip, on-path mark) when it is popped — the discovery order is
/// identical to the recursive version's.
///
/// `on_path` is the worker's reusable on-path marker, sized here on
/// first use. Each popped frame clears its own mark, so it is all
/// `false` again when the DFS ends.
fn dfs_from(
    n: &Netlist,
    from: GateId,
    k_bound: usize,
    max_paths: usize,
    on_path: &mut Vec<bool>,
) -> FfPaths {
    struct Frame {
        cur: GateId,
        /// Next fanout edge of `cur` to examine.
        edge: usize,
        /// Side inputs pushed when this frame was entered.
        added_sides: usize,
        /// Whether entering this frame flipped the shift polarity.
        flipped: bool,
    }
    let mut out = FfPaths::default();
    let mut gates: Vec<GateId> = Vec::new();
    on_path.resize(n.gate_count(), false);
    let mut side: Vec<Conn> = Vec::new();
    let mut inverting = false;
    let mut stack = vec![Frame { cur: from, edge: 0, added_sides: 0, flipped: false }];
    while let Some(top) = stack.last_mut() {
        let cur = top.cur;
        let fanout = n.fanout(cur);
        if top.edge >= fanout.len() {
            // Frame exhausted: undo its entry mutations (the root frame,
            // the flip-flop itself, pushed none).
            let Frame { added_sides, flipped, .. } = *top;
            stack.pop();
            if !stack.is_empty() {
                if flipped {
                    inverting = !inverting;
                }
                on_path[cur.index()] = false;
                gates.pop();
                side.truncate(side.len() - added_sides);
            }
            continue;
        }
        let (sink, pin) = fanout[top.edge];
        top.edge += 1;
        let kind = n.kind(sink);
        if kind == GateKind::Dff {
            // Direct FF->FF connections are valid (free) paths.
            out.attempted += 1;
            if out.found.len() < max_paths {
                out.found.push(ScanPathCandidate {
                    from,
                    to: sink,
                    gates: gates.clone(),
                    side_inputs: side.clone(),
                    inverting,
                });
            }
            continue;
        }
        if !rideable(kind) || on_path[sink.index()] {
            continue;
        }
        // Entering `sink` via `pin`: the other fanins become side
        // inputs. A "side" whose source lies on the path itself
        // (or is the source flip-flop) carries the shifting data,
        // not a constant — such reconvergent paths cannot be
        // sensitized by test points and are pruned.
        let mut reconverges = false;
        let mut new_sides: Vec<Conn> = Vec::new();
        for (p, &src) in n.fanin(sink).iter().enumerate() {
            if p == pin as usize {
                continue;
            }
            if on_path[src.index()] || src == from {
                reconverges = true;
                break;
            }
            new_sides.push(Conn::new(src, sink, p as u32));
        }
        if reconverges || side.len() + new_sides.len() > k_bound {
            continue;
        }
        let added = new_sides.len();
        side.extend(new_sides);
        gates.push(sink);
        on_path[sink.index()] = true;
        let flipped = kind.inverts();
        if flipped {
            inverting = !inverting;
        }
        stack.push(Frame { cur: sink, edge: 0, added_sides: added, flipped });
    }
    out
}

/// Merges per-flip-flop DFS results into one [`PathSet`], assigning
/// [`PathId`]s in flip-flop order then discovery order — exactly the
/// order the sequential single-loop enumeration produces.
fn merge_ff_paths(jobs: Vec<FfPaths>, max_paths: usize) -> PathSet {
    let mut set = PathSet {
        paths: Vec::new(),
        by_pair: HashMap::new(),
        by_side_source: HashMap::new(),
        by_path_net: HashMap::new(),
        by_from: HashMap::new(),
        truncated: 0,
    };
    for job in jobs {
        set.truncated += job.attempted - job.found.len();
        for cand in job.found {
            if set.paths.len() >= max_paths {
                set.truncated += 1;
                continue;
            }
            let id = PathId(set.paths.len() as u32);
            set.by_pair.entry((cand.from, cand.to)).or_default().push(id);
            set.by_from.entry(cand.from).or_default().push(id);
            for c in &cand.side_inputs {
                let v = set.by_side_source.entry(c.source).or_default();
                if v.last() != Some(&id) {
                    v.push(id);
                }
            }
            for &g in &cand.gates {
                set.by_path_net.entry(g).or_default().push(id);
            }
            set.paths.push(cand);
        }
    }
    set
}

/// Enumerates all FF-to-FF combinational paths with at most `k_bound`
/// side inputs. `max_paths` is a safety cap on the total number of
/// recorded paths (use `usize::MAX` for none — it is clamped to
/// `u32::MAX`, the [`PathId`] capacity); the count of dropped paths is
/// available via [`PathSet::truncated`].
///
/// Complexity is output-sensitive: a DFS from each flip-flop that prunes
/// as soon as the side-input budget is exceeded.
pub fn enumerate_paths(n: &Netlist, k_bound: usize, max_paths: usize) -> PathSet {
    enumerate_paths_with(n, k_bound, max_paths, Threads::new(1))
}

/// Like [`enumerate_paths`] but fans the per-flip-flop DFS jobs across
/// `threads` workers. The result is **byte-identical** to the sequential
/// enumeration: each job records in its own discovery order, jobs are
/// merged in flip-flop order, and the cap + truncation accounting are
/// applied on the merged stream.
pub fn enumerate_paths_with(
    n: &Netlist,
    k_bound: usize,
    max_paths: usize,
    threads: Threads,
) -> PathSet {
    let max_paths = clamp_max_paths(max_paths);
    let ffs = n.dffs();
    let jobs = tpi_par::map_indexed(threads, ffs.len(), &Vec::new(), |on_path, i| {
        dfs_from(n, ffs[i], k_bound, max_paths, on_path)
    });
    merge_ff_paths(jobs, max_paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_netlist::{GateKind, Netlist};

    /// f1 -> AND(x) -> NAND(y) -> f2
    fn two_gate_path() -> (Netlist, GateId, GateId) {
        let mut n = Netlist::new("t");
        let f1 = n.add_gate(GateKind::Dff, "f1");
        let x = n.add_input("x");
        let y = n.add_input("y");
        let g1 = n.add_gate(GateKind::And, "g1");
        n.connect(f1, g1).unwrap();
        n.connect(x, g1).unwrap();
        let g2 = n.add_gate(GateKind::Nand, "g2");
        n.connect(g1, g2).unwrap();
        n.connect(y, g2).unwrap();
        let f2 = n.add_gate(GateKind::Dff, "f2");
        n.connect(g2, f2).unwrap();
        n.connect(x, f1).unwrap();
        (n, f1, f2)
    }

    #[test]
    fn side_inputs_and_parity_are_counted() {
        let (n, f1, f2) = two_gate_path();
        let ps = enumerate_paths(&n, 10, usize::MAX);
        assert_eq!(ps.len(), 1);
        let p = ps.path(ps.pair(f1, f2)[0]);
        assert_eq!(p.side_input_count(), 2);
        assert_eq!(p.gates.len(), 2);
        assert!(p.inverting, "one NAND on the path flips polarity");
    }

    #[test]
    fn k_bound_prunes_expensive_paths() {
        let (n, f1, f2) = two_gate_path();
        let ps = enumerate_paths(&n, 1, usize::MAX);
        assert!(ps.pair(f1, f2).is_empty());
        let ps = enumerate_paths(&n, 2, usize::MAX);
        assert_eq!(ps.pair(f1, f2).len(), 1);
    }

    #[test]
    fn direct_ff_to_ff_connection_is_a_free_path() {
        let mut n = Netlist::new("t");
        let f1 = n.add_gate(GateKind::Dff, "f1");
        let f2 = n.add_gate(GateKind::Dff, "f2");
        n.connect(f1, f2).unwrap();
        let d = n.add_input("d");
        n.connect(d, f1).unwrap();
        let ps = enumerate_paths(&n, 0, usize::MAX);
        assert_eq!(ps.len(), 1);
        let p = ps.path(ps.pair(f1, f2)[0]);
        assert_eq!(p.side_input_count(), 0);
        assert!(p.gates.is_empty());
        assert!(!p.inverting);
    }

    #[test]
    fn multiple_parallel_paths_are_all_found() {
        // f1 reaches f2 through two inverters in parallel (merged by OR).
        let mut n = Netlist::new("t");
        let f1 = n.add_gate(GateKind::Dff, "f1");
        let i1 = n.add_gate(GateKind::Inv, "i1");
        let i2 = n.add_gate(GateKind::Inv, "i2");
        n.connect(f1, i1).unwrap();
        n.connect(f1, i2).unwrap();
        let or = n.add_gate(GateKind::Or, "or");
        n.connect(i1, or).unwrap();
        n.connect(i2, or).unwrap();
        let f2 = n.add_gate(GateKind::Dff, "f2");
        n.connect(or, f2).unwrap();
        let d = n.add_input("d");
        n.connect(d, f1).unwrap();
        let ps = enumerate_paths(&n, 10, usize::MAX);
        assert_eq!(ps.pair(f1, f2).len(), 2);
        for &id in ps.pair(f1, f2) {
            let p = ps.path(id);
            assert_eq!(p.side_input_count(), 1, "the other OR branch is the side input");
            assert!(p.inverting);
        }
    }

    #[test]
    fn xor_blocks_path_but_can_be_side_source() {
        let mut n = Netlist::new("t");
        let f1 = n.add_gate(GateKind::Dff, "f1");
        let a = n.add_input("a");
        let x = n.add_gate(GateKind::Xor, "x");
        n.connect(f1, x).unwrap();
        n.connect(a, x).unwrap();
        let f2 = n.add_gate(GateKind::Dff, "f2");
        n.connect(x, f2).unwrap();
        n.connect(a, f1).unwrap();
        let ps = enumerate_paths(&n, 10, usize::MAX);
        assert!(ps.pair(f1, f2).is_empty(), "XOR is not rideable");
    }

    #[test]
    fn max_paths_cap_reports_truncation() {
        let (n, _f1, _f2) = two_gate_path();
        let ps = enumerate_paths(&n, 10, 0);
        assert_eq!(ps.len(), 0);
        assert!(ps.truncated() > 0);
    }

    #[test]
    fn reverse_indices_are_consistent() {
        let (n, f1, f2) = two_gate_path();
        let ps = enumerate_paths(&n, 10, usize::MAX);
        let id = ps.pair(f1, f2)[0];
        let p = ps.path(id);
        for c in &p.side_inputs {
            assert!(ps.paths_with_side_source(c.source).contains(&id));
        }
        for &g in &p.gates {
            assert!(ps.paths_through(g).contains(&id));
        }
    }

    #[test]
    fn reconvergent_side_source_on_path_is_pruned() {
        // f1 -> i1 -> g, where g's other input is f1 itself: the "side"
        // carries the shifting data, so no constant sensitizes it.
        let mut n = Netlist::new("t");
        let f1 = n.add_gate(GateKind::Dff, "f1");
        let i1 = n.add_gate(GateKind::Inv, "i1");
        n.connect(f1, i1).unwrap();
        let g = n.add_gate(GateKind::And, "g");
        n.connect(i1, g).unwrap();
        n.connect(f1, g).unwrap();
        let f2 = n.add_gate(GateKind::Dff, "f2");
        n.connect(g, f2).unwrap();
        let d = n.add_input("d");
        n.connect(d, f1).unwrap();
        let ps = enumerate_paths(&n, 10, usize::MAX);
        // The route f1 -> i1 -> g -> f2 is pruned (g's other pin is f1,
        // the path source). The direct route f1 -> g -> f2 survives: its
        // side source i1 is off-path, and a test point at i1 makes it a
        // constant even though i1 is functionally driven by f1.
        for id in ps.ids() {
            let p = ps.path(id);
            for c in &p.side_inputs {
                assert!(!p.gates.contains(&c.source));
                assert_ne!(c.source, p.from);
            }
        }
    }

    #[test]
    fn max_paths_is_clamped_to_path_id_capacity() {
        assert_eq!(clamp_max_paths(usize::MAX), u32::MAX as usize);
        assert_eq!(clamp_max_paths(u32::MAX as usize + 1), u32::MAX as usize);
        assert_eq!(clamp_max_paths(17), 17);
    }

    #[test]
    fn parallel_enumeration_is_byte_identical() {
        // A fanout-heavy circuit with several FFs so the per-FF jobs are
        // non-trivial; compare against the sequential result, including
        // under truncation.
        let mut n = Netlist::new("t");
        let d = n.add_input("d");
        let mut sources = Vec::new();
        for i in 0..5 {
            let f = n.add_gate(GateKind::Dff, format!("src{i}"));
            n.connect(d, f).unwrap();
            sources.push(f);
        }
        for j in 0..4 {
            // Each sink collects one AND per source through a shared OR,
            // giving every (source, sink) pair a distinct path.
            let or = n.add_gate(GateKind::Or, format!("or{j}"));
            for (i, &s) in sources.iter().enumerate() {
                let g = n.add_gate(GateKind::And, format!("g{i}_{j}"));
                n.connect(s, g).unwrap();
                n.connect(d, g).unwrap();
                n.connect(g, or).unwrap();
            }
            let sink = n.add_gate(GateKind::Dff, format!("snk{j}"));
            n.connect(or, sink).unwrap();
        }
        for cap in [usize::MAX, 40, 7, 0] {
            let seq = enumerate_paths(&n, 10, cap);
            for workers in [2, 4] {
                let par = enumerate_paths_with(&n, 10, cap, Threads::new(workers));
                assert_eq!(seq.len(), par.len(), "cap {cap} workers {workers}");
                assert_eq!(seq.truncated(), par.truncated());
                for id in seq.ids() {
                    assert_eq!(seq.path(id), par.path(id), "cap {cap} workers {workers}");
                }
            }
        }
    }

    #[test]
    fn self_loop_paths_are_recorded_for_ff_to_itself() {
        let mut n = Netlist::new("t");
        let f1 = n.add_gate(GateKind::Dff, "f1");
        let i = n.add_gate(GateKind::Inv, "i");
        n.connect(f1, i).unwrap();
        n.connect(i, f1).unwrap();
        let ps = enumerate_paths(&n, 10, usize::MAX);
        // a self path F1 -> F1 exists but is useless for chains; callers
        // filter by pair. It must still be recorded faithfully.
        assert_eq!(ps.pair(f1, f1).len(), 1);
    }
}
