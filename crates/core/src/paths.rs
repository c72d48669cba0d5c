//! FF-to-FF combinational path enumeration (§III.A).
//!
//! The algorithm builds a sparse matrix `A` where entry `A_ij` is the set
//! of combinational paths from flip-flop `F_i` to flip-flop `F_j`. Since
//! establishing a scan path through a path with many side inputs is
//! costly, only paths with at most `K_bound` side inputs are recorded.
//!
//! [`PathSet`] is the one store of the enumerated paths: flat arrays
//! indexed by [`PathId`], plus the two reverse lookups TPGREED's greedy
//! loop interrogates millions of times per run — *which dense flip-flop
//! slot is this gate* and *which path pins does this net feed*. Both are
//! built once, when the per-flip-flop DFS results are merged. The store
//! is pure data, so sweep workers share it by reference.

use tpi_netlist::{Conn, GateId, GateKind, Netlist};
pub use tpi_par::Threads;
use tpi_sim::Trit;

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

/// One candidate scan path, borrowed from its [`PathSet`]: a
/// combinational path between two flip-flops together with its side
/// inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanPath<'a> {
    /// Source flip-flop (`g_1` in the paper's path `[g_1, ..., g_k]`).
    pub from: GateId,
    /// Destination flip-flop.
    pub to: GateId,
    /// Combinational gates along the path, in order (excluding the FFs).
    pub gates: &'a [GateId],
    /// Side inputs: connections whose sink lies on the path but whose
    /// source does not.
    pub side_inputs: &'a [Conn],
    /// Whether a bit shifted along the path arrives complemented.
    pub inverting: bool,
}

impl ScanPath<'_> {
    /// The paper's `|p_k|`: number of side inputs.
    #[inline]
    pub fn side_input_count(&self) -> usize {
        self.side_inputs.len()
    }

    /// Status of the path under the valuation `value`: `(nullified, w)`
    /// where `w` counts side inputs still unknown. A constant at the
    /// source flip-flop or on a path gate blocks shifting, and so does a
    /// non-sensitizing constant on a side input.
    pub(crate) fn status(&self, n: &Netlist, value: impl Fn(GateId) -> Trit) -> (bool, u32) {
        if value(self.from).is_known() || self.gates.iter().any(|&g| value(g).is_known()) {
            return (true, 0);
        }
        let mut w = 0;
        for c in self.side_inputs {
            match value(c.source) {
                Trit::X => w += 1,
                v if Some(v) == sensitizing(n, c) => {}
                _ => return (true, 0),
            }
        }
        (false, w)
    }
}

/// The value the sink of side input `c` needs on it to pass the path's
/// bit (`None` for sinks without one, where any constant blocks).
fn sensitizing(n: &Netlist, c: &Conn) -> Option<Trit> {
    n.kind(c.sink).sensitizing_value().map(Trit::from)
}

/// One entry of the pin-level reverse index: the path and the role the
/// net plays in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PathPin {
    pub path: PathId,
    pub role: PinRole,
}

/// The role a net plays in a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PinRole {
    /// The net is a gate on the path: any constant nullifies.
    Through,
    /// The net is the path's source flip-flop: any constant nullifies.
    From,
    /// The net feeds a side pin whose sink sensitizes on this value
    /// (`None` for non-sensitizable sinks, where any constant
    /// nullifies).
    Side(Option<Trit>),
}

/// Sentinel for "this gate is not a flip-flop" in `PathSet::ff_slot`.
const NO_FF: u32 = u32::MAX;

/// The sparse path matrix `A` of §III.A, stored flat, plus the reverse
/// lookups of the greedy insertion loop.
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
/// let p = ps.path(ps.ids().next().unwrap());
/// assert_eq!((p.from, p.to, p.side_input_count()), (f1, f2, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PathSet {
    /// Per-path endpoints and shift polarity.
    from: Vec<GateId>,
    to: Vec<GateId>,
    inverting: Vec<bool>,
    /// Per-path on-path gates, CSR: path `p` owns
    /// `gates[gate_off[p]..gate_off[p + 1]]`.
    gate_off: Vec<u32>,
    gates: Vec<GateId>,
    /// Per-path side inputs, CSR like the gates.
    side_off: Vec<u32>,
    sides: Vec<Conn>,
    /// Gate index -> dense flip-flop slot (`NO_FF` for other gates).
    ff_slot: Vec<u32>,
    /// Net index -> *pin-level* reverse index, CSR: every role the net
    /// plays in any path, one entry per pin, paths ascending and roles in
    /// From/Through/Side order within a path. Duplicates are kept (a net
    /// feeding two side pins of one path appears twice, with each pin's
    /// own sensitizing value), which is what lets a consumer turn "net
    /// changed to `v`" into an O(1) per-pin status delta instead of
    /// re-walking the whole path.
    pin_off: Vec<u32>,
    pins: Vec<PathPin>,
    /// Number of paths pruned by the safety cap.
    truncated: usize,
}

impl PathSet {
    /// Total number of recorded paths.
    #[inline]
    pub fn len(&self) -> usize {
        self.from.len()
    }

    /// True when no path was recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.from.is_empty()
    }

    /// Number of candidate paths dropped by the safety cap (0 in normal
    /// operation; the paper's `K_bound` is the intended limiter).
    #[inline]
    pub fn truncated(&self) -> usize {
        self.truncated
    }

    /// The path record for `id`.
    #[inline]
    pub fn path(&self, id: PathId) -> ScanPath<'_> {
        let p = id.index();
        let (g0, g1) = (self.gate_off[p] as usize, self.gate_off[p + 1] as usize);
        let (s0, s1) = (self.side_off[p] as usize, self.side_off[p + 1] as usize);
        ScanPath {
            from: self.from[p],
            to: self.to[p],
            gates: &self.gates[g0..g1],
            side_inputs: &self.sides[s0..s1],
            inverting: self.inverting[p],
        }
    }

    /// All path ids, in discovery order.
    pub fn ids(&self) -> impl Iterator<Item = PathId> + '_ {
        (0..self.len() as u32).map(PathId)
    }

    /// Destination flip-flop of path `id`.
    #[inline]
    pub(crate) fn to_gate(&self, id: PathId) -> GateId {
        self.to[id.index()]
    }

    /// Dense flip-flop slots of path `id`'s source and destination.
    #[inline]
    pub(crate) fn slots(&self, id: PathId) -> (usize, usize) {
        let p = id.index();
        (self.ff_slot[self.from[p].index()] as usize, self.ff_slot[self.to[p].index()] as usize)
    }

    /// Pin-level reverse index of `net`: every pin of every path the net
    /// feeds, duplicates preserved. See [`PathPin`].
    #[inline]
    pub(crate) fn pins(&self, net: usize) -> &[PathPin] {
        &self.pins[self.pin_off[net] as usize..self.pin_off[net + 1] as usize]
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

/// Where one path found by a DFS job ends: its destination, polarity,
/// and the end of its runs in the job's `gates` and `sides`.
#[derive(Debug, Clone, Copy)]
struct PathEnd {
    to: GateId,
    inverting: bool,
    gates_end: usize,
    sides_end: usize,
}

/// Paths found by the DFS out of a single source flip-flop, in discovery
/// order, as flat runs. `attempted` counts every completed path,
/// including those beyond the recording cap, so the merged
/// [`PathSet::truncated`] figure is exact.
#[derive(Debug, Default)]
struct FfPaths {
    ends: Vec<PathEnd>,
    gates: Vec<GateId>,
    sides: Vec<Conn>,
    attempted: usize,
}

/// One DFS frame: a gate on the current path.
#[derive(Debug, Clone, Copy)]
struct Frame {
    cur: GateId,
    /// Next fanout edge of `cur` to examine.
    edge: usize,
    /// Side inputs pushed when this frame was entered.
    added_sides: usize,
    /// Whether entering this frame flipped the shift polarity.
    flipped: bool,
}

/// A worker's DFS scratch, reused across the flip-flops it explores:
/// the on-path marker (sized on first use), the current path's gates and
/// side inputs, and the frame stack. Every DFS leaves all four empty (or
/// all `false`) again when it ends.
#[derive(Debug, Clone, Default)]
struct DfsScratch {
    on_path: Vec<bool>,
    gates: Vec<GateId>,
    sides: Vec<Conn>,
    stack: Vec<Frame>,
}

/// Iterative DFS over the fanout cone of one flip-flop.
///
/// This used to be a recursive `explore`; deep combinational chains
/// (tens of thousands of gates between two flip-flops) overflowed the
/// stack, so the recursion is an explicit frame stack. Each frame
/// remembers how to undo its entry mutations (side inputs pushed, parity
/// flip, on-path mark) when it is popped — the discovery order is
/// identical to the recursive version's.
fn dfs_from(
    n: &Netlist,
    from: GateId,
    k_bound: usize,
    max_paths: usize,
    sc: &mut DfsScratch,
) -> FfPaths {
    let DfsScratch { on_path, gates, sides, stack } = sc;
    let mut out = FfPaths::default();
    on_path.resize(n.gate_count(), false);
    let mut inverting = false;
    stack.push(Frame { cur: from, edge: 0, added_sides: 0, flipped: false });
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
                sides.truncate(sides.len() - added_sides);
            }
            continue;
        }
        let (sink, pin) = fanout[top.edge];
        top.edge += 1;
        let kind = n.kind(sink);
        if kind == GateKind::Dff {
            // Direct FF->FF connections are valid (free) paths.
            out.attempted += 1;
            if out.ends.len() < max_paths {
                out.gates.extend_from_slice(gates);
                out.sides.extend_from_slice(sides);
                out.ends.push(PathEnd {
                    to: sink,
                    inverting,
                    gates_end: out.gates.len(),
                    sides_end: out.sides.len(),
                });
            }
            continue;
        }
        if !rideable(kind) || on_path[sink.index()] {
            continue;
        }
        // Entering `sink` via `pin`: the other fanins become side
        // inputs. A "side" whose source lies on the path itself (or is
        // the source flip-flop) carries the shifting data, not a
        // constant — such reconvergent paths cannot be sensitized by
        // test points and are pruned, as are paths over the `K_bound`
        // budget.
        let before = sides.len();
        let mut pruned = false;
        for (p, &src) in n.fanin(sink).iter().enumerate() {
            if p == pin as usize {
                continue;
            }
            if on_path[src.index()] || src == from || sides.len() >= k_bound {
                pruned = true;
                break;
            }
            sides.push(Conn::new(src, sink, p as u32));
        }
        if pruned {
            sides.truncate(before);
            continue;
        }
        gates.push(sink);
        on_path[sink.index()] = true;
        let flipped = kind.inverts();
        if flipped {
            inverting = !inverting;
        }
        stack.push(Frame { cur: sink, edge: 0, added_sides: sides.len() - before, flipped });
    }
    out
}

/// Merges per-flip-flop DFS results into one [`PathSet`], assigning
/// [`PathId`]s in flip-flop order then discovery order — exactly the
/// order the sequential single-loop enumeration produces — and builds
/// the flip-flop slot map and the pin-level reverse index.
fn merge_ff_paths(n: &Netlist, ffs: &[GateId], jobs: Vec<FfPaths>, max_paths: usize) -> PathSet {
    // Paths each job keeps under the global cap, in flip-flop order.
    let mut room = max_paths;
    let mut truncated = 0;
    let kept: Vec<usize> = jobs
        .iter()
        .map(|job| {
            let k = job.ends.len().min(room);
            room -= k;
            truncated += job.attempted - k;
            k
        })
        .collect();
    let count = max_paths - room;
    let run_ends = |job: &FfPaths, k: usize| {
        k.checked_sub(1).map_or((0, 0), |last| (job.ends[last].gates_end, job.ends[last].sides_end))
    };
    let (gate_total, side_total) = jobs.iter().zip(&kept).fold((0, 0), |(g, s), (job, &k)| {
        let (ge, se) = run_ends(job, k);
        (g + ge, s + se)
    });
    // Every `u32` offset below, into the path runs or the pin index, is
    // at most the number of pins, one per endpoint, gate and side input.
    assert!(
        count + gate_total + side_total <= u32::MAX as usize,
        "the recorded paths overflow the store's u32 offsets"
    );
    let mut set = PathSet {
        from: Vec::with_capacity(count),
        to: Vec::with_capacity(count),
        inverting: Vec::with_capacity(count),
        gate_off: Vec::with_capacity(count + 1),
        gates: Vec::with_capacity(gate_total),
        side_off: Vec::with_capacity(count + 1),
        sides: Vec::with_capacity(side_total),
        ff_slot: vec![NO_FF; n.gate_count()],
        pin_off: Vec::new(),
        pins: Vec::new(),
        truncated,
    };
    set.gate_off.push(0);
    set.side_off.push(0);
    for ((job, k), &ff) in jobs.into_iter().zip(kept).zip(ffs) {
        let (ge, se) = run_ends(&job, k);
        let (gate_base, side_base) = (set.gates.len(), set.sides.len());
        set.gates.extend_from_slice(&job.gates[..ge]);
        set.sides.extend_from_slice(&job.sides[..se]);
        for end in &job.ends[..k] {
            set.from.push(ff);
            set.to.push(end.to);
            set.inverting.push(end.inverting);
            set.gate_off.push((gate_base + end.gates_end) as u32);
            set.side_off.push((side_base + end.sides_end) as u32);
        }
    }
    for (slot, ff) in ffs.iter().enumerate() {
        set.ff_slot[ff.index()] = slot as u32;
    }
    // Pin-level reverse CSR: two-pass count + fill, paths ascending,
    // roles in From/Through/Side order within each path.
    let gate_count = n.gate_count();
    let mut pin_off = vec![0u32; gate_count + 1];
    for id in set.ids() {
        let p = set.path(id);
        pin_off[p.from.index() + 1] += 1;
        for g in p.gates {
            pin_off[g.index() + 1] += 1;
        }
        for c in p.side_inputs {
            pin_off[c.source.index() + 1] += 1;
        }
    }
    for i in 0..gate_count {
        pin_off[i + 1] += pin_off[i];
    }
    let mut cursor = pin_off[..gate_count].to_vec();
    let dummy = PathPin { path: PathId(0), role: PinRole::From };
    let mut pins = vec![dummy; pin_off[gate_count] as usize];
    for id in set.ids() {
        let p = set.path(id);
        let mut place = |net: GateId, role: PinRole| {
            pins[cursor[net.index()] as usize] = PathPin { path: id, role };
            cursor[net.index()] += 1;
        };
        place(p.from, PinRole::From);
        for &g in p.gates {
            place(g, PinRole::Through);
        }
        for c in p.side_inputs {
            place(c.source, PinRole::Side(sensitizing(n, c)));
        }
    }
    set.pin_off = pin_off;
    set.pins = pins;
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
    let jobs = tpi_par::map_indexed(threads, ffs.len(), &DfsScratch::default(), |sc, i| {
        dfs_from(n, ffs[i], k_bound, max_paths, sc)
    });
    merge_ff_paths(n, &ffs, jobs, max_paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_netlist::{GateKind, Netlist, NetlistBuilder};
    use tpi_sim::Implication;
    use tpi_workloads::{generate, smoke_suite, suite, CircuitSpec, StructureClass};

    /// Entry `A_ij`: the ids of the paths from `from` to `to`.
    fn pair(ps: &PathSet, from: GateId, to: GateId) -> Vec<PathId> {
        ps.ids().filter(|&id| (ps.path(id).from, ps.path(id).to) == (from, to)).collect()
    }

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
        let p = ps.path(pair(&ps, f1, f2)[0]);
        assert_eq!(p.side_input_count(), 2);
        assert_eq!(p.gates.len(), 2);
        assert!(p.inverting, "one NAND on the path flips polarity");
    }

    #[test]
    fn k_bound_prunes_expensive_paths() {
        let (n, f1, f2) = two_gate_path();
        let ps = enumerate_paths(&n, 1, usize::MAX);
        assert!(pair(&ps, f1, f2).is_empty());
        let ps = enumerate_paths(&n, 2, usize::MAX);
        assert_eq!(pair(&ps, f1, f2).len(), 1);
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
        let p = ps.path(pair(&ps, f1, f2)[0]);
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
        assert_eq!(pair(&ps, f1, f2).len(), 2);
        for id in pair(&ps, f1, f2) {
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
        assert!(pair(&ps, f1, f2).is_empty(), "XOR is not rideable");
    }

    #[test]
    fn max_paths_cap_reports_truncation() {
        let (n, _f1, _f2) = two_gate_path();
        let ps = enumerate_paths(&n, 10, 0);
        assert_eq!(ps.len(), 0);
        assert!(ps.truncated() > 0);
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
            for c in p.side_inputs {
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
            assert_store_matches_brute_force(&n, &seq);
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
        assert_eq!(pair(&ps, f1, f1).len(), 1);
    }

    /// The Figure 1 skeleton: F1 -OR(x)-> F2 -AND(F4)-> F3.
    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new("sample");
        b.input("x");
        b.input("d1");
        b.input("d4");
        b.dff("f1", "d1");
        b.dff("f4", "d4");
        b.gate(GateKind::Or, "g1", &["f1", "x"]);
        b.dff("f2", "g1");
        b.gate(GateKind::And, "g2", &["f2", "f4"]);
        b.dff("f3", "g2");
        b.output("o", "f3");
        b.finish().unwrap()
    }

    /// Rebuilds, by brute force over every path, what the store derives
    /// at merge time — the pin index with its roles and sensitizing
    /// values, the flip-flop slots and each path's endpoint slots — and
    /// checks each path against the netlist: a connected route from a
    /// flip-flop to a flip-flop through rideable gates, whose side inputs
    /// are exactly the route gates' other pins, whose polarity is the
    /// parity of its inverting gates, and within the side-input budget.
    fn assert_store_matches_brute_force(n: &Netlist, ps: &PathSet) {
        let ffs = n.dffs();
        let slot_of = |g: GateId| ffs.iter().position(|&f| f == g);
        for g in n.gate_ids() {
            let slot = Some(ps.ff_slot[g.index()]).filter(|&s| s != NO_FF);
            assert_eq!(slot.map(|s| s as usize), slot_of(g), "{}: slot of {g}", n.name());
        }
        let mut pins: Vec<Vec<PathPin>> = vec![Vec::new(); n.gate_count()];
        for id in ps.ids() {
            let p = ps.path(id);
            let at = format!("{}: path {}", n.name(), id.index());
            let (from, to) = (slot_of(p.from).expect(&at), slot_of(p.to).expect(&at));
            assert_eq!(ps.slots(id), (from, to), "{at}");
            assert_eq!(ps.to_gate(id), p.to, "{at}");
            let mut prev = p.from;
            let mut sides = Vec::new();
            let mut inverting = false;
            for &g in p.gates {
                assert!(rideable(n.kind(g)), "{at}");
                let fanin = n.fanin(g);
                let pin = fanin.iter().position(|&s| s == prev).expect(&at);
                sides.extend(
                    (0..fanin.len())
                        .filter(|&q| q != pin)
                        .map(|q| Conn::new(fanin[q], g, q as u32)),
                );
                inverting ^= n.kind(g).inverts();
                prev = g;
            }
            assert!(n.fanin(p.to).contains(&prev), "{at}");
            assert_eq!(p.side_inputs, &sides[..], "{at}");
            assert_eq!(p.inverting, inverting, "{at}");
            assert!(p.side_input_count() <= 10, "{at}");
            pins[p.from.index()].push(PathPin { path: id, role: PinRole::From });
            for &g in p.gates {
                pins[g.index()].push(PathPin { path: id, role: PinRole::Through });
            }
            for c in p.side_inputs {
                let sens = n.kind(c.sink).sensitizing_value().map(Trit::from);
                pins[c.source.index()].push(PathPin { path: id, role: PinRole::Side(sens) });
            }
        }
        for g in n.gate_ids() {
            assert_eq!(ps.pins(g.index()), &pins[g.index()][..], "{}: pins of {g}", n.name());
        }
    }

    #[test]
    fn store_matches_a_brute_force_rebuild() {
        let mut circuits = vec![sample()];
        let defaults = ["dsip", "s5378", "s9234", "bigkey", "mult32b", "mult32a"];
        let specs = suite().into_iter().filter(|s| defaults.contains(&s.name.as_str()));
        circuits.extend(specs.chain(smoke_suite()).map(|s| generate(&s)));
        circuits.extend((1..=4).map(|seed| {
            generate(&CircuitSpec {
                name: format!("seeded{seed}"),
                inputs: 6,
                outputs: 3,
                ffs: 20,
                target_gates: 120,
                structure: StructureClass::mixed(0.6, 4, 3, 1),
                seed,
            })
        }));
        assert_eq!(circuits.len(), 1 + defaults.len() + smoke_suite().len() + 4);
        for n in &circuits {
            let ps = enumerate_paths(n, 10, usize::MAX);
            assert_store_matches_brute_force(n, &ps);
        }
    }

    #[test]
    fn path_status_tracks_implication() {
        let n = sample();
        let paths = enumerate_paths(&n, 10, usize::MAX);
        let mut imp = Implication::new(&n);
        // Initially every side input is unknown.
        for id in paths.ids() {
            let p = paths.path(id);
            assert_eq!(p.status(&n, |g| imp.value(g)), (false, p.side_input_count() as u32));
        }
        // x = 0 sensitizes the OR side input of f1 -> f2.
        let x = n.find("x").unwrap();
        imp.force(x, Trit::Zero);
        let (f1, f2) = (n.find("f1").unwrap(), n.find("f2").unwrap());
        let p = paths.path(pair(&paths, f1, f2)[0]);
        assert_eq!(p.status(&n, |g| imp.value(g)), (false, 0));
    }
}
