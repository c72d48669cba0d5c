//! TPGREED: greedy test-point insertion for full scan (§III).
//!
//! The algorithm examines the combinational paths between flip-flops and
//! sequentially inserts test points `(connection, value)` with the
//! highest *gain* (Equation 1):
//!
//! ```text
//! gain(c, v) = Σ_j  max_i  max_{p ∈ A_ij ∩ S_c}  1 / w_p
//! ```
//!
//! where `S_c` is the set of paths whose side inputs receive sensitizing
//! values from the forward implication of `v` at `c`, and `w_p` is the
//! number of side inputs of path `p` still carrying unknown values. Paths
//! that receive a controlling value on a side input, or a constant on a
//! path gate, are *nullified* and removed. When `w_p` reaches zero the
//! path becomes a scan path; the scan chain is kept acyclic with at most
//! one incoming and one outgoing path per flip-flop.
//!
//! §III.C notes the full gain recomputation after each insertion is
//! expensive and suggests an incremental alternative; both are available
//! via [`GainUpdate`] and produce identical selections (see the
//! `ablation_gain` bench and the equivalence tests).
//!
//! The candidate-gain sweep runs on the word-parallel [`LaneEngine`],
//! which previews 64 candidates per forward pass over two `u64`
//! bit-planes per net and scores every lane from the batch's union
//! change record. A literal per-candidate evaluation of Equation 1 — one
//! scalar `preview_force` and a walk over every path — survives only as
//! the test oracle that the sweep's gains must match bit for bit.

use crate::paths::{enumerate_paths, PathId, PathPin, PathSet, PinRole};
use crate::progress::{Canceled, Progress};
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use tpi_netlist::{GateId, GateKind, Netlist};
use tpi_par::Threads;
use tpi_sim::{Implication, LaneEngine, Trit, LANES};

/// Gain bookkeeping strategy (§III.C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GainUpdate {
    /// Recompute the gain of every candidate after each insertion — the
    /// paper's "current implementation".
    Full,
    /// Only recompute candidates whose implication cone or touched paths
    /// were affected by the last insertion — the paper's proposed
    /// improvement. Selections are identical to [`GainUpdate::Full`].
    #[default]
    Incremental,
}

/// Weight model for Equation 1's per-destination contributions.
///
/// Both models rank candidates by the same max-per-destination sum; the
/// difference is what one destination is worth. The weights are a pure
/// function of the *base* netlist (computed once before the greedy
/// loop), so selections stay byte-identical across thread counts and
/// gain-update modes for either model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GainModel {
    /// The paper's Equation 1: every destination flip-flop weighs 1,
    /// so a candidate's gain counts reachable scan paths.
    #[default]
    PathCount,
    /// SCOAP-weighted (ROADMAP item 4a): a destination weighs
    /// `1 + min(burden, cap) / 1024` where `burden` is the
    /// CC0+CC1+CO testability burden of its capture flip-flop's Q net
    /// per `tpi-dfa` — establishing a path into a hard-to-test
    /// register reduces CO·(CC0+CC1) where it matters most. The weight
    /// is an integer-derived rational (no transcendental math), so it
    /// is bit-exact across platforms.
    Scoap,
}

impl GainModel {
    /// Stable label, used by the cache key and the wire protocol.
    pub fn label(self) -> &'static str {
        match self {
            GainModel::PathCount => "path-count",
            GainModel::Scoap => "scoap",
        }
    }
}

/// Saturation cap on the SCOAP burden entering a destination weight:
/// everything above (including unobservable/uncontrollable nets at
/// `tpi_dfa::SAT`) is "maximally hard" with weight `1 + cap/1024`.
const SCOAP_BURDEN_CAP: u32 = 1 << 20;

/// Configuration for [`TpGreed`]: the algorithm's semantics. Every
/// field can change selections, and every field is part of the
/// `tpi-serve` cache key and the wire protocol. Worker threads are not
/// here: they never change selections, so they are a run option
/// ([`TpGreed::with_threads`], or `FlowOptions::with_threads` for the
/// flows).
#[derive(Debug, Clone, PartialEq)]
pub struct TpGreedConfig {
    /// Maximum number of side inputs for a path to be considered
    /// (the paper's `K_bound`; experiments use 10).
    pub k_bound: usize,
    /// Stop when the best gain falls below this value (the paper's
    /// `gain_bound`; experiments use 0.5).
    pub gain_bound: f64,
    /// Gain bookkeeping strategy.
    pub gain_update: GainUpdate,
    /// Safety cap on the number of enumerated paths (clamped to
    /// `u32::MAX`, the `PathId` capacity).
    pub max_paths: usize,
    /// Destination weight model for candidate gains.
    pub gain_model: GainModel,
}

impl Default for TpGreedConfig {
    /// The paper's experimental setup: `K_bound = 10`, `gain_bound = 0.5`.
    fn default() -> Self {
        TpGreedConfig {
            k_bound: 10,
            gain_bound: 0.5,
            gain_update: GainUpdate::Incremental,
            max_paths: 1 << 22,
            gain_model: GainModel::PathCount,
        }
    }
}

/// Result of a TPGREED run.
#[derive(Debug, Clone)]
pub struct TpGreedOutcome {
    /// Chosen test points `(net, value)` in insertion order. These are
    /// *virtual* until physically applied (an AND gate for 0, an OR gate
    /// for 1) by the full-scan flow.
    pub test_points: Vec<(GateId, Trit)>,
    /// Established scan paths.
    pub scan_paths: Vec<PathId>,
    /// Number of greedy iterations executed.
    pub iterations: usize,
    /// Number of candidate paths enumerated (the paper reports this
    /// figure for s38584: 270463).
    pub paths_considered: usize,
    /// Final per-net test-mode constants implied by the test points
    /// (useful for input assignment and verification).
    pub implied: Vec<(GateId, Trit)>,
}

impl TpGreedOutcome {
    /// Scan-path endpoints `(from, to)` in establishment order.
    pub fn scan_path_endpoints(&self, paths: &PathSet) -> Vec<(GateId, GateId)> {
        self.scan_paths.iter().map(|&id| (paths.path(id).from, paths.path(id).to)).collect()
    }
}

/// Per-path mutable state.
#[derive(Debug, Clone, Copy)]
struct PathState {
    alive: bool,
    established: bool,
    /// Unknown side inputs remaining (the paper's `w_k`).
    w: u32,
}

/// Union-find over flip-flops for chain-cycle prevention, plus each
/// fragment's members (a circular list through `next`) and size, so an
/// establishment can walk the smaller of the two fragments it joins.
#[derive(Debug, Clone)]
struct Fragments {
    parent: Vec<usize>,
    next: Vec<usize>,
    size: Vec<usize>,
}

impl Fragments {
    fn new(n: usize) -> Self {
        Fragments { parent: (0..n).collect(), next: (0..n).collect(), size: vec![1; n] }
    }
    /// Iterative find with full path compression. (A recursive version
    /// overflowed the stack on degenerate long union chains — e.g. a
    /// shift register with tens of thousands of flip-flops unioned in
    /// order before the first lookup.)
    fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
            self.size[rb] += self.size[ra];
            // Swapping one successor of each circular list splices them.
            self.next.swap(ra, rb);
        }
    }
    /// The members of the fragment rooted at `root`.
    fn members(&self, root: usize) -> Vec<usize> {
        let mut out = vec![root];
        let mut s = self.next[root];
        while s != root {
            out.push(s);
            s = self.next[s];
        }
        out
    }
}

/// Path ids grouped by one endpoint's flip-flop slot, CSR: slot `s` owns
/// `ids[off[s]..off[s + 1]]`, ascending.
#[derive(Debug, Clone)]
struct SlotPaths {
    off: Vec<u32>,
    ids: Vec<u32>,
}

impl SlotPaths {
    /// Groups `paths` by the slot `end` picks from `(source, destination)`.
    fn new(paths: &PathSet, slots: usize, end: impl Fn((usize, usize)) -> usize) -> Self {
        let mut off = vec![0u32; slots + 1];
        for id in paths.ids() {
            off[end(paths.slots(id)) + 1] += 1;
        }
        for s in 0..slots {
            off[s + 1] += off[s];
        }
        let mut cursor = off[..slots].to_vec();
        let mut ids = vec![0; paths.len()];
        for id in paths.ids() {
            let s = end(paths.slots(id));
            ids[cursor[s] as usize] = id.0;
            cursor[s] += 1;
        }
        SlotPaths { off, ids }
    }
    /// Positions in `ids` of slot `s`'s paths.
    fn range(&self, s: usize) -> std::ops::Range<usize> {
        self.off[s] as usize..self.off[s + 1] as usize
    }
}

/// TPGREED's working copy of the path store's pin index, holding the
/// pins of *live* paths only: alive, not established, and with an
/// endpoint pair that is still usable. All three exits are permanent, so
/// a path retires once and for good, and the walks that read this copy —
/// the sweep's union pass and the commit's delta pass — never visit a pin
/// that can no longer matter. Retired paths queue up and leave by an
/// order-preserving compaction of the nets they touch, which
/// [`TpGreed::establish_ready_paths`] runs at the end of every commit;
/// each net keeps its surviving pins in the store's order.
#[derive(Debug, Clone)]
struct LivePins {
    /// Net -> start of its run in `pins`.
    off: Vec<u32>,
    /// Net -> number of live pins at the head of its run.
    len: Vec<u32>,
    pins: Vec<PathPin>,
    /// Per path: still live.
    live: Vec<bool>,
    /// Number of live paths.
    count: usize,
    /// Paths retired since the last compaction.
    retired: Vec<PathId>,
    /// Compaction scratch: the nets to compact, and which are listed.
    nets: Vec<u32>,
    listed: Vec<bool>,
}

impl LivePins {
    /// Copies the pins of the paths `live` marks, in the store's order.
    fn new(paths: &PathSet, gate_count: usize, live: Vec<bool>) -> Self {
        let mut off = Vec::with_capacity(gate_count);
        let mut len = Vec::with_capacity(gate_count);
        let mut pins = Vec::new();
        for net in 0..gate_count {
            let start = pins.len();
            pins.extend(paths.pins(net).iter().filter(|p| live[p.path.index()]));
            off.push(start as u32);
            len.push((pins.len() - start) as u32);
        }
        let count = live.iter().filter(|&&l| l).count();
        LivePins {
            off,
            len,
            pins,
            live,
            count,
            retired: Vec::new(),
            nets: Vec::new(),
            listed: vec![false; gate_count],
        }
    }

    /// The live pins of `net`, in the store's order.
    #[inline]
    fn pins(&self, net: usize) -> &[PathPin] {
        let o = self.off[net] as usize;
        &self.pins[o..o + self.len[net] as usize]
    }

    #[inline]
    fn is_live(&self, id: PathId) -> bool {
        self.live[id.index()]
    }

    /// Takes `id` out of the live set; its pins leave at the next
    /// [`LivePins::compact`].
    fn retire(&mut self, id: PathId) {
        debug_assert!(self.live[id.index()], "path {} retired twice", id.index());
        self.live[id.index()] = false;
        self.count -= 1;
        self.retired.push(id);
    }

    /// Drops the retired paths' pins from every net they touch, keeping
    /// the survivors' order.
    fn compact(&mut self, paths: &PathSet) {
        for &id in &self.retired {
            let p = paths.path(id);
            let nets = std::iter::once(p.from)
                .chain(p.gates.iter().copied())
                .chain(p.side_inputs.iter().map(|c| c.source));
            for net in nets {
                if !self.listed[net.index()] {
                    self.listed[net.index()] = true;
                    self.nets.push(net.index() as u32);
                }
            }
        }
        self.retired.clear();
        for &net in &self.nets {
            let i = net as usize;
            self.listed[i] = false;
            let start = self.off[i] as usize;
            let mut kept = start;
            for k in start..start + self.len[i] as usize {
                let pin = self.pins[k];
                if self.live[pin.path.index()] {
                    self.pins[kept] = pin;
                    kept += 1;
                }
            }
            self.len[i] = (kept - start) as u32;
        }
        self.nets.clear();
    }
}

/// The TPGREED runner. Construct with [`TpGreed::new`], execute with
/// [`TpGreed::run`].
///
/// # Example
///
/// Reproduce the paper's Figure 1: one AND test point at the output of
/// `F4` establishes the chain `F1 -> F2 -> F3` through existing gates.
/// See `tpi-workloads`' `fig1()` and the `figures` binary for the full
/// construction; the doctest below shows the API shape on a small case.
///
/// ```
/// use tpi_netlist::{Netlist, GateKind};
/// use tpi_core::tpgreed::{TpGreed, TpGreedConfig};
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
/// let outcome = TpGreed::new(&n, TpGreedConfig::default()).run();
/// assert_eq!(outcome.scan_paths.len(), 1);
/// assert_eq!(outcome.test_points.len(), 1); // x = 1 forced by one point
/// # Ok(())
/// # }
/// ```
pub struct TpGreed<'a> {
    n: &'a Netlist,
    cfg: TpGreedConfig,
    paths: PathSet,
    imp: Implication<'a>,
    /// Word-parallel twin of `imp`, kept in lock-step after every commit.
    lanes: LaneEngine,
    state: Vec<PathState>,
    /// The pin index of the live paths (see [`LivePins`]).
    live: LivePins,
    /// Paths by source slot and by destination slot, so an establishment
    /// finds the paths it makes unusable without scanning the store.
    out_paths: SlotPaths,
    in_paths: SlotPaths,
    frags: Fragments,
    /// Nets whose values are pinned by established paths (desired
    /// constants, indexed by gate; `X` = unprotected — protected values
    /// are always known).
    protected: Vec<Trit>,
    /// Nets lying on an established path (must stay unknown).
    established_net: Vec<bool>,
    /// Per-gate destination weight under the configured [`GainModel`]:
    /// all 1.0 for [`GainModel::PathCount`] (reproducing Equation 1
    /// bit for bit), SCOAP-derived for [`GainModel::Scoap`]. Computed
    /// once from the base netlist, shared read-only by every worker.
    dest_weight: Vec<f64>,
    // --- outcome accumulators ---
    test_points: Vec<(GateId, Trit)>,
    established: Vec<PathId>,
    iterations: usize,
    // --- incremental-gain machinery ---
    gains: Vec<f64>,
    dirty: Vec<bool>,
    /// Registration epoch per candidate: bumped on every
    /// `register_watchers`, so entries from earlier registrations are
    /// recognizably stale (watcher lists carry the epoch they were
    /// written under) and heap entries from earlier refreshes too.
    watch_epoch: Vec<u32>,
    /// Path -> watching candidates, indexed by path. Stale entries
    /// (epoch no longer current) are dropped lazily on marking and on
    /// re-registration growth. Sweeps register batch-wide
    /// [`WatchEntry::Group`] masks here, like the net lists.
    path_watchers: Vec<Vec<WatchEntry>>,
    /// Net -> candidates whose preview changed that net, indexed by
    /// gate. Sweeps register whole batches at once (see
    /// [`WatchEntry::Group`]): one entry per *union* net instead of one
    /// per `(net, lane)` pair, so registration cost per change drops
    /// with lane occupancy. A commit re-dirties the watchers of every
    /// net it changes and of every fanin of those nets' sinks (see
    /// [`TpGreed::commit`]).
    net_watchers: Vec<Vec<WatchEntry>>,
    /// Lane-batch registration table: group id -> per-lane `(candidate,
    /// epoch at registration)`. [`WatchEntry::Group`] masks index into
    /// this. Entries are never removed — a group goes dead once all its
    /// lanes re-register — but the table is bounded by one record per
    /// batch per sweep (~megabytes across a full run, reclaimed with the
    /// runner).
    watch_groups: Vec<Vec<(u32, u32)>>,
    /// Cone-clustering sort key for lane batching (see
    /// [`tpi_sim::NetView::cone_order`] — computed once per run).
    cone_order: Vec<u32>,
    /// Cooperative cancellation token and run counters.
    progress: Arc<Progress>,
    /// Sweep workers (see [`TpGreed::with_threads`]).
    threads: Threads,
    /// Reusable per-sweep scoring scratch (stamp-dedup arrays).
    scratch: ScoreScratch,
    /// Candidates previewed on the lane engine so far.
    #[cfg(test)]
    previewed: usize,
    /// Check the live pin index against the path store after every
    /// commit (see `assert_live_index`).
    #[cfg(test)]
    check_live: bool,
}

/// Reusable scoring scratch: stamp arrays replace a `BTreeMap` of
/// per-destination maxima with O(1) amortized lookups, and per-path
/// batch accumulators replace per-lane path walks. One instance lives on
/// [`TpGreed`] for sequential sweeps; parallel sweeps clone one per
/// worker alongside the engine.
#[derive(Debug, Clone)]
struct ScoreScratch {
    /// Last stamp that touched each destination gate.
    dest_stamp: Vec<u32>,
    /// Best per-destination contribution under the current stamp.
    dest_best: Vec<f64>,
    /// Destinations touched under the current stamp.
    dests: Vec<u32>,
    stamp: u32,
    // --- lane-batch accumulators (see `EvalCtx::lane_group`) ---
    /// Last batch round that touched each path.
    acc_stamp: Vec<u32>,
    /// Path -> index into `accs` under the current batch round.
    acc_slot: Vec<u32>,
    /// Per-path accumulators of the open batch, in first-touch order.
    accs: Vec<BatchAcc>,
    acc_round: u32,
    /// Per-lane `(destination, contribution)` lists of the open batch.
    lane_contrib: Vec<Vec<(u32, f64)>>,
}

/// Per-path accumulator of one lane batch: which lanes touched the path,
/// which nullified it, and each lane's side-input delta `dw` relative to
/// the committed `w`. Built from O(1) per-pin class transitions instead
/// of a full `path_status` walk per `(path, lane)` pair.
#[derive(Debug, Clone, Copy)]
struct BatchAcc {
    path: u32,
    touched: u64,
    null: u64,
    dw: [i8; LANES],
}

impl ScoreScratch {
    fn new(path_count: usize, gate_count: usize) -> Self {
        ScoreScratch {
            dest_stamp: vec![0; gate_count],
            dest_best: vec![0.0; gate_count],
            dests: Vec::new(),
            stamp: 0,
            acc_stamp: vec![0; path_count],
            acc_slot: vec![0; path_count],
            accs: Vec::new(),
            acc_round: 0,
            lane_contrib: (0..LANES).map(|_| Vec::new()).collect(),
        }
    }

    /// Starts a new per-lane gain sum: returns a stamp `dest_stamp`
    /// does not currently hold.
    fn next_stamp(&mut self) -> u32 {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.dest_stamp.fill(0);
            self.stamp = 1;
        }
        self.stamp
    }

    /// Starts a new lane batch: clears the accumulators.
    fn begin_batch(&mut self) {
        self.accs.clear();
        self.acc_round = self.acc_round.wrapping_add(1);
        if self.acc_round == 0 {
            self.acc_stamp.fill(0);
            self.acc_round = 1;
        }
    }

    /// The accumulator for `path` under the current batch round,
    /// creating it zeroed on first touch.
    #[inline]
    fn acc_for(&mut self, path: u32) -> &mut BatchAcc {
        let pi = path as usize;
        if self.acc_stamp[pi] != self.acc_round {
            self.acc_stamp[pi] = self.acc_round;
            self.acc_slot[pi] = self.accs.len() as u32;
            self.accs.push(BatchAcc { path, touched: 0, null: 0, dw: [0; LANES] });
        }
        &mut self.accs[self.acc_slot[pi] as usize]
    }
}

/// One parallel sweep worker: a lane-engine clone plus its scoring
/// scratch.
#[derive(Clone)]
struct Worker {
    eng: LaneEngine,
    sc: ScoreScratch,
}

const GAIN_INVALID: f64 = -1.0;

/// Per-sweep work threshold for spawning workers, measured in previews:
/// under ~512 previews the engine clone + thread spawn overhead exceeds
/// the sweep itself (measured on the `smoke_*` circuits, where the old
/// `cands.len() < 2 * threads` cutoff let every tiny incremental refresh
/// pay for a pool — the PR4 `--threads 2` regression). The threshold
/// compares *previews*, not candidates: trivially answered candidates
/// (forced/implied/ineligible nets) cost nanoseconds and never justify a
/// spawn.
const SPAWN_MIN_PREVIEWS: usize = 512;

impl<'a> TpGreed<'a> {
    /// Prepares a run over `n`: enumerates paths (sequentially) and
    /// initializes state.
    ///
    /// # Panics
    /// Panics if the netlist has a combinational cycle.
    pub fn new(n: &'a Netlist, cfg: TpGreedConfig) -> Self {
        let paths = enumerate_paths(n, cfg.k_bound, cfg.max_paths);
        Self::with_paths(n, cfg, paths)
    }

    /// Like [`TpGreed::new`] but reuses a pre-enumerated [`PathSet`].
    pub fn with_paths(n: &'a Netlist, cfg: TpGreedConfig, paths: PathSet) -> Self {
        let imp = Implication::new(n);
        let lanes = LaneEngine::mirror(&imp);
        let ffs = n.dffs();
        let state: Vec<PathState> = paths
            .ids()
            .map(|id| {
                let (nullified, w) = paths.path(id).status(n, |g| imp.value(g));
                PathState { alive: !nullified, established: false, w }
            })
            .collect();
        // Before any establishment a pair is usable unless it closes a
        // one-flip-flop loop.
        let live = paths
            .ids()
            .map(|id| {
                let (i, j) = paths.slots(id);
                state[id.index()].alive && i != j
            })
            .collect();
        let candidate_count = n.gate_count() * 2;
        let cone_order = imp.view().cone_order();
        let dest_weight = match cfg.gain_model {
            GainModel::PathCount => vec![1.0; n.gate_count()],
            GainModel::Scoap => {
                let scoap = tpi_dfa::Scoap::analyze(imp.view());
                (0..n.gate_count())
                    .map(|g| 1.0 + f64::from(scoap.burden(g).min(SCOAP_BURDEN_CAP)) / 1024.0)
                    .collect()
            }
        };
        TpGreed {
            n,
            cfg,
            imp,
            lanes,
            state,
            live: LivePins::new(&paths, n.gate_count(), live),
            out_paths: SlotPaths::new(&paths, ffs.len(), |(i, _)| i),
            in_paths: SlotPaths::new(&paths, ffs.len(), |(_, j)| j),
            frags: Fragments::new(ffs.len()),
            protected: vec![Trit::X; n.gate_count()],
            established_net: vec![false; n.gate_count()],
            dest_weight,
            test_points: Vec::new(),
            established: Vec::new(),
            iterations: 0,
            gains: vec![0.0; candidate_count],
            dirty: vec![true; candidate_count],
            watch_epoch: vec![0; candidate_count],
            path_watchers: vec![Vec::new(); paths.len()],
            net_watchers: vec![Vec::new(); n.gate_count()],
            watch_groups: Vec::new(),
            cone_order,
            progress: Arc::new(Progress::new()),
            threads: Threads::new(1),
            scratch: ScoreScratch::new(paths.len(), n.gate_count()),
            #[cfg(test)]
            previewed: 0,
            #[cfg(test)]
            check_live: false,
            paths,
        }
    }

    /// Access to the enumerated path set.
    pub fn paths(&self) -> &PathSet {
        &self.paths
    }

    /// Attaches a shared [`Progress`] token: the greedy loop checks it at
    /// every iteration boundary and reports its counters through it.
    pub fn with_progress(mut self, progress: Arc<Progress>) -> Self {
        self.progress = progress;
        self
    }

    /// Sets the worker threads of the candidate-gain sweeps: `1` (the
    /// default) runs sequentially, `0` uses all hardware threads, any
    /// other value is an explicit count. Selections are **identical**
    /// for every setting: workers only split the per-sweep evaluation,
    /// results are merged in candidate order, and the argmax tie-break
    /// (highest gain, then lowest candidate index) never depends on
    /// worker scheduling.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Threads::from_knob(threads);
        self
    }

    /// Runs the greedy loop to completion and returns the outcome.
    ///
    /// # Panics
    /// Panics if the attached [`Progress`] cancels the run; use
    /// [`TpGreed::try_run_with_paths`] when a token may fire.
    pub fn run(self) -> TpGreedOutcome {
        self.run_with_paths().0
    }

    /// Like [`TpGreed::run`] but also hands back the enumerated
    /// [`PathSet`] (the flows need it for input assignment, stitching and
    /// verification).
    ///
    /// # Panics
    /// Panics if the attached [`Progress`] cancels the run.
    pub fn run_with_paths(self) -> (TpGreedOutcome, PathSet) {
        self.try_run_with_paths().expect("run canceled; use try_run_with_paths")
    }

    /// Cancellable variant of [`TpGreed::run_with_paths`]: returns
    /// [`Canceled`] as soon as a checkpoint fires at an iteration
    /// boundary.
    ///
    /// # Errors
    /// [`Canceled`] when the attached [`Progress`] was canceled or timed
    /// out.
    pub fn try_run_with_paths(mut self) -> Result<(TpGreedOutcome, PathSet), Canceled> {
        self.run_loop()?;
        let implied = self
            .n
            .gate_ids()
            .filter(|g| self.imp.value(*g).is_known())
            .map(|g| (g, self.imp.value(g)))
            .collect();
        Ok((
            TpGreedOutcome {
                test_points: self.test_points,
                scan_paths: self.established,
                iterations: self.iterations,
                paths_considered: self.paths.len(),
                implied,
            },
            self.paths,
        ))
    }

    /// Establishes the free paths, then runs the greedy loop of the
    /// configured [`GainUpdate`] mode until no candidate qualifies.
    fn run_loop(&mut self) -> Result<(), Canceled> {
        self.progress.add_paths_enumerated(self.paths.len() as u64);
        self.establish_free_paths();
        match self.cfg.gain_update {
            GainUpdate::Full => self.run_full(),
            GainUpdate::Incremental => self.run_incremental(),
        }
    }

    fn run_full(&mut self) -> Result<(), Canceled> {
        let all: Vec<usize> = (0..self.gains.len()).collect();
        loop {
            self.progress.checkpoint()?;
            self.progress.add_round();
            self.iterations += 1;
            if self.live.count == 0 {
                // No gain can exceed 0 without a live path: count the
                // sweep this round would run, and stop.
                self.progress.add_candidates_evaluated(all.len() as u64);
                break;
            }
            let evals = self.sweep_gains(&all, false).evals;
            let mut best: Option<(f64, usize)> = None;
            for (cand, e) in evals.iter().enumerate() {
                let g = e.gain;
                self.gains[cand] = g;
                if g > 0.0 && g >= self.cfg.gain_bound && best.is_none_or(|(bg, _)| g > bg) {
                    best = Some((g, cand));
                }
            }
            let Some((_, cand)) = best else { break };
            self.commit(cand);
        }
        Ok(())
    }

    fn run_incremental(&mut self) -> Result<(), Canceled> {
        // Heap entries carry the candidate's registration epoch at push
        // time: a later re-evaluation bumps the epoch, making every older
        // entry recognizably stale. (An earlier version compared the
        // entry's gain against `self.gains[cand]` within an epsilon — a
        // float-equality proxy that accepted stale entries whenever a
        // re-evaluation landed within epsilon of the old gain, e.g. under
        // the `1e-6 * kills` tie-break nudge.)
        let mut heap: BinaryHeap<(OrdF64, std::cmp::Reverse<usize>, u32)> = BinaryHeap::new();
        loop {
            self.progress.checkpoint()?;
            self.progress.add_round();
            self.iterations += 1;
            if self.live.count == 0 {
                // No gain can exceed 0 without a live path, and every
                // heap entry is stale: the path that gave it its gain
                // dirtied it when it retired. Count the sweep this round
                // would run, and stop.
                let dirty = self.dirty.iter().filter(|&&d| d).count();
                self.progress.add_candidates_evaluated(dirty as u64);
                break;
            }
            // Refresh dirty candidates (ascending order; the parallel
            // sweep returns results in that same order).
            let dirty: Vec<usize> = (0..self.gains.len()).filter(|&c| self.dirty[c]).collect();
            let sweep = self.sweep_gains(&dirty, true);
            for (&cand, eval) in dirty.iter().zip(&sweep.evals) {
                self.dirty[cand] = false;
                self.gains[cand] = eval.gain;
                self.register_watchers(cand, eval);
                if eval.gain > 0.0 && eval.gain >= self.cfg.gain_bound {
                    heap.push((OrdF64(eval.gain), std::cmp::Reverse(cand), self.watch_epoch[cand]));
                }
            }
            // Lane-batch path/net registrations, applied after every
            // epoch bump above so the group snapshots carry the current
            // epochs.
            for reg in &sweep.groups {
                self.register_group(reg);
            }
            // Pop the best non-stale entry. Ties on (gain, candidate)
            // pop the freshest epoch first, which is the live one.
            let mut chosen = None;
            while let Some((_, std::cmp::Reverse(cand), epoch)) = heap.pop() {
                if self.watch_epoch[cand] != epoch {
                    continue; // stale: the candidate was re-evaluated
                }
                chosen = Some(cand);
                break;
            }
            let Some(cand) = chosen else { break };
            self.commit(cand);
            // The committed candidate's own entries are now meaningless.
            let (net, _) = decode(cand);
            self.dirty[encode(net, Trit::Zero)] = true;
            self.dirty[encode(net, Trit::One)] = true;
        }
        Ok(())
    }

    /// Evaluates Equation 1 for every candidate in `cands`, returning the
    /// results in the same order.
    ///
    /// Candidates answered from the committed state alone (ineligible or
    /// already-forced nets, values the implication already carries) are
    /// classified out first; the remaining *previews* run as 64-wide
    /// lane batches.
    ///
    /// With more than one worker (see [`TpGreed::with_threads`]) and at
    /// least [`SPAWN_MIN_PREVIEWS`] worth of preview work, the batches
    /// are fanned across a scoped thread pool; each worker owns one
    /// clone of the lane engine for the whole sweep, and previews stay
    /// thread-local to that clone. Evaluations
    /// are independent — a batch undo restores the engine exactly and the
    /// union-find roots are snapshotted up front — so the result vector
    /// is identical to the sequential sweep's, element for element, at
    /// every `threads` setting.
    fn sweep_gains(&mut self, cands: &[usize], register: bool) -> SweepResult {
        // The sweep size is a pure function of the netlist and config
        // (never of worker scheduling), so this counter is identical at
        // every `threads` setting.
        self.progress.add_candidates_evaluated(cands.len() as u64);
        let ctx = EvalCtx {
            n: self.n,
            paths: &self.paths,
            pins: &self.live,
            state: &self.state,
            protected: &self.protected,
            established_net: &self.established_net,
            values: self.imp.values(),
            dest_weight: &self.dest_weight,
        };
        // Classify: trivial candidates are answered in place, the rest
        // become preview jobs `(output slot, candidate)`.
        let mut out: Vec<GainEval> = Vec::with_capacity(cands.len());
        let mut jobs: Vec<(u32, u32)> = Vec::new();
        for (slot, &cand) in cands.iter().enumerate() {
            match ctx.classify(&self.imp, cand, register) {
                Some(eval) => out.push(eval),
                None => {
                    out.push(GainEval::default());
                    jobs.push((slot as u32, cand as u32));
                }
            }
        }
        #[cfg(test)]
        {
            self.previewed += jobs.len();
        }
        if jobs.is_empty() {
            return SweepResult { evals: out, groups: Vec::new() };
        }
        // Cone-cluster the jobs before chunking: lanes rooted in the same
        // fanout cone share most of their implication wave, so the batch's
        // union record — the cost every lane shares — shrinks. Per-lane
        // results are grouping-independent (each lane previews its own
        // root) and the slot index maps them back, so this reorder cannot
        // change any gain. The key includes the candidate id, making the
        // order total and the grouping a pure function of the job list,
        // never of scheduling.
        jobs.sort_unstable_by_key(|&(_, cand)| (self.cone_order[cand as usize / 2], cand));
        let groups: Vec<&[(u32, u32)]> = jobs.chunks(LANES).collect();
        let threads = self.threads;
        let spawn =
            threads.get() > 1 && jobs.len() >= SPAWN_MIN_PREVIEWS && groups.len() >= threads.get();
        let results: Vec<(Vec<(u32, GainEval)>, GroupReg)> = if spawn {
            let proto = Worker { eng: self.lanes.clone(), sc: self.scratch.clone() };
            tpi_par::map_indexed(threads, groups.len(), &proto, |w, gi| {
                ctx.lane_group(&mut w.eng, &mut w.sc, groups[gi], register)
            })
        } else {
            let eng = &mut self.lanes;
            let sc = &mut self.scratch;
            groups.iter().map(|group| ctx.lane_group(eng, sc, group, register)).collect()
        };
        let mut group_regs: Vec<GroupReg> = Vec::new();
        for (evals, reg) in results {
            for (slot, eval) in evals {
                out[slot as usize] = eval;
            }
            if register {
                group_regs.push(reg);
            }
        }
        SweepResult { evals: out, groups: group_regs }
    }

    /// Starts one candidate's registration (incremental mode) under a
    /// fresh epoch and records its classify-time net watchers; a lane
    /// candidate's path/net registrations follow batched in
    /// [`TpGreed::register_group`]. Entries written under earlier epochs
    /// become stale and are dropped lazily — on marking, and on append
    /// when a list is about to grow — so re-evaluating a candidate never
    /// accumulates duplicate registrations.
    fn register_watchers(&mut self, cand: usize, eval: &GainEval) {
        let epoch = self.watch_epoch[cand].wrapping_add(1);
        self.watch_epoch[cand] = epoch;
        if let Some(net) = eval.watch_net {
            push_entry_watcher(
                &mut self.net_watchers[net.index()],
                &self.watch_epoch,
                &self.watch_groups,
                WatchEntry::Cand(cand as u32, epoch),
            );
        }
    }

    /// Applies one lane batch's path/net registrations: snapshots the
    /// lanes' `(candidate, epoch)` pairs into the group table — epochs
    /// were bumped by the per-candidate [`TpGreed::register_watchers`]
    /// pass just before — and pushes one [`WatchEntry::Group`] per union
    /// net and touched path.
    fn register_group(&mut self, reg: &GroupReg) {
        if reg.cands.is_empty() {
            return;
        }
        let gid = self.watch_groups.len() as u32;
        let lanes: Vec<(u32, u32)> =
            reg.cands.iter().map(|&c| (c, self.watch_epoch[c as usize])).collect();
        self.watch_groups.push(lanes);
        for &(net, mask) in &reg.nets {
            push_entry_watcher(
                &mut self.net_watchers[net as usize],
                &self.watch_epoch,
                &self.watch_groups,
                WatchEntry::Group(gid, mask),
            );
        }
        for &(path, mask) in &reg.paths {
            push_entry_watcher(
                &mut self.path_watchers[path as usize],
                &self.watch_epoch,
                &self.watch_groups,
                WatchEntry::Group(gid, mask),
            );
        }
    }

    /// Per path, whether its endpoint pair is still usable, re-derived
    /// from the established paths and the chain fragments for the
    /// oracles: no established path leaves its source or enters its
    /// destination, and the two lie in different fragments.
    #[cfg(test)]
    fn pair_usability(&mut self) -> Vec<bool> {
        let slots = self.frags.parent.len();
        let (mut out_taken, mut in_taken) = (vec![false; slots], vec![false; slots]);
        for &e in &self.established {
            let (i, j) = self.paths.slots(e);
            out_taken[i] = true;
            in_taken[j] = true;
        }
        let ids: Vec<PathId> = self.paths.ids().collect();
        ids.into_iter()
            .map(|id| {
                let (i, j) = self.paths.slots(id);
                !out_taken[i] && !in_taken[j] && self.frags.find(i) != self.frags.find(j)
            })
            .collect()
    }

    /// Current status of a path under `self.imp`: (nullified, w). Used on
    /// the committed state; the preview-time twin lives on [`EvalCtx`].
    fn path_status(&self, id: PathId) -> (bool, u32) {
        self.paths.path(id).status(self.n, |g| self.imp.value(g))
    }

    /// Commits the candidate: forces the constant, prunes nullified
    /// paths, updates `w`s, establishes completed paths, and marks
    /// incremental dirt.
    fn commit(&mut self, cand: usize) {
        let (net, value) = decode(cand);
        let delta = self.imp.force(net, value);
        // Keep the word-parallel twin in lock-step: later lane batches
        // must preview against exactly this committed state.
        self.lanes.apply_committed(net, &delta);
        self.test_points.push((net, value));
        self.progress.add_test_points_placed(1);

        let view = Arc::clone(self.imp.view());
        // Delta-driven path update: instead of re-walking every affected
        // path with `path_status`, accumulate the exact (nullified, Δw)
        // effect of each changed net through its live pins — the same
        // class-transition rules the lane scorer applies, on lane 0.
        // Transitions ignore the pre-commit value: for a live path a
        // from/through pin was X and a side pin was X or sensitizing,
        // which pins down the old class.
        self.scratch.begin_batch();
        for a in &delta {
            for pin in self.live.pins(a.net.index()) {
                let acc = self.scratch.acc_for(pin.path.0);
                match pin.role {
                    PinRole::Through | PinRole::From => {
                        if a.value != Trit::X {
                            acc.null |= 1;
                        }
                    }
                    PinRole::Side(sens) => {
                        if a.value == Trit::X {
                            // Sensitizing value receded: pin is free again.
                            acc.dw[0] += 1;
                        } else if sens == Some(a.value) {
                            acc.dw[0] -= 1;
                        } else {
                            acc.null |= 1;
                        }
                    }
                }
            }
        }
        // A candidate's preview depends on the committed value of every
        // fanin of every gate its wave reached, whether the wave changed
        // that gate or not: a NAND held at 1 by a committed 0 on a side
        // input stops the wave until a commit releases that input, and a
        // NAND the wave turned from 1 to X turns to 0 once a commit sets
        // its other input. In neither case does the NAND's own committed
        // value change. The gates a wave reaches are exactly the sinks of
        // the nets it changes, so the candidates to re-examine are the
        // watchers of every fanin of every sink of a changed net (the
        // changed nets themselves included).
        let mut reached: Vec<u32> = delta
            .iter()
            .flat_map(|a| view.comb_fanouts(a.net.index()))
            .flat_map(|&sink| view.fanin(sink as usize))
            .copied()
            .chain(delta.iter().map(|a| a.net.index() as u32))
            .collect();
        reached.sort_unstable();
        reached.dedup();
        for net in reached {
            mark_entry_watchers(
                &mut self.dirty,
                &self.watch_epoch,
                &self.watch_groups,
                &mut self.net_watchers[net as usize],
            );
        }
        // Every live path with `w == 0` was established or retired by
        // the last commit, so the paths ready now are those whose `w`
        // reached 0 in this one.
        let mut ready: Vec<PathId> = Vec::new();
        for ai in 0..self.scratch.accs.len() {
            let acc = self.scratch.accs[ai];
            let id = PathId(acc.path);
            let st = self.state[id.index()];
            if acc.null != 0 {
                debug_assert!(self.path_status(id).0);
                self.state[id.index()].alive = false;
                self.retire(id);
                continue;
            }
            let w = (st.w as i32 + i32::from(acc.dw[0])) as u32;
            debug_assert_eq!((false, w), self.path_status(id));
            if w != st.w {
                self.state[id.index()].w = w;
                self.mark_path_dirty(id);
                if w == 0 {
                    ready.push(id);
                }
            }
        }
        self.establish_ready_paths(ready);
    }

    fn mark_path_dirty(&mut self, id: PathId) {
        mark_entry_watchers(
            &mut self.dirty,
            &self.watch_epoch,
            &self.watch_groups,
            &mut self.path_watchers[id.index()],
        );
    }

    /// Retires a live path: its watchers are dirtied, and it leaves the
    /// live pin index. A watcher entry on a path that already retired is
    /// stale by construction — retiring dirtied its candidate, and that
    /// candidate's next evaluation could not register on the path again
    /// — so no later event needs to visit it.
    fn retire(&mut self, id: PathId) {
        self.mark_path_dirty(id);
        self.live.retire(id);
    }

    /// Establishes the free paths (w == 0, e.g. direct FF->FF
    /// connections) before any insertion: they cost nothing, as in ref.
    /// [13]'s cost-free scan.
    fn establish_free_paths(&mut self) {
        let ready: Vec<PathId> = self
            .paths
            .ids()
            .filter(|&id| self.live.is_live(id) && self.state[id.index()].w == 0)
            .collect();
        self.establish_ready_paths(ready);
    }

    /// Establishes every path of `ready` (live paths with `w == 0`) that
    /// is still live when its turn comes, in ascending [`PathId`] order,
    /// then compacts the live pin index.
    ///
    /// One pass suffices: establishment is monotone-disqualifying —
    /// `establish` only unions chain fragments, takes endpoint degrees,
    /// and protects constants, none of which can make a skipped path
    /// newly ready. The `establishment_is_single_pass_stable` regression
    /// test pins this.
    fn establish_ready_paths(&mut self, mut ready: Vec<PathId>) {
        ready.sort_unstable();
        for id in ready {
            if !self.live.is_live(id) {
                continue; // an establishment earlier in this pass
            }
            // Double-check liveness against the current implication
            // state (the cached state is authoritative, but cheap to
            // re-verify).
            let (nullified, w) = self.path_status(id);
            if nullified || w != 0 {
                self.state[id.index()].alive = !nullified;
                self.state[id.index()].w = w;
                if nullified {
                    self.retire(id);
                } else {
                    self.mark_path_dirty(id);
                }
                continue;
            }
            self.establish(id);
        }
        self.live.compact(&self.paths);
        #[cfg(test)]
        if self.check_live {
            self.assert_live_index();
        }
    }

    /// Checks the live pin index against the path store: a path is live
    /// exactly when it is alive, not established and pair-usable; each
    /// net's live pins are the store's pins of live paths, in the store's
    /// order; and every live path's cached `(nullified, w)` matches a
    /// fresh walk, with `w > 0` (a ready path would have been handled).
    #[cfg(test)]
    fn assert_live_index(&mut self) {
        let ids: Vec<PathId> = self.paths.ids().collect();
        let usable = self.pair_usability();
        let want: Vec<bool> = ids
            .iter()
            .map(|&id| {
                let st = self.state[id.index()];
                st.alive && !st.established && usable[id.index()]
            })
            .collect();
        for &id in &ids {
            let raw = id.index();
            assert_eq!(self.live.is_live(id), want[raw], "liveness of path {raw}");
            if want[raw] {
                let w = self.state[raw].w;
                assert_eq!(self.path_status(id), (false, w), "state of live path {raw}");
                assert!(w > 0, "live path {raw} was left ready");
            }
        }
        assert_eq!(self.live.count, want.iter().filter(|&&l| l).count(), "live path count");
        for net in 0..self.n.gate_count() {
            let pins: Vec<PathPin> =
                self.paths.pins(net).iter().filter(|p| want[p.path.index()]).copied().collect();
            assert_eq!(self.live.pins(net), &pins[..], "live pins of net {net}");
        }
    }

    fn establish(&mut self, id: PathId) {
        debug_assert!(self.live.is_live(id));
        let (i, j) = self.paths.slots(id);
        let (root_i, root_j) = (self.frags.find(i), self.frags.find(j));
        // Degree and acyclicity bookkeeping (the A_i* / A_*j / cycle
        // removals of §III.A): every live path leaving `i`, entering `j`
        // or joining the two fragments becomes unusable and retires —
        // `id` itself among the first. For the last group, walk the
        // smaller fragment's members.
        for k in self.out_paths.range(i) {
            self.retire_unusable(PathId(self.out_paths.ids[k]));
        }
        for k in self.in_paths.range(j) {
            self.retire_unusable(PathId(self.in_paths.ids[k]));
        }
        let (small, other) = if self.frags.size[root_i] <= self.frags.size[root_j] {
            (root_i, root_j)
        } else {
            (root_j, root_i)
        };
        for s in self.frags.members(small) {
            for k in self.out_paths.range(s) {
                let q = PathId(self.out_paths.ids[k]);
                if self.live.is_live(q) && self.frags.find(self.paths.slots(q).1) == other {
                    self.retire(q);
                }
            }
            for k in self.in_paths.range(s) {
                let q = PathId(self.in_paths.ids[k]);
                if self.live.is_live(q) && self.frags.find(self.paths.slots(q).0) == other {
                    self.retire(q);
                }
            }
        }
        self.frags.union(i, j);
        self.state[id.index()].established = true;
        self.established.push(id);
        // Protect the sensitized side inputs; pin the path nets and the
        // source FF's output as must-stay-unknown.
        let p = self.paths.path(id);
        for c in p.side_inputs {
            let v = self.imp.value(c.source);
            debug_assert!(v.is_known());
            self.protected[c.source.index()] = v;
        }
        self.established_net[p.from.index()] = true;
        for &g in p.gates {
            self.established_net[g.index()] = true;
        }
    }

    /// Retires `id` if it is still live (see [`TpGreed::retire`]).
    fn retire_unusable(&mut self, id: PathId) {
        if self.live.is_live(id) {
            self.retire(id);
        }
    }
}

/// Result of evaluating one candidate: the Equation 1 gain plus the
/// classify-time watcher registration the incremental mode needs. Pure
/// data — workers produce these, the master merges them in candidate
/// order.
#[derive(Debug, Clone, Copy, Default)]
struct GainEval {
    gain: f64,
    /// The candidate net itself when its value was already implied
    /// (→ `net_watchers`). Previewed candidates leave this `None` — their
    /// path/net registrations travel batched in [`GroupReg`].
    watch_net: Option<GateId>,
}

/// One lane batch's path/net registrations, produced by
/// [`EvalCtx::lane_group`] under `register` and applied by the master
/// after the per-candidate epoch bumps. Instead of registering each
/// candidate on each of its changed nets individually, a batch registers
/// its *union* change record once — one entry per union net carrying the
/// lanes-changed mask — which is what makes registration cost per change
/// drop with lane occupancy. The net record keeps invalid lanes: an
/// invalid implication can become valid or extend after a later commit,
/// so the incremental mode must re-examine it when its cone changes.
/// Pure data; workers produce these, the master applies them in group
/// order.
#[derive(Debug, Clone, Default)]
struct GroupReg {
    /// Candidates by lane, in lane order.
    cands: Vec<u32>,
    /// Union change record `(net index, lanes-changed mask)`.
    nets: Vec<(u32, u64)>,
    /// Touched-path record `(path index, lanes-that-touched mask)`,
    /// invalid lanes already excluded.
    paths: Vec<(u32, u64)>,
}

/// What a sweep returns: per-candidate evaluations (in candidate order)
/// plus, for registering lane sweeps, the batch registration records (in
/// group order).
struct SweepResult {
    evals: Vec<GainEval>,
    groups: Vec<GroupReg>,
}

/// A net/gate watcher list entry: either one candidate's registration or
/// a whole lane batch's, referencing `watch_groups` by id with a mask of
/// the lanes registered here. Both carry enough to detect staleness
/// lazily (a lane is stale once its candidate's epoch moved on).
#[derive(Debug, Clone, Copy)]
enum WatchEntry {
    /// `(candidate, epoch)` — classify-time registrations.
    Cand(u32, u32),
    /// `(group id, lane mask)` — lane-batch registrations.
    Group(u32, u64),
}

impl WatchEntry {
    /// Whether any lane of the entry still holds a current registration.
    fn live(&self, epochs: &[u32], groups: &[Vec<(u32, u32)>]) -> bool {
        match *self {
            WatchEntry::Cand(cand, epoch) => epochs[cand as usize] == epoch,
            WatchEntry::Group(gid, mask) => {
                let lanes = &groups[gid as usize];
                let mut m = mask;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let (cand, epoch) = lanes[lane];
                    if epochs[cand as usize] == epoch {
                        return true;
                    }
                }
                false
            }
        }
    }
}

/// Sets `dirty` for every *live* lane of every entry of a watcher list
/// and drops entries with no live lane left (a lane is stale once its
/// candidate's registration epoch moved on). Free function over disjoint
/// field borrows so the borrow checker accepts `&mut self.dirty`
/// alongside `&mut self.net_watchers[i]`.
fn mark_entry_watchers(
    dirty: &mut [bool],
    epochs: &[u32],
    groups: &[Vec<(u32, u32)>],
    list: &mut Vec<WatchEntry>,
) {
    list.retain(|e| match *e {
        WatchEntry::Cand(cand, epoch) => {
            let live = epochs[cand as usize] == epoch;
            if live {
                dirty[cand as usize] = true;
            }
            live
        }
        WatchEntry::Group(gid, mask) => {
            let lanes = &groups[gid as usize];
            let mut any = false;
            let mut m = mask;
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                m &= m - 1;
                let (cand, epoch) = lanes[lane];
                if epochs[cand as usize] == epoch {
                    dirty[cand as usize] = true;
                    any = true;
                }
            }
            any
        }
    });
}

/// Appends a watcher entry, compacting stale entries out first whenever
/// the push would otherwise grow the allocation. Amortized O(1): a list
/// doubles only when at least half its entries are live.
fn push_entry_watcher(
    list: &mut Vec<WatchEntry>,
    epochs: &[u32],
    groups: &[Vec<(u32, u32)>],
    entry: WatchEntry,
) {
    if list.len() == list.capacity() && !list.is_empty() {
        list.retain(|e| e.live(epochs, groups));
    }
    list.push(entry);
}

/// Immutable snapshot of everything the sweep reads besides the lane
/// engine. Shared by reference across workers; the engine itself is the
/// only mutable piece and each worker owns a clone.
struct EvalCtx<'s, 'a> {
    n: &'a Netlist,
    paths: &'s PathSet,
    /// The live paths' pins (see [`LivePins`]).
    pins: &'s LivePins,
    state: &'s [PathState],
    /// Dense by gate index; `X` = unprotected.
    protected: &'s [Trit],
    established_net: &'s [bool],
    /// Committed trit per net (`imp`'s values); the baseline for the
    /// scorer's O(1) pin class transitions.
    values: &'s [Trit],
    /// Per-gate destination weight (see [`TpGreed::dest_weight`]).
    dest_weight: &'s [f64],
}

impl EvalCtx<'_, '_> {
    /// Answers candidates decidable from the committed state alone,
    /// without a preview; returns `None` when the candidate needs one.
    /// Every `None` satisfies the preview precondition: the net is
    /// unforced and the trial value differs from the committed value.
    fn classify(&self, imp: &Implication<'_>, cand: usize, register: bool) -> Option<GainEval> {
        let (net, value) = decode(cand);
        if !self.is_candidate_net(net) {
            return Some(GainEval { gain: GAIN_INVALID, ..Default::default() });
        }
        // A net already carrying a committed test point is off-limits:
        // physically, stacked gates at one net resolve in insertion
        // order (the outermost wins), which would diverge from the
        // implication model's last-write-wins override.
        if imp.is_forced(net) {
            return Some(GainEval { gain: GAIN_INVALID, ..Default::default() });
        }
        if imp.value(net) == value {
            // No effect *now* — but a later override can revert this
            // net's implied value, so the incremental mode must know to
            // re-examine the candidate when the net changes.
            let watch_net = register.then_some(net);
            return Some(GainEval { gain: 0.0, watch_net });
        }
        None
    }

    /// Evaluates one lane group — up to [`LANES`] candidates previewed by
    /// a single batched forward pass — returning `(output slot, eval)`
    /// pairs plus the batch's registration record (empty unless
    /// `register`).
    ///
    /// Scoring is *union-driven*: instead of reconstructing 64 per-lane
    /// change lists and walking `path_status` per `(path, lane)` pair,
    /// the batch's union change record is processed once. Each union net
    /// contributes validity masks (bitwise, against the protection
    /// planes) and, through the path store's pin index, O(1) class transitions
    /// per listed path pin — `committed class -> trial class` decides
    /// nullification and the side-weight delta `dw` for every changed
    /// lane at once. A path's status under lane L is then `st.w + dw[L]`
    /// (nullified iff a null bit is set), which equals what the full
    /// `path_status` walk computes: a lane's change set is exactly the
    /// nets where its trial valuation differs from the committed one, and
    /// an alive path's unchanged pins keep their committed class. The
    /// per-lane gain is then Equation 1's max-per-destination sum over
    /// the `dest_weight/st.w` contributions, accumulated in ascending
    /// destination order, minus the kill tie-break — bit for bit what a
    /// literal per-candidate evaluation computes (the
    /// `sweep_gains_match_the_equation_1_oracle` test pins this).
    fn lane_group(
        &self,
        eng: &mut LaneEngine,
        sc: &mut ScoreScratch,
        group: &[(u32, u32)],
        register: bool,
    ) -> (Vec<(u32, GainEval)>, GroupReg) {
        let roots: Vec<(GateId, Trit)> =
            group.iter().map(|&(_, cand)| decode(cand as usize)).collect();
        eng.preview_batch(&roots);

        // --- one pass over the union change record ---
        sc.begin_batch();
        let mut invalid: u64 = 0;
        for &(net, ch) in eng.union_changes() {
            let i = net as usize;
            // Validity: the implication must not disturb protected
            // constants or put a constant on an established path.
            if self.established_net[i] {
                invalid |= ch;
            } else {
                let want = self.protected[i];
                if want != Trit::X {
                    let (vw, kw) = eng.planes(i);
                    let ok = if want == Trit::One { kw & vw } else { kw & !vw };
                    invalid |= ch & !ok;
                }
            }
            let pins = self.pins.pins(i);
            if pins.is_empty() {
                continue; // no live path lists this net
            }
            let (vw, kw) = eng.planes(i);
            let old = self.values[i];
            for pin in pins {
                debug_assert!(self.is_live(pin.path), "pin of retired path {}", pin.path.index());
                let acc = sc.acc_for(pin.path.0);
                acc.touched |= ch;
                match pin.role {
                    // A known on a path gate (through or source)
                    // nullifies; alive paths have these committed-X, so
                    // `changed & known` is exactly the nullifying set.
                    PinRole::Through | PinRole::From => acc.null |= ch & kw,
                    PinRole::Side(sens) => {
                        let sens_mask = match sens {
                            Some(Trit::One) => kw & vw,
                            Some(Trit::Zero) => kw & !vw,
                            // `X` never appears as a sensitizing value;
                            // `None` (no sensitizing value for the gate
                            // kind) means any known side nullifies.
                            _ => 0,
                        };
                        if old == Trit::X {
                            // X -> sensitizing: one fewer X side input.
                            // X -> controlling known: nullified.
                            acc.null |= ch & kw & !sens_mask;
                            let mut m = ch & sens_mask;
                            while m != 0 {
                                let lane = m.trailing_zeros() as usize;
                                m &= m - 1;
                                acc.dw[lane] -= 1;
                            }
                        } else {
                            // Alive paths have known sides committed at
                            // the sensitizing value, so a change is
                            // either -> X (one more X side input) or
                            // -> controlling known (nullified).
                            acc.null |= ch & kw & !sens_mask;
                            let mut m = ch & !kw;
                            while m != 0 {
                                let lane = m.trailing_zeros() as usize;
                                m &= m - 1;
                                acc.dw[lane] += 1;
                            }
                        }
                    }
                }
            }
        }

        // --- finalize each touched path once ---
        for v in sc.lane_contrib.iter_mut() {
            v.clear();
        }
        let mut kills = [0u32; LANES];
        let mut reg_paths: Vec<(u32, u64)> = Vec::new();
        for ai in 0..sc.accs.len() {
            let acc = sc.accs[ai];
            // Every touched path is live: dead, established and
            // pair-unusable paths left the index when they retired, so
            // candidates never watch a path whose state can no longer
            // change their gain.
            let st = self.state[acc.path as usize];
            let m = acc.touched & !invalid;
            if register && m != 0 {
                reg_paths.push((acc.path, m));
            }
            let di = self.paths.to_gate(PathId(acc.path)).index() as u32;
            let mut m = m;
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                m &= m - 1;
                if acc.null & (1u64 << lane) != 0 {
                    kills[lane] += 1;
                    continue;
                }
                if acc.dw[lane] >= 0 {
                    continue; // no progress under this preview
                }
                sc.lane_contrib[lane].push((di, self.dest_weight[di as usize] / st.w as f64));
            }
        }

        // --- per-lane gain: max per destination, summed ascending ---
        let mut out = Vec::with_capacity(group.len());
        for (lane, &(slot, _)) in group.iter().enumerate() {
            let gain = if invalid & (1u64 << lane) != 0 {
                GAIN_INVALID
            } else {
                let stamp = sc.next_stamp();
                sc.dests.clear();
                for &(di, c) in &sc.lane_contrib[lane] {
                    let d = di as usize;
                    if sc.dest_stamp[d] != stamp {
                        sc.dest_stamp[d] = stamp;
                        sc.dest_best[d] = c;
                        sc.dests.push(di);
                    } else if c > sc.dest_best[d] {
                        sc.dest_best[d] = c;
                    }
                }
                // Equation 1's Σ_j max_i max_p, summed in ascending
                // destination order: the float sum must accumulate in a
                // fixed order, or exact gain ties break differently
                // across runs and thread counts.
                sc.dests.sort_unstable();
                let mut gain = 0.0;
                for &di in &sc.dests {
                    gain += sc.dest_best[di as usize];
                }
                // Tie-breaker only (Equation 1 stays dominant): between
                // equal-gain candidates, prefer the one that nullifies
                // fewer still-usable paths.
                if gain > 0.0 {
                    gain -= 1e-6 * f64::from(kills[lane]);
                }
                gain
            };
            out.push((slot, GainEval { gain, ..Default::default() }));
        }

        let group_reg = if register {
            GroupReg {
                cands: group.iter().map(|&(_, cand)| cand).collect(),
                nets: eng.union_changes().to_vec(),
                paths: reg_paths,
            }
        } else {
            GroupReg::default()
        };
        eng.undo_batch();
        (out, group_reg)
    }

    /// Whether a path is still live: not retired from the index, and
    /// alive and not established by its own state.
    fn is_live(&self, id: PathId) -> bool {
        let st = self.state[id.index()];
        self.pins.is_live(id) && st.alive && !st.established
    }

    fn is_candidate_net(&self, net: GateId) -> bool {
        let kind = self.n.kind(net);
        if matches!(kind, GateKind::Output | GateKind::Const0 | GateKind::Const1) {
            return false;
        }
        if self.protected[net.index()] != Trit::X || self.established_net[net.index()] {
            return false;
        }
        true
    }
}

#[inline]
fn encode(net: GateId, value: Trit) -> usize {
    net.index() * 2 + usize::from(value == Trit::One)
}

#[inline]
fn decode(cand: usize) -> (GateId, Trit) {
    let net = GateId::from_index(cand / 2);
    let value = if cand % 2 == 1 { Trit::One } else { Trit::Zero };
    (net, value)
}

/// Total-order wrapper for gain values (never NaN).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("gain values are never NaN")
    }
}

// ---------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------

/// Re-verifies an outcome from scratch on a fresh implication engine:
/// every reported scan path must be fully sensitized by the test points,
/// keep unknown values on its path gates, and the set of `(from, to)`
/// edges must form vertex-disjoint simple paths (no FF with two incoming
/// or two outgoing scan edges, no cycles).
///
/// Returns a human-readable description of the first violation, if any.
pub fn verify_outcome(
    n: &Netlist,
    paths: &PathSet,
    outcome: &TpGreedOutcome,
) -> Result<(), String> {
    let mut imp = Implication::new(n);
    for &(net, v) in &outcome.test_points {
        imp.force(net, v);
    }
    let mut out_deg: HashMap<GateId, u32> = HashMap::new();
    let mut in_deg: HashMap<GateId, u32> = HashMap::new();
    let mut edges = Vec::new();
    for &id in &outcome.scan_paths {
        let p = paths.path(id);
        for c in p.side_inputs {
            let sens = Trit::from(
                n.kind(c.sink)
                    .sensitizing_value()
                    .ok_or_else(|| format!("side input into non-sensitizable gate {}", c.sink))?,
            );
            if imp.value(c.source) != sens {
                return Err(format!(
                    "path {}->{} side input {} carries {:?}, want {:?}",
                    n.gate_name(p.from),
                    n.gate_name(p.to),
                    n.gate_name(c.source),
                    imp.value(c.source),
                    sens
                ));
            }
        }
        if imp.value(p.from).is_known() {
            return Err(format!(
                "source flip-flop {} is forced constant in test mode",
                n.gate_name(p.from)
            ));
        }
        for &g in p.gates {
            if imp.value(g).is_known() {
                return Err(format!(
                    "path {}->{} gate {} is stuck at {:?} in test mode",
                    n.gate_name(p.from),
                    n.gate_name(p.to),
                    n.gate_name(g),
                    imp.value(g)
                ));
            }
        }
        *out_deg.entry(p.from).or_default() += 1;
        *in_deg.entry(p.to).or_default() += 1;
        edges.push((p.from, p.to));
    }
    if let Some((ff, _)) = out_deg.iter().find(|(_, &d)| d > 1) {
        return Err(format!("{} has two outgoing scan edges", n.gate_name(*ff)));
    }
    if let Some((ff, _)) = in_deg.iter().find(|(_, &d)| d > 1) {
        return Err(format!("{} has two incoming scan edges", n.gate_name(*ff)));
    }
    // Cycle check: follow successor links.
    let succ: HashMap<GateId, GateId> = edges.iter().copied().collect();
    for &(start, _) in &edges {
        let mut cur = start;
        let mut hops = 0;
        while let Some(&next) = succ.get(&cur) {
            cur = next;
            hops += 1;
            if cur == start {
                return Err(format!("scan edges form a cycle through {}", n.gate_name(start)));
            }
            if hops > edges.len() {
                break;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::enumerate_paths;
    use tpi_netlist::NetlistBuilder;

    #[test]
    fn fragments_find_survives_deep_chains() {
        // A recursive find would blow the stack here: 200k unions in
        // order build one maximally deep parent chain before the first
        // compressing lookup.
        let mut f = Fragments::new(200_001);
        for i in 0..200_000 {
            f.union(i, i + 1);
        }
        let root = f.find(0);
        assert_eq!(f.find(200_000), root);
        assert_eq!(f.find(100_000), root);
    }

    /// The paper's Figure 1 skeleton: F1 -OR(x)-> F2 -AND(F4)-> F3, with
    /// F4 driven by x. One AND test point at F4's output (or the PI value
    /// x = 0) sensitizes both hops.
    fn fig1_like() -> Netlist {
        let mut b = NetlistBuilder::new("fig1");
        b.input("x");
        b.input("d1");
        b.input("d4");
        b.dff("f1", "d1");
        b.dff("f4", "d4");
        b.gate(tpi_netlist::GateKind::Or, "g1", &["f1", "x"]);
        b.dff("f2", "g1");
        b.gate(tpi_netlist::GateKind::And, "g2", &["f2", "f4"]);
        b.dff("f3", "g2");
        b.output("o", "f3");
        b.finish().unwrap()
    }

    #[test]
    fn fig1_needs_few_test_points_for_two_paths() {
        let n = fig1_like();
        let outcome = TpGreed::new(&n, TpGreedConfig::default()).run();
        assert_eq!(outcome.scan_paths.len(), 2, "F1->F2 and F2->F3");
        assert!(
            outcome.test_points.len() <= 2,
            "x=0 and F4=1 (or just x=0 when implication covers)"
        );
        let paths = enumerate_paths(&n, 10, usize::MAX);
        verify_outcome(&n, &paths, &outcome).unwrap();
    }

    #[test]
    fn full_and_incremental_agree() {
        let n = fig1_like();
        let full = TpGreed::new(
            &n,
            TpGreedConfig { gain_update: GainUpdate::Full, ..TpGreedConfig::default() },
        )
        .run();
        let inc = TpGreed::new(
            &n,
            TpGreedConfig { gain_update: GainUpdate::Incremental, ..TpGreedConfig::default() },
        )
        .run();
        assert_eq!(full.test_points, inc.test_points);
        assert_eq!(full.scan_paths, inc.scan_paths);
    }

    #[test]
    fn free_paths_are_established_without_insertions() {
        // Pure shift register: every hop is free.
        let mut b = NetlistBuilder::new("sr");
        b.input("d");
        b.dff("f0", "d");
        b.dff("f1", "f0");
        b.dff("f2", "f1");
        b.output("o", "f2");
        let n = b.finish().unwrap();
        let outcome = TpGreed::new(&n, TpGreedConfig::default()).run();
        assert_eq!(outcome.scan_paths.len(), 2);
        assert!(outcome.test_points.is_empty());
    }

    #[test]
    fn chain_degree_constraints_hold() {
        // f0 feeds both f1 and f2 directly: only one free path may be
        // taken from f0.
        let mut b = NetlistBuilder::new("fanout");
        b.input("d");
        b.dff("f0", "d");
        b.dff("f1", "f0");
        b.dff("f2", "f0");
        b.output("o1", "f1");
        b.output("o2", "f2");
        let n = b.finish().unwrap();
        let outcome = TpGreed::new(&n, TpGreedConfig::default()).run();
        assert_eq!(outcome.scan_paths.len(), 1, "one outgoing edge per FF");
        let paths = enumerate_paths(&n, 10, usize::MAX);
        verify_outcome(&n, &paths, &outcome).unwrap();
    }

    #[test]
    fn cycle_is_never_formed() {
        // f0 <-> f1 direct connections: both free, but taking both would
        // close a cycle.
        let mut b = NetlistBuilder::new("ring2");
        b.dff("f0", "f1");
        b.dff("f1", "f0");
        let n = b.finish().unwrap();
        let outcome = TpGreed::new(&n, TpGreedConfig::default()).run();
        assert_eq!(outcome.scan_paths.len(), 1);
        let paths = enumerate_paths(&n, 10, usize::MAX);
        verify_outcome(&n, &paths, &outcome).unwrap();
    }

    #[test]
    fn gain_bound_terminates_early() {
        let n = fig1_like();
        let outcome =
            TpGreed::new(&n, TpGreedConfig { gain_bound: 10.0, ..TpGreedConfig::default() }).run();
        assert!(outcome.test_points.is_empty(), "no candidate reaches gain 10");
    }

    #[test]
    fn established_paths_survive_later_insertions() {
        let n = fig1_like();
        let outcome = TpGreed::new(&n, TpGreedConfig::default()).run();
        let paths = enumerate_paths(&n, 10, usize::MAX);
        // verify_outcome re-plays everything from scratch: if a later
        // insertion had nullified an earlier path, this would fail.
        verify_outcome(&n, &paths, &outcome).unwrap();
    }

    /// Establishment is monotone-disqualifying: once
    /// `establish_ready_paths` returns, no live path has `w == 0`, and a
    /// second pass over every alive `w == 0` path (what a whole-store
    /// scan would examine) finds nothing new. This pins the property that
    /// lets one pass over a commit's ready paths stand in for a loop to
    /// fixpoint.
    #[test]
    fn establishment_is_single_pass_stable() {
        // A shift register plus the fig1 skeleton: several free paths
        // compete for endpoints, so the first call establishes a batch.
        let mut b = NetlistBuilder::new("sp");
        b.input("d");
        b.dff("f0", "d");
        b.dff("f1", "f0");
        b.dff("f2", "f1");
        b.dff("f3", "f2");
        b.output("o", "f3");
        let n = b.finish().unwrap();
        let cfg = TpGreedConfig::default();
        let paths = enumerate_paths(&n, cfg.k_bound, cfg.max_paths);
        let mut tp = TpGreed::with_paths(&n, cfg, paths);
        tp.establish_free_paths();
        let first = tp.established.len();
        assert!(first > 0, "free paths must establish");
        assert!(
            tp.paths.ids().all(|id| !tp.live.is_live(id) || tp.state[id.index()].w > 0),
            "a live path was left ready"
        );
        let again: Vec<PathId> = tp
            .paths
            .ids()
            .filter(|&id| tp.state[id.index()].alive && tp.state[id.index()].w == 0)
            .collect();
        tp.establish_ready_paths(again);
        assert_eq!(tp.established.len(), first, "second pass must be a no-op");
    }

    /// Re-evaluating dirty candidates across iterations must not
    /// accumulate duplicate watcher registrations: per list, at most one
    /// *live* entry (current epoch) per candidate. The pre-epoch code
    /// appended on every re-evaluation, growing the lists — and the
    /// per-commit dirty marking — without bound.
    #[test]
    fn watcher_lists_hold_one_live_entry_per_candidate() {
        let n = fig1_like();
        let cfg = TpGreedConfig::default();
        let paths = enumerate_paths(&n, cfg.k_bound, cfg.max_paths);
        let mut tp = TpGreed::with_paths(&n, cfg, paths);
        tp.establish_free_paths();
        tp.run_incremental().unwrap();
        assert!(!tp.test_points.is_empty(), "the run must exercise re-evaluation");
        let lists = tp.path_watchers.iter().chain(&tp.net_watchers);
        for list in lists {
            let mut live: Vec<u32> = Vec::new();
            for e in list {
                match *e {
                    WatchEntry::Cand(cand, epoch) => {
                        if tp.watch_epoch[cand as usize] == epoch {
                            live.push(cand);
                        }
                    }
                    WatchEntry::Group(gid, mask) => {
                        let lanes = &tp.watch_groups[gid as usize];
                        let mut m = mask;
                        while m != 0 {
                            let lane = m.trailing_zeros() as usize;
                            m &= m - 1;
                            let (cand, epoch) = lanes[lane];
                            if tp.watch_epoch[cand as usize] == epoch {
                                live.push(cand);
                            }
                        }
                    }
                }
            }
            let before = live.len();
            live.sort_unstable();
            live.dedup();
            assert_eq!(live.len(), before, "duplicate live watcher entries");
        }
    }
}

#[cfg(test)]
mod config_tests {
    use super::*;
    use crate::paths::enumerate_paths;
    use crate::progress::CounterSnapshot;
    use std::collections::BTreeMap;
    use tpi_workloads::industrial::{generate_industrial, IndustrialSpec};
    use tpi_workloads::{generate, smoke_suite, suite, CircuitSpec, StructureClass};

    fn workload(seed: u64) -> tpi_netlist::Netlist {
        generate(&CircuitSpec {
            name: format!("cfg{seed}"),
            inputs: 6,
            outputs: 3,
            ffs: 20,
            target_gates: 80,
            structure: StructureClass::mixed(0.6, 4, 3, 1),
            seed,
        })
    }

    /// Raising `gain_bound` can only reduce the number of insertions:
    /// every candidate accepted at a higher bound is accepted at a lower
    /// one too (the greedy sequences share a prefix until the higher
    /// bound cuts off).
    #[test]
    fn higher_gain_bound_means_fewer_insertions() {
        let n = workload(3);
        let mut prev = usize::MAX;
        for bound in [0.25, 0.5, 1.0, 2.0] {
            let outcome =
                TpGreed::new(&n, TpGreedConfig { gain_bound: bound, ..TpGreedConfig::default() })
                    .run();
            assert!(
                outcome.test_points.len() <= prev,
                "bound {bound}: {} > {}",
                outcome.test_points.len(),
                prev
            );
            prev = outcome.test_points.len();
        }
    }

    /// Shrinking `K_bound` can only shrink the *candidate* path set.
    /// (The greedy's established count is not monotone — extra candidates
    /// can redirect its choices — but it is always bounded by the
    /// candidates, and every outcome must verify.)
    #[test]
    fn smaller_k_bound_never_enumerates_more_candidates() {
        let n = workload(4);
        let mut prev = 0usize;
        for k in [0usize, 1, 2, 4, 10] {
            let cfg = TpGreedConfig { k_bound: k, ..TpGreedConfig::default() };
            let (outcome, paths) = TpGreed::new(&n, cfg).run_with_paths();
            assert!(paths.len() >= prev, "k {k}: candidate count {} < {}", paths.len(), prev);
            assert!(outcome.scan_paths.len() <= paths.len());
            verify_outcome(&n, &paths, &outcome).unwrap();
            prev = paths.len();
        }
    }

    /// The worker count must never change the outcome: for both gain
    /// strategies, every [`TpGreed::with_threads`] setting selects the
    /// exact same test-point sequence and scan paths as the sequential
    /// run.
    #[test]
    fn parallel_selections_match_sequential() {
        for seed in [7, 8, 9] {
            let n = workload(seed);
            for update in [GainUpdate::Full, GainUpdate::Incremental] {
                let cfg = TpGreedConfig { gain_update: update, ..TpGreedConfig::default() };
                let base = TpGreed::new(&n, cfg.clone()).run();
                for threads in [2, 4, 0] {
                    let par = TpGreed::new(&n, cfg.clone()).with_threads(threads).run();
                    assert_eq!(
                        par.test_points, base.test_points,
                        "seed {seed} {update:?} threads {threads}"
                    );
                    assert_eq!(
                        par.scan_paths, base.scan_paths,
                        "seed {seed} {update:?} threads {threads}"
                    );
                    assert_eq!(
                        par.iterations, base.iterations,
                        "seed {seed} {update:?} threads {threads}"
                    );
                }
            }
        }
    }

    impl TpGreed<'_> {
        /// Equation 1 for one candidate, evaluated literally on the
        /// committed state: one scalar `preview_force`, the validity rule
        /// (protected constants stay put, no established net gets a
        /// constant), then a walk over *every* alive, non-established,
        /// pair-usable path with the per-destination maximum of
        /// `dest_weight / w` summed in ascending destination order, minus
        /// the `1e-6 · kills` tie-break. Candidates the sweep answers
        /// without a preview get the same answers here: ineligible or
        /// already-forced nets are invalid, an already-carried value
        /// gains nothing.
        fn reference_gain(&mut self, cand: usize) -> f64 {
            let (net, value) = decode(cand);
            let kind = self.n.kind(net);
            if matches!(kind, GateKind::Output | GateKind::Const0 | GateKind::Const1)
                || self.protected[net.index()] != Trit::X
                || self.established_net[net.index()]
                || self.imp.is_forced(net)
            {
                return GAIN_INVALID;
            }
            if self.imp.value(net) == value {
                return 0.0;
            }
            let ids: Vec<PathId> = self.paths.ids().collect();
            let usable = self.pair_usability();
            let before: Vec<(bool, u32)> = ids.iter().map(|&id| self.path_status(id)).collect();
            let preview = self.imp.preview_force(net, value);
            let valid = preview.changes().iter().all(|a| {
                let want = self.protected[a.net.index()];
                (want == Trit::X || want == a.value) && !self.established_net[a.net.index()]
            });
            let mut best: BTreeMap<usize, f64> = BTreeMap::new();
            let mut kills = 0u32;
            for (&id, &(dead_before, w_before)) in ids.iter().zip(&before) {
                let st = self.state[id.index()];
                if !valid || !st.alive || st.established || !usable[id.index()] {
                    continue;
                }
                assert_eq!((dead_before, w_before), (false, st.w), "path state drifted");
                let (nullified, w) = self.path_status(id);
                if nullified {
                    kills += 1;
                } else if w < w_before {
                    let d = self.paths.path(id).to.index();
                    let c = self.dest_weight[d] / f64::from(w_before);
                    let e = best.entry(d).or_insert(c);
                    *e = e.max(c);
                }
            }
            self.imp.undo_preview(preview);
            if !valid {
                return GAIN_INVALID;
            }
            let mut gain = 0.0;
            for c in best.values() {
                gain += c;
            }
            if gain > 0.0 {
                gain -= 1e-6 * f64::from(kills);
            }
            gain
        }
    }

    /// Every gain the sweep computes must be bit-equal to the literal
    /// Equation 1 reference, candidate for candidate, across several
    /// greedy iterations: with and without watcher registration, under
    /// both gain models, sequentially and with all hardware threads, and
    /// for two different batch compositions (all candidates, and every
    /// third one). The larger circuit carries enough previews per sweep
    /// for `threads: 0` to fan out over workers on a multi-core host.
    #[test]
    fn sweep_gains_match_the_equation_1_oracle() {
        let larger = generate(&CircuitSpec {
            name: "oracle".into(),
            inputs: 8,
            outputs: 4,
            ffs: 24,
            target_gates: 300,
            structure: StructureClass::mixed(0.6, 4, 3, 1),
            seed: 11,
        });
        let circuits = [workload(7), workload(8), workload(9), larger];
        let mut positive = 0usize;
        for n in &circuits {
            for gain_model in [GainModel::PathCount, GainModel::Scoap] {
                for threads in [1, 0] {
                    let cfg = TpGreedConfig { gain_model, ..TpGreedConfig::default() };
                    let paths = enumerate_paths(n, cfg.k_bound, cfg.max_paths);
                    let mut tp = TpGreed::with_paths(n, cfg, paths).with_threads(threads);
                    tp.establish_free_paths();
                    let all: Vec<usize> = (0..tp.gains.len()).collect();
                    let thirds: Vec<usize> = all.iter().copied().filter(|c| c % 3 == 1).collect();
                    for iteration in 0..4 {
                        let want: Vec<f64> = all.iter().map(|&c| tp.reference_gain(c)).collect();
                        positive += want.iter().filter(|&&g| g > 0.0).count();
                        for register in [false, true] {
                            for cands in [&all, &thirds] {
                                let got = tp.sweep_gains(cands, register).evals;
                                for (&c, e) in cands.iter().zip(&got) {
                                    assert_eq!(
                                        e.gain.to_bits(),
                                        want[c].to_bits(),
                                        "{} {gain_model:?} threads {threads} iteration \
                                         {iteration} register {register} candidate {c}: \
                                         sweep {} vs oracle {}",
                                        n.name(),
                                        e.gain,
                                        want[c]
                                    );
                                }
                            }
                        }
                        // Commit the argmax (highest gain, lowest index),
                        // as the Full-mode loop does.
                        let mut best: Option<(f64, usize)> = None;
                        for (c, &g) in want.iter().enumerate() {
                            if g > 0.0 && g >= tp.cfg.gain_bound && best.is_none_or(|(b, _)| g > b)
                            {
                                best = Some((g, c));
                            }
                        }
                        let Some((_, c)) = best else { break };
                        tp.commit(c);
                    }
                }
            }
        }
        assert!(positive > 0, "the oracle must see positive gains");
    }

    /// Runs TPGREED on each circuit with the live pin index checked
    /// against the path store after every commit (see
    /// `assert_live_index`), under both gain-update modes at threads 1
    /// and 2: outcomes must match across all four, and the store's own
    /// pin index must come back unchanged.
    fn check_live_index(circuits: &[Netlist]) {
        for n in circuits {
            let cfg = TpGreedConfig::default();
            let store = enumerate_paths(n, cfg.k_bound, cfg.max_paths);
            let mut first = None;
            for gain_update in [GainUpdate::Full, GainUpdate::Incremental] {
                for threads in [1, 2] {
                    let cfg = TpGreedConfig { gain_update, ..TpGreedConfig::default() };
                    let mut tp = TpGreed::with_paths(n, cfg, store.clone()).with_threads(threads);
                    tp.check_live = true;
                    let (outcome, paths) = tp.run_with_paths();
                    for net in 0..n.gate_count() {
                        assert_eq!(paths.pins(net), store.pins(net), "{}: store pins", n.name());
                    }
                    verify_outcome(n, &paths, &outcome).unwrap();
                    let got = (outcome.test_points, outcome.scan_paths, outcome.iterations);
                    match &first {
                        None => first = Some(got),
                        Some(want) => {
                            assert_eq!(&got, want, "{} {gain_update:?} threads {threads}", n.name())
                        }
                    }
                }
            }
        }
    }

    fn suite_circuits(names: &[&str]) -> Vec<Netlist> {
        names
            .iter()
            .map(|name| generate(&suite().into_iter().find(|s| s.name == *name).unwrap()))
            .collect()
    }

    /// The live pin index on the `paper_cold` circuits, the smoke
    /// circuits and seeded generated workloads.
    #[test]
    fn live_index_matches_the_filtered_store() {
        let mut circuits =
            suite_circuits(&["dsip", "s5378", "s9234", "bigkey", "mult32b", "mult32a"]);
        circuits.extend(smoke_suite().iter().map(generate));
        circuits.extend([3, 7, 8, 9].map(workload));
        check_live_index(&circuits);
    }

    /// The live pin index on the large suite circuits.
    #[test]
    #[ignore = "large circuits; run in release mode"]
    fn live_index_matches_the_filtered_store_on_large_circuits() {
        check_live_index(&suite_circuits(&["s13207", "s15850", "s35932", "s38417", "s38584"]));
    }

    /// Runs the greedy loop in place, so the runner's state stays
    /// readable afterwards.
    fn run_in_place(tp: &mut TpGreed<'_>) -> CounterSnapshot {
        let progress = Arc::new(Progress::new());
        tp.progress = Arc::clone(&progress);
        tp.run_loop().unwrap();
        progress.snapshot()
    }

    /// With no path at all, the one round still counts and still adds
    /// its whole candidate sweep to `candidates_evaluated`, but ends the
    /// loop before previewing a single lane.
    #[test]
    fn a_run_with_no_live_path_ends_before_it_previews() {
        let n = generate_industrial(&IndustrialSpec::sized("nolive", 3_000, 29));
        for gain_update in [GainUpdate::Full, GainUpdate::Incremental] {
            let cfg = TpGreedConfig { gain_update, ..TpGreedConfig::default() };
            let mut tp = TpGreed::new(&n, cfg);
            assert!(tp.paths.is_empty(), "the design must enumerate no path");
            let counters = run_in_place(&mut tp);
            assert_eq!(tp.iterations, 1, "{gain_update:?}");
            assert_eq!(counters.rounds, 1, "{gain_update:?}");
            assert_eq!(counters.candidates_evaluated, 2 * n.gate_count() as u64, "{gain_update:?}");
            assert!(tp.test_points.is_empty() && tp.established.is_empty(), "{gain_update:?}");
            assert_eq!(tp.previewed, 0, "{gain_update:?}: a lane was previewed");
        }
    }

    /// `bigkey`'s last commit retires its last live path. The round after
    /// it ends the loop without previewing, yet the sweep it skipped would
    /// have previewed lanes and found no qualifying gain: the outcome and
    /// counters are the full sweep's.
    #[test]
    fn the_round_after_the_last_live_path_retires_skips_its_sweep() {
        let n = &suite_circuits(&["bigkey"])[0];
        for gain_update in [GainUpdate::Full, GainUpdate::Incremental] {
            let cfg = TpGreedConfig { gain_update, ..TpGreedConfig::default() };
            let mut tp = TpGreed::new(n, cfg);
            let counters = run_in_place(&mut tp);
            assert_eq!(tp.live.count, 0, "{gain_update:?}: the run must end with no live path");
            assert_eq!(counters.rounds, tp.iterations as u64);
            assert_eq!(tp.iterations, tp.test_points.len() + 1, "the last round commits nothing");
            let previewed = tp.previewed;
            let skipped: Vec<usize> = match gain_update {
                GainUpdate::Full => (0..tp.gains.len()).collect(),
                GainUpdate::Incremental => (0..tp.gains.len()).filter(|&c| tp.dirty[c]).collect(),
            };
            let evals = tp.sweep_gains(&skipped, false).evals;
            assert!(tp.previewed > previewed, "{gain_update:?}: the skipped sweep previews");
            assert!(evals.iter().all(|e| e.gain <= 0.0), "{gain_update:?}: a gain qualified");
        }
    }

    /// The `max_paths` safety cap truncates enumeration but never breaks
    /// the invariants: the outcome still verifies.
    #[test]
    fn max_paths_cap_degrades_gracefully() {
        let n = workload(5);
        let (outcome, paths) =
            TpGreed::new(&n, TpGreedConfig { max_paths: 8, ..TpGreedConfig::default() })
                .run_with_paths();
        assert!(paths.len() <= 8);
        assert!(paths.truncated() > 0);
        verify_outcome(&n, &paths, &outcome).unwrap();
    }
}
