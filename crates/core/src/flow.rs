//! End-to-end DFT flows: the paper's two experiments.
//!
//! * [`FullScanFlow`] (§III, Table I): TPGREED + input assignment +
//!   physical insertion + conventional muxes for the uncovered flip-flops
//!   + chain stitching + flush verification.
//! * [`PartialScanFlow`] (§IV, Table III): cycle-breaking partial scan in
//!   three flavors — CB (Lee–Reddy, timing-oblivious), TD-CB (Jou–Cheng,
//!   timing-driven selection) and TPTIME (this paper: test points route
//!   scan paths around the critical logic).

use crate::input_assign::assign_inputs;
use crate::options::FlowOptions;
use crate::paths::enumerate_paths_with;
use crate::phases;
use crate::progress::{CancelKind, Canceled, CounterSnapshot, Progress};
use crate::report::{Table1Row, Table3Row};
use crate::tpgreed::{verify_outcome, TpGreed, TpGreedConfig};
use crate::tptime::{ScanPlan, ScanPlanner};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use tpi_lint::{verify_flow, ClaimedPath, DftClaims, Diagnostic, Placement, ReportedCounts};
use tpi_netlist::{GateId, Netlist, NetlistStats, TechLibrary};
use tpi_obs::{FlowMetrics, Recorder};
use tpi_par::Threads;
use tpi_scan::{
    break_cycles, flush_test_inductive, ChainLink, CycleBreakOptions, CycleBreaker, FlushReport,
    SGraph, ScanChain,
};
use tpi_sim::Trit;
use tpi_sta::{ClockConstraint, Sta};

/// Structured failure of a flow's §V flush verification: the produced
/// chain did not shift the alternating pattern through cleanly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushFailure {
    /// The flip-flop the miscompare was observed at (the chain's
    /// scan-out stage).
    pub gate: GateId,
    /// Its name in the transformed netlist.
    pub gate_name: String,
    /// 0-based position in the scan-out stream.
    pub position: usize,
    /// The bit the chain should have delivered.
    pub expected: Trit,
    /// The value actually observed (possibly `X`).
    pub observed: Trit,
    /// Chain length, for context.
    pub chain_len: usize,
}

impl fmt::Display for FlushFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "flush test failed at scan-out bit {} of the {}-FF chain: \
             observed {:?} at {} , expected {:?}",
            self.position, self.chain_len, self.observed, self.gate_name, self.expected
        )
    }
}

/// Errors from the fallible flow entry points ([`FullScanFlow::run_with`],
/// [`PartialScanFlow::run_with`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// The run was stopped at an iteration boundary by its [`Progress`]
    /// token (explicit cancellation or an expired deadline).
    Canceled(CancelKind),
    /// The produced scan chain failed the §V flush test; carries the
    /// observing gate and the first miscomparing bit.
    FlushFailed(FlushFailure),
    /// The independent `tpi-lint` verifier found `Error`-severity
    /// problems in the flow's claims (unsensitized paths, illegal test
    /// points, malformed chain, …). Carries every diagnostic the
    /// verifier emitted, warnings included.
    Verification(Vec<Diagnostic>),
    /// The netlist has no flip-flops: a scan chain needs at least one
    /// sequential element to thread, so a combinational-only design has
    /// nothing to scan. A user error, not a flow bug.
    NoFlipFlops,
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Canceled(CancelKind::Canceled) => write!(f, "flow canceled"),
            FlowError::Canceled(CancelKind::DeadlineExceeded) => {
                write!(f, "flow deadline exceeded")
            }
            FlowError::FlushFailed(x) => write!(f, "{x}"),
            FlowError::Verification(diags) => {
                let errors =
                    diags.iter().filter(|d| d.severity == tpi_lint::Severity::Error).count();
                write!(f, "flow verification failed with {errors} error(s)")?;
                if let Some(first) = diags.first() {
                    write!(f, ": {}", first.render_text())?;
                }
                Ok(())
            }
            FlowError::NoFlipFlops => {
                write!(f, "netlist has no flip-flops: nothing to thread a scan chain through")
            }
        }
    }
}

/// Runs the independent verifier and promotes `Error`-severity findings
/// to a [`FlowError::Verification`].
fn check_claims(
    original: &Netlist,
    transformed: &Netlist,
    claims: &DftClaims,
) -> Result<(), FlowError> {
    let diags = verify_flow(original, transformed, claims);
    if tpi_lint::has_errors(&diags) {
        return Err(FlowError::Verification(diags));
    }
    Ok(())
}

impl std::error::Error for FlowError {}

impl From<Canceled> for FlowError {
    fn from(c: Canceled) -> Self {
        FlowError::Canceled(c.kind)
    }
}

/// Folds a run's counter deltas into `rec`: the deterministic four under
/// their canonical names, and the speculative `plans_attempted`
/// quarantined as non-deterministic (it may grow with the worker count).
/// Every key is recorded even at zero so the deterministic JSON carries
/// the same fields on every input.
fn record_counters(rec: &Recorder, before: &CounterSnapshot, after: &CounterSnapshot) {
    rec.add("paths_enumerated", after.paths_enumerated.saturating_sub(before.paths_enumerated));
    rec.add(
        "candidates_evaluated",
        after.candidates_evaluated.saturating_sub(before.candidates_evaluated),
    );
    rec.add(
        "test_points_placed",
        after.test_points_placed.saturating_sub(before.test_points_placed),
    );
    rec.add("rounds", after.rounds.saturating_sub(before.rounds));
    rec.add_nd("plans_attempted", after.plans_attempted.saturating_sub(before.plans_attempted));
}

/// Converts a failing [`FlushReport`] into the structured error variant;
/// passing reports yield `Ok(())`.
fn check_flush(n: &Netlist, report: &FlushReport) -> Result<(), FlowError> {
    match report.first_mismatch() {
        None => Ok(()),
        Some(m) => Err(FlowError::FlushFailed(FlushFailure {
            gate: m.gate,
            gate_name: n.gate_name(m.gate).to_string(),
            position: m.position,
            expected: m.expected,
            observed: m.observed,
            chain_len: report.chain_len,
        })),
    }
}

/// The full-scan flow of §III.
#[derive(Debug, Clone, Default)]
pub struct FullScanFlow {
    /// TPGREED parameters.
    pub config: TpGreedConfig,
}

/// Everything the full-scan flow produces.
#[derive(Debug)]
pub struct FullScanResult {
    /// The Table-I-shaped summary.
    pub row: Table1Row,
    /// The transformed netlist (test points + scan muxes + chain).
    pub netlist: Netlist,
    /// The stitched scan chain.
    pub chain: ScanChain,
    /// Flush-test verdict for the chain (§V).
    pub flush: FlushReport,
    /// Primary-input values required in test mode.
    pub pi_values: Vec<(GateId, Trit)>,
    /// The flow's claims in `tpi-lint` vocabulary, ready for
    /// [`tpi_lint::verify_flow`] (which [`FullScanFlow::run_with`]
    /// invokes automatically).
    pub claims: DftClaims,
    /// Per-phase spans and counters recorded by the run.
    pub metrics: FlowMetrics,
}

impl FullScanFlow {
    /// Runs the flow on (a copy of) `n` under default [`FlowOptions`]:
    /// [`run_with`](Self::run_with), verification included.
    ///
    /// # Panics
    /// Panics where `run_with` returns an error: the netlist has no
    /// flip-flops (a user error), or the produced scan structure fails
    /// the flush test or the verifier (a bug). Also panics on an invalid
    /// netlist (validate first).
    pub fn run(&self, n: &Netlist) -> FullScanResult {
        self.run_with(n, &FlowOptions::new()).expect("full-scan flow failed")
    }

    /// The canonical fallible entry point: runs the flow under `opts`.
    ///
    /// [`FlowOptions`] supplies the worker-thread count, the
    /// cooperative [`Progress`] token (cancellation and deadlines stop
    /// the run between rounds), and an optional shared metrics recorder.
    /// The run records one span per phase (see [`crate::phases`]) plus
    /// the deterministic counters, verifies the produced chain — §V
    /// flush test and the independent `tpi-lint` check — and attaches
    /// the finished [`FlowMetrics`] to the result.
    pub fn run_with(&self, n: &Netlist, opts: &FlowOptions) -> Result<FullScanResult, FlowError> {
        if n.dffs().is_empty() {
            return Err(FlowError::NoFlipFlops);
        }
        let progress = opts.resolve_progress();
        let rec = opts.resolve_recorder();
        let before = progress.snapshot();
        let outcome = (|| -> Result<FullScanResult, FlowError> {
            let _root = rec.span(phases::FULL_SCAN);
            let r = self.run_impl(n, &progress, &rec, opts.threads())?;
            let _v = rec.span(phases::VERIFY);
            check_flush(&r.netlist, &r.flush)?;
            check_claims(n, &r.netlist, &r.claims)?;
            Ok(r)
        })();
        record_counters(&rec, &before, &progress.snapshot());
        let mut r = outcome?;
        r.metrics = rec.finish();
        Ok(r)
    }

    fn run_impl(
        &self,
        n: &Netlist,
        progress: &Arc<Progress>,
        rec: &Recorder,
        threads: usize,
    ) -> Result<FullScanResult, Canceled> {
        progress.checkpoint()?;
        {
            let _s = rec.span(phases::ANALYSIS);
            let analysis = tpi_dfa::NetlistAnalysis::run(&tpi_sim::NetView::new(n));
            for (k, v) in analysis.metrics() {
                rec.add_analysis(k, v);
            }
        }
        progress.checkpoint()?;
        let paths = {
            let _s = rec.span(phases::ENUMERATE_PATHS);
            enumerate_paths_with(
                n,
                self.config.k_bound,
                self.config.max_paths,
                Threads::from_knob(threads),
            )
        };
        let (outcome, paths) = {
            let _s = rec.span(phases::TPGREED);
            TpGreed::with_paths(n, self.config.clone(), paths)
                .with_progress(Arc::clone(progress))
                .with_threads(threads)
                .try_run_with_paths()?
        };
        verify_outcome(n, &paths, &outcome).expect("TPGREED must produce a verifiable outcome");
        let assignment = {
            let _s = rec.span(phases::INPUT_ASSIGN);
            assign_inputs(n, &paths, &outcome)
        };

        // --- Physical realization on a working copy. ---
        progress.checkpoint()?;
        let mut work = n.clone();
        let mut physical: Vec<(GateId, Trit)> = Vec::with_capacity(assignment.physical.len());
        {
            let _s = rec.span(phases::INSERT_TEST_POINTS);
            work.ensure_test_input();
            for &(net, v) in &assignment.physical {
                let tp = match v {
                    Trit::Zero => work.insert_and_test_point(net).expect("tpgreed nets are valid"),
                    Trit::One => work.insert_or_test_point(net).expect("tpgreed nets are valid"),
                    Trit::X => unreachable!("test points always carry constants"),
                };
                physical.push((tp, v));
            }
        }

        // --- Chain construction. ---
        // Established paths dictate `from -> to` links; every fragment
        // head (and every uncovered flip-flop) gets a conventional mux.
        let chain = {
            let _s = rec.span(phases::STITCH_CHAIN);
            let succ: HashMap<GateId, (GateId, bool)> = outcome
                .scan_paths
                .iter()
                .map(|&id| {
                    let p = paths.path(id);
                    (p.from, (p.to, p.inverting))
                })
                .collect();
            let has_incoming: HashSet<GateId> =
                outcome.scan_paths.iter().map(|&id| paths.path(id).to).collect();
            let mut links: Vec<ChainLink> = Vec::new();
            let stub = work.add_input("scan_stub");
            for ff in n.dffs() {
                if has_incoming.contains(&ff) {
                    continue; // covered by a test-point path; not a head
                }
                // Head of a fragment: conventional mux entry, then follow
                // the established paths.
                let mux = work
                    .insert_scan_mux_at_pin(ff, 0, stub)
                    .expect("flip-flops always have a D pin");
                links.push(ChainLink::Mux { mux, ff, inverting: false });
                let mut cur = ff;
                while let Some(&(next, inverting)) = succ.get(&cur) {
                    links.push(ChainLink::Path { from: cur, ff: next, inverting });
                    cur = next;
                }
            }
            let chain =
                ScanChain::stitch(&mut work, links).expect("chain fragments are consistent");
            work.validate().expect("transformed netlist must stay valid");
            chain
        };

        // --- Flush verification (§V). ---
        let pi_values = assignment.pi_values.clone();
        let flush = {
            let _s = rec.span(phases::FLUSH_CHECK);
            flush_test_inductive(&work, &chain, &pi_values).expect("test input exists")
        };

        // Timing is the caller's concern (bins wrap the run in their own
        // clock; the job service reports wall time per job); the flow
        // itself reports deterministic per-phase counters via `progress`.
        let row = Table1Row {
            circuit: n.name().to_string(),
            ff_count: n.dffs().len(),
            insertions: outcome.test_points.len(),
            free: assignment.free.len(),
            scan_paths: outcome.scan_paths.len(),
            cpu_seconds: 0.0,
        };
        let claims = DftClaims {
            test_points: outcome.test_points.clone(),
            pi_values: pi_values.clone(),
            paths: outcome
                .scan_paths
                .iter()
                .map(|&id| {
                    let p = paths.path(id);
                    ClaimedPath {
                        from: p.from,
                        to: p.to,
                        gates: p.gates.to_vec(),
                        side_inputs: p.side_inputs.to_vec(),
                        inverting: p.inverting,
                    }
                })
                .collect(),
            physical,
            links: chain.links().to_vec(),
            placements: Vec::new(),
            claims_acyclic: true,
            reported: Some(ReportedCounts {
                ff_count: row.ff_count,
                insertions: row.insertions,
                free: row.free,
                scan_paths: row.scan_paths,
            }),
        };
        Ok(FullScanResult {
            row,
            netlist: work,
            chain,
            flush,
            pi_values,
            claims,
            metrics: FlowMetrics::default(),
        })
    }
}

/// Which partial-scan method to run (the three columns of Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartialScanMethod {
    /// Lee–Reddy cycle breaking, timing-oblivious (paper ref. \[6\]).
    Cb,
    /// Timing-driven cycle breaking (paper ref. \[7\]).
    TdCb,
    /// This paper: cycle breaking + test-point scan routing.
    TpTime,
}

impl PartialScanMethod {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            PartialScanMethod::Cb => "CB",
            PartialScanMethod::TdCb => "TD-CB",
            PartialScanMethod::TpTime => "TPTIME",
        }
    }
}

/// The timing-driven partial-scan flow of §IV, on the paper's
/// technology library. [`FlowOptions::with_threads`] sets TPTIME's
/// per-round planning workers; selections are identical for every
/// setting (planning is read-only; commits happen on the main thread in
/// cycle-breaker order).
#[derive(Debug, Clone)]
pub struct PartialScanFlow {
    /// Method under evaluation.
    pub method: PartialScanMethod,
}

impl PartialScanFlow {
    /// Creates a flow for `method`.
    pub fn new(method: PartialScanMethod) -> Self {
        PartialScanFlow { method }
    }
}

/// What one `selection_loop` round did: the flip-flop it scanned (if
/// any) and the candidates it rejected before that — only those may be
/// marked, exactly as the sequential early-exit walk would.
#[derive(Debug, Default)]
struct RoundOutcome {
    scanned: Option<GateId>,
    marked: Vec<GateId>,
}

/// Everything a partial-scan run produces.
#[derive(Debug)]
pub struct PartialScanResult {
    /// The Table-III-shaped summary.
    pub row: Table3Row,
    /// The transformed netlist.
    pub netlist: Netlist,
    /// The stitched scan chain (absent when no flip-flop was selected).
    pub chain: Option<ScanChain>,
    /// Flush verdict (absent when no chain exists).
    pub flush: Option<FlushReport>,
    /// Whether every cycle in the s-graph was broken.
    pub acyclic: bool,
    /// The flow's claims in `tpi-lint` vocabulary, ready for
    /// [`tpi_lint::verify_flow`] (which [`PartialScanFlow::run_with`]
    /// invokes automatically).
    pub claims: DftClaims,
    /// Per-phase spans and counters recorded by the run.
    pub metrics: FlowMetrics,
}

impl PartialScanFlow {
    /// Runs the selected method on (a copy of) `n` under default
    /// [`FlowOptions`]: [`run_with`](Self::run_with), verification
    /// included.
    ///
    /// # Panics
    /// Panics where `run_with` returns an error (the produced scan
    /// structure fails the flush test or the verifier — a bug), and on
    /// invalid input netlists.
    pub fn run(&self, n: &Netlist) -> PartialScanResult {
        self.run_with(n, &FlowOptions::new()).expect("partial-scan flow failed")
    }

    /// The canonical fallible entry point: runs the selected method
    /// under `opts`.
    ///
    /// [`FlowOptions`] supplies the worker-thread count, the
    /// cooperative [`Progress`] token (the selection loop checkpoints it
    /// between rounds), and an optional shared metrics recorder. The run
    /// records one span per phase (see [`crate::phases`]) plus the
    /// deterministic counters, verifies the produced chain — §V flush
    /// test and the independent `tpi-lint` check — and attaches the
    /// finished [`FlowMetrics`] to the result.
    pub fn run_with(
        &self,
        n: &Netlist,
        opts: &FlowOptions,
    ) -> Result<PartialScanResult, FlowError> {
        let progress = opts.resolve_progress();
        let rec = opts.resolve_recorder();
        let before = progress.snapshot();
        let outcome = (|| -> Result<PartialScanResult, FlowError> {
            let _root = rec.span(phases::PARTIAL_SCAN);
            let r = self.run_impl(n, &progress, &rec, opts.threads())?;
            let _v = rec.span(phases::VERIFY);
            if let Some(flush) = &r.flush {
                check_flush(&r.netlist, flush)?;
            }
            check_claims(n, &r.netlist, &r.claims)?;
            Ok(r)
        })();
        record_counters(&rec, &before, &progress.snapshot());
        let mut r = outcome?;
        r.metrics = rec.finish();
        Ok(r)
    }

    fn run_impl(
        &self,
        n: &Netlist,
        progress: &Arc<Progress>,
        rec: &Recorder,
        threads: usize,
    ) -> Result<PartialScanResult, Canceled> {
        progress.checkpoint()?;
        let lib = TechLibrary::paper();
        let baseline_span = rec.span(phases::BASELINE_ANALYSIS);
        let base_stats = NetlistStats::compute(n, &lib);
        let mut sgraph = SGraph::build(n).expect("netlist must be acyclic");
        let mut planner =
            ScanPlanner::new(n.clone(), lib.clone()).with_progress(Arc::clone(progress));
        // The planner's baseline STA ran on an identical copy of `n`.
        let base_delay = planner.baseline_delay();
        drop(baseline_span);

        let selection_span = rec.span(phases::SELECTION);
        match self.method {
            PartialScanMethod::Cb => {
                progress.add_round();
                let r = break_cycles(&sgraph, &CycleBreakOptions::classic());
                progress.add_candidates_evaluated(r.selected.len() as u64);
                for ff in r.selected {
                    progress.checkpoint()?;
                    planner.scan_conventionally(ff);
                }
            }
            PartialScanMethod::TdCb => {
                // Ref. [7]: re-time after each conversion; a flip-flop is
                // selectable only while its D slack absorbs the mux.
                Self::selection_loop(&mut sgraph, &mut planner, progress, |planner, selected| {
                    let mut round = RoundOutcome::default();
                    for &ff in selected {
                        if planner.mux_fits_directly(ff) {
                            planner.scan_conventionally(ff);
                            round.scanned = Some(ff);
                            break;
                        }
                        round.marked.push(ff);
                    }
                    round
                })?;
            }
            PartialScanMethod::TpTime => {
                // This paper: when the mux does not fit, search the
                // non-reconvergent fanin region for a test-point plan.
                // Planning is read-only, so with threads > 1 the round's
                // candidates are planned concurrently and the walk below
                // commits the first hit in cycle-breaker order — the same
                // flip-flop the sequential early-exit walk would pick.
                let threads = Threads::from_knob(threads);
                // Planning is an early-exit search, so parallelism here is
                // speculation: cap the batch width at the physical core
                // count or the wasted plans can never be repaid.
                let width = threads.speculation_width();
                Self::selection_loop(&mut sgraph, &mut planner, progress, |planner, selected| {
                    let plans: Vec<Option<ScanPlan>> = if width <= 1 || selected.len() < 2 {
                        let mut plans = Vec::new();
                        for &ff in selected {
                            let plan = planner.plan_zero_degradation(ff);
                            let hit = plan.is_some();
                            plans.push(plan);
                            if hit {
                                break; // later candidates are never inspected
                            }
                        }
                        plans
                    } else {
                        // Speculate one chunk of `width` candidates at a
                        // time: the work wasted past the committed hit is
                        // bounded by one chunk, and each chunk's plans run
                        // on distinct cores.
                        let shared: &ScanPlanner = planner;
                        let mut plans: Vec<Option<ScanPlan>> = Vec::with_capacity(selected.len());
                        for chunk in selected.chunks(width) {
                            let batch = tpi_par::map_indexed(threads, chunk.len(), &(), |_, i| {
                                shared.plan_zero_degradation(chunk[i])
                            });
                            let hit = batch.iter().any(Option::is_some);
                            plans.extend(batch);
                            if hit {
                                break;
                            }
                        }
                        plans
                    };
                    let mut round = RoundOutcome::default();
                    for (i, plan) in plans.into_iter().enumerate() {
                        if let Some(plan) = plan {
                            planner.commit(&plan);
                            round.scanned = Some(selected[i]);
                            break;
                        }
                        round.marked.push(selected[i]);
                    }
                    round
                })?;
            }
        }
        drop(selection_span);

        let scanned: Vec<GateId> = planner.links().iter().map(|l| l.ff()).collect();
        let acyclic = !sgraph.has_cycle(&scanned);
        let selected = scanned.len();
        let links = planner.links().to_vec();
        let physical = planner.physical_test_points().to_vec();
        let placements: Vec<Placement> = planner
            .placements()
            .iter()
            .map(|(ff, inserted)| Placement { ff: *ff, inserted: inserted.clone() })
            .collect();
        let (mut netlist, _, _, pi_values) = planner.into_parts();

        // The stitch and flush spans open even when no flip-flop was
        // selected, so the span-tree *structure* is input-independent.
        let chain = {
            let _s = rec.span(phases::STITCH_CHAIN);
            if links.is_empty() {
                None
            } else {
                Some(ScanChain::stitch(&mut netlist, links).expect("mux links always stitch"))
            }
        };
        let flush = {
            let _s = rec.span(phases::FLUSH_CHECK);
            chain
                .as_ref()
                .map(|c| flush_test_inductive(&netlist, c, &pi_values).expect("test input exists"))
        };
        netlist.validate().expect("transformed netlist must stay valid");

        let final_span = rec.span(phases::FINAL_ANALYSIS);
        let final_stats = NetlistStats::compute(&netlist, &lib);
        let final_delay =
            Sta::analyze(&netlist, &lib, ClockConstraint::LongestPath).circuit_delay();
        drop(final_span);
        // As in the full-scan flow, wall-clock timing belongs to callers;
        // the flow reports deterministic counters via `progress`.
        let row = Table3Row {
            circuit: n.name().to_string(),
            method: self.method.label().to_string(),
            selected_ffs: selected,
            area: final_stats.area,
            area_pct: 0.0,
            delay: final_delay,
            delay_pct: 0.0,
            cpu_seconds: 0.0,
        }
        .with_baselines(base_stats.area, base_delay);
        // Scan-path sensitization (TPI101/102) is a TPGREED-vocabulary
        // claim; TPTIME's shift paths are implied by its mux links, so
        // `paths` stays empty here and the verifier exercises the
        // test-point, chain, region and s-graph checks instead.
        let claims = DftClaims {
            test_points: Vec::new(),
            pi_values: pi_values.clone(),
            paths: Vec::new(),
            physical,
            links: chain.as_ref().map(|c| c.links().to_vec()).unwrap_or_default(),
            placements,
            claims_acyclic: acyclic,
            reported: None,
        };
        Ok(PartialScanResult {
            row,
            netlist,
            chain,
            flush,
            acyclic,
            claims,
            metrics: FlowMetrics::default(),
        })
    }

    /// §IV.B's interleaved loop, shared by TD-CB and TPTIME: run the
    /// cycle-breaking selection, let `process_round` attempt a
    /// zero-degradation conversion over the selected flip-flops (it
    /// reports the one it scanned, if any, plus the rejected prefix),
    /// mark the rejects and re-select; when no marked-free selection
    /// remains, fall back to minimal-degradation conventional scan
    /// (largest D slack first). Every scanned flip-flop leaves
    /// `remaining` in place.
    fn selection_loop(
        remaining: &mut SGraph,
        planner: &mut ScanPlanner,
        progress: &Progress,
        mut process_round: impl FnMut(&mut ScanPlanner, &[GateId]) -> RoundOutcome,
    ) -> Result<(), Canceled> {
        let mut breaker = CycleBreaker::new();
        let mut marked: HashSet<GateId> = HashSet::new();
        loop {
            progress.checkpoint()?;
            let r = {
                let marked_view = &marked;
                let opts = CycleBreakOptions::timing_driven(move |ff| !marked_view.contains(&ff));
                breaker.run(remaining, &opts)
            };
            // Nothing selected and nothing unresolved: the reductions
            // consumed the remaining graph whole, so it is acyclic.
            if r.selected.is_empty() && r.unresolved.is_empty() {
                break;
            }
            progress.add_round();
            let round = process_round(planner, &r.selected);
            // Inspected candidates this round = the rejected prefix plus
            // the committed hit (if any) — the same count the sequential
            // early-exit walk makes, so it is thread-count-independent
            // even when TPTIME plans chunks speculatively.
            progress.add_candidates_evaluated(
                (round.marked.len() + usize::from(round.scanned.is_some())) as u64,
            );
            let mut newly_marked = false;
            for ff in round.marked {
                newly_marked |= marked.insert(ff);
            }
            let progressed = round.scanned.is_some();
            if let Some(ff) = round.scanned {
                remaining.remove(ff);
            }
            if progressed || newly_marked {
                // Fresh marks change the selectability landscape: let the
                // cycle breaker propose alternates before giving up
                // ("instruct cycle breaking procedure to choose another").
                continue;
            }
            // No zero-degradation selection possible: minimal-degradation
            // fallback — among the flip-flops actually on remaining
            // cycles, scan the one whose D connection has the largest
            // slack (≈ smallest degradation), per §IV.B.
            let candidates: Vec<GateId> = remaining.cyclic_nodes();
            let Some(&victim) = candidates.iter().max_by(|&&a, &&b| {
                let sa = planner.sta().endpoint_slack(planner.netlist(), a);
                let sb = planner.sta().endpoint_slack(planner.netlist(), b);
                sa.partial_cmp(&sb).expect("slacks are finite")
            }) else {
                break; // nothing left to try
            };
            planner.scan_conventionally(victim);
            remaining.remove(victim);
            marked.remove(&victim);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_netlist::{GateKind, NetlistBuilder};

    /// A small circuit with one FF ring (needs breaking) and a FF pair
    /// connected by sensitizable logic (good for test-point paths).
    fn mixed_circuit() -> Netlist {
        let mut b = NetlistBuilder::new("mixed");
        b.input("a");
        b.input("en");
        b.input("d");
        // ring f0 -> f1 -> f0 through inverters
        b.gate(GateKind::Inv, "r0", &["f0"]);
        b.dff("f1", "r0");
        b.gate(GateKind::Inv, "r1", &["f1"]);
        b.dff("f0", "r1");
        // pipeline f2 -> AND(en) -> f3
        b.dff("f2", "d");
        b.gate(GateKind::And, "p0", &["f2", "en"]);
        b.dff("f3", "p0");
        // some combinational depth for timing texture
        b.gate(GateKind::Inv, "x0", &["a"]);
        b.gate(GateKind::Inv, "x1", &["x0"]);
        b.gate(GateKind::And, "x2", &["x1", "f3"]);
        b.output("o", "x2");
        b.output("o1", "f0");
        b.finish().unwrap()
    }

    #[test]
    fn full_scan_flow_produces_verified_chain() {
        let n = mixed_circuit();
        let flow = FullScanFlow::default();
        let r = flow.run(&n);
        assert_eq!(r.row.ff_count, 4);
        assert_eq!(r.chain.len(), 4, "full scan covers every FF");
        assert!(r.flush.passed(), "flush must pass: {:?}", r.flush);
        assert!(r.row.scan_paths >= 1, "f2->f3 (at least) rides through logic");
        assert!(r.row.reduction() > 0.0);
    }

    #[test]
    fn partial_scan_cb_breaks_all_cycles() {
        let n = mixed_circuit();
        let r = PartialScanFlow::new(PartialScanMethod::Cb).run(&n);
        assert!(r.acyclic);
        assert_eq!(r.row.selected_ffs, 1, "one FF breaks the 2-ring");
        if let Some(f) = &r.flush {
            assert!(f.passed());
        }
    }

    #[test]
    fn partial_scan_methods_are_ordered_on_delay() {
        let n = mixed_circuit();
        let cb = PartialScanFlow::new(PartialScanMethod::Cb).run(&n);
        let td = PartialScanFlow::new(PartialScanMethod::TdCb).run(&n);
        let tp = PartialScanFlow::new(PartialScanMethod::TpTime).run(&n);
        assert!(cb.acyclic && td.acyclic && tp.acyclic);
        // The paper's headline ordering: TPTIME's delay never exceeds
        // TD-CB's, which never exceeds CB's... on circuits where it
        // matters. Here we only require TPTIME to be no worse than CB.
        assert!(tp.row.delay <= cb.row.delay + 1e-9);
        assert!(td.row.delay <= cb.row.delay + 1e-9);
    }

    #[test]
    fn tptime_flush_passes() {
        let n = mixed_circuit();
        let r = PartialScanFlow::new(PartialScanMethod::TpTime).run(&n);
        assert!(r.acyclic);
        let f = r.flush.expect("a chain exists");
        assert!(f.passed(), "{:?} vs {:?}", f.observed, f.expected);
    }

    #[test]
    fn threads_knob_never_changes_flow_results() {
        let n = mixed_circuit();
        let base_full = FullScanFlow::default().run(&n);
        let base_tp = PartialScanFlow::new(PartialScanMethod::TpTime).run(&n);
        for threads in [2, 0] {
            let opts = FlowOptions::new().with_threads(threads);
            let full = FullScanFlow::default().run_with(&n, &opts).expect("flow succeeds");
            assert_eq!(full.row.insertions, base_full.row.insertions);
            assert_eq!(full.row.scan_paths, base_full.row.scan_paths);
            assert_eq!(full.pi_values, base_full.pi_values);
            let tp = PartialScanFlow::new(PartialScanMethod::TpTime)
                .run_with(&n, &opts)
                .expect("flow succeeds");
            assert_eq!(tp.row.selected_ffs, base_tp.row.selected_ffs);
            assert!((tp.row.delay - base_tp.row.delay).abs() < 1e-12);
            assert!((tp.row.area - base_tp.row.area).abs() < 1e-12);
        }
    }

    #[test]
    fn canceled_progress_stops_flows_at_the_first_checkpoint() {
        let n = mixed_circuit();
        let progress = Arc::new(Progress::new());
        progress.cancel();
        let opts = FlowOptions::new().with_progress(Arc::clone(&progress));
        let full = FullScanFlow::default().run_with(&n, &opts);
        assert!(matches!(full, Err(FlowError::Canceled(CancelKind::Canceled))));
        let tp = PartialScanFlow::new(PartialScanMethod::TpTime).run_with(&n, &opts);
        assert!(matches!(tp, Err(FlowError::Canceled(CancelKind::Canceled))));
    }

    #[test]
    fn run_with_accumulates_deterministic_counters() {
        let n = mixed_circuit();
        let progress = Arc::new(Progress::new());
        let r = FullScanFlow::default()
            .run_with(&n, &FlowOptions::new().with_progress(Arc::clone(&progress)))
            .expect("flow succeeds");
        let snap = progress.snapshot();
        assert!(snap.paths_enumerated > 0);
        assert!(snap.candidates_evaluated > 0);
        assert_eq!(snap.test_points_placed as usize, r.row.insertions);
        // The same numbers land in the result's metrics.
        assert_eq!(r.metrics.counter("paths_enumerated"), snap.paths_enumerated);
        assert_eq!(r.metrics.counter("test_points_placed"), snap.test_points_placed);

        // The thread knob must not change any deterministic counter.
        let p2 = Arc::new(Progress::new());
        FullScanFlow::default()
            .run_with(&n, &FlowOptions::new().with_threads(2).with_progress(Arc::clone(&p2)))
            .expect("flow succeeds");
        let s2 = p2.snapshot();
        assert_eq!(snap.paths_enumerated, s2.paths_enumerated);
        assert_eq!(snap.candidates_evaluated, s2.candidates_evaluated);
        assert_eq!(snap.test_points_placed, s2.test_points_placed);
        assert_eq!(snap.rounds, s2.rounds);
    }

    #[test]
    fn tptime_counters_are_thread_count_independent() {
        let n = mixed_circuit();
        let a = PartialScanFlow::new(PartialScanMethod::TpTime)
            .run_with(&n, &FlowOptions::new())
            .expect("flow runs")
            .metrics;
        let b = PartialScanFlow::new(PartialScanMethod::TpTime)
            .run_with(&n, &FlowOptions::new().with_threads(4))
            .expect("flow runs")
            .metrics;
        assert_eq!(a.counter("candidates_evaluated"), b.counter("candidates_evaluated"));
        assert_eq!(a.counter("test_points_placed"), b.counter("test_points_placed"));
        assert_eq!(a.counter("rounds"), b.counter("rounds"));
        // The whole deterministic section — structure and counters — is
        // byte-identical across thread counts.
        assert_eq!(a.deterministic_json(), b.deterministic_json());
        // `plans_attempted` is the documented exception: speculation may
        // attempt extra plans past the committed hit, so it lives in the
        // non-deterministic section and is only bounded below.
        assert!(b.nd_counters["plans_attempted"] >= a.nd_counters["plans_attempted"]);
    }

    #[test]
    fn run_with_records_every_phase_exactly_once() {
        let n = mixed_circuit();
        let full = FullScanFlow::default()
            .run_with(&n, &FlowOptions::new())
            .expect("flow succeeds")
            .metrics;
        assert_eq!(full.span_names(), crate::phases::full_scan());
        let tp = PartialScanFlow::new(PartialScanMethod::TpTime)
            .run_with(&n, &FlowOptions::new())
            .expect("flow succeeds")
            .metrics;
        assert_eq!(tp.span_names(), crate::phases::partial_scan());
    }

    #[test]
    fn full_scan_metrics_carry_a_deterministic_analysis_section() {
        let n = mixed_circuit();
        let a = FullScanFlow::default()
            .run_with(&n, &FlowOptions::new())
            .expect("flow succeeds")
            .metrics;
        assert!(a.analysis_value("scoap_cc_max") > 0, "SCOAP ran on the base netlist");
        assert!(a.analysis_value("xreach_sources") > 0, "the circuit has flip-flops");
        assert!(a.deterministic_json().contains(r#""analysis":{"#));
        let b = FullScanFlow::default()
            .run_with(&n, &FlowOptions::new().with_threads(2))
            .expect("flow succeeds")
            .metrics;
        assert_eq!(a.deterministic_json(), b.deterministic_json());
    }

    #[test]
    fn gain_model_reaches_tpgreed_and_stays_deterministic() {
        let n = mixed_circuit();
        let flow = FullScanFlow {
            config: TpGreedConfig {
                gain_model: crate::tpgreed::GainModel::Scoap,
                ..TpGreedConfig::default()
            },
        };
        let a = flow.run_with(&n, &FlowOptions::new()).expect("flow succeeds");
        assert!(a.flush.passed());
        let b = flow.run_with(&n, &FlowOptions::new().with_threads(2)).expect("flow succeeds");
        assert_eq!(a.row.insertions, b.row.insertions);
        assert_eq!(a.metrics.deterministic_json(), b.metrics.deterministic_json());
    }

    #[test]
    fn run_with_honors_deadlines() {
        let n = mixed_circuit();
        let r = FullScanFlow::default()
            .run_with(&n, &FlowOptions::new().with_deadline(std::time::Duration::ZERO));
        assert!(matches!(r, Err(FlowError::Canceled(CancelKind::DeadlineExceeded))));
    }

    #[test]
    fn combinational_only_design_is_a_typed_error() {
        // No flip-flops means no scan chain to build: the fallible entry
        // reports it instead of panicking in the stitcher (found by the
        // soak fuzzer submitting a pure-combinational BLIF).
        let mut b = NetlistBuilder::new("comb");
        b.input("a");
        b.gate(GateKind::Buf, "y", &["a"]);
        b.output("o", "y");
        let n = b.finish().unwrap();
        let r = FullScanFlow::default().run_with(&n, &FlowOptions::new());
        assert!(matches!(r, Err(FlowError::NoFlipFlops)));
        assert_eq!(
            FlowError::NoFlipFlops.to_string(),
            "netlist has no flip-flops: nothing to thread a scan chain through"
        );
    }

    #[test]
    fn shared_recorder_aggregates_multiple_runs() {
        let n = mixed_circuit();
        let rec = Arc::new(tpi_obs::Recorder::new());
        let opts = FlowOptions::new().with_metrics(Arc::clone(&rec));
        FullScanFlow::default().run_with(&n, &opts).expect("flow succeeds");
        FullScanFlow::default().run_with(&n, &opts).expect("flow succeeds");
        let m = rec.finish();
        assert_eq!(m.span_count(phases::FULL_SCAN), 2, "one root per run");
    }

    #[test]
    fn acyclic_circuit_needs_no_partial_scan() {
        let mut b = NetlistBuilder::new("pipe");
        b.input("d");
        b.dff("f0", "d");
        b.dff("f1", "f0");
        b.output("o", "f1");
        let n = b.finish().unwrap();
        let r = PartialScanFlow::new(PartialScanMethod::TpTime).run(&n);
        assert!(r.acyclic);
        assert_eq!(r.row.selected_ffs, 0);
        assert!(r.chain.is_none());
        assert!((r.row.delay_pct).abs() < 1e-9);
    }
}
