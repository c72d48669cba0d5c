//! The job service: worker pool + queue + cache + metrics.

use crate::cache::{CacheSource, ResultCache};
use crate::job::{FlowKind, JobSpec};
use crate::key::{cache_key, netlist_fingerprint, CacheKey};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use tpi_core::{
    CancelKind, CounterSnapshot, FlowError, FlowOptions, FullScanFlow, PartialScanFlow, Progress,
};
use tpi_lint::{has_errors, lint_netlist, Diagnostic, LintCode, LintConfig};
use tpi_obs::JsonObject;
use tpi_obs::{FlowMetrics, HistogramSnapshot, Recorder};
use tpi_par::{Threads, WorkerPool};

/// Service-wide configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads (`0` = all hardware threads): the size of the job
    /// pool, and the thread count every job's flow runs at. Payloads
    /// are byte-identical at every setting; this only changes
    /// throughput.
    pub threads: usize,
    /// In-memory LRU capacity, in payloads.
    pub cache_capacity: usize,
    /// Optional on-disk cache directory (shared across service
    /// lifetimes — this is what makes re-runs warm).
    pub cache_dir: Option<PathBuf>,
    /// Deadline applied to jobs that do not carry their own.
    pub default_deadline: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { threads: 0, cache_capacity: 256, cache_dir: None, default_deadline: None }
    }
}

/// Terminal state of a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// The flow ran (or was served from cache) and produced a payload.
    Completed,
    /// The job's deadline expired before the flow finished; the partial
    /// work was discarded at an iteration boundary.
    TimedOut,
    /// [`JobHandle::cancel`] stopped the job.
    Canceled,
    /// The job itself was bad: unparsable netlist, a flow panic, or a
    /// chain that failed the §V flush test. The message is
    /// human-readable and specific (for flush failures it carries the
    /// gate and expected/observed trits).
    Failed(String),
}

impl JobStatus {
    /// Short label for logs and filenames.
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Completed => "completed",
            JobStatus::TimedOut => "timed-out",
            JobStatus::Canceled => "canceled",
            JobStatus::Failed(_) => "failed",
        }
    }
}

/// Everything the service reports about one finished job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Submission-ordered job id (unique per service).
    pub id: u64,
    /// Flow label (`full-scan`, `cb`, `td-cb`, `tptime`).
    pub flow: &'static str,
    /// Terminal state.
    pub status: JobStatus,
    /// The content-addressed key (`None` when the netlist never
    /// parsed, so no identity exists).
    pub key: Option<CacheKey>,
    /// The deterministic payload (`None` unless `Completed`).
    pub payload: Option<Arc<str>>,
    /// Where the payload came from.
    pub cache: CacheSource,
    /// Wall-clock time from dequeue to finish (cache hits included —
    /// this is what the cold/warm comparison measures).
    pub wall: Duration,
    /// Per-phase counters from this job's live run (all zero for cache
    /// hits: nothing ran).
    pub counters: CounterSnapshot,
    /// `true` iff the job completed *and* its result passed the
    /// independent post-flow verifier (`tpi-lint`). Cache hits are
    /// verified by construction: a payload is only ever cached after a
    /// checked run.
    pub verified: bool,
    /// Lint findings for this job: pre-flight structural warnings, and
    /// — when the job failed verification — the verifier's findings.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-phase spans and counters recorded by this job's live run
    /// (empty for cache hits and pre-run failures: nothing ran).
    pub metrics: FlowMetrics,
    /// Aggregate service metrics — jobs, cache hit/miss counts, queue
    /// latency histogram — snapshotted when this job finished.
    pub service: MetricsSnapshot,
}

/// Handle to one submitted job.
pub struct JobHandle {
    id: u64,
    rx: mpsc::Receiver<JobReport>,
    progress: Arc<Progress>,
}

impl JobHandle {
    /// The job's id (submission order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Requests cancellation; the flow stops at its next checkpoint.
    /// Idempotent, and a no-op once the job finished.
    pub fn cancel(&self) {
        self.progress.cancel();
    }

    /// Blocks until the job finishes and returns its report.
    pub fn wait(self) -> JobReport {
        self.rx.recv().unwrap_or_else(|_| JobReport {
            id: self.id,
            flow: "unknown",
            status: JobStatus::Failed("worker disappeared before reporting".into()),
            key: None,
            payload: None,
            cache: CacheSource::Cold,
            wall: Duration::ZERO,
            counters: CounterSnapshot::default(),
            verified: false,
            diagnostics: Vec::new(),
            metrics: FlowMetrics::default(),
            service: MetricsSnapshot::default(),
        })
    }
}

/// A lightweight receipt for a job submitted with
/// [`JobService::submit_with`]: enough to identify and cancel the job,
/// but no channel — the completion callback is how the report comes
/// back. Dropping the ticket does not cancel anything.
pub struct JobTicket {
    id: u64,
    progress: Arc<Progress>,
}

impl JobTicket {
    /// The job's id (submission order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Requests cancellation; the flow stops at its next checkpoint.
    /// Idempotent, and a no-op once the job finished.
    pub fn cancel(&self) {
        self.progress.cancel();
    }
}

/// Monotonic service counters.
#[derive(Debug, Default)]
struct Metrics {
    submitted: AtomicU64,
    completed: AtomicU64,
    cache_hits_memory: AtomicU64,
    cache_hits_disk: AtomicU64,
    cache_misses: AtomicU64,
    timed_out: AtomicU64,
    canceled: AtomicU64,
    failed: AtomicU64,
    peer_seeds: AtomicU64,
}

/// A point-in-time copy of the service counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Jobs accepted by [`JobService::submit`].
    pub submitted: u64,
    /// Jobs that produced a payload (cold or cached).
    pub completed: u64,
    /// Payloads served from the in-memory LRU.
    pub cache_hits_memory: u64,
    /// Payloads served from the disk directory.
    pub cache_hits_disk: u64,
    /// Jobs whose flow actually ran.
    pub cache_misses: u64,
    /// Jobs stopped by their deadline.
    pub timed_out: u64,
    /// Jobs stopped by [`JobHandle::cancel`].
    pub canceled: u64,
    /// Bad jobs (parse errors, flow panics, flush failures).
    pub failed: u64,
    /// Payloads seeded into the cache from a sibling backend via
    /// [`JobService::seed`] (the PeerFetch protocol) rather than a
    /// local run.
    pub peer_seeds: u64,
    /// Time jobs spent queued before a worker picked them up (log₂-µs
    /// buckets).
    pub queue_latency: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// Fraction of completed lookups served from a cache (memory or
    /// disk); `0.0` before any lookup resolved.
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self.cache_hits_memory + self.cache_hits_disk;
        let total = hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Renders the snapshot as JSON (`tpi-serve-metrics/v1`). Counters
    /// and the hit rate are deterministic for a deterministic job
    /// sequence; the queue-latency histogram is wall-clock data and
    /// belongs to no byte-stability contract.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_str("schema", "tpi-serve-metrics/v1")
            .field_u64("submitted", self.submitted)
            .field_u64("completed", self.completed)
            .field_u64("cache_hits_memory", self.cache_hits_memory)
            .field_u64("cache_hits_disk", self.cache_hits_disk)
            .field_u64("cache_misses", self.cache_misses)
            .field_u64("timed_out", self.timed_out)
            .field_u64("canceled", self.canceled)
            .field_u64("failed", self.failed)
            .field_u64("peer_seeds", self.peer_seeds)
            .field_f64("cache_hit_rate", self.cache_hit_rate())
            .field_object("queue_latency", self.queue_latency.to_json_object());
        o.finish()
    }
}

struct Shared {
    cache: Mutex<ResultCache>,
    metrics: Metrics,
    /// Service-level observability: the queue-latency histogram
    /// (per-job span trees live in per-job recorders).
    obs: Recorder,
    /// The `ServiceConfig::threads` knob every job runs at.
    threads: usize,
}

/// A long-lived DFT job service.
///
/// Submit [`JobSpec`]s from any thread; a fixed pool of workers (see
/// [`tpi_par::WorkerPool`]) executes them concurrently. Results are
/// content-addressed: resubmitting the same netlist + config returns
/// the cached payload byte-for-byte. Dropping the service drains the
/// queue (already-submitted jobs finish) and joins the workers.
///
/// # Example
///
/// ```
/// use tpi_serve::{JobService, JobSpec, ServiceConfig};
/// use tpi_netlist::NetlistBuilder;
///
/// let mut b = NetlistBuilder::new("tiny");
/// b.input("d");
/// b.dff("f0", "d");
/// b.output("o", "f0");
/// let n = b.finish().unwrap();
///
/// let service = JobService::new(ServiceConfig::default());
/// let report = service.submit(JobSpec::full_scan(n)).wait();
/// assert!(report.payload.is_some());
/// ```
pub struct JobService {
    pool: WorkerPool,
    shared: Arc<Shared>,
    next_id: AtomicU64,
    default_deadline: Option<Duration>,
}

impl JobService {
    /// Starts the workers (idle until jobs arrive).
    pub fn new(config: ServiceConfig) -> Self {
        let ServiceConfig { threads, cache_capacity, cache_dir, default_deadline } = config;
        let shared = Arc::new(Shared {
            cache: Mutex::new(ResultCache::new(cache_capacity, cache_dir)),
            metrics: Metrics::default(),
            obs: Recorder::new(),
            threads,
        });
        JobService {
            pool: WorkerPool::new(Threads::from_knob(threads)),
            shared,
            next_id: AtomicU64::new(0),
            default_deadline,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Enqueues a job. The deadline clock starts *now* (queue time
    /// counts — a deadline is a promise to the caller, not to the CPU).
    pub fn submit(&self, spec: JobSpec) -> JobHandle {
        let (tx, rx) = mpsc::channel();
        let ticket = self.submit_with(spec, move |report| {
            let _ = tx.send(report); // receiver may have been dropped
        });
        let JobTicket { id, progress } = ticket;
        JobHandle { id, rx, progress }
    }

    /// Enqueues a job and delivers its report through `notify` instead
    /// of a handle: the callback runs on the worker thread the moment
    /// the job finishes, which is what lets a poll-loop server keep
    /// zero threads parked per in-flight request. `notify` must not
    /// block for long — it runs on a `tpi-par` worker, and every
    /// millisecond it holds is a millisecond no other job runs there.
    /// [`JobService::submit`] is this plus a channel.
    pub fn submit_with(
        &self,
        spec: JobSpec,
        notify: impl FnOnce(JobReport) + Send + 'static,
    ) -> JobTicket {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.shared.metrics.submitted.fetch_add(1, Ordering::Relaxed);
        // An explicit progress token in the job's options wins (its own
        // deadline, if any, governs); otherwise arm a fresh token from
        // the per-job or service-default deadline — built *now* so queue
        // time counts against it.
        let progress = match spec.options.progress() {
            Some(p) => Arc::clone(p),
            None => Arc::new(match spec.options.deadline().or(self.default_deadline) {
                Some(d) => Progress::with_deadline(d),
                None => Progress::new(),
            }),
        };
        let submitted_at = Instant::now();
        let shared = Arc::clone(&self.shared);
        let worker_progress = Arc::clone(&progress);
        self.pool.spawn(move || {
            let mut parsed = None;
            let report = execute(&shared, id, spec, &worker_progress, submitted_at, &mut parsed);
            notify(report);
            // Freeing a 100k-gate netlist takes 1-2 ms (a few buffers);
            // the caller has its report by now.
            drop(parsed);
        });
        JobTicket { id, progress }
    }

    /// Submits every spec, then waits for all of them; reports come
    /// back in submission order (execution is concurrent regardless).
    pub fn run_batch(&self, specs: Vec<JobSpec>) -> Vec<JobReport> {
        let handles: Vec<JobHandle> = specs.into_iter().map(|s| self.submit(s)).collect();
        handles.into_iter().map(JobHandle::wait).collect()
    }

    /// Looks up a cached payload by content-addressed key without
    /// running anything: the serving half of the PeerFetch protocol.
    /// Disk hits are promoted into the in-memory LRU exactly as a
    /// submitted job's lookup would, but no job counters move — a peer
    /// asking is not a job.
    pub fn lookup(&self, key: CacheKey) -> Option<(Arc<str>, CacheSource)> {
        self.shared.cache.lock().expect("cache lock never poisoned").get(key)
    }

    /// Seeds the cache with a payload fetched from a sibling backend,
    /// so the next submission of that job is a memory hit instead of a
    /// cold run. Only ever call this with payloads that came out of
    /// another service's cache — insertion implies "verified", and that
    /// promise is kept transitively because siblings only cache checked
    /// runs.
    pub fn seed(&self, key: CacheKey, payload: Arc<str>) {
        self.shared.metrics.peer_seeds.fetch_add(1, Ordering::Relaxed);
        self.shared.cache.lock().expect("cache lock never poisoned").insert(key, payload);
    }

    /// Current counters (plus the queue-latency histogram).
    pub fn metrics(&self) -> MetricsSnapshot {
        metrics_snapshot(&self.shared)
    }

    /// The aggregate service metrics as JSON (`tpi-serve-metrics/v1`).
    pub fn metrics_json(&self) -> String {
        self.metrics().to_json()
    }

    /// Shuts the service down by consuming it: the worker pool drains
    /// (every already-submitted job runs to completion) and the workers
    /// are joined before the final metrics snapshot is returned. This
    /// is what plain `drop` does too; the method exists so callers that
    /// *orchestrate* a shutdown — `tpi-netd` draining on a `Shutdown`
    /// frame — get a synchronization point and the closing numbers
    /// instead of a silent drop.
    pub fn shutdown(self) -> MetricsSnapshot {
        let JobService { pool, shared, .. } = self;
        drop(pool); // joins the workers after the queue drains
        metrics_snapshot(&shared)
    }
}

/// Builds a [`MetricsSnapshot`] from the shared state.
fn metrics_snapshot(shared: &Shared) -> MetricsSnapshot {
    let m = &shared.metrics;
    MetricsSnapshot {
        submitted: m.submitted.load(Ordering::Relaxed),
        completed: m.completed.load(Ordering::Relaxed),
        cache_hits_memory: m.cache_hits_memory.load(Ordering::Relaxed),
        cache_hits_disk: m.cache_hits_disk.load(Ordering::Relaxed),
        cache_misses: m.cache_misses.load(Ordering::Relaxed),
        timed_out: m.timed_out.load(Ordering::Relaxed),
        canceled: m.canceled.load(Ordering::Relaxed),
        failed: m.failed.load(Ordering::Relaxed),
        peer_seeds: m.peer_seeds.load(Ordering::Relaxed),
        queue_latency: shared.obs.histogram("queue_latency").unwrap_or_default(),
    }
}

/// Runs one job on a worker thread. Never panics outward: flow panics
/// are caught and reported as [`JobStatus::Failed`] so one bad job
/// cannot take a pool thread down. The job's netlist is left in
/// `parsed`, for the caller to free after delivering the report.
fn execute(
    shared: &Shared,
    id: u64,
    spec: JobSpec,
    progress: &Arc<Progress>,
    submitted_at: Instant,
    parsed: &mut Option<tpi_netlist::Netlist>,
) -> JobReport {
    let t0 = Instant::now();
    shared.obs.observe("queue_latency", t0.duration_since(submitted_at));
    let flow_label = spec.flow.label();
    // The job's recorder: the caller's (when attached via options) or a
    // private one; either way its snapshot rides on the report.
    let rec = spec.options.metrics().cloned().unwrap_or_default();
    let report = |status: JobStatus,
                  key: Option<CacheKey>,
                  payload: Option<Arc<str>>,
                  cache: CacheSource,
                  verified: bool,
                  diagnostics: Vec<Diagnostic>| {
        let m = &shared.metrics;
        match &status {
            JobStatus::Completed => m.completed.fetch_add(1, Ordering::Relaxed),
            JobStatus::TimedOut => m.timed_out.fetch_add(1, Ordering::Relaxed),
            JobStatus::Canceled => m.canceled.fetch_add(1, Ordering::Relaxed),
            JobStatus::Failed(_) => m.failed.fetch_add(1, Ordering::Relaxed),
        };
        JobReport {
            id,
            flow: flow_label,
            status,
            key,
            payload,
            cache,
            wall: t0.elapsed(),
            counters: progress.snapshot(),
            verified,
            diagnostics,
            metrics: rec.finish(),
            service: metrics_snapshot(shared),
        }
    };

    // Deadline check *before* any work, including the cache lookup: an
    // already-expired job times out deterministically whether or not
    // its result happens to be cached.
    if let Err(c) = progress.checkpoint() {
        return report(status_for(c.kind), None, None, CacheSource::Cold, false, Vec::new());
    }

    let netlist = match spec.source.resolve() {
        Ok(n) => &*parsed.insert(n),
        Err(e) => {
            let diag = Diagnostic::new(
                LintCode::ParseError,
                "<input>",
                format!("netlist parse error: {e}"),
                Vec::new(),
            );
            return report(
                JobStatus::Failed(format!("netlist parse error: {e}")),
                None,
                None,
                CacheSource::Cold,
                false,
                vec![diag],
            );
        }
    };

    // Pre-flight structural lint, deliberately *before* the cache
    // lookup so a job's diagnostics are identical on cold and warm
    // runs. Error-severity findings (combinational cycles, undriven
    // gates) reject the job here — these are exactly the inputs that
    // would otherwise panic or wedge a flow. Warnings ride along in
    // the report without blocking.
    let preflight = lint_netlist(netlist, &LintConfig::default());
    if has_errors(&preflight) {
        let first = preflight
            .iter()
            .find(|d| d.severity == tpi_lint::Severity::Error)
            .expect("has_errors implies an error diagnostic");
        return report(
            JobStatus::Failed(format!("pre-flight lint failed: {}", first.render_text())),
            None,
            None,
            CacheSource::Cold,
            false,
            preflight,
        );
    }

    let key = cache_key(netlist_fingerprint(netlist), &spec.flow);

    let hit = shared.cache.lock().expect("cache lock never poisoned").get(key);
    if let Some((payload, src)) = hit {
        let m = &shared.metrics;
        match src {
            CacheSource::Memory => m.cache_hits_memory.fetch_add(1, Ordering::Relaxed),
            CacheSource::Disk => m.cache_hits_disk.fetch_add(1, Ordering::Relaxed),
            CacheSource::Cold => unreachable!("cache lookups never report Cold"),
        };
        // Cached payloads were verified when produced (only checked
        // runs are inserted), so the hit inherits `verified`.
        return report(JobStatus::Completed, Some(key), Some(payload), src, true, preflight);
    }
    shared.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);

    let ran =
        catch_unwind(AssertUnwindSafe(|| run_flow(shared, &spec.flow, netlist, progress, &rec)));
    let payload = match ran {
        Ok(Ok(payload)) => payload,
        Ok(Err(FlowError::Canceled(kind))) => {
            return report(status_for(kind), Some(key), None, CacheSource::Cold, false, preflight)
        }
        Ok(Err(FlowError::Verification(mut diags))) => {
            let n_errors = diags.iter().filter(|d| d.severity == tpi_lint::Severity::Error).count();
            let msg = match diags.first() {
                Some(first) => format!(
                    "post-flow verification failed ({n_errors} error(s)): {}",
                    first.render_text()
                ),
                None => "post-flow verification failed".to_string(),
            };
            let mut all = preflight;
            all.append(&mut diags);
            return report(JobStatus::Failed(msg), Some(key), None, CacheSource::Cold, false, all);
        }
        Ok(Err(e @ (FlowError::FlushFailed(_) | FlowError::NoFlipFlops))) => {
            return report(
                JobStatus::Failed(e.to_string()),
                Some(key),
                None,
                CacheSource::Cold,
                false,
                preflight,
            )
        }
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "flow panicked".into());
            return report(
                JobStatus::Failed(format!("flow panicked: {msg}")),
                Some(key),
                None,
                CacheSource::Cold,
                false,
                preflight,
            );
        }
    };

    let payload: Arc<str> = payload.into();
    shared.cache.lock().expect("cache lock never poisoned").insert(key, Arc::clone(&payload));
    report(JobStatus::Completed, Some(key), Some(payload), CacheSource::Cold, true, preflight)
}

fn status_for(kind: CancelKind) -> JobStatus {
    match kind {
        CancelKind::Canceled => JobStatus::Canceled,
        CancelKind::DeadlineExceeded => JobStatus::TimedOut,
    }
}

/// Runs the requested flow at the service's thread count and renders
/// its deterministic payload.
fn run_flow(
    shared: &Shared,
    flow: &FlowKind,
    netlist: &tpi_netlist::Netlist,
    progress: &Arc<Progress>,
    rec: &Arc<Recorder>,
) -> Result<String, FlowError> {
    let opts = FlowOptions::new()
        .with_threads(shared.threads)
        .with_progress(Arc::clone(progress))
        .with_metrics(Arc::clone(rec));
    match flow {
        FlowKind::FullScan(cfg) => {
            let r = FullScanFlow { config: cfg.clone() }.run_with(netlist, &opts)?;
            let mut o = JsonObject::new();
            o.field_str("schema", "tpi-serve/v1")
                .field_str("circuit", &r.row.circuit)
                .field_str("flow", "full-scan")
                .field_u64("ffs", r.row.ff_count as u64)
                .field_u64("insertions", r.row.insertions as u64)
                .field_u64("free", r.row.free as u64)
                .field_u64("scan_paths", r.row.scan_paths as u64)
                .field_f64("mux_reduction_pct", r.row.reduction())
                .field_u64("chain_len", r.chain.len() as u64)
                .field_bool("flush_passed", r.flush.passed())
                // `run_with` re-derived every claim through tpi-lint's
                // verifier before returning, so a payload existing at all
                // means the result verified.
                .field_bool("verified", true)
                .field_object("counters", counters_object(progress.snapshot()));
            Ok(o.finish())
        }
        FlowKind::Partial(method) => {
            let r = PartialScanFlow::new(*method).run_with(netlist, &opts)?;
            let mut o = JsonObject::new();
            o.field_str("schema", "tpi-serve/v1")
                .field_str("circuit", &r.row.circuit)
                .field_str("flow", flow.label())
                .field_u64("selected_ffs", r.row.selected_ffs as u64)
                .field_f64("area", r.row.area)
                .field_f64("area_pct", r.row.area_pct)
                .field_f64("delay", r.row.delay)
                .field_f64("delay_pct", r.row.delay_pct)
                .field_bool("acyclic", r.acyclic)
                .field_u64("chain_len", r.chain.as_ref().map_or(0, |c| c.len()) as u64)
                .field_bool("flush_passed", r.flush.as_ref().is_none_or(|f| f.passed()))
                .field_bool("verified", true)
                .field_object("counters", counters_object(progress.snapshot()));
            Ok(o.finish())
        }
    }
}

/// The counter block embedded in payloads. `plans_attempted` is
/// deliberately absent: it is the one counter that may vary with the
/// worker count (TPTIME's speculative planning), and payloads promise
/// byte-identity across `threads` settings.
fn counters_object(c: CounterSnapshot) -> JsonObject {
    let mut o = JsonObject::new();
    o.field_u64("paths_enumerated", c.paths_enumerated)
        .field_u64("candidates_evaluated", c.candidates_evaluated)
        .field_u64("test_points_placed", c.test_points_placed)
        .field_u64("rounds", c.rounds);
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_core::PartialScanMethod;
    use tpi_netlist::NetlistBuilder;

    fn ring() -> tpi_netlist::Netlist {
        let mut b = NetlistBuilder::new("ring");
        b.input("d");
        b.gate(tpi_netlist::GateKind::Inv, "r0", &["f0"]);
        b.dff("f1", "r0");
        b.gate(tpi_netlist::GateKind::Inv, "r1", &["f1"]);
        b.dff("f0", "r1");
        b.dff("f2", "d");
        b.output("o", "f0");
        b.output("o2", "f2");
        b.finish().unwrap()
    }

    #[test]
    fn combinational_only_design_fails_cleanly() {
        let mut b = NetlistBuilder::new("comb");
        b.input("a");
        b.gate(tpi_netlist::GateKind::Buf, "y", &["a"]);
        b.output("o", "y");
        let s = JobService::new(ServiceConfig { threads: 1, ..ServiceConfig::default() });
        let r = s.submit(JobSpec::full_scan(b.finish().unwrap())).wait();
        match &r.status {
            JobStatus::Failed(msg) => assert!(msg.contains("no flip-flops"), "{msg}"),
            other => panic!("expected a clean failure, got {other:?}"),
        }
    }

    #[test]
    fn completed_job_has_payload_and_key() {
        let s = JobService::new(ServiceConfig { threads: 2, ..ServiceConfig::default() });
        let r = s.submit(JobSpec::full_scan(ring())).wait();
        assert_eq!(r.status, JobStatus::Completed);
        assert_eq!(r.cache, CacheSource::Cold);
        assert!(r.key.is_some());
        assert!(r.verified, "checked flows mark their reports verified");
        let p = r.payload.expect("completed jobs carry payloads");
        assert!(p.starts_with(r#"{"schema":"tpi-serve/v1""#), "{p}");
        assert!(p.contains(r#""verified":true"#), "{p}");
        let m = s.metrics();
        assert_eq!((m.submitted, m.completed, m.cache_misses), (1, 1, 1));
    }

    #[test]
    fn resubmission_hits_memory_cache_byte_identically() {
        let s = JobService::new(ServiceConfig::default());
        let cold = s.submit(JobSpec::partial(ring(), PartialScanMethod::TpTime)).wait();
        let warm = s.submit(JobSpec::partial(ring(), PartialScanMethod::TpTime)).wait();
        assert_eq!(warm.cache, CacheSource::Memory);
        assert!(warm.verified, "cache hits inherit verification");
        assert_eq!(cold.diagnostics, warm.diagnostics, "pre-flight lint runs on hits too");
        assert_eq!(cold.payload, warm.payload);
        assert_eq!(cold.key, warm.key);
        assert_eq!(s.metrics().cache_hits_memory, 1);
    }

    #[test]
    fn bad_blif_fails_without_poisoning_the_queue() {
        let s = JobService::new(ServiceConfig::default());
        let bad = s
            .submit(JobSpec::full_scan(ring()).with_flow(FlowKind::FullScan(Default::default())))
            .id();
        let r = s
            .submit(JobSpec {
                source: crate::NetlistSource::Blif(".model broken\n.nonsense\n".into()),
                flow: FlowKind::FullScan(Default::default()),
                options: FlowOptions::new(),
            })
            .wait();
        assert!(matches!(&r.status, JobStatus::Failed(m) if m.contains("parse")));
        // Queue still works afterwards.
        let ok = s.submit(JobSpec::full_scan(ring())).wait();
        assert_eq!(ok.status, JobStatus::Completed);
        let _ = bad;
    }

    #[test]
    fn cyclic_netlist_is_rejected_by_preflight_lint() {
        // A combinational cycle would panic the implication engine; the
        // pre-flight lint must turn that into a clean Failed report.
        let mut n = tpi_netlist::Netlist::new("cyc");
        let a = n.add_input("a");
        let g1 = n.add_gate(tpi_netlist::GateKind::And, "g1");
        let g2 = n.add_gate(tpi_netlist::GateKind::Or, "g2");
        n.connect(a, g1).unwrap();
        n.connect(g2, g1).unwrap();
        n.connect(g1, g2).unwrap();
        n.add_output("o", g2).unwrap();

        let s = JobService::new(ServiceConfig::default());
        let r = s.submit(JobSpec::full_scan(n)).wait();
        assert!(
            matches!(&r.status, JobStatus::Failed(m) if m.contains("pre-flight lint")),
            "{:?}",
            r.status
        );
        assert!(!r.verified);
        assert!(r.diagnostics.iter().any(|d| d.code == LintCode::CombCycle), "{:?}", r.diagnostics);
        assert_eq!(s.metrics().failed, 1);
    }

    #[test]
    fn job_report_carries_flow_metrics_and_service_snapshot() {
        let s = JobService::new(ServiceConfig::default());
        let cold = s.submit(JobSpec::full_scan(ring())).wait();
        assert_eq!(cold.metrics.span_count("full_scan"), 1, "one root span per live run");
        assert!(cold.metrics.counter("paths_enumerated") > 0);
        assert_eq!(cold.service.cache_misses, 1);
        let warm = s.submit(JobSpec::full_scan(ring())).wait();
        assert!(warm.metrics.spans.is_empty(), "cache hits run no flow");
        assert_eq!(warm.service.cache_hits_memory, 1);
        assert!(warm.service.queue_latency.count >= 2, "every executed job is observed");
        let j = s.metrics_json();
        assert!(j.starts_with(r#"{"schema":"tpi-serve-metrics/v1""#), "{j}");
        assert!(j.contains(r#""cache_hit_rate":0.5"#), "{j}");
    }

    #[test]
    fn seed_makes_the_next_submission_a_memory_hit() {
        let a = JobService::new(ServiceConfig::default());
        let cold = a.submit(JobSpec::full_scan(ring())).wait();
        let key = cold.key.expect("completed jobs carry keys");
        let payload = cold.payload.clone().expect("completed jobs carry payloads");
        assert_eq!(a.lookup(key).map(|(p, _)| p), Some(Arc::clone(&payload)));
        assert!(a.lookup(CacheKey(key.0 ^ 1)).is_none(), "lookup is exact, not fuzzy");

        // A second service that never ran the job serves it from memory
        // after being seeded with the first service's payload.
        let b = JobService::new(ServiceConfig::default());
        b.seed(key, Arc::clone(&payload));
        let warm = b.submit(JobSpec::full_scan(ring())).wait();
        assert_eq!(warm.cache, CacheSource::Memory);
        assert_eq!(warm.payload, Some(payload));
        let m = b.metrics();
        assert_eq!((m.peer_seeds, m.cache_hits_memory, m.cache_misses), (1, 1, 0));
        assert!(b.metrics_json().contains(r#""peer_seeds":1"#));
    }

    #[test]
    fn job_options_deadline_times_out() {
        let s = JobService::new(ServiceConfig::default());
        let r = s
            .submit(
                JobSpec::full_scan(ring())
                    .with_options(FlowOptions::new().with_deadline(Duration::ZERO)),
            )
            .wait();
        assert_eq!(r.status, JobStatus::TimedOut);
        assert_eq!(s.metrics().timed_out, 1);
    }

    #[test]
    fn cancellation_surfaces_as_canceled() {
        let s = JobService::new(ServiceConfig { threads: 1, ..ServiceConfig::default() });
        // Occupy the single worker so the canceled job is still queued
        // when we cancel it.
        let blocker = s.submit(JobSpec::full_scan(ring()));
        let victim = s.submit(JobSpec::full_scan(ring()));
        victim.cancel();
        let r = victim.wait();
        assert_eq!(r.status, JobStatus::Canceled);
        assert_eq!(blocker.wait().status, JobStatus::Completed);
        assert_eq!(s.metrics().canceled, 1);
    }
}
