//! The traced mode: replays a workload's requests single-threaded
//! through each layer's public functions, recording spans, and times
//! each one through `JobService::submit` beside its replay; then times
//! the same requests over the wire, direct and through the gateway.

use crate::alloc;
use crate::cluster::{self, Cluster};
use crate::drive::{self, Outcome};
use crate::plan::{Class, Job, Workload};
use crate::report::Metrics;
use crate::setup::{self, Ready};
use crate::stats::median;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpi_core::{
    CounterSnapshot, FlowError, FlowOptions, FullScanFlow, PartialScanFlow, Progress, Recorder,
};
use tpi_lint::{has_errors, lint_netlist, LintConfig};
use tpi_net::{
    encode_frame_v2, Connection, FrameAssembler, Verb, WireReport, WireRequest, DEFAULT_MAX_FRAME,
};
use tpi_obs::{JsonObject, SpanSnapshot};
use tpi_serve::{cache_key, netlist_fingerprint, CacheSource, FlowKind, ResultCache};

/// Timed requests replayed after the pool, per workload: enough for
/// stable medians, few enough that four passes fit a run.
fn replay_len(workload: Workload) -> usize {
    match workload {
        Workload::PaperCold => 32,
        Workload::IndustrialWarm => 12,
        Workload::GatewayOpen => 80,
    }
}

/// Largest stage-sum gap the coverage check accepts.
const COVERAGE_TOLERANCE: f64 = 0.10;

/// Stages the service itself runs for a request; their sum is compared
/// with the in-process `JobService` wall time.
const SERVICE_STAGES: [&str; 6] = [
    "netlist.parse",
    "lint.preflight",
    "serve.key",
    "serve.cache_get",
    "flow",
    "serve.cache_insert",
];

/// One recorded span. Flow phases come from the flow's own `tpi-obs`
/// recorder, which keeps durations only: they are laid out back to
/// back from their parent's start and carry no allocation count.
#[derive(Debug, Clone)]
struct SpanRec {
    name: String,
    request: usize,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
    alloc: Option<u64>,
}

/// In-memory span store.
struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRec>,
    alloc_at_open: Vec<u64>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), alloc_at_open: Vec::new() }
    }

    fn open(&mut self, name: &str, request: usize, parent: Option<usize>) -> usize {
        let start = self.epoch.elapsed();
        self.spans.push(SpanRec {
            name: name.to_string(),
            request,
            parent,
            start,
            end: start,
            alloc: None,
        });
        self.alloc_at_open.push(alloc::allocated());
        self.spans.len() - 1
    }

    fn close(&mut self, idx: usize) {
        self.spans[idx].end = self.epoch.elapsed();
        self.spans[idx].alloc = Some(alloc::allocated() - self.alloc_at_open[idx]);
    }

    fn span<T>(&mut self, name: &str, request: usize, parent: usize, f: impl FnOnce() -> T) -> T {
        let idx = self.open(name, request, Some(parent));
        let out = f();
        self.close(idx);
        out
    }

    /// Grafts a finished `tpi-obs` span tree under `parent`.
    fn graft(&mut self, snap: &SpanSnapshot, request: usize, parent: usize, start: Duration) {
        let end = start + Duration::from_micros(snap.micros);
        self.spans.push(SpanRec {
            name: snap.name.clone(),
            request,
            parent: Some(parent),
            start,
            end,
            alloc: None,
        });
        self.alloc_at_open.push(0);
        let me = self.spans.len() - 1;
        let mut at = start;
        for child in &snap.children {
            self.graft(child, request, me, at);
            at += Duration::from_micros(child.micros);
        }
    }

    fn duration(&self, idx: usize) -> Duration {
        self.spans[idx].end.saturating_sub(self.spans[idx].start)
    }

    /// Span duration minus the time its children cover.
    fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = (0..self.spans.len()).map(|i| self.duration(i)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(self.duration(i));
            }
        }
        own
    }

    /// Writes every span as one JSON line.
    fn write(&self, path: &PathBuf) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let mut o = JsonObject::new();
            o.field_u64("id", id as u64)
                .field_u64("request", s.request as u64)
                .field_str("name", &s.name)
                .field_u64("start_us", s.start.as_micros() as u64)
                .field_u64("end_us", s.end.as_micros() as u64);
            if let Some(bytes) = s.alloc {
                o.field_u64("alloc_bytes", bytes);
            }
            if let Some(p) = s.parent {
                o.field_u64("parent", p as u64);
            }
            writeln!(out, "{}", o.finish())?;
        }
        out.flush()
    }
}

/// What the replay learned about one request.
struct Replayed {
    payload: Arc<str>,
    source: CacheSource,
    /// Sum of the service-side stage spans.
    service_wall: Duration,
    /// The whole request span, client encode to report decode.
    wall: Duration,
}

/// The service's payload rendering for a live run, reproduced from the
/// public flow APIs so the replay's bytes can be compared with the
/// wire's.
fn run_flow(
    flow: &FlowKind,
    netlist: &tpi_netlist::Netlist,
    progress: &Arc<Progress>,
    rec: &Arc<Recorder>,
) -> Result<String, FlowError> {
    let opts = FlowOptions::new().with_progress(Arc::clone(progress)).with_metrics(Arc::clone(rec));
    let counters = |c: CounterSnapshot| {
        let mut o = JsonObject::new();
        o.field_u64("paths_enumerated", c.paths_enumerated)
            .field_u64("candidates_evaluated", c.candidates_evaluated)
            .field_u64("test_points_placed", c.test_points_placed)
            .field_u64("rounds", c.rounds);
        o
    };
    let mut o = JsonObject::new();
    match flow {
        FlowKind::FullScan(cfg) => {
            let r = FullScanFlow { config: cfg.clone(), ..FullScanFlow::default() }
                .run_with(netlist, &opts)?;
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
                .field_bool("verified", true)
                .field_object("counters", counters(progress.snapshot()));
        }
        FlowKind::Partial(method) => {
            let r = PartialScanFlow::new(*method).run_with(netlist, &opts.with_threads(1))?;
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
                .field_object("counters", counters(progress.snapshot()));
        }
    }
    Ok(o.finish())
}

/// The single-threaded layer replay.
struct Replay {
    tracer: Tracer,
    cache: ResultCache,
    counters: CounterSnapshot,
}

impl Replay {
    fn request(&mut self, i: usize, req: &WireRequest) -> Result<Replayed, String> {
        let tr = &mut self.tracer;
        let root = tr.open("request", i, None);
        let id = u32::try_from(i + 1).map_err(|_| "request index overflows u32".to_string())?;
        let frame =
            tr.span("net.encode", i, root, || encode_frame_v2(Verb::Submit, id, &req.encode()));
        let decoded = tr.span("net.decode", i, root, || {
            let mut assembler = FrameAssembler::new();
            assembler.feed(&frame);
            match assembler.next_frame(DEFAULT_MAX_FRAME) {
                Ok(Some((_, _, payload))) => {
                    WireRequest::decode(&payload).map_err(|e| e.to_string())
                }
                Ok(None) => Err("frame incomplete".to_string()),
                Err(e) => Err(e.to_string()),
            }
        })?;
        drop(frame);
        let netlist = tr
            .span("netlist.parse", i, root, || tpi_netlist::parse_blif(&decoded.blif))
            .map_err(|e| format!("parse: {e}"))?;
        let diags =
            tr.span("lint.preflight", i, root, || lint_netlist(&netlist, &LintConfig::default()));
        if has_errors(&diags) {
            return Err("pre-flight lint found errors".to_string());
        }
        let key = tr
            .span("serve.key", i, root, || cache_key(netlist_fingerprint(&netlist), &decoded.flow));
        let cache = &mut self.cache;
        let hit = tr.span("serve.cache_get", i, root, || cache.get(key));
        let (payload, source) = match hit {
            Some(found) => found,
            None => {
                let rec = Arc::new(Recorder::new());
                let progress = Arc::new(Progress::new());
                let flow = tr.open("flow", i, Some(root));
                let ran = run_flow(&decoded.flow, &netlist, &progress, &rec);
                tr.close(flow);
                let payload: Arc<str> = ran.map_err(|e| format!("flow: {e}"))?.into();
                let mut at = tr.spans[flow].start;
                for snap in &rec.finish().spans {
                    tr.graft(snap, i, flow, at);
                    at += Duration::from_micros(snap.micros);
                }
                let c = progress.snapshot();
                self.counters.paths_enumerated += c.paths_enumerated;
                self.counters.candidates_evaluated += c.candidates_evaluated;
                self.counters.test_points_placed += c.test_points_placed;
                self.counters.rounds += c.rounds;
                self.counters.plans_attempted += c.plans_attempted;
                let stored = Arc::clone(&payload);
                tr.span("serve.cache_insert", i, root, || cache.insert(key, stored));
                (payload, CacheSource::Cold)
            }
        };
        let report = tr.span("net.report", i, root, || {
            let wire = WireReport {
                id: i as u64,
                flow: decoded.flow.label().to_string(),
                status: tpi_serve::JobStatus::Completed,
                key: Some(key.0),
                verified: true,
                cache: source,
                wall_micros: 0,
                payload: Some(payload.to_string()),
                diagnostics: diags.iter().map(|d| d.render_text()).collect(),
            };
            let frame = encode_frame_v2(Verb::Report, id, &wire.encode());
            let mut assembler = FrameAssembler::new();
            assembler.feed(&frame);
            match assembler.next_frame(DEFAULT_MAX_FRAME) {
                Ok(Some((_, _, bytes))) => WireReport::decode(&bytes).map_err(|e| e.to_string()),
                _ => Err("report frame did not round-trip".to_string()),
            }
        })?;
        tr.close(root);
        if report.payload.as_deref() != Some(&*payload) {
            return Err("report codec changed the payload".to_string());
        }
        let children = |name: &str| {
            tr.spans
                .iter()
                .enumerate()
                .skip(root)
                .filter(|(_, s)| s.parent == Some(root) && s.name == name)
                .map(|(k, _)| tr.duration(k))
                .sum::<Duration>()
        };
        let service_wall = SERVICE_STAGES.iter().map(|s| children(s)).sum();
        Ok(Replayed { payload, source, service_wall, wall: tr.duration(root) })
    }
}

/// A request's timing and payload from one of the timed passes.
struct Timed {
    wall: Duration,
    source: CacheSource,
    payload: Option<String>,
}

/// Submits one job through `JobService::submit` and waits for it.
fn in_process(service: &tpi_serve::JobService, job: &Job) -> Result<Timed, String> {
    let t = Instant::now();
    let r = service.submit(job.request.to_spec()).wait();
    let wall = t.elapsed();
    match r.status {
        tpi_serve::JobStatus::Completed => {
            Ok(Timed { wall, source: r.cache, payload: r.payload.map(|p| p.to_string()) })
        }
        other => Err(format!("{}: in-process {other:?}", job.name)),
    }
}

/// Submits each job in order over one session to `addr`, one at a time.
fn over_wire(addr: &str, jobs: &[Job]) -> Result<Vec<Result<Timed, String>>, String> {
    let conn = Connection::open_with(addr, drive::client_config()).map_err(|e| e.to_string())?;
    Ok(jobs
        .iter()
        .map(|job| {
            let t = Instant::now();
            let report = conn.submit(&job.request).and_then(|p| conn.wait(p));
            let wall = t.elapsed();
            match report {
                Ok(r) if r.status == tpi_serve::JobStatus::Completed => {
                    Ok(Timed { wall, source: r.cache, payload: r.payload })
                }
                Ok(r) => Err(format!("{}: {:?}", job.name, r.status)),
                Err(e) => Err(format!("{}: {e}", job.name)),
            }
        })
        .collect())
}

/// Median round trip of `n` pings on one session, in µs.
fn ping_rtt_us(addr: &str, n: usize) -> Result<f64, String> {
    let conn = Connection::open_with(addr, drive::client_config()).map_err(|e| e.to_string())?;
    let mut rtts = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        conn.ping().map_err(|e| e.to_string())?;
        rtts.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&rtts))
}

/// Mean service queue wait over every backend, in ms, read through the
/// `Metrics` verb.
fn queue_wait_ms(cluster: &Cluster) -> Result<f64, String> {
    let (mut count, mut sum) = (0u64, 0u64);
    for b in &cluster.backends {
        let conn =
            Connection::open_with(&b.addr, drive::client_config()).map_err(|e| e.to_string())?;
        let json = conn.metrics_json().map_err(|e| e.to_string())?;
        let Some(at) = json.find("\"queue_latency\":") else {
            return Err("metrics carry no queue_latency".to_string());
        };
        let h = &json[at..];
        count += setup::json_u64s(h, "\"count\":").first().copied().unwrap_or(0);
        sum += setup::json_u64s(h, "\"sum_micros\":").first().copied().unwrap_or(0);
    }
    Ok(if count == 0 { 0.0 } else { sum as f64 / count as f64 / 1000.0 })
}

/// Everything the traced mode reports.
pub struct Traced {
    /// Per-layer metrics, in `BENCHMARK.json` order.
    pub metrics: Metrics,
    /// Requests attempted across every pass.
    pub attempted: usize,
    /// Failure lines across every pass.
    pub failures: Vec<String>,
    /// Human-readable lines.
    pub notes: Vec<String>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn mib(bytes: f64) -> f64 {
    bytes / (1024.0 * 1024.0)
}

/// Runs the traced mode for `workload`.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace_path: PathBuf,
) -> std::io::Result<Traced> {
    let mut failures = Vec::new();
    let mut notes = Vec::new();
    let mut attempted = 0;

    // 1. The untraced timed phase, for the numbers only load produces:
    //    queue wait, worker busy time, routing.
    let ready = setup::prepare(workload, seed, seconds)?;
    failures.extend(ready.failures.iter().cloned());
    let loaded: Outcome = setup::timed(&ready);
    attempted += loaded.attempted;
    failures.extend(loaded.failures.iter().map(|(_, f)| f.clone()));
    let queue_wait = queue_wait_ms(&ready.cluster).unwrap_or_else(|e| {
        failures.push(format!("metrics verb: {e}"));
        0.0
    });
    let busy_ratio = loaded.samples.iter().map(|s| s.server_wall.as_secs_f64()).sum::<f64>()
        / (ready.cluster.workers() as f64 * loaded.wall.as_secs_f64()).max(1e-9);
    let loaded_owner = ready.cluster.gateway_metrics().and_then(|m| setup::owner_ratio(&m));
    let Ready { plan, cluster, .. } = ready;
    cluster.shutdown();

    // 2. The request list: the pool in priming order, the first timed
    //    requests, and for a workload without reads a warm echo of
    //    what it wrote.
    let mut jobs: Vec<Job> = plan.pool.clone();
    jobs.extend(plan.jobs.iter().take(replay_len(workload)).cloned());
    if plan.pool.is_empty() {
        let echo: Vec<Job> = jobs.iter().map(|j| Job { class: Class::Read, ..j.clone() }).collect();
        jobs.extend(echo);
    }
    attempted += 4 * jobs.len();

    // 3. The layer replay, spans and allocation counting on, each
    //    request next to its run through `JobService::submit` on a
    //    one-worker service. Pairing them request by request, in
    //    alternating order, keeps host drift out of the stage-sum
    //    comparison.
    let mut replay = Replay {
        tracer: Tracer::new(),
        cache: ResultCache::new(256, None),
        counters: CounterSnapshot::default(),
    };
    let service = cluster::service(1);
    let mut replayed: Vec<Result<Replayed, String>> = Vec::with_capacity(jobs.len());
    let mut inproc: Vec<Result<Timed, String>> = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        if i % 2 == 1 {
            inproc.push(in_process(&service, job));
        }
        alloc::set_enabled(true);
        replayed.push(replay.request(i, &job.request));
        alloc::set_enabled(false);
        if i % 2 == 0 {
            inproc.push(in_process(&service, job));
        }
    }
    drop(service);

    // 4. The same list over the wire, direct and through the gateway.
    let direct = Cluster::direct(1)?;
    let wire = over_wire(direct.addr(), &jobs).unwrap_or_else(|e| {
        failures.push(format!("direct session: {e}"));
        Vec::new()
    });
    let ping = ping_rtt_us(direct.addr(), 200).unwrap_or_else(|e| {
        failures.push(format!("ping: {e}"));
        0.0
    });
    direct.shutdown();
    let gw = Cluster::gateway(setup::GATEWAY_BACKENDS, 1)?;
    let via_gateway = over_wire(gw.addr(), &jobs).unwrap_or_else(|e| {
        failures.push(format!("gateway session: {e}"));
        Vec::new()
    });
    let owner = gw.gateway_metrics().and_then(|m| setup::owner_ratio(&m));
    gw.shutdown();

    // 5. Correctness across the passes: every pass must agree with the
    //    replay byte for byte and hit or miss where the class says.
    let expect = |job: &Job, source: CacheSource| match job.class {
        Class::Write => source == CacheSource::Cold,
        Class::Read => source != CacheSource::Cold,
    };
    for (i, job) in jobs.iter().enumerate() {
        let Ok(r) = &replayed[i] else {
            failures.push(format!(
                "{}: replay: {}",
                job.name,
                replayed[i].as_ref().err().map_or("", |e| e)
            ));
            continue;
        };
        if !expect(job, r.source) {
            failures.push(format!(
                "{}: replay served {} for a {}",
                job.name,
                r.source.label(),
                job.class.label()
            ));
        }
        for (pass, results) in [("in-process", &inproc), ("wire", &wire), ("gateway", &via_gateway)]
        {
            match results.get(i) {
                Some(Ok(t)) if t.payload.as_deref() != Some(&*r.payload) => {
                    failures.push(format!("{}: {pass} payload differs from the replay", job.name))
                }
                Some(Ok(t)) if !expect(job, t.source) => failures.push(format!(
                    "{}: {pass} served {} for a {}",
                    job.name,
                    t.source.label(),
                    job.class.label()
                )),
                Some(Ok(_)) => {}
                Some(Err(e)) => failures.push(format!("{pass}: {e}")),
                None => failures.push(format!("{}: {pass} pass has no result", job.name)),
            }
        }
    }

    // 6. Stage-sum coverage: the replayed service stages against the
    //    in-process wall of the same request.
    let mut stage_sum = Duration::ZERO;
    let mut inproc_sum = Duration::ZERO;
    let mut outliers = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        if let (Ok(r), Some(Ok(t))) = (&replayed[i], inproc.get(i)) {
            stage_sum += r.service_wall;
            inproc_sum += t.wall;
            let gap = ms(t.wall) - ms(r.service_wall);
            if gap.abs() > COVERAGE_TOLERANCE * ms(t.wall) {
                outliers.push((gap, job.name.clone()));
            }
        }
    }
    let coverage = stage_sum.as_secs_f64() / inproc_sum.as_secs_f64().max(1e-12);
    notes.push(format!(
        "stage-sum coverage: replayed service stages {:.1} ms vs in-process JobService {:.1} ms = {:.1}% ({} of {} requests individually outside ±{:.0}%)",
        ms(stage_sum),
        ms(inproc_sum),
        coverage * 100.0,
        outliers.len(),
        jobs.len(),
        COVERAGE_TOLERANCE * 100.0
    ));
    if (coverage - 1.0).abs() > COVERAGE_TOLERANCE {
        failures.push(format!(
            "stage-sum coverage {:.1}% is outside ±{:.0}%: {:.1} ms unexplained",
            coverage * 100.0,
            COVERAGE_TOLERANCE * 100.0,
            ms(inproc_sum) - ms(stage_sum)
        ));
    }
    outliers.sort_by(|a, b| b.0.abs().total_cmp(&a.0.abs()));
    for (gap, name) in outliers.iter().take(3) {
        notes.push(format!("  largest per-request gap: {name}: {gap:+.2} ms unexplained"));
    }
    let replay_wall: Duration = replayed.iter().flatten().map(|r| r.wall).sum();

    // 7. Per-stage medians and shares of self time.
    let tr = &replay.tracer;
    let own = tr.self_times();
    let total_self: f64 = own.iter().map(|d| d.as_secs_f64()).sum();
    let mut by_name: BTreeMap<&str, (Vec<f64>, Vec<f64>, f64)> = BTreeMap::new();
    for (k, s) in tr.spans.iter().enumerate() {
        let e = by_name.entry(&s.name).or_default();
        e.0.push(ms(tr.duration(k)));
        e.1.extend(s.alloc.map(|b| b as f64));
        e.2 += own[k].as_secs_f64();
    }
    notes.push(format!(
        "{:<24} {:>6} {:>12} {:>10} {:>12}",
        "span", "count", "median_ms", "self_share", "median_alloc"
    ));
    for (name, (durs, allocs, own_s)) in &by_name {
        let alloc = if allocs.is_empty() {
            "-".to_string()
        } else {
            format!("{:.3}MiB", mib(median(allocs)))
        };
        notes.push(format!(
            "{:<24} {:>6} {:>12.4} {:>9.1}% {:>13}",
            name,
            durs.len(),
            median(durs),
            100.0 * own_s / total_self.max(1e-12),
            alloc
        ));
    }
    let med = |name: &str| by_name.get(name).map_or(0.0, |e| median(&e.0));
    let med_alloc = |name: &str| by_name.get(name).map_or(0.0, |e| mib(median(&e.1)));
    // STA runs twice per partial-scan job; sum per request first.
    let mut sta: BTreeMap<usize, f64> = BTreeMap::new();
    for (k, s) in tr.spans.iter().enumerate() {
        if s.name == "baseline_analysis" || s.name == "final_analysis" {
            *sta.entry(s.request).or_default() += ms(tr.duration(k));
        }
    }
    let sta: Vec<f64> = sta.into_values().collect();

    let reads = |results: &[Result<Timed, String>]| -> Vec<f64> {
        jobs.iter()
            .zip(results)
            .filter(|(j, _)| j.class == Class::Read)
            .filter_map(|(_, r)| r.as_ref().ok().map(|t| ms(t.wall)))
            .collect()
    };
    let (inproc_reads, wire_reads, gw_reads) = (reads(&inproc), reads(&wire), reads(&via_gateway));
    let read_jobs = plan.count(Class::Read);
    let (hit_ratio, hit_base) = if read_jobs > 0 {
        let hits = loaded.samples.iter().filter(|s| s.class == Class::Read).count();
        (hits as f64 / read_jobs as f64, format!("{read_jobs} timed reads"))
    } else {
        let hits = jobs
            .iter()
            .zip(&wire)
            .filter(|(j, r)| {
                j.class == Class::Read && r.as_ref().is_ok_and(|t| t.source != CacheSource::Cold)
            })
            .count();
        (
            hits as f64 / wire_reads.len().max(1) as f64,
            format!("{} traced warm echoes", wire_reads.len()),
        )
    };
    notes.push(format!("serve.hit_ratio base: {hit_base}"));
    notes.push(format!(
        "warm request p50 over {} reads: in-process {:.3} ms, wire direct {:.3} ms, via gateway {:.3} ms",
        inproc_reads.len(),
        median(&inproc_reads),
        median(&wire_reads),
        median(&gw_reads)
    ));
    let sizes: Vec<f64> = jobs.iter().map(|j| j.request.blif.len() as f64).collect();
    let c = replay.counters;

    let mut m = Metrics::default();
    m.push("netlist.parse_ms", med("netlist.parse"), "ms");
    m.push("netlist.parse_alloc_mib", med_alloc("netlist.parse"), "MiB");
    m.push("netlist.request_mib", mib(median(&sizes)), "MiB");
    m.push("lint.preflight_ms", med("lint.preflight"), "ms");
    m.push("lint.verify_ms", med("verify"), "ms");
    m.push("serve.key_ms", med("serve.key"), "ms");
    m.push("serve.cache_get_us", med("serve.cache_get") * 1e3, "us");
    m.push("serve.cache_insert_us", med("serve.cache_insert") * 1e3, "us");
    m.push("serve.queue_wait_ms", queue_wait, "ms");
    m.push("serve.hit_ratio", hit_ratio, "ratio");
    m.push("net.encode_ms", med("net.encode"), "ms");
    m.push("net.decode_ms", med("net.decode"), "ms");
    m.push("net.ping_rtt_us", ping, "us");
    m.push("net.wire_gap_ms", median(&wire_reads) - median(&inproc_reads), "ms");
    m.push("gateway.hop_ms", median(&gw_reads) - median(&wire_reads), "ms");
    m.push("gateway.owner_ratio", loaded_owner.or(owner).unwrap_or(0.0), "ratio");
    m.push("dfa.analysis_ms", med("analysis"), "ms");
    m.push("core.enumerate_paths_ms", med("enumerate_paths"), "ms");
    m.push("core.tpgreed_ms", med("tpgreed"), "ms");
    m.push("core.input_assign_ms", med("input_assign"), "ms");
    m.push("core.selection_ms", med("selection"), "ms");
    m.push("core.paths_enumerated", c.paths_enumerated as f64, "count");
    m.push("core.candidates_evaluated", c.candidates_evaluated as f64, "count");
    m.push("core.plans_attempted", c.plans_attempted as f64, "count");
    m.push(
        "core.placed_per_candidate",
        c.test_points_placed as f64 / (c.candidates_evaluated.max(1)) as f64,
        "ratio",
    );
    m.push("core.flow_alloc_mib", med_alloc("flow"), "MiB");
    m.push("sta.analysis_ms", median(&sta), "ms");
    m.push("scan.stitch_ms", med("stitch_chain"), "ms");
    m.push("scan.flush_ms", med("flush_check"), "ms");
    m.push("par.busy_ratio", busy_ratio, "ratio");
    // The traced stages against the untraced in-process wall of the
    // same requests: the coverage figure above, less 100%.
    m.push("obs.trace_overhead_pct", 100.0 * (coverage - 1.0), "%");

    for (name, why) in not_applicable(workload, &by_name) {
        notes.push(format!("{name}: n/a on {}: {why}", workload.name()));
    }
    notes.push(format!(
        "replay: {} requests, {} spans, {:.1} ms traced wall; trace written to {}",
        jobs.len(),
        tr.spans.len(),
        ms(replay_wall),
        trace_path.display()
    ));
    if let Err(e) = tr.write(&trace_path) {
        notes.push(format!("could not write the trace: {e}"));
    }
    Ok(Traced { metrics: m, attempted, failures, notes })
}

/// Per-layer metrics a workload cannot produce, and why.
fn not_applicable(
    workload: Workload,
    spans: &BTreeMap<&str, (Vec<f64>, Vec<f64>, f64)>,
) -> Vec<(&'static str, &'static str)> {
    let mut out = Vec::new();
    if !spans.contains_key("selection") {
        out.push(("core.selection_ms", "no partial-scan job runs cold"));
        out.push(("sta.analysis_ms", "no partial-scan job runs cold"));
    }
    if !spans.contains_key("tpgreed") {
        out.push(("core.tpgreed_ms", "no full-scan job runs cold"));
        out.push(("dfa.analysis_ms", "no full-scan job runs cold"));
    }
    if workload != Workload::GatewayOpen {
        out.push(("gateway.owner_ratio", "taken from the traced gateway pass, not from load"));
    }
    out
}
