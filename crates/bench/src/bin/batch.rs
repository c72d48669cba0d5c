//! `tpi-batch`: drive the `tpi-serve` job service over a directory of
//! BLIF workloads.
//!
//! Run mode (default):
//!
//! ```text
//! tpi-batch [--threads N] [--cache-dir DIR] [--out DIR] [--deadline-ms M] WORKLOAD_DIR
//! ```
//!
//! Every `*.blif` file in `WORKLOAD_DIR` (sorted by name) is submitted
//! twice — once through the full-scan flow (§III) and once through
//! TPTIME partial scan (§IV) — and executed concurrently by the service.
//! One JSON summary per job is printed to stdout (and written to
//! `--out DIR` as `<file>.<flow>.json` when given). With `--cache-dir`,
//! results are content-addressed on disk: a second run over the same
//! directory is served from cache, byte-identically, at a fraction of
//! the wall clock — that cold/warm comparison is the point of the tool.
//!
//! Network mode (`--jobs N`): instead of calling the service
//! in-process, `tpi-batch` starts an in-process `tpi-netd`, then
//! submits every job through `N` concurrent `tpi-net/v2` sessions
//! (one request in flight per session; add `--pipeline` to submit
//! every request up front and collect completions out of order with
//! `wait_any`). The server's in-flight cap is deliberately set *below*
//! the offered load (`max(1, ⌈N/2⌉)` requests), so both variants
//! exercise the `Busy` → seeded-backoff retry loop — the same
//! backpressure path a saturated production server would take. Results and summary lines are the same in every
//! mode; so are the payload bytes (that is the protocol's contract).
//!
//! Gateway mode (`--gateway N`): starts `N` in-process `tpi-netd`
//! backends (each with its own service; `--cache-dir DIR` gives each a
//! `DIR/b<i>` subdirectory) behind an in-process `tpi-gatewayd`, and
//! submits every job through the gateway. Jobs route by their
//! content-addressed cache key over the consistent-hash ring, so a
//! warm rerun hits the backend that computed each result. With
//! `--kill-one` (requires `N ≥ 2`), backend 0 is shut down after the
//! first report lands, forcing the failover path mid-batch; the report
//! set must come out identical anyway. A `gateway-metrics` line with
//! the `tpi-gateway-metrics/v1` JSON is printed after the batch.
//!
//! Generate mode (to make a workload directory in the first place):
//!
//! ```text
//! tpi-batch --generate WORKLOAD_DIR [--small]
//! ```
//!
//! writes the embedded `s27` plus the synthetic suite (`--small`: the
//! two-circuit smoke suite) as BLIF files, and the same circuits in
//! `.bench` syntax under a `bench/` subdirectory (the batch drive reads
//! the `.blif` set; the `.bench` set feeds
//! `tpi_workloads::iscas::load_bench_dir` consumers like `tpi-soak
//! --bench-dir` and lints through `tpi-lint`'s `.bench` path).

use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpi_bench::{ArgCursor, Cli};
use tpi_core::PartialScanMethod;
use tpi_gateway::{Gateway, GatewayConfig, GatewayHandler};
use tpi_net::{
    ClientConfig, Connection, NetServer, Pending, ServerConfig, ServerHandle, WireRequest,
};
use tpi_netlist::{write_bench, write_blif};
use tpi_serve::{JobService, JobSpec, JobStatus, MetricsSnapshot, NetlistSource, ServiceConfig};
use tpi_workloads::{generate, iscas, smoke_suite, suite};

fn usage() -> ! {
    eprintln!(
        "usage: tpi-batch [--threads N] [--jobs N [--pipeline]] \
         [--gateway N [--kill-one]] \
         [--cache-dir DIR] [--out DIR] [--deadline-ms M] DIR"
    );
    eprintln!("       tpi-batch --generate DIR [--small]");
    exit(2);
}

/// How the network modes put requests on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NetMode {
    /// One persistent v2 session per worker, one request in flight at
    /// a time.
    V2,
    /// One persistent v2 session per worker, every request submitted
    /// up front, completions collected with `wait_any` in whatever
    /// order the server finishes them.
    V2Pipelined,
}

fn main() {
    let cli = Cli::parse();
    let threads = cli.threads;
    let mut cache_dir: Option<PathBuf> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut deadline: Option<Duration> = None;
    let mut generate_dir: Option<PathBuf> = None;
    let mut small = false;
    let mut jobs: Option<usize> = None;
    let mut mode = NetMode::V2;
    let mut gateway_backends: Option<usize> = None;
    let mut kill_one = false;
    let mut workload_dir: Option<PathBuf> = None;

    let mut it = ArgCursor::new(cli.args);
    while let Some(a) = it.next_arg() {
        match a.as_str() {
            "--cache-dir" => cache_dir = Some(PathBuf::from(it.value("--cache-dir"))),
            "--jobs" => {
                let n: usize = it.parsed_value("--jobs", "a positive integer");
                if n == 0 {
                    eprintln!("--jobs must be at least 1");
                    exit(2);
                }
                jobs = Some(n);
            }
            "--gateway" => {
                let n: usize = it.parsed_value("--gateway", "a positive integer");
                if n == 0 {
                    eprintln!("--gateway needs at least 1 backend");
                    exit(2);
                }
                gateway_backends = Some(n);
            }
            "--kill-one" => kill_one = true,
            "--pipeline" => mode = NetMode::V2Pipelined,
            "--out" => out_dir = Some(PathBuf::from(it.value("--out"))),
            "--deadline-ms" => {
                let ms: u64 = it.parsed_value("--deadline-ms", "a non-negative integer");
                deadline = Some(Duration::from_millis(ms));
            }
            "--generate" => generate_dir = Some(PathBuf::from(it.value("--generate"))),
            "--small" => small = true,
            _ if a.starts_with('-') => {
                eprintln!("unknown flag {a:?}");
                usage();
            }
            _ => {
                if workload_dir.replace(PathBuf::from(a)).is_some() {
                    eprintln!("exactly one workload directory expected");
                    usage();
                }
            }
        }
    }

    if let Some(dir) = generate_dir {
        generate_workloads(&dir, small);
        return;
    }
    if kill_one && gateway_backends.is_none_or(|n| n < 2) {
        eprintln!("--kill-one needs --gateway N with N >= 2 (someone must survive)");
        exit(2);
    }
    let Some(dir) = workload_dir else { usage() };

    let files = {
        let mut files: Vec<PathBuf> = match std::fs::read_dir(&dir) {
            Ok(rd) => rd
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "blif"))
                .collect(),
            Err(e) => {
                eprintln!("cannot read {}: {e}", dir.display());
                exit(2);
            }
        };
        files.sort();
        files
    };
    if files.is_empty() {
        eprintln!("no .blif files in {}", dir.display());
        exit(2);
    }

    if let Some(out) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(out) {
            eprintln!("cannot create {}: {e}", out.display());
            exit(2);
        }
    }

    // Gateway mode builds one service *per backend*; the other modes
    // share this single one.
    let service: Option<Arc<JobService>> = match gateway_backends {
        Some(_) => None,
        None => Some(Arc::new(JobService::new(ServiceConfig {
            threads,
            cache_dir: cache_dir.clone(),
            default_deadline: deadline,
            ..ServiceConfig::default()
        }))),
    };
    let connections = jobs.unwrap_or(4);
    let mode_label = match mode {
        NetMode::V2 => "",
        NetMode::V2Pipelined => " [pipelined]",
    };
    match (gateway_backends, jobs, &service) {
        (Some(b), _, _) => println!(
            "tpi-batch: {} files x 2 flows over {connections} connection(s){mode_label} to an \
             in-process gateway fronting {b} backend(s){}",
            files.len(),
            if kill_one { ", killing backend 0 mid-batch" } else { "" }
        ),
        (None, Some(n), Some(service)) => println!(
            "tpi-batch: {} files x 2 flows over {n} connection(s){mode_label} to an in-process \
             tpi-netd ({} worker(s))",
            files.len(),
            service.workers()
        ),
        (None, _, Some(service)) => {
            println!(
                "tpi-batch: {} files x 2 flows on {} worker(s)",
                files.len(),
                service.workers()
            )
        }
        (None, _, None) => unreachable!("non-gateway modes build the shared service"),
    }

    let t0 = Instant::now();
    let mut texts = Vec::new();
    let mut names = Vec::new();
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                exit(2);
            }
        };
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("workload").to_string();
        texts.push(text.clone());
        names.push((stem.clone(), "full-scan"));
        texts.push(text);
        names.push((stem, "tptime"));
    }

    let (rows, m) = match (gateway_backends, &service) {
        (Some(b), _) => {
            run_over_gateway(texts, deadline, threads, &cache_dir, b, connections, kill_one, mode)
        }
        (None, Some(service)) => {
            let rows = match jobs {
                Some(n) => run_over_network(service, texts, deadline, n, mode),
                None => run_in_process(service, texts),
            };
            let m = service.metrics();
            (rows, m)
        }
        (None, None) => unreachable!("non-gateway modes build the shared service"),
    };
    let total = t0.elapsed();

    let mut failures = 0usize;
    for ((stem, flow), r) in names.iter().zip(&rows) {
        println!(
            "{stem:<14} {flow:<9} {:<9} cache={:<6} verified={} key={} wall={:.1}ms",
            r.status,
            r.cache,
            if r.verified { "yes" } else { "no " },
            r.key,
            r.wall_ms,
        );
        for d in &r.diagnostics {
            eprintln!("  {d}");
        }
        match (&r.failure, &r.payload) {
            (None, Some(payload)) => {
                if let Some(out) = &out_dir {
                    let file = out.join(format!("{stem}.{flow}.json"));
                    if let Err(e) = std::fs::write(&file, payload.as_bytes()) {
                        eprintln!("cannot write {}: {e}", file.display());
                        exit(2);
                    }
                }
            }
            (Some(msg), _) => {
                eprintln!("  {stem} {flow}: {msg}");
                failures += 1;
            }
            (None, None) => failures += 1,
        }
    }

    println!(
        "done in {:.2}s: {} completed ({} cold, {} memory, {} disk), {} timed out, \
         {} canceled, {} failed",
        total.as_secs_f64(),
        m.completed,
        m.cache_misses,
        m.cache_hits_memory,
        m.cache_hits_disk,
        m.timed_out,
        m.canceled,
        m.failed,
    );
    if failures > 0 {
        exit(1);
    }
}

/// One job's outcome, normalized across the in-process and network
/// paths so the reporting loop cannot drift between them.
struct Row {
    status: String,
    /// `Some(reason)` for a failed job (including transport errors).
    failure: Option<String>,
    cache: String,
    verified: bool,
    key: String,
    wall_ms: f64,
    payload: Option<String>,
    diagnostics: Vec<String>,
}

impl Row {
    /// A row from a report that crossed the wire.
    fn from_wire(r: tpi_net::WireReport) -> Row {
        Row {
            status: r.status.label().to_string(),
            failure: match &r.status {
                JobStatus::Failed(msg) => Some(msg.clone()),
                _ => None,
            },
            cache: r.cache.label().to_string(),
            verified: r.verified,
            key: r.key.map(|k| format!("{k:016x}")).unwrap_or_else(|| "-".repeat(16)),
            wall_ms: r.wall_micros as f64 / 1e3,
            payload: r.payload,
            diagnostics: r.diagnostics,
        }
    }

    /// A row for a submission that never produced a report.
    fn from_net_error(e: &tpi_net::ClientError) -> Row {
        Row {
            status: "net-error".to_string(),
            failure: Some(e.to_string()),
            cache: "-".to_string(),
            verified: false,
            key: "-".repeat(16),
            wall_ms: 0.0,
            payload: None,
            diagnostics: Vec::new(),
        }
    }
}

/// Even indices run full scan, odd run TPTIME — the order
/// `main` builds `texts`/`names` in.
fn flow_for(index: usize) -> Option<PartialScanMethod> {
    if index.is_multiple_of(2) {
        None
    } else {
        Some(PartialScanMethod::TpTime)
    }
}

fn run_in_process(service: &JobService, texts: Vec<String>) -> Vec<Row> {
    let specs = texts
        .into_iter()
        .enumerate()
        .map(|(i, text)| match flow_for(i) {
            None => JobSpec::full_scan(NetlistSource::Blif(text)),
            Some(m) => JobSpec::partial(NetlistSource::Blif(text), m),
        })
        .collect();
    service
        .run_batch(specs)
        .into_iter()
        .map(|r| Row {
            status: r.status.label().to_string(),
            failure: match &r.status {
                JobStatus::Failed(msg) => Some(msg.clone()),
                _ => None,
            },
            cache: r.cache.label().to_string(),
            verified: r.verified,
            key: r.key.map(|k| k.to_string()).unwrap_or_else(|| "-".repeat(16)),
            wall_ms: r.wall.as_secs_f64() * 1e3,
            payload: r.payload.as_deref().map(str::to_string),
            diagnostics: r.diagnostics.iter().map(|d| d.render_text()).collect(),
        })
        .collect()
}

/// Submits every job through `jobs` concurrent sessions against an
/// in-process `tpi-netd`. The server's in-flight cap is
/// `max(1, ⌈jobs/2⌉)`, so with more than one worker the `Busy` → retry
/// backpressure path genuinely runs.
fn run_over_network(
    service: &Arc<JobService>,
    texts: Vec<String>,
    deadline: Option<Duration>,
    jobs: usize,
    mode: NetMode,
) -> Vec<Row> {
    let cap = jobs.div_ceil(2).max(1);
    let server = NetServer::bind(
        ServerConfig { max_inflight: cap, ..ServerConfig::default() },
        Arc::clone(service),
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot start in-process tpi-netd: {e}");
        exit(2);
    });
    let addr = server.local_addr().to_string();
    let (handle, server_thread) = server.spawn();

    let rows = drive_clients(&addr, build_requests(texts, deadline), jobs, None, mode);
    handle.shutdown();
    let _ = server_thread.join();
    rows
}

/// Starts `backends` in-process `tpi-netd`s behind an in-process
/// gateway, submits every job through the gateway over `jobs` client
/// connections, and returns the rows plus the backend services'
/// aggregated metrics. With `kill_one`, backend 0 is shut down right
/// after the first report lands, so the rest of the batch runs the
/// failover path.
#[allow(clippy::too_many_arguments)]
fn run_over_gateway(
    texts: Vec<String>,
    deadline: Option<Duration>,
    threads: usize,
    cache_dir: &Option<PathBuf>,
    backends: usize,
    jobs: usize,
    kill_one: bool,
    mode: NetMode,
) -> (Vec<Row>, MetricsSnapshot) {
    let mut services = Vec::new();
    let mut handles = Vec::new();
    let mut threads_joined = Vec::new();
    let mut addrs = Vec::new();
    for b in 0..backends {
        let service = Arc::new(JobService::new(ServiceConfig {
            threads,
            cache_dir: cache_dir.as_ref().map(|d| d.join(format!("b{b}"))),
            default_deadline: deadline,
            ..ServiceConfig::default()
        }));
        let server =
            NetServer::bind(ServerConfig::default(), Arc::clone(&service)).unwrap_or_else(|e| {
                eprintln!("cannot start in-process backend {b}: {e}");
                exit(2);
            });
        addrs.push(server.local_addr().to_string());
        let (handle, join) = server.spawn();
        services.push(service);
        handles.push(handle);
        threads_joined.push(join);
    }

    let gateway =
        Arc::new(Gateway::new(GatewayConfig { backends: addrs, ..GatewayConfig::default() }));
    let gw_cap = jobs.div_ceil(2).max(1);
    let gw_server = NetServer::bind_with(
        ServerConfig { max_inflight: gw_cap, ..ServerConfig::default() },
        GatewayHandler::new(Arc::clone(&gateway)),
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot start in-process gateway: {e}");
        exit(2);
    });
    let gw_addr = gw_server.local_addr().to_string();
    let (gw_handle, gw_thread) = gw_server.spawn();

    let kill = kill_one.then(|| handles[0].clone());
    let rows = drive_clients(&gw_addr, build_requests(texts, deadline), jobs, kill, mode);

    gw_handle.shutdown();
    let _ = gw_thread.join();
    println!("gateway-metrics {}", gateway.metrics_json());

    let mut total = MetricsSnapshot::default();
    for ((service, handle), join) in services.into_iter().zip(handles).zip(threads_joined) {
        handle.shutdown();
        let _ = join.join();
        let m = match Arc::try_unwrap(service) {
            Ok(service) => service.shutdown(),
            Err(service) => service.metrics(),
        };
        total.submitted += m.submitted;
        total.completed += m.completed;
        total.cache_hits_memory += m.cache_hits_memory;
        total.cache_hits_disk += m.cache_hits_disk;
        total.cache_misses += m.cache_misses;
        total.timed_out += m.timed_out;
        total.canceled += m.canceled;
        total.failed += m.failed;
        total.peer_seeds += m.peer_seeds;
    }
    (rows, total)
}

/// Builds the wire requests in `main`'s `texts` order.
fn build_requests(texts: Vec<String>, deadline: Option<Duration>) -> Vec<WireRequest> {
    texts
        .into_iter()
        .enumerate()
        .map(|(i, text)| {
            let mut req = match flow_for(i) {
                None => WireRequest::full_scan(text),
                Some(m) => WireRequest::partial(text, m),
            };
            if let Some(d) = deadline {
                req = req.with_deadline(d);
            }
            req
        })
        .collect()
}

/// Pulls requests off a shared index and submits them to `addr` over
/// `jobs` concurrent workers; rows come back in request order
/// regardless of completion order. When `kill` carries a server
/// handle, it is shut down once, right after the first report lands.
fn drive_clients(
    addr: &str,
    requests: Vec<WireRequest>,
    jobs: usize,
    kill: Option<ServerHandle>,
    mode: NetMode,
) -> Vec<Row> {
    let total = requests.len();
    let requests = Arc::new(requests);
    let next = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let rows = Arc::new(std::sync::Mutex::new(Vec::new()));
    let kill = Arc::new(std::sync::Mutex::new(kill));

    let workers: Vec<_> = (0..jobs)
        .map(|w| {
            let (requests, next, rows, kill) =
                (Arc::clone(&requests), Arc::clone(&next), Arc::clone(&rows), Arc::clone(&kill));
            let addr = addr.to_string();
            std::thread::spawn(move || {
                let config = ClientConfig { seed: w as u64 + 1, ..ClientConfig::default() };
                let push = |i: usize, row: Row| {
                    rows.lock().expect("rows lock never poisoned").push((i, row));
                    if let Some(victim) = kill.lock().expect("kill lock never poisoned").take() {
                        victim.shutdown();
                    }
                };
                match mode {
                    NetMode::V2 => drive_sequential(&addr, config, &requests, &next, push),
                    NetMode::V2Pipelined => drive_pipelined(&addr, config, &requests, &next, push),
                }
            })
        })
        .collect();
    for wkr in workers {
        let _ = wkr.join();
    }

    let mut indexed = Arc::try_unwrap(rows)
        .unwrap_or_else(|_| unreachable!("workers joined"))
        .into_inner()
        .expect("rows lock never poisoned");
    assert_eq!(indexed.len(), total, "every request must produce exactly one row");
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, row)| row).collect()
}

/// Claims the next request index, or `None` when the batch is drained.
fn claim(next: &std::sync::atomic::AtomicUsize, total: usize) -> Option<usize> {
    let i = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    (i < total).then_some(i)
}

/// One persistent v2 session, one request in flight at a time.
fn drive_sequential(
    addr: &str,
    config: ClientConfig,
    requests: &[WireRequest],
    next: &std::sync::atomic::AtomicUsize,
    push: impl Fn(usize, Row),
) {
    let conn = match Connection::open_with(addr, config) {
        Ok(c) => c,
        Err(e) => {
            // No session, no reports: every request this worker would
            // have claimed fails with the connect error.
            while let Some(i) = claim(next, requests.len()) {
                push(i, Row::from_net_error(&e));
            }
            return;
        }
    };
    while let Some(i) = claim(next, requests.len()) {
        let row = match conn.submit(&requests[i]).and_then(|ticket| conn.wait(ticket)) {
            Ok(r) => Row::from_wire(r),
            Err(e) => Row::from_net_error(&e),
        };
        push(i, row);
    }
}

/// One persistent v2 session, every claimed request submitted before
/// any report is collected; `wait_any` then drains completions in
/// whatever order the server finishes them.
fn drive_pipelined(
    addr: &str,
    config: ClientConfig,
    requests: &[WireRequest],
    next: &std::sync::atomic::AtomicUsize,
    push: impl Fn(usize, Row),
) {
    let conn = match Connection::open_with(addr, config) {
        Ok(c) => c,
        Err(e) => {
            while let Some(i) = claim(next, requests.len()) {
                push(i, Row::from_net_error(&e));
            }
            return;
        }
    };
    // Submit phase: claim and send everything, remembering which
    // request index each ticket redeems.
    let mut tickets: Vec<Pending> = Vec::new();
    let mut index_of = std::collections::HashMap::new();
    while let Some(i) = claim(next, requests.len()) {
        match conn.submit(&requests[i]) {
            Ok(ticket) => {
                index_of.insert(ticket.id(), i);
                tickets.push(ticket);
            }
            Err(e) => push(i, Row::from_net_error(&e)),
        }
    }
    // Collect phase: completion order, not submission order.
    while !tickets.is_empty() {
        match conn.wait_any(&mut tickets) {
            Ok((ticket, report)) => {
                let i = index_of.remove(&ticket.id()).expect("every ticket was indexed");
                push(i, Row::from_wire(report));
            }
            Err(e) => {
                // A wait error (lost connection, spent Busy budget) is
                // not attributable to one ticket; everything still
                // outstanding failed with it.
                for ticket in tickets.drain(..) {
                    let i = index_of.remove(&ticket.id()).expect("every ticket was indexed");
                    push(i, Row::from_net_error(&e));
                }
            }
        }
    }
}

/// Writes the workload directory: `s27` plus the chosen synthetic suite.
fn generate_workloads(dir: &PathBuf, small: bool) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        exit(2);
    }
    let bench_dir = dir.join("bench");
    if let Err(e) = std::fs::create_dir_all(&bench_dir) {
        eprintln!("cannot create {}: {e}", bench_dir.display());
        exit(2);
    }
    let mut netlists = vec![iscas::s27()];
    let specs = if small { smoke_suite() } else { suite() };
    netlists.extend(specs.iter().map(generate));
    for n in &netlists {
        let path = dir.join(format!("{}.blif", n.name()));
        if let Err(e) = std::fs::write(&path, write_blif(n)) {
            eprintln!("cannot write {}: {e}", path.display());
            exit(2);
        }
        println!("wrote {}", path.display());
        let bench_path = bench_dir.join(format!("{}.bench", n.name()));
        if let Err(e) = std::fs::write(&bench_path, write_bench(n)) {
            eprintln!("cannot write {}: {e}", bench_path.display());
            exit(2);
        }
        println!("wrote {}", bench_path.display());
    }
}
