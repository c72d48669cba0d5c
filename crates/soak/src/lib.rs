//! # tpi-soak — industrial-scale soak and fuzz harness for the netd cluster
//!
//! Stands up an in-process `tpi-netd` cluster (a single backend, or N
//! backends behind the cache-affinity gateway, or attaches to an
//! already-running server) and drives it for a configured duration at a
//! controlled, seeded request mix:
//!
//! * **cold** — freshly generated industrial designs, every submission a
//!   guaranteed cache miss;
//! * **warm** — repeats from a fixed design pool, asserting every warm
//!   payload is byte-identical to the first cold result;
//! * **pipeline** — v2 `SubmitMany` streaming batches;
//! * **fuzz** — seeded frame mutants from [`fuzz::mutate`] (truncation,
//!   bit flips, splices, length/ID lies) with coverage tracked as
//!   distinct `(mutation, outcome)` classes, and a liveness probe after
//!   every injection;
//! * **deadline** — jobs armed with a deadline far below their runtime,
//!   which must come back `TimedOut`, never wedge a worker;
//! * **disconnect** — submits whose connection dies mid-job (full and
//!   half frames), which the server must absorb silently.
//!
//! The run *asserts*, not just measures: zero panics process-wide (a
//! panic hook counts every unwind, even caught ones), peak RSS under a
//! configured cap (self-measured from `/proc/self/status` — the whole
//! cluster lives in this process), every completed report
//! `verified == true`, and every warm payload byte-identical to its
//! cold original. Any breach lands in the summary's `violations` and
//! fails the process. Scheduling is seeded: worker `w` of a run with
//! seed `S` draws its lane sequence from `StdRng(S ^ h(w))`, so a
//! failure reproduces from the command line in the summary.

pub mod fuzz;
pub mod rss;

use rand::{Rng, SeedableRng, StdRng};
use std::collections::BTreeSet;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use tpi_gateway::{Gateway, GatewayConfig, GatewayHandler};
use tpi_net::{
    encode_frame_v2, ClientConfig, ClientError, Connection, NetServer, ServerConfig, ServerHandle,
    SubmitMany, Verb, WireReport, WireRequest,
};
use tpi_serve::{JobService, JobStatus, ServiceConfig};
use tpi_workloads::industrial::{generate_industrial, IndustrialSpec};

/// Frame cap for the whole soak: a 1M-gate BLIF is ~36 MiB, so the
/// default 16 MiB would reject the headline design at the door.
pub const SOAK_MAX_FRAME: u32 = 64 << 20;

/// Which cluster the soak drives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterSpec {
    /// One in-process `tpi-netd` over one `JobService`.
    Direct,
    /// N in-process backends behind an in-process gateway.
    Gateway(usize),
    /// An already-running server at this address (not shut down, and
    /// its RSS is not ours to measure).
    Attach(String),
}

impl ClusterSpec {
    /// Stable label for the summary.
    pub fn label(&self) -> String {
        match self {
            ClusterSpec::Direct => "direct".to_string(),
            ClusterSpec::Gateway(n) => format!("gateway-{n}"),
            ClusterSpec::Attach(addr) => format!("attach:{addr}"),
        }
    }
}

/// Everything a soak run needs; [`SoakConfig::smoke`] and the CLI build
/// these.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// How long the mixed-traffic phase runs.
    pub duration: Duration,
    /// Master seed; every worker's schedule derives from it.
    pub seed: u64,
    /// The cluster to stand up (or attach to).
    pub cluster: ClusterSpec,
    /// Headline industrial design size (gates); submitted cold before
    /// the mix starts and warm after it ends, byte-compared.
    pub gates: usize,
    /// Driver threads running the lane mix.
    pub workers: usize,
    /// Worker threads per backend `JobService` (0 = all cores).
    pub threads: usize,
    /// Peak-RSS ceiling in MiB; breaching it is a violation.
    pub rss_cap_mib: u64,
    /// Run the fuzz lane (malformed frames) as part of the mix.
    pub fuzz: bool,
    /// Extra `.bench` circuits folded into the warm pool.
    pub bench_dir: Option<PathBuf>,
}

impl SoakConfig {
    /// The CI smoke shape: ~seconds, a small headline design, fixed
    /// seed, fuzz on.
    pub fn smoke(cluster: ClusterSpec, seconds: u64) -> SoakConfig {
        SoakConfig {
            duration: Duration::from_secs(seconds),
            seed: 0xDAC9_6501,
            cluster,
            gates: 20_000,
            workers: 4,
            threads: 0,
            rss_cap_mib: 8192,
            fuzz: true,
            bench_dir: None,
        }
    }
}

/// A started cluster: the address clients hit, plus whatever in-process
/// pieces must be shut down afterwards.
pub struct Cluster {
    addr: String,
    backends: Vec<(Arc<JobService>, ServerHandle, std::thread::JoinHandle<std::io::Result<()>>)>,
    gateway: Option<(Arc<Gateway>, ServerHandle, std::thread::JoinHandle<std::io::Result<()>>)>,
}

impl Cluster {
    /// Stands the requested cluster up (no-op for attach).
    pub fn start(spec: &ClusterSpec, threads: usize) -> std::io::Result<Cluster> {
        let server_config =
            || ServerConfig { max_frame: SOAK_MAX_FRAME, ..ServerConfig::default() };
        let service_config = || ServiceConfig {
            threads,
            // The cold lane mints a distinct payload per op; a small LRU
            // would evict the headline design before its warm check.
            cache_capacity: 8192,
            ..ServiceConfig::default()
        };
        match spec {
            ClusterSpec::Attach(addr) => {
                Ok(Cluster { addr: addr.clone(), backends: Vec::new(), gateway: None })
            }
            ClusterSpec::Direct => {
                let service = Arc::new(JobService::new(service_config()));
                let server = NetServer::bind(server_config(), Arc::clone(&service))?;
                let addr = server.local_addr().to_string();
                let (handle, join) = server.spawn();
                Ok(Cluster { addr, backends: vec![(service, handle, join)], gateway: None })
            }
            ClusterSpec::Gateway(n) => {
                let mut backends = Vec::new();
                let mut addrs = Vec::new();
                for _ in 0..(*n).max(1) {
                    let service = Arc::new(JobService::new(service_config()));
                    let server = NetServer::bind(server_config(), Arc::clone(&service))?;
                    addrs.push(server.local_addr().to_string());
                    let (handle, join) = server.spawn();
                    backends.push((service, handle, join));
                }
                let gateway = Arc::new(Gateway::new(GatewayConfig {
                    backends: addrs,
                    ..GatewayConfig::default()
                }));
                let gw_server = NetServer::bind_with(
                    server_config(),
                    GatewayHandler::new(Arc::clone(&gateway)),
                )?;
                let addr = gw_server.local_addr().to_string();
                let (handle, join) = gw_server.spawn();
                Ok(Cluster { addr, backends, gateway: Some((gateway, handle, join)) })
            }
        }
    }

    /// The address the drivers (and the fuzzer) hit.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Shuts the in-process pieces down and aggregates completed-job
    /// counts across backends. Attach mode leaves the server alone.
    pub fn shutdown(self) -> u64 {
        if let Some((_, handle, join)) = self.gateway {
            handle.shutdown();
            let _ = join.join();
        }
        let mut completed = 0;
        for (service, handle, join) in self.backends {
            handle.shutdown();
            let _ = join.join();
            completed += service.metrics().completed;
        }
        completed
    }
}

/// Monotone counters shared by every worker.
#[derive(Debug, Default)]
pub struct SoakStats {
    /// Ops per lane, indexed by [`Lane`] discriminant.
    pub lane_ops: [AtomicU64; 6],
    /// Reports with `status == Completed`.
    pub completed: AtomicU64,
    /// Reports with `status == TimedOut` (the deadline lane's success).
    pub timed_out: AtomicU64,
    /// Reports with `status == Failed` — always a violation in this mix.
    pub failed: AtomicU64,
    /// Client-level errors outside the disconnect lane.
    pub net_errors: AtomicU64,
    /// Warm submissions whose payload was byte-compared.
    pub warm_checks: AtomicU64,
    /// Warm submissions served from a cache (memory or disk).
    pub warm_hits: AtomicU64,
    /// Fuzz frames injected.
    pub fuzz_injections: AtomicU64,
    /// Process-wide panic count (hook-installed; must end at zero).
    pub panics: AtomicU64,
}

/// The six mix lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Fresh design, guaranteed cache miss.
    Cold = 0,
    /// Pool repeat with byte-identity check.
    Warm = 1,
    /// `SubmitMany` streaming batch.
    Pipeline = 2,
    /// Mutated frame injection.
    Fuzz = 3,
    /// Deadline far below runtime.
    Deadline = 4,
    /// Connection dropped mid-job.
    Disconnect = 5,
}

impl Lane {
    /// Mix order and summary order.
    pub const ALL: [Lane; 6] =
        [Lane::Cold, Lane::Warm, Lane::Pipeline, Lane::Fuzz, Lane::Deadline, Lane::Disconnect];

    /// Stable label.
    pub fn label(self) -> &'static str {
        match self {
            Lane::Cold => "cold",
            Lane::Warm => "warm",
            Lane::Pipeline => "pipeline",
            Lane::Fuzz => "fuzz",
            Lane::Deadline => "deadline",
            Lane::Disconnect => "disconnect",
        }
    }

    /// Per-mille weights of the mix (fuzz redistributed when off).
    fn weights(fuzz: bool) -> [(Lane, u32); 6] {
        if fuzz {
            [
                (Lane::Cold, 250),
                (Lane::Warm, 300),
                (Lane::Pipeline, 150),
                (Lane::Fuzz, 150),
                (Lane::Deadline, 100),
                (Lane::Disconnect, 50),
            ]
        } else {
            [
                (Lane::Cold, 300),
                (Lane::Warm, 350),
                (Lane::Pipeline, 150),
                (Lane::Fuzz, 0),
                (Lane::Deadline, 150),
                (Lane::Disconnect, 50),
            ]
        }
    }

    /// Seeded draw from the mix.
    fn pick(rng: &mut StdRng, fuzz: bool) -> Lane {
        let weights = Lane::weights(fuzz);
        let total: u32 = weights.iter().map(|&(_, w)| w).sum();
        let mut roll = rng.gen_range(0..total);
        for (lane, w) in weights {
            if roll < w {
                return lane;
            }
            roll -= w;
        }
        Lane::Warm
    }
}

/// One warm-pool design: the BLIF and the first payload it produced.
struct WarmEntry {
    name: String,
    blif: String,
    expected: OnceLock<String>,
}

/// State shared across workers.
struct Shared {
    addr: String,
    stop: AtomicBool,
    fuzz: bool,
    stats: SoakStats,
    violations: Mutex<Vec<String>>,
    warm_pool: Vec<WarmEntry>,
    /// Distinct `(mutation, outcome)` classes the fuzzer has seen.
    coverage: Mutex<BTreeSet<String>>,
    /// Unique-name counter for the cold and deadline lanes.
    fresh: AtomicU64,
    seed: u64,
}

impl Shared {
    fn violation(&self, msg: String) {
        self.violations.lock().expect("violations lock never poisoned").push(msg);
    }
}

/// Final result of a run: the summary JSON plus pass/fail.
pub struct Summary {
    /// Stable single-line JSON (`tpi-soak/v1`).
    pub json: String,
    /// Violations; empty means the soak passed.
    pub violations: Vec<String>,
}

impl Summary {
    /// Did every assertion hold?
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Builds the client config every driver uses.
fn client_config(seed: u64) -> ClientConfig {
    ClientConfig {
        max_frame: SOAK_MAX_FRAME,
        io_timeout: Duration::from_secs(600),
        seed,
        ..ClientConfig::default()
    }
}

/// An industrial design rendered to BLIF, sized for lane traffic.
fn fresh_blif(name: &str, gates: usize, seed: u64) -> String {
    let spec = IndustrialSpec::sized(name, gates, seed);
    tpi_netlist::write_blif(&generate_industrial(&spec))
}

/// Checks one report against the soak's contract. `context` names the
/// lane and design for the violation message.
fn check_report(shared: &Shared, context: &str, report: &WireReport) {
    match &report.status {
        JobStatus::Completed => {
            shared.stats.completed.fetch_add(1, Ordering::Relaxed);
            if !report.verified {
                shared.violation(format!("{context}: completed report not verified"));
            }
            if report.payload.is_none() {
                shared.violation(format!("{context}: completed report carries no payload"));
            }
        }
        JobStatus::TimedOut => {
            shared.stats.timed_out.fetch_add(1, Ordering::Relaxed);
        }
        JobStatus::Canceled => {
            shared.violation(format!("{context}: unexpected cancellation"));
        }
        JobStatus::Failed(msg) => {
            shared.stats.failed.fetch_add(1, Ordering::Relaxed);
            shared.violation(format!("{context}: job failed: {msg}"));
        }
    }
}

/// A per-worker session that transparently reconnects.
struct Driver {
    addr: String,
    config: ClientConfig,
    conn: Option<Connection>,
}

impl Driver {
    fn new(addr: &str, config: ClientConfig) -> Driver {
        Driver { addr: addr.to_string(), config, conn: None }
    }

    fn conn(&mut self) -> Result<&Connection, ClientError> {
        if self.conn.as_ref().is_none_or(Connection::is_dead) {
            self.conn = Some(Connection::open_with(&self.addr, self.config.clone())?);
        }
        Ok(self.conn.as_ref().expect("just set"))
    }

    /// Submit one request and wait for its report.
    fn roundtrip(&mut self, req: &WireRequest) -> Result<WireReport, ClientError> {
        let conn = self.conn()?;
        let ticket = conn.submit(req)?;
        conn.wait(ticket)
    }
}

/// The worker loop: seeded lane picks until the stop flag.
fn worker_loop(shared: &Shared, worker: usize) {
    let wseed = shared.seed ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut rng = StdRng::seed_from_u64(wseed);
    let mut driver = Driver::new(&shared.addr, client_config(wseed));
    while !shared.stop.load(Ordering::Relaxed) {
        let lane = Lane::pick(&mut rng, shared.fuzz);
        shared.stats.lane_ops[lane as usize].fetch_add(1, Ordering::Relaxed);
        match lane {
            Lane::Cold => run_cold(shared, &mut driver, &mut rng),
            Lane::Warm => run_warm(shared, &mut driver, &mut rng),
            Lane::Pipeline => run_pipeline(shared, &mut driver, &mut rng),
            Lane::Fuzz => run_fuzz(shared, &mut driver, &mut rng),
            Lane::Deadline => run_deadline(shared, &mut driver, &mut rng),
            Lane::Disconnect => run_disconnect(shared, &mut rng),
        }
    }
}

fn net_error(shared: &Shared, context: &str, e: &ClientError) {
    shared.stats.net_errors.fetch_add(1, Ordering::Relaxed);
    shared.violation(format!("{context}: client error: {e}"));
}

fn run_cold(shared: &Shared, driver: &mut Driver, rng: &mut StdRng) {
    let n = shared.fresh.fetch_add(1, Ordering::Relaxed);
    let gates = 1_200 + rng.gen_range(0..4u64) as usize * 400;
    let blif = fresh_blif(&format!("cold-{n}"), gates, shared.seed.wrapping_add(n));
    match driver.roundtrip(&WireRequest::full_scan(blif)) {
        Ok(report) => {
            check_report(shared, &format!("cold-{n}"), &report);
            if report.status == JobStatus::Completed && report.cache.label() != "cold" {
                shared.violation(format!("cold-{n}: fresh design served from cache"));
            }
        }
        Err(e) => net_error(shared, &format!("cold-{n}"), &e),
    }
}

fn run_warm(shared: &Shared, driver: &mut Driver, rng: &mut StdRng) {
    let entry = &shared.warm_pool[rng.gen_range(0..shared.warm_pool.len())];
    match driver.roundtrip(&WireRequest::full_scan(entry.blif.clone())) {
        Ok(report) => {
            check_report(shared, &entry.name, &report);
            if report.status != JobStatus::Completed {
                return;
            }
            if report.cache.label() != "cold" {
                shared.stats.warm_hits.fetch_add(1, Ordering::Relaxed);
            }
            let payload = report.payload.unwrap_or_default();
            match entry.expected.get() {
                None => {
                    // First completion wins; a racing second set is a
                    // byte-identical no-op or a caught divergence below.
                    let _ = entry.expected.set(payload.clone());
                }
                Some(first) => {
                    shared.stats.warm_checks.fetch_add(1, Ordering::Relaxed);
                    if *first != payload {
                        shared.violation(format!(
                            "{}: warm payload diverged from first result ({} vs {} bytes)",
                            entry.name,
                            first.len(),
                            payload.len()
                        ));
                    }
                }
            }
        }
        Err(e) => net_error(shared, &entry.name, &e),
    }
}

fn run_pipeline(shared: &Shared, driver: &mut Driver, rng: &mut StdRng) {
    let count = rng.gen_range(2..=4u32) as usize;
    let reqs: Vec<WireRequest> = (0..count)
        .map(|_| {
            let entry = &shared.warm_pool[rng.gen_range(0..shared.warm_pool.len())];
            WireRequest::full_scan(entry.blif.clone())
        })
        .collect();
    let conn = match driver.conn() {
        Ok(c) => c,
        Err(e) => return net_error(shared, "pipeline", &e),
    };
    match conn.submit_many(&reqs).and_then(|batch| conn.wait_batch(batch)) {
        Ok(reports) => {
            if reports.len() != count {
                shared.violation(format!(
                    "pipeline: batch of {count} answered with {} reports",
                    reports.len()
                ));
            }
            for r in &reports {
                check_report(shared, "pipeline", r);
            }
        }
        Err(e) => net_error(shared, "pipeline", &e),
    }
}

fn run_fuzz(shared: &Shared, driver: &mut Driver, rng: &mut StdRng) {
    // Corpus: valid frames of different shapes, so mutants explore
    // different decode paths.
    let small = encode_frame_v2(Verb::Ping, rng.gen(), b"");
    let submit = encode_frame_v2(
        Verb::Submit,
        rng.gen(),
        &WireRequest::full_scan(".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n")
            .encode(),
    );
    let many = encode_frame_v2(
        Verb::SubmitMany,
        rng.gen(),
        &SubmitMany { requests: vec![WireRequest::full_scan("bogus")] }.encode(),
    );
    let corpus = [small, submit, many];
    let base = &corpus[rng.gen_range(0..corpus.len())];
    let other = &corpus[rng.gen_range(0..corpus.len())];
    let (mutation, mutant) = fuzz::mutate(rng, base, other);
    let outcome = fuzz::inject(&shared.addr, &mutant, Duration::from_millis(300));
    shared.stats.fuzz_injections.fetch_add(1, Ordering::Relaxed);
    shared
        .coverage
        .lock()
        .expect("coverage lock never poisoned")
        .insert(format!("{mutation:?}/{outcome}"));
    // Liveness: the server must still answer a clean session after
    // swallowing the mutant.
    let alive = driver.conn().and_then(|c| c.ping());
    if let Err(e) = alive {
        // One reconnect attempt — the shared session may itself have
        // been the casualty of a concurrent disconnect test.
        driver.conn = None;
        if let Err(e2) = driver.conn().and_then(|c| c.ping()) {
            shared.violation(format!(
                "fuzz: server unresponsive after {mutation:?} mutant ({e}; retry: {e2})"
            ));
        }
    }
}

fn run_deadline(shared: &Shared, driver: &mut Driver, rng: &mut StdRng) {
    let n = shared.fresh.fetch_add(1, Ordering::Relaxed);
    let gates = 6_000 + rng.gen_range(0..3u64) as usize * 1_000;
    let blif = fresh_blif(&format!("deadline-{n}"), gates, shared.seed.wrapping_add(n));
    let req = WireRequest::full_scan(blif).with_deadline(Duration::from_millis(1));
    match driver.roundtrip(&req) {
        Ok(report) => match report.status {
            JobStatus::TimedOut => {
                shared.stats.timed_out.fetch_add(1, Ordering::Relaxed);
            }
            // A cache-warm or absurdly fast machine may legitimately
            // beat 1 ms; anything else is a contract breach.
            JobStatus::Completed => check_report(shared, &format!("deadline-{n}"), &report),
            _ => check_report(shared, &format!("deadline-{n}"), &report),
        },
        Err(e) => net_error(shared, &format!("deadline-{n}"), &e),
    }
}

fn run_disconnect(shared: &Shared, rng: &mut StdRng) {
    let n = shared.fresh.fetch_add(1, Ordering::Relaxed);
    let blif = fresh_blif(&format!("drop-{n}"), 1_200, shared.seed.wrapping_add(n));
    let frame = encode_frame_v2(Verb::Submit, 1, &WireRequest::full_scan(blif).encode());
    let Ok(mut stream) = std::net::TcpStream::connect(&shared.addr) else {
        // Accept pressure; nothing to assert.
        return;
    };
    let _ = stream.set_nodelay(true);
    // Half the drops cut mid-frame (a torn header/payload), half right
    // after a complete submit (the job runs; its report write fails).
    let cut = if rng.gen_bool(0.5) { rng.gen_range(1..frame.len()) } else { frame.len() };
    let _ = stream.write_all(&frame[..cut]);
    drop(stream);
}

/// Runs the whole soak: cluster up, headline cold, mixed traffic for
/// the duration, headline warm byte-check, assertions, summary.
pub fn run(config: &SoakConfig) -> Summary {
    install_panic_counter();
    let panics_before = panic_count();
    let sampler = rss::RssSampler::start(Duration::from_millis(200));
    let t0 = Instant::now();

    let SoakConfig { cluster: spec, threads: service_threads, .. } = config;
    let cluster = match Cluster::start(spec, *service_threads) {
        Ok(c) => c,
        Err(e) => {
            return Summary {
                json: String::new(),
                violations: vec![format!("cluster failed to start: {e}")],
            }
        }
    };

    let mut warm_pool: Vec<WarmEntry> = (0..4)
        .map(|i| WarmEntry {
            name: format!("pool-{i}"),
            blif: fresh_blif(&format!("pool-{i}"), 2_000 + i * 500, config.seed ^ (i as u64 + 1)),
            expected: OnceLock::new(),
        })
        .collect();
    if let Some(dir) = &config.bench_dir {
        match tpi_workloads::iscas::load_bench_dir(dir) {
            Ok(extra) => warm_pool.extend(extra.into_iter().map(|n| WarmEntry {
                name: format!("bench-{}", n.name()),
                blif: tpi_netlist::write_blif(&n),
                expected: OnceLock::new(),
            })),
            Err(e) => {
                return Summary {
                    json: String::new(),
                    violations: vec![format!("--bench-dir: {e}")],
                }
            }
        }
    }

    let shared = Arc::new(Shared {
        addr: cluster.addr().to_string(),
        stop: AtomicBool::new(false),
        fuzz: config.fuzz,
        stats: SoakStats::default(),
        violations: Mutex::new(Vec::new()),
        warm_pool,
        coverage: Mutex::new(BTreeSet::new()),
        fresh: AtomicU64::new(0),
        seed: config.seed,
    });

    // Headline design: cold before the mix, warm after it — the
    // acceptance pair the whole soak brackets.
    let headline = fresh_blif("headline", config.gates, config.seed);
    let mut headline_driver = Driver::new(cluster.addr(), client_config(config.seed));
    let headline_cold = match headline_driver.roundtrip(&WireRequest::full_scan(headline.clone())) {
        Ok(report) => {
            check_report(&shared, "headline-cold", &report);
            report.payload.unwrap_or_default()
        }
        Err(e) => {
            shared.violation(format!("headline-cold: client error: {e}"));
            String::new()
        }
    };
    let headline_cold_secs = t0.elapsed().as_secs_f64();

    let workers: Vec<_> = (0..config.workers.max(1))
        .map(|w| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared, w))
        })
        .collect();
    std::thread::sleep(config.duration);
    shared.stop.store(true, Ordering::Relaxed);
    for (w, worker) in workers.into_iter().enumerate() {
        if worker.join().is_err() {
            shared.violation(format!("worker {w} panicked"));
        }
    }

    // Warm headline: must be byte-identical and, with our cache sizing,
    // served from cache.
    match headline_driver.roundtrip(&WireRequest::full_scan(headline)) {
        Ok(report) => {
            check_report(&shared, "headline-warm", &report);
            if report.status == JobStatus::Completed {
                if report.cache.label() == "cold"
                    && !matches!(config.cluster, ClusterSpec::Attach(_))
                {
                    shared.violation("headline-warm: not served from cache".to_string());
                }
                if report.payload.unwrap_or_default() != headline_cold {
                    shared.violation("headline-warm: payload differs from cold run".to_string());
                }
            }
        }
        Err(e) => shared.violation(format!("headline-warm: client error: {e}")),
    }

    let elapsed = t0.elapsed();
    cluster.shutdown();

    let peak_rss = sampler.finish();
    if peak_rss > config.rss_cap_mib {
        shared.violation(format!(
            "peak RSS {peak_rss} MiB exceeds the {} MiB cap",
            config.rss_cap_mib
        ));
    }
    let panics = panic_count() - panics_before;
    shared.stats.panics.store(panics, Ordering::Relaxed);
    if panics > 0 {
        shared.violation(format!("{panics} panic(s) observed process-wide"));
    }

    let shared = Arc::try_unwrap(shared).unwrap_or_else(|_| unreachable!("workers joined"));
    let violations = shared.violations.into_inner().expect("violations lock never poisoned");
    let json = render_summary(
        config,
        &shared.stats,
        &shared.coverage.into_inner().expect("coverage lock never poisoned"),
        elapsed,
        headline_cold_secs,
        peak_rss,
        &violations,
    );
    Summary { json, violations }
}

/// Byte-stable single-line summary (`tpi-soak/v1`).
#[allow(clippy::too_many_arguments)]
fn render_summary(
    config: &SoakConfig,
    stats: &SoakStats,
    coverage: &BTreeSet<String>,
    elapsed: Duration,
    headline_cold_secs: f64,
    peak_rss: u64,
    violations: &[String],
) -> String {
    let mut s = String::new();
    s.push_str("{\"schema\":\"tpi-soak/v1\"");
    s.push_str(&format!(",\"mode\":\"{}\"", config.cluster.label()));
    s.push_str(&format!(",\"seed\":{}", config.seed));
    s.push_str(&format!(",\"gates\":{}", config.gates));
    s.push_str(&format!(",\"seconds\":{:.1}", elapsed.as_secs_f64()));
    s.push_str(&format!(",\"headline_cold_secs\":{headline_cold_secs:.2}"));
    s.push_str(",\"lanes\":{");
    for (i, lane) in Lane::ALL.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\"{}\":{}",
            lane.label(),
            stats.lane_ops[*lane as usize].load(Ordering::Relaxed)
        ));
    }
    s.push('}');
    let completed = stats.completed.load(Ordering::Relaxed);
    s.push_str(&format!(
        ",\"jobs\":{{\"completed\":{},\"timed_out\":{},\"failed\":{},\"net_errors\":{}}}",
        completed,
        stats.timed_out.load(Ordering::Relaxed),
        stats.failed.load(Ordering::Relaxed),
        stats.net_errors.load(Ordering::Relaxed),
    ));
    s.push_str(&format!(
        ",\"req_per_sec\":{:.1}",
        completed as f64 / elapsed.as_secs_f64().max(1e-9)
    ));
    let checks = stats.warm_checks.load(Ordering::Relaxed);
    let hits = stats.warm_hits.load(Ordering::Relaxed);
    s.push_str(&format!(",\"warm\":{{\"checks\":{checks},\"hits\":{hits}}}"));
    s.push_str(&format!(
        ",\"fuzz\":{{\"injections\":{},\"coverage_classes\":{}}}",
        stats.fuzz_injections.load(Ordering::Relaxed),
        coverage.len()
    ));
    s.push_str(&format!(",\"rss\":{{\"peak_mib\":{peak_rss},\"cap_mib\":{}}}", config.rss_cap_mib));
    s.push_str(&format!(",\"panics\":{}", stats.panics.load(Ordering::Relaxed)));
    s.push_str(&format!(",\"violations\":{}", violations.len()));
    s.push('}');
    s
}

static PANICS: AtomicU64 = AtomicU64::new(0);
static HOOK: OnceLock<()> = OnceLock::new();

/// Counts every unwind process-wide (including ones later caught by a
/// `catch_unwind`), chaining to the default hook so backtraces still
/// print.
fn install_panic_counter() {
    HOOK.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANICS.fetch_add(1, Ordering::Relaxed);
            previous(info);
        }));
    });
}

fn panic_count() -> u64 {
    PANICS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_mix_is_seeded_and_weighted() {
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..1000).map(|_| Lane::pick(&mut rng, true)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5), "same seed, same schedule");
        let counts = |lanes: &[Lane]| {
            let mut c = [0usize; 6];
            for &l in lanes {
                c[l as usize] += 1;
            }
            c
        };
        let c = counts(&draw(5));
        assert!(c[Lane::Warm as usize] > c[Lane::Disconnect as usize], "weights respected: {c:?}");
        // Fuzz off redistributes, never draws the fuzz lane.
        let mut rng = StdRng::seed_from_u64(6);
        assert!((0..1000).all(|_| Lane::pick(&mut rng, false) != Lane::Fuzz));
    }

    #[test]
    fn cluster_specs_label_stably() {
        assert_eq!(ClusterSpec::Direct.label(), "direct");
        assert_eq!(ClusterSpec::Gateway(3).label(), "gateway-3");
        assert_eq!(ClusterSpec::Attach("h:1".into()).label(), "attach:h:1");
    }

    #[test]
    fn summary_json_shape() {
        let config = SoakConfig::smoke(ClusterSpec::Direct, 1);
        let stats = SoakStats::default();
        stats.completed.store(10, Ordering::Relaxed);
        let mut cov = BTreeSet::new();
        cov.insert("BitFlip/closed".to_string());
        let json = render_summary(&config, &stats, &cov, Duration::from_secs(2), 0.5, 512, &[]);
        assert!(json.starts_with("{\"schema\":\"tpi-soak/v1\""), "{json}");
        assert!(json.contains("\"mode\":\"direct\""));
        assert!(json.contains("\"req_per_sec\":5.0"));
        assert!(json.contains("\"coverage_classes\":1"));
        assert!(json.contains("\"violations\":0"));
        assert!(json.ends_with('}'));
    }

    /// End-to-end micro-soak: 1 second against a direct in-process
    /// cluster, fuzz on — the real lanes, tiny dose.
    #[test]
    fn one_second_direct_soak_passes() {
        let mut config = SoakConfig::smoke(ClusterSpec::Direct, 1);
        config.gates = 2_000;
        config.workers = 2;
        let summary = run(&config);
        assert!(summary.passed(), "violations: {:?}", summary.violations);
        assert!(summary.json.contains("\"panics\":0"));
    }
}
