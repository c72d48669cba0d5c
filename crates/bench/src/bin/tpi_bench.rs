//! `tpi-bench`: the observability benchmark harness.
//!
//! Runs the smoke suite (both workloads) through the full-scan and
//! TPTIME flows at `--threads 1`, `2` and `0` (all hardware threads),
//! checks that the **deterministic** metrics section — span structure
//! plus counters — is byte-identical across the three settings, and
//! prints per-phase wall times.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p tpi-bench --bin tpi-bench -- [--emit-bench PATH] [--det-out PATH] [--threads N] [--large] [--gain-model path-count|scoap] [--net]
//! ```
//!
//! * `--emit-bench PATH` — also write the machine-readable bench file
//!   (`tpi-bench/v1` JSON: wall times, per-phase µs, counters per run).
//!   This is what produces `BENCH_PR4.json`.
//! * `--det-out PATH` — write *only* the deterministic metrics sections
//!   for every workload at the given `--threads` setting, one line per
//!   workload, then exit. CI runs this at two settings and `cmp`s the
//!   files: any byte difference fails the build.
//! * `--large` — run the ~50k-gate `gen50k` workload instead of the
//!   smoke suite: full-scan at `--threads 1`, `2` and `0`. Fails if the
//!   deterministic sections differ anywhere, or if the `tpgreed` phase
//!   at `--threads 0` is slower than at `--threads 1` by more than 15%
//!   (the TPGREED parallel-slowdown regression, gated forever). On a
//!   host with one hardware thread the two runs are the same work, so
//!   that gate prints `skipped (nproc=1)` instead of passing. With
//!   `--emit-bench`, writes the `suite: "large"` bench file (the format
//!   of `BENCH_PR6.json`, minus its scalar-engine fields).
//! * `--gain-model path-count|scoap` — run the smoke circuits through
//!   full-scan under the named TPGREED gain model: the paper's baseline
//!   (full gain recomputation, `--threads 1`) plus incremental gains at
//!   `--threads 1/2/0`. Fails unless the incremental runs' deterministic
//!   sections are byte-identical and every run's transformed netlist
//!   equals the baseline's.
//! * `--gen-scale` — the industrial-generator scaling gate: build
//!   125k/250k/500k-gate designs with `IndustrialSpec::sized`, print
//!   ns/gate for each, and fail if the slowest per-gate cost exceeds
//!   the fastest by more than 4× (a superlinear generator would make
//!   `tpi-soak`'s cold lane and the 1M-gate workloads unusable) or if
//!   any design misses its gate target by more than 20%.
//! * `--net` — the `tpi-net/v2` loopback throughput benchmark: an
//!   in-process `tpi-netd` serving cache-warm `s27` jobs, driven by a
//!   session one request at a time and a session fully pipelined.
//!   Prints req/s for each plus p50/p99 ping frame latency; with
//!   `--emit-bench`, writes the `tpi-bench-net/v1` JSON (the format of
//!   `BENCH_PR9.json`).
//!
//! Exit status: `1` if any flow fails, any deterministic section
//! differs across thread counts, or a `--large` gate trips.

use std::process::exit;
use std::time::Instant;
use tpi_bench::{ArgCursor, Cli};
use tpi_core::{
    FlowMetrics, FlowOptions, FullScanFlow, GainModel, GainUpdate, PartialScanFlow,
    PartialScanMethod, TpGreedConfig,
};
use tpi_netlist::Netlist;
use tpi_obs::{JsonArray, JsonObject, SpanSnapshot};
use tpi_workloads::{generate, large_suite, smoke_suite};

/// The thread settings the determinism gate sweeps.
const THREAD_SETTINGS: [usize; 3] = [1, 2, 0];

/// One measured flow invocation.
struct Run {
    threads: usize,
    wall_micros: u64,
    metrics: FlowMetrics,
}

/// The smoke workloads: every smoke circuit through both paper flows.
fn workloads() -> Vec<(String, &'static str, Netlist)> {
    let mut out = Vec::new();
    for spec in smoke_suite() {
        let n = generate(&spec);
        out.push((spec.name.clone(), "full-scan", n.clone()));
        out.push((spec.name.clone(), "tptime", n));
    }
    out
}

fn run_once(circuit: &str, flow: &str, n: &Netlist, threads: usize) -> Run {
    let opts = FlowOptions::new().with_threads(threads);
    let t0 = Instant::now();
    let metrics = match flow {
        "full-scan" => FullScanFlow::default().run_with(n, &opts).map(|r| r.metrics),
        "tptime" => {
            PartialScanFlow::new(PartialScanMethod::TpTime).run_with(n, &opts).map(|r| r.metrics)
        }
        other => unreachable!("unknown flow {other}"),
    }
    .unwrap_or_else(|e| {
        eprintln!("{circuit} [{flow}] --threads {threads}: {e}");
        exit(1);
    });
    Run { threads, wall_micros: t0.elapsed().as_micros() as u64, metrics }
}

/// Flat `{phase: micros}` object — valid because every phase appears
/// exactly once per run.
fn phase_micros(m: &FlowMetrics) -> JsonObject {
    fn walk(s: &SpanSnapshot, o: &mut JsonObject) {
        o.field_u64(&s.name, s.micros);
        for c in &s.children {
            walk(c, o);
        }
    }
    let mut o = JsonObject::new();
    for s in &m.spans {
        walk(s, &mut o);
    }
    o
}

fn counter_object(counters: &std::collections::BTreeMap<String, u64>) -> JsonObject {
    let mut o = JsonObject::new();
    for (k, &v) in counters {
        o.field_u64(k, v);
    }
    o
}

fn write_or_die(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {path}: {e}");
        exit(1);
    }
}

/// Wall time of the named phase span, searched through the span tree.
fn span_micros(m: &FlowMetrics, name: &str) -> u64 {
    fn walk(s: &SpanSnapshot, name: &str) -> Option<u64> {
        if s.name == name {
            return Some(s.micros);
        }
        s.children.iter().find_map(|c| walk(c, name))
    }
    m.spans.iter().find_map(|s| walk(s, name)).unwrap_or(0)
}

/// One full-scan run of `n` under an explicit TPGREED configuration,
/// plus the transformed netlist: its test points, scan muxes and chain
/// are the run's selections.
fn run_full_scan(n: &Netlist, config: TpGreedConfig, threads: usize) -> (Run, Netlist) {
    let label =
        format!("{} [full-scan {} {:?}]", n.name(), config.gain_model.label(), config.gain_update);
    let flow = FullScanFlow { config };
    let opts = FlowOptions::new().with_threads(threads);
    let t0 = Instant::now();
    let r = flow.run_with(n, &opts).unwrap_or_else(|e| {
        eprintln!("{label} --threads {threads}: {e}");
        exit(1);
    });
    let run = Run { threads, wall_micros: t0.elapsed().as_micros() as u64, metrics: r.metrics };
    (run, r.netlist)
}

/// `--gain-model MODEL` mode: every smoke circuit through full-scan
/// under the given TPGREED gain model, incremental gains across
/// `--threads 1/2/0` plus the paper's full-recomputation baseline at
/// `--threads 1`. The incremental runs' deterministic sections must be
/// byte-identical, and every run must produce the same transformed
/// netlist as the baseline — the gain model changes *which* test points
/// are picked, never determinism. (The baseline's deterministic section
/// differs in one counter by design: full recomputation evaluates more
/// candidates.)
fn gain_model_mode(model: GainModel) {
    println!(
        "tpi-bench --gain-model {}: smoke full-scan, threads {THREAD_SETTINGS:?} + full recompute",
        model.label()
    );
    let cfg = |gain_update| TpGreedConfig { gain_model: model, gain_update, ..Default::default() };
    let mut ok = true;
    for spec in smoke_suite() {
        let n = generate(&spec);
        let (_, base) = run_full_scan(&n, cfg(GainUpdate::Full), 1);
        let runs: Vec<(Run, Netlist)> = THREAD_SETTINGS
            .iter()
            .map(|&t| run_full_scan(&n, cfg(GainUpdate::Incremental), t))
            .collect();
        let det = runs[0].0.metrics.deterministic_json();
        let identical =
            runs.iter().all(|(r, design)| r.metrics.deterministic_json() == det && *design == base);
        let placed = runs[0].0.metrics.counter("test_points_placed");
        println!(
            "{:<14} | {:>4} test point(s) | {}",
            spec.name,
            placed,
            if identical { "byte-identical (full + incremental × 1/2/0)" } else { "MISMATCH" },
        );
        if !identical {
            eprintln!(
                "{}: selections or deterministic sections DIFFER under {}",
                spec.name,
                model.label()
            );
            ok = false;
        }
    }
    if !ok {
        eprintln!("FAIL: gain model {} is not thread/mode deterministic", model.label());
        exit(1);
    }
    println!("OK: {} selections and deterministic sections byte-identical", model.label());
}

/// `--large` mode: the 50k-gate performance validation (see module docs).
fn large_mode(emit_bench: Option<String>) {
    let spec = large_suite().remove(0);
    println!(
        "tpi-bench --large: generating {} (target {} comb gates)…",
        spec.name, spec.target_gates
    );
    let n = generate(&spec);
    println!("{} gates, {} FFs", n.gate_count(), n.dffs().len());

    let runs: Vec<Run> =
        THREAD_SETTINGS.iter().map(|&t| run_full_scan(&n, TpGreedConfig::default(), t).0).collect();

    println!("{:>8} | {:>12} {:>12}", "threads", "wall µs", "tpgreed µs");
    println!("{}", "-".repeat(36));
    for r in &runs {
        println!(
            "{:>8} | {:>12} {:>12}",
            r.threads,
            r.wall_micros,
            span_micros(&r.metrics, tpi_core::phases::TPGREED)
        );
    }

    // Gate 1: selections (and every deterministic counter) must be
    // byte-identical across thread counts.
    let det = runs[0].metrics.deterministic_json();
    let identical = runs.iter().all(|r| r.metrics.deterministic_json() == det);
    if identical {
        println!("OK: deterministic sections byte-identical (threads 1/2/0)");
    } else {
        eprintln!("FAIL: deterministic sections differ between thread counts");
    }

    // Gate 2: the parallel-slowdown regression — tpgreed must not be slower
    // than sequential. The 15% margin absorbs timing noise. With one
    // hardware thread, `--threads 0` runs the same sequential work as
    // `--threads 1`, so the comparison would pass without testing
    // anything: report it as skipped instead.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t1 = span_micros(&runs[0].metrics, tpi_core::phases::TPGREED);
    let t0 = span_micros(&runs[2].metrics, tpi_core::phases::TPGREED);
    let parallel_gate = if nproc == 1 {
        println!("skipped (nproc=1): tpgreed --threads 0 ≤ 1.15 × --threads 1");
        "skipped"
    } else if (t0 as f64) <= (t1 as f64) * 1.15 {
        println!("OK: tpgreed --threads 0 ({t0} µs) ≤ 1.15 × --threads 1 ({t1} µs)");
        "ok"
    } else {
        eprintln!("FAIL: tpgreed --threads 0 ({t0} µs) > 1.15 × --threads 1 ({t1} µs)");
        "failed"
    };

    if let Some(path) = emit_bench {
        let mut workloads_arr = JsonArray::new();
        let mut w = JsonObject::new();
        w.field_str("circuit", &spec.name)
            .field_str("flow", "full-scan")
            .field_object("counters", counter_object(&runs[0].metrics.counters));
        let mut runs_arr = JsonArray::new();
        for r in &runs {
            let mut ro = JsonObject::new();
            ro.field_u64("threads", r.threads as u64)
                .field_u64("wall_micros", r.wall_micros)
                .field_object("phase_micros", phase_micros(&r.metrics))
                .field_object("nd_counters", counter_object(&r.metrics.nd_counters));
            runs_arr.push_object(ro);
        }
        w.field_array("runs", runs_arr);
        workloads_arr.push_object(w);

        let mut root = JsonObject::new();
        root.field_str("schema", "tpi-bench/v1")
            .field_str("suite", "large")
            .field_str("thread_settings", "1,2,0")
            .field_u64("nproc", nproc as u64)
            .field_bool("deterministic_sections_identical", identical)
            .field_str("parallel_tpgreed_gate", parallel_gate)
            .field_u64("tpgreed_micros_t1", t1)
            .field_array("workloads", workloads_arr);
        let mut text = root.finish();
        text.push('\n');
        write_or_die(&path, &text);
        println!("wrote bench file to {path}");
    }

    if !identical || parallel_gate == "failed" {
        exit(1);
    }
}

/// `--net` mode: warm-loopback throughput of the two session paths plus
/// ping frame latency. Everything is in-process: one `tpi-netd` poll
/// loop, one single-worker service, `s27` submitted repeatedly so all
/// but the first job is a memory cache hit — the numbers measure the
/// *protocol*, not TPGREED.
fn net_mode(emit_bench: Option<String>) {
    use std::sync::Arc;
    use tpi_net::{Connection, ServerConfig, WireRequest};
    use tpi_serve::{JobService, JobStatus, ServiceConfig};

    let service = Arc::new(JobService::new(ServiceConfig { threads: 1, ..Default::default() }));
    let server = tpi_net::NetServer::bind(
        // The point is pipe throughput, not backpressure: set the
        // in-flight cap out of the way.
        ServerConfig { max_inflight: 1 << 20, ..Default::default() },
        Arc::clone(&service),
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot start in-process tpi-netd: {e}");
        exit(1);
    });
    let addr = server.local_addr().to_string();
    let (handle, server_thread) = server.spawn();

    let blif = tpi_netlist::write_blif(&tpi_workloads::iscas::s27());
    let req = WireRequest::full_scan(blif);
    let die = |what: &str, e: &dyn std::fmt::Display| -> ! {
        eprintln!("tpi-bench --net: {what}: {e}");
        exit(1);
    };

    let conn = Connection::open(&addr).unwrap_or_else(|e| die("open", &e));
    // Warm the cache: every request after this one is a memory hit.
    match conn.submit(&req).and_then(|t| conn.wait(t)) {
        Ok(r) if matches!(r.status, JobStatus::Completed) => {}
        Ok(r) => die("warmup", &format!("job ended {}", r.status.label())),
        Err(e) => die("warmup", &e),
    }

    // Path 1: one session, one request in flight at a time.
    let v2_n: usize = 2000;
    let t0 = Instant::now();
    for _ in 0..v2_n {
        if let Err(e) = conn.submit(&req).and_then(|t| conn.wait(t)) {
            die("v2 submit", &e);
        }
    }
    let v2_rate = v2_n as f64 / t0.elapsed().as_secs_f64();

    // Path 2: one session, everything submitted before anything is
    // collected — the pipelining the request IDs exist for.
    let pipe_n: usize = 4000;
    let t0 = Instant::now();
    let mut tickets = Vec::with_capacity(pipe_n);
    for _ in 0..pipe_n {
        tickets.push(conn.submit(&req).unwrap_or_else(|e| die("pipelined submit", &e)));
    }
    while !tickets.is_empty() {
        if let Err(e) = conn.wait_any(&mut tickets) {
            die("pipelined wait", &e);
        }
    }
    let pipe_rate = pipe_n as f64 / t0.elapsed().as_secs_f64();

    // Frame latency: ping round trips on the (now idle) session.
    let ping_n: usize = 2000;
    let mut lat = Vec::with_capacity(ping_n);
    for _ in 0..ping_n {
        let t = Instant::now();
        if let Err(e) = conn.ping() {
            die("ping", &e);
        }
        lat.push(t.elapsed().as_micros() as u64);
    }
    lat.sort_unstable();
    let p50 = lat[ping_n / 2];
    let p99 = lat[ping_n * 99 / 100];

    println!("tpi-bench --net: warm s27 over loopback, single-worker service");
    println!("{:<26} | {:>12} | {:>8}", "path", "requests", "req/s");
    println!("{}", "-".repeat(52));
    println!("{:<26} | {:>12} | {:>8.0}", "v2 session, sequential", v2_n, v2_rate);
    println!("{:<26} | {:>12} | {:>8.0}", "v2 session, pipelined", pipe_n, pipe_rate);
    println!("ping frame latency: p50 {p50} µs, p99 {p99} µs");

    if let Some(path) = emit_bench {
        let mut root = JsonObject::new();
        root.field_str("schema", "tpi-bench-net/v1")
            .field_str("workload", "s27 full-scan, memory-warm")
            .field_u64("v2_sequential_requests", v2_n as u64)
            .field_str("v2_sequential_req_per_s", &format!("{v2_rate:.0}"))
            .field_u64("v2_pipelined_requests", pipe_n as u64)
            .field_str("v2_pipelined_req_per_s", &format!("{pipe_rate:.0}"))
            .field_u64("ping_p50_micros", p50)
            .field_u64("ping_p99_micros", p99);
        let mut text = root.finish();
        text.push('\n');
        write_or_die(&path, &text);
        println!("wrote bench file to {path}");
    }

    drop(conn);
    handle.shutdown();
    let _ = server_thread.join();
}

/// `--gen-scale`: assert the industrial workload generator stays linear
/// in the gate target and lands near it.
fn gen_scale_mode() {
    use tpi_workloads::industrial::{generate_industrial, IndustrialSpec};
    const TARGETS: [usize; 3] = [125_000, 250_000, 500_000];
    const MAX_NS_PER_GATE_SPREAD: f64 = 4.0;
    const GATE_TOLERANCE: f64 = 0.20;

    println!("tpi-bench --gen-scale — industrial generator linearity");
    println!(
        "{:>10} | {:>10} {:>8} | {:>10} {:>9}",
        "target", "gates", "ffs", "wall ms", "ns/gate"
    );
    println!("{}", "-".repeat(58));
    let mut per_gate: Vec<f64> = Vec::new();
    let mut failed = false;
    for target in TARGETS {
        let spec = IndustrialSpec::sized(format!("scale{target}"), target, 0xD_AC96);
        let t0 = Instant::now();
        let n = generate_industrial(&spec);
        let wall = t0.elapsed();
        let gates = n.gate_count();
        let ns = wall.as_nanos() as f64 / gates as f64;
        per_gate.push(ns);
        println!(
            "{:>10} | {:>10} {:>8} | {:>10.1} {:>9.0}",
            target,
            gates,
            n.dffs().len(),
            wall.as_secs_f64() * 1e3,
            ns
        );
        let miss = (gates as f64 - target as f64).abs() / target as f64;
        if miss > GATE_TOLERANCE {
            eprintln!(
                "gen-scale: {target}-gate spec produced {gates} gates ({:.0}% off)",
                miss * 100.0
            );
            failed = true;
        }
    }
    let (min, max) =
        per_gate.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    let spread = max / min;
    println!("ns/gate spread: {spread:.2}x (gate: <= {MAX_NS_PER_GATE_SPREAD:.0}x)");
    if spread > MAX_NS_PER_GATE_SPREAD {
        eprintln!("gen-scale: per-gate cost grows {spread:.2}x from 125k to 500k — generator is superlinear");
        failed = true;
    }
    if failed {
        exit(1);
    }
}

fn main() {
    let cli = Cli::parse();
    let mut emit_bench: Option<String> = None;
    let mut det_out: Option<String> = None;
    let mut large = false;
    let mut net = false;
    let mut gen_scale = false;
    let mut gain_model: Option<GainModel> = None;
    let mut cur = ArgCursor::new(cli.args.clone());
    while let Some(a) = cur.next_arg() {
        match a.as_str() {
            "--emit-bench" => emit_bench = Some(cur.value("--emit-bench")),
            "--det-out" => det_out = Some(cur.value("--det-out")),
            "--large" => large = true,
            "--net" => net = true,
            "--gen-scale" => gen_scale = true,
            "--gain-model" => {
                gain_model = Some(match cur.value("--gain-model").as_str() {
                    "path-count" => GainModel::PathCount,
                    "scoap" => GainModel::Scoap,
                    other => {
                        eprintln!("unknown gain model: {other} (expected path-count|scoap)");
                        exit(2);
                    }
                });
            }
            other => {
                eprintln!(
                    "unknown argument: {other} (expected \
                     --emit-bench/--det-out/--threads/--large/--gain-model/--net/--gen-scale)"
                );
                exit(2);
            }
        }
    }

    if gen_scale {
        gen_scale_mode();
        return;
    }

    if net {
        net_mode(emit_bench);
        return;
    }

    if large {
        large_mode(emit_bench);
        return;
    }

    if let Some(model) = gain_model {
        gain_model_mode(model);
        return;
    }

    // CI mode: dump only the deterministic sections at one setting.
    if let Some(path) = det_out {
        let mut out = String::new();
        for (circuit, flow, n) in workloads() {
            let r = run_once(&circuit, flow, &n, cli.threads);
            out.push_str(&circuit);
            out.push(' ');
            out.push_str(flow);
            out.push(' ');
            out.push_str(&r.metrics.deterministic_json());
            out.push('\n');
        }
        write_or_die(&path, &out);
        println!("wrote deterministic metrics (--threads {}) to {path}", cli.threads);
        return;
    }

    println!("tpi-bench — smoke suite at --threads {THREAD_SETTINGS:?}");
    println!(
        "{:<14} {:<10} | {:>10} {:>10} {:>10} | det section",
        "circuit", "flow", "t=1 µs", "t=2 µs", "t=0 µs"
    );
    println!("{}", "-".repeat(78));

    let mut workloads_arr = JsonArray::new();
    let mut all_identical = true;
    for (circuit, flow, n) in workloads() {
        let runs: Vec<Run> =
            THREAD_SETTINGS.iter().map(|&t| run_once(&circuit, flow, &n, t)).collect();
        let det = runs[0].metrics.deterministic_json();
        let identical = runs.iter().all(|r| r.metrics.deterministic_json() == det);
        if !identical {
            all_identical = false;
            eprintln!("{circuit} [{flow}]: deterministic sections DIFFER across thread counts");
        }
        println!(
            "{:<14} {:<10} | {:>10} {:>10} {:>10} | {}",
            circuit,
            flow,
            runs[0].wall_micros,
            runs[1].wall_micros,
            runs[2].wall_micros,
            if identical { "byte-identical" } else { "MISMATCH" },
        );

        let mut w = JsonObject::new();
        w.field_str("circuit", &circuit)
            .field_str("flow", flow)
            .field_object("counters", counter_object(&runs[0].metrics.counters));
        let mut runs_arr = JsonArray::new();
        for r in &runs {
            let mut ro = JsonObject::new();
            ro.field_u64("threads", r.threads as u64)
                .field_u64("wall_micros", r.wall_micros)
                .field_object("phase_micros", phase_micros(&r.metrics))
                .field_object("nd_counters", counter_object(&r.metrics.nd_counters));
            runs_arr.push_object(ro);
        }
        w.field_array("runs", runs_arr);
        workloads_arr.push_object(w);
    }

    if let Some(path) = emit_bench {
        let mut root = JsonObject::new();
        root.field_str("schema", "tpi-bench/v1")
            .field_str("suite", "smoke")
            .field_str("thread_settings", "1,2,0")
            .field_bool("deterministic_sections_identical", all_identical)
            .field_array("workloads", workloads_arr);
        let mut text = root.finish();
        text.push('\n');
        write_or_die(&path, &text);
        println!("wrote bench file to {path}");
    }

    if !all_identical {
        eprintln!("FAIL: the deterministic metrics section must not depend on --threads");
        exit(1);
    }
    println!("OK: deterministic sections byte-identical at --threads 1/2/0");
}
