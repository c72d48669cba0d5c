//! `tpi-perfbench`: the service benchmark.
//!
//! ```text
//! tpi-perfbench --workload paper_cold|industrial_warm|gateway_open
//!               --seed N --seconds S --trace 0|1
//! ```
//!
//! Stands the cluster up in-process (`JobService` → `NetServer`,
//! optionally behind a gateway), drives it over real `tpi-net/v2`
//! sessions with a seeded request list sized for `S` seconds, checks
//! every report, and prints the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of a traced replay (`--trace 1`). The last stdout
//! line is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod alloc;
mod cluster;
mod drive;
mod host;
mod plan;
mod report;
mod setup;
mod stats;
mod trace;

use plan::{Class, Workload};
use report::Metrics;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Times set-up runs per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// The open-loop generator may send no later than this at p99, or the
/// run is invalid: its latencies would measure the generator.
const MAX_SEND_LAG_P99: Duration = Duration::from_millis(50);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(plan::BASE_SECONDS),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tpi-perfbench: {e}");
            eprintln!("usage: tpi-perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    println!(
        "# tpi-perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host nproc={} cpu=\"{}\" rev={} workers={} in_flight={}",
        host::nproc(),
        host::cpu_model(),
        host::git_revision(),
        setup::workers(args.workload),
        setup::workers(args.workload)
    );
    let result = if args.trace { traced(&args) } else { end_to_end(&args, started) };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tpi-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints at most a few failure lines; the count is in the result.
fn print_failures(failures: &[String]) {
    for f in failures.iter().take(10) {
        println!("# FAILED {f}");
    }
    if failures.len() > 10 {
        println!("# ... and {} more failures", failures.len() - 10);
    }
}

fn end_to_end(args: &Args, started: Instant) -> std::io::Result<String> {
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut ready: Option<setup::Ready> = None;
    for repeat in 0..SETUP_REPEATS {
        // Only the last set-up serves the timed phase; the earlier ones
        // are torn down before the next starts.
        if let Some(previous) = ready.take() {
            previous.cluster.shutdown();
        }
        // The first set-up counts from process start.
        let t0 = if repeat == 0 { started } else { Instant::now() };
        ready = Some(setup::prepare(args.workload, args.seed, args.seconds)?);
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let ready = ready.expect("at least one set-up ran");
    let outcome = setup::timed(&ready);
    let gateway_metrics = ready.cluster.gateway_metrics();
    let setup::Ready { plan, cluster, failures: setup_failures, .. } = ready;
    cluster.shutdown();

    let mut failures = setup_failures;
    failures.extend(outcome.failures.iter().map(|(_, f)| f.clone()));
    if let Some(m) = &gateway_metrics {
        if setup::json_u64s(m, "\"exhausted\":").first() != Some(&0)
            || setup::json_u64s(m, "\"forward_failures\":").first() != Some(&0)
        {
            failures.push("gateway reported forward failures".to_string());
        }
        println!("# gateway owner_ratio={:.4}", setup::owner_ratio(m).unwrap_or(0.0));
    }

    for class in [Class::Read, Class::Write] {
        let attempted = plan.count(class);
        if attempted > 0 {
            let failed = outcome.failures.iter().filter(|(c, _)| *c == class).count();
            let ms: Vec<f64> = outcome
                .samples
                .iter()
                .filter(|s| s.class == class)
                .map(|s| s.latency.as_secs_f64() * 1e3)
                .collect();
            let pct =
                |p| stats::percentile(&ms, p).map_or("n/a".to_string(), |v| format!("{v:.3}"));
            println!(
                "# class {} attempted={attempted} failed={failed} p50_ms={} p90_ms={}",
                class.label(),
                pct(50.0),
                pct(90.0)
            );
        }
    }
    if let Err(e) = write_samples(&out_path(args, "samples", "tsv"), &outcome) {
        println!("# could not write samples: {e}");
    }
    let latencies: Vec<f64> =
        outcome.samples.iter().map(|s| s.latency.as_secs_f64() * 1e3).collect();
    let completed = outcome.samples.len();
    println!(
        "# timed samples={completed} wall_s={:.3} cpu_s={:.3} setup_s={:?}",
        outcome.wall.as_secs_f64(),
        outcome.cpu.as_secs_f64(),
        setup_times
    );
    let mut correct = true;
    if !outcome.send_lag.is_empty() {
        let lags: Vec<f64> = outcome.send_lag.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        let p99 = stats::percentile(&lags, 99.0)
            .unwrap_or_else(|_| lags.iter().copied().fold(0.0, f64::max));
        let bound = MAX_SEND_LAG_P99.as_secs_f64() * 1e3;
        let valid = p99 <= bound;
        println!("# open-loop send lag p99={p99:.3} ms bound={bound} ms valid={valid}");
        if !valid {
            println!("# INVALID run: the generator ran late");
            correct = false;
        }
    }

    let mut m = Metrics::default();
    m.push("jobs_per_s", completed as f64 / outcome.wall.as_secs_f64().max(1e-9), "1/s");
    for (name, pct) in [("latency_p50_ms", 50.0), ("latency_p90_ms", 90.0)] {
        match stats::percentile(&latencies, pct) {
            Ok(v) => m.push(name, v, "ms"),
            Err(e) => {
                failures.push(format!("{name}: {e}"));
                m.push(name, 0.0, "ms");
            }
        }
    }
    m.push("cpu_ms_per_job", outcome.cpu.as_secs_f64() * 1e3 / completed.max(1) as f64, "ms");
    m.push("peak_rss_mib", host::peak_rss_mib(), "MiB");
    m.push("setup_s", stats::median(&setup_times), "s");
    for (name, value, unit) in &m.0 {
        println!("{name} = {value:.4} {unit}");
    }
    print_failures(&failures);
    let failed = outcome.failures.len() + (failures.len() - outcome.failures.len()).min(1);
    Ok(report::result_line(correct && failures.is_empty(), outcome.attempted, failed, &m))
}

/// Where per-run files go: the build directory, which the repository
/// ignores.
fn out_path(args: &Args, kind: &str, ext: &str) -> PathBuf {
    let base =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    base.join("perfbench").join(format!("{kind}-{}-s{}.{ext}", args.workload.name(), args.seed))
}

/// One line per timed request: send index, class, latency, server
/// wall and completion time, all in ms.
fn write_samples(path: &std::path::Path, outcome: &drive::Outcome) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index\tclass\tlatency_ms\tserver_ms\tdone_ms")?;
    for s in &outcome.samples {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        writeln!(
            out,
            "{}\t{}\t{:.3}\t{:.3}\t{:.3}",
            s.index,
            s.class.label(),
            ms(s.latency),
            ms(s.server_wall),
            ms(s.done)
        )?;
    }
    out.flush()
}

fn traced(args: &Args) -> std::io::Result<String> {
    let t = trace::run(args.workload, args.seed, args.seconds, out_path(args, "trace", "jsonl"))?;
    for note in &t.notes {
        println!("# {note}");
    }
    for (name, value, unit) in &t.metrics.0 {
        println!("{name} = {value:.4} {unit}");
    }
    print_failures(&t.failures);
    Ok(report::result_line(t.failures.is_empty(), t.attempted, t.failures.len(), &t.metrics))
}
