//! `tpi-bench`: the deterministic flow gates.
//!
//! Every mode checks something and fails on a violation; none records a
//! speed number. Performance is measured by `perfbench` against
//! `BENCHMARK.json`, which records the host, revision and spread.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p tpi-bench --bin tpi-bench -- [--det-out PATH] [--threads N] [--large] [--gain-model path-count|scoap] [--gen-scale]
//! ```
//!
//! * no mode flag — run the smoke suite (both workloads) through the
//!   full-scan and TPTIME flows at `--threads 1`, `2` and `0` (all
//!   hardware threads) and fail unless the **deterministic** metrics
//!   section — span structure plus counters — is byte-identical across
//!   the three settings.
//! * `--det-out PATH` — write *only* the deterministic metrics sections
//!   for every workload at the given `--threads` setting, one line per
//!   workload, then exit. CI runs this at two settings and `cmp`s the
//!   files: any byte difference fails the build.
//! * `--large` — run the ~50k-gate `gen50k` workload through full-scan
//!   at `--threads 1`, `2` and `0`. Fails if the deterministic sections
//!   differ anywhere, if the work counters move off their pinned values
//!   (a work regression that wall time would hide), or if the `tpgreed`
//!   phase at `--threads 0` is slower than at `--threads 1` by more than
//!   15% (the TPGREED parallel-slowdown regression, gated forever). On a
//!   host with one hardware thread the two runs are the same work, so
//!   that gate prints `skipped (nproc=1)` instead of passing.
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
//!
//! Exit status: `1` if any flow fails or any gate trips, `2` on an
//! unknown argument.

use std::process::exit;
use std::time::Instant;
use tpi_bench::{ArgCursor, Cli};
use tpi_core::{
    FlowMetrics, FlowOptions, FullScanFlow, GainModel, GainUpdate, PartialScanFlow,
    PartialScanMethod, TpGreedConfig,
};
use tpi_netlist::Netlist;
use tpi_obs::SpanSnapshot;
use tpi_workloads::{generate, large_suite, smoke_suite};

/// The thread settings the determinism gate sweeps.
const THREAD_SETTINGS: [usize; 3] = [1, 2, 0];

/// gen50k's pinned full-scan work counters. They are deterministic, so
/// any change is a change in the work TPGREED does; update a value only
/// together with the change that moves it, and say why.
const GEN50K_WORK: [(&str, u64); 4] = [
    ("paths_enumerated", 1_250),
    ("rounds", 64),
    ("candidates_evaluated", 475_656),
    ("test_points_placed", 63),
];

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

fn run_once(circuit: &str, flow: &str, n: &Netlist, threads: usize) -> FlowMetrics {
    let opts = FlowOptions::new().with_threads(threads);
    match flow {
        "full-scan" => FullScanFlow::default().run_with(n, &opts).map(|r| r.metrics),
        "tptime" => {
            PartialScanFlow::new(PartialScanMethod::TpTime).run_with(n, &opts).map(|r| r.metrics)
        }
        other => unreachable!("unknown flow {other}"),
    }
    .unwrap_or_else(|e| {
        eprintln!("{circuit} [{flow}] --threads {threads}: {e}");
        exit(1);
    })
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
fn run_full_scan(n: &Netlist, config: TpGreedConfig, threads: usize) -> (FlowMetrics, Netlist) {
    let label =
        format!("{} [full-scan {} {:?}]", n.name(), config.gain_model.label(), config.gain_update);
    let flow = FullScanFlow { config };
    let opts = FlowOptions::new().with_threads(threads);
    let r = flow.run_with(n, &opts).unwrap_or_else(|e| {
        eprintln!("{label} --threads {threads}: {e}");
        exit(1);
    });
    (r.metrics, r.netlist)
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
        let runs: Vec<(FlowMetrics, Netlist)> = THREAD_SETTINGS
            .iter()
            .map(|&t| run_full_scan(&n, cfg(GainUpdate::Incremental), t))
            .collect();
        let det = runs[0].0.deterministic_json();
        let identical =
            runs.iter().all(|(m, design)| m.deterministic_json() == det && *design == base);
        let placed = runs[0].0.counter("test_points_placed");
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

/// `--large` mode: the 50k-gate validation (see module docs).
fn large_mode() {
    let spec = large_suite().remove(0);
    println!(
        "tpi-bench --large: generating {} (target {} comb gates)…",
        spec.name, spec.target_gates
    );
    let n = generate(&spec);
    println!("{} gates, {} FFs", n.gate_count(), n.dffs().len());

    let runs: Vec<FlowMetrics> =
        THREAD_SETTINGS.iter().map(|&t| run_full_scan(&n, TpGreedConfig::default(), t).0).collect();
    let mut ok = true;

    // Gate 1: selections (and every deterministic counter) must be
    // byte-identical across thread counts.
    let det = runs[0].deterministic_json();
    if runs.iter().all(|m| m.deterministic_json() == det) {
        println!("OK: deterministic sections byte-identical (threads 1/2/0)");
    } else {
        eprintln!("FAIL: deterministic sections differ between thread counts");
        ok = false;
    }

    // Gate 2: the work itself. Gate 1 makes the threads-1 counters
    // stand for every setting.
    for (name, pinned) in GEN50K_WORK {
        let got = runs[0].counter(name);
        if got == pinned {
            println!("OK: {name} = {got}");
        } else {
            eprintln!("FAIL: {name} = {got}, pinned at {pinned}");
            ok = false;
        }
    }

    // Gate 3: the parallel-slowdown regression — tpgreed must not be
    // slower than sequential. The 15% margin absorbs timing noise. With
    // one hardware thread, `--threads 0` runs the same sequential work
    // as `--threads 1`, so the comparison would pass without testing
    // anything: report it as skipped instead.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t1 = span_micros(&runs[0], tpi_core::phases::TPGREED);
    let t0 = span_micros(&runs[2], tpi_core::phases::TPGREED);
    if nproc == 1 {
        println!("skipped (nproc=1): tpgreed --threads 0 ≤ 1.15 × --threads 1");
    } else if (t0 as f64) <= (t1 as f64) * 1.15 {
        println!("OK: tpgreed --threads 0 ({t0} µs) ≤ 1.15 × --threads 1 ({t1} µs)");
    } else {
        eprintln!("FAIL: tpgreed --threads 0 ({t0} µs) > 1.15 × --threads 1 ({t1} µs)");
        ok = false;
    }

    if !ok {
        exit(1);
    }
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
    let mut det_out: Option<String> = None;
    let mut large = false;
    let mut gen_scale = false;
    let mut gain_model: Option<GainModel> = None;
    let mut cur = ArgCursor::new(cli.args.clone());
    while let Some(a) = cur.next_arg() {
        match a.as_str() {
            "--det-out" => det_out = Some(cur.value("--det-out")),
            "--large" => large = true,
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
                    "unknown argument: {other} \
                     (expected --det-out/--threads/--large/--gain-model/--gen-scale)"
                );
                exit(2);
            }
        }
    }

    if gen_scale {
        gen_scale_mode();
        return;
    }

    if large {
        large_mode();
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
            let m = run_once(&circuit, flow, &n, cli.threads);
            out.push_str(&circuit);
            out.push(' ');
            out.push_str(flow);
            out.push(' ');
            out.push_str(&m.deterministic_json());
            out.push('\n');
        }
        if let Err(e) = std::fs::write(&path, out) {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        }
        println!("wrote deterministic metrics (--threads {}) to {path}", cli.threads);
        return;
    }

    println!("tpi-bench — smoke suite at --threads {THREAD_SETTINGS:?}");
    let mut all_identical = true;
    for (circuit, flow, n) in workloads() {
        let det = run_once(&circuit, flow, &n, THREAD_SETTINGS[0]).deterministic_json();
        let identical = THREAD_SETTINGS[1..]
            .iter()
            .all(|&t| run_once(&circuit, flow, &n, t).deterministic_json() == det);
        println!(
            "{circuit:<14} {flow:<10} | {}",
            if identical { "byte-identical" } else { "MISMATCH" }
        );
        if !identical {
            all_identical = false;
            eprintln!("{circuit} [{flow}]: deterministic sections DIFFER across thread counts");
        }
    }

    if !all_identical {
        eprintln!("FAIL: the deterministic metrics section must not depend on --threads");
        exit(1);
    }
    println!("OK: deterministic sections byte-identical at --threads 1/2/0");
}
