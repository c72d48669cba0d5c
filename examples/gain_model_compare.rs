//! `GainModel::PathCount` vs `GainModel::Scoap`, head to head.
//!
//! Both models drive the same TPGREED loop; they differ only in how a
//! newly-sensitized (source, destination) pair is scored. `PathCount`
//! is the paper's objective — every pair counts 1/w — while `Scoap`
//! weights each destination by its SCOAP testability burden
//! (`cc0 + cc1 + co` from `tpi-dfa`), steering test points toward
//! hard-to-test logic. This example measures what that buys: test
//! points placed, scan paths found, and stuck-at coverage (random +
//! PODEM over the produced full-scan netlist) for each model.
//!
//! The smoke circuits run in a few seconds with the full PODEM budget.
//! `--large` adds the ~52k-gate `gen50k` circuit; its fault list is
//! stride-sampled down to ~600 faults and PODEM gets a 64-backtrack
//! budget (per-fault cost scales with gate count × backtracks) so the
//! sweep finishes in minutes. Both models see identical budgets, the
//! sampling is noted in the output, and aborted faults count as
//! undetected — large-circuit coverage is a sampled lower bound.
//!
//! Run with: `cargo run --release --example gain_model_compare [--large]`

use scanpath::atpg::{fault_list, generate_tests_with, CombView, PodemConfig};
use scanpath::netlist::Netlist;
use scanpath::tpi::{FullScanFlow, GainModel, TpGreedConfig};
use scanpath::workloads::{generate, large_suite, smoke_suite};

struct Row {
    insertions: usize,
    free: usize,
    scan_paths: usize,
    coverage: f64,
    faults_used: usize,
    faults_total: usize,
}

fn measure(n: &Netlist, model: GainModel, fault_cap: usize, podem: PodemConfig) -> Row {
    let flow =
        FullScanFlow { config: TpGreedConfig { gain_model: model, ..TpGreedConfig::default() } };
    let t = std::time::Instant::now();
    let r = flow.run(n);
    assert!(r.flush.passed(), "flush must pass under either gain model");
    eprintln!("  [{} {}] flow: {:.1}s", n.name(), model.label(), t.elapsed().as_secs_f64());
    let faults = fault_list(&r.netlist);
    let total = faults.len();
    let sampled: Vec<_> = if total > fault_cap {
        let stride = total.div_ceil(fault_cap);
        faults.into_iter().step_by(stride).collect()
    } else {
        faults
    };
    let t = std::time::Instant::now();
    let view = CombView::full_scan(&r.netlist);
    let ts = generate_tests_with(&r.netlist, &view, &sampled, 32, 1, podem);
    eprintln!("  [{} {}] atpg: {:.1}s", n.name(), model.label(), t.elapsed().as_secs_f64());
    Row {
        insertions: r.row.insertions,
        free: r.row.free,
        scan_paths: r.row.scan_paths,
        coverage: ts.report.coverage(),
        faults_used: sampled.len(),
        faults_total: total,
    }
}

fn main() {
    let large = std::env::args().any(|a| a == "--large");
    let mut specs = smoke_suite();
    if large {
        specs.extend(large_suite());
    }
    println!("| circuit | model | test points (free) | scan paths | stuck-at coverage |");
    println!("|---|---|---|---|---|");
    for spec in &specs {
        let n = generate(spec);
        // Large circuits get a sampled fault list and a tight PODEM
        // budget: per-fault cost scales with gate count × backtracks.
        // Both models see the same budget, so the comparison is fair;
        // aborted faults count as undetected (coverage = lower bound).
        let big = n.gate_count() > 10_000;
        let fault_cap = if big { 600 } else { usize::MAX };
        let podem = PodemConfig { max_backtracks: if big { 64 } else { 2000 } };
        for model in [GainModel::PathCount, GainModel::Scoap] {
            let row = measure(&n, model, fault_cap, podem);
            let sampled = if row.faults_used < row.faults_total {
                format!(" ({}/{} faults sampled)", row.faults_used, row.faults_total)
            } else {
                String::new()
            };
            println!(
                "| {} | {} | {} ({}) | {} | {:.1}%{} |",
                spec.name,
                model.label(),
                row.insertions,
                row.free,
                row.scan_paths,
                row.coverage * 100.0,
                sampled,
            );
        }
    }
}
