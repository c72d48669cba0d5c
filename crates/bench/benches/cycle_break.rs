//! Cycle-breaking (Lee–Reddy CB and the timing-driven variant) on the
//! suite's s-graphs — the selection substrate of Table III. One
//! `CycleBreaker` serves every iteration, as it serves every round of
//! the partial-scan selection loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tpi_scan::{CycleBreakOptions, CycleBreaker, SGraph};
use tpi_workloads::{generate, suite};

fn bench_cycle_break(c: &mut Criterion) {
    let mut group = c.benchmark_group("cycle_break");
    for name in ["s5378", "s13207", "bigkey"] {
        let spec = suite().into_iter().find(|s| s.name == name).expect("suite circuit");
        let n = generate(&spec);
        let g = SGraph::build(&n).expect("suite circuits are combinationally acyclic");
        let mut breaker = CycleBreaker::new();
        group.bench_with_input(BenchmarkId::new("classic", name), &g, |b, g| {
            b.iter(|| breaker.run(g, &CycleBreakOptions::classic()));
        });
        group.bench_with_input(BenchmarkId::new("timing_driven", name), &g, |b, g| {
            b.iter(|| breaker.run(g, &CycleBreakOptions::timing_driven(|_| true)));
        });
        group.bench_with_input(BenchmarkId::new("sgraph_build", name), &n, |b, n| {
            b.iter(|| SGraph::build(n));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cycle_break);
criterion_main!(benches);
