//! Parallel scaling of TPGREED's candidate-gain sweeps: the same run at
//! 1, 2 and 4 worker threads (plus `auto`), on the suite circuits where
//! the sweep dominates. Selections are identical at every thread count —
//! see `parallel_selections_match_sequential` in `tpi-core` — so this
//! measures pure wall-clock scaling. On a single-core host the parallel
//! configurations measure the fan-out overhead instead of a speedup;
//! `EXPERIMENTS.md` records both situations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tpi_core::tpgreed::{GainUpdate, TpGreed, TpGreedConfig};
use tpi_workloads::{generate, suite};

fn bench_tpgreed_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("tpgreed_parallel");
    group.sample_size(10);
    for spec in suite() {
        if !matches!(spec.name.as_str(), "s5378" | "s9234" | "mult32a") {
            continue;
        }
        let n = generate(&spec);
        for threads in [1usize, 2, 4, 0] {
            let label = if threads == 0 { "auto".to_string() } else { threads.to_string() };
            let cfg = TpGreedConfig { gain_update: GainUpdate::Full, ..TpGreedConfig::default() };
            group.bench_with_input(BenchmarkId::new(&spec.name, &label), &n, |b, n| {
                b.iter(|| TpGreed::new(n, cfg.clone()).with_threads(threads).run())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_tpgreed_parallel);
criterion_main!(benches);
