//! Criterion benchmark behind Table I: full TPGREED runs on the small
//! and mid-size suite circuits (run the `table1` binary for the full
//! suite including the large circuits), plus the 100k-gate industrial
//! design, which enumerates no path: its run is set-up plus one round
//! that ends before it previews.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tpi_core::tpgreed::{TpGreed, TpGreedConfig};
use tpi_workloads::industrial::{gen100k, generate_industrial};
use tpi_workloads::{generate, suite};

fn bench_tpgreed(c: &mut Criterion) {
    let mut group = c.benchmark_group("tpgreed");
    group.sample_size(10);
    let mut circuits = Vec::new();
    for spec in suite() {
        if matches!(
            spec.name.as_str(),
            "s5378" | "s9234" | "bigkey" | "mult32a" | "mult32b" | "dsip"
        ) {
            circuits.push((spec.name.clone(), generate(&spec)));
        }
    }
    let industrial = gen100k();
    circuits.push((industrial.name.clone(), generate_industrial(&industrial)));
    for (name, n) in &circuits {
        group.bench_with_input(BenchmarkId::from_parameter(name), n, |b, n| {
            b.iter(|| TpGreed::new(n, TpGreedConfig::default()).run());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tpgreed);
criterion_main!(benches);
