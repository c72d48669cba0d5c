//! `parse_blif` on industrial designs of the size a warm service
//! request parses: 25k and 100k gates, written by `write_blif`. Each
//! iteration parses and drops one netlist; the text is made once,
//! outside the measurement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tpi_netlist::{parse_blif, write_blif};
use tpi_workloads::industrial::{generate_industrial, IndustrialSpec};

fn bench_blif_parse(c: &mut Criterion) {
    let mut group = c.benchmark_group("blif_parse");
    group.sample_size(9);
    for gates in [25_000, 100_000] {
        let n = generate_industrial(&IndustrialSpec::sized("ind", gates, 7));
        let text = write_blif(&n);
        group.bench_with_input(BenchmarkId::from_parameter(gates), &text, |b, text| {
            b.iter(|| parse_blif(text).expect("generated BLIF parses"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_blif_parse);
criterion_main!(benches);
