//! Suite-level determinism guarantee for the `threads` knob: TPGREED's
//! parallel candidate-gain sweep must select byte-identical test-point
//! and scan-path sequences on every benchmark circuit.
//!
//! The small circuits run in the default (debug) test pass; the whole
//! suite — including the s38417-class circuits — is behind `#[ignore]`
//! and is exercised in release mode:
//!
//! ```text
//! cargo test --release --test parallel_suite -- --include-ignored
//! ```

use scanpath::tpi::tpgreed::{GainUpdate, TpGreed, TpGreedConfig};
use scanpath::workloads::{generate, suite};

fn assert_threads_invariant(name: &str, update: GainUpdate) {
    let spec = suite().into_iter().find(|s| s.name == name).expect("suite circuit");
    let n = generate(&spec);
    let cfg = TpGreedConfig { gain_update: update, ..TpGreedConfig::default() };
    let seq = TpGreed::new(&n, cfg.clone()).run();
    for threads in [2usize, 4, 0] {
        let par = TpGreed::new(&n, cfg.clone()).with_threads(threads).run();
        assert_eq!(
            par.test_points, seq.test_points,
            "{name} {update:?}: test points diverged at threads={threads}"
        );
        assert_eq!(
            par.scan_paths, seq.scan_paths,
            "{name} {update:?}: scan paths diverged at threads={threads}"
        );
        assert_eq!(par.iterations, seq.iterations, "{name} {update:?} threads={threads}");
    }
}

#[test]
fn small_suite_parallel_matches_sequential() {
    for name in ["s5378", "s9234", "bigkey", "dsip", "mult32a", "mult32b"] {
        assert_threads_invariant(name, GainUpdate::Incremental);
    }
}

/// The whole suite under the default (incremental) strategy, plus the
/// O(candidates · iterations) full-recompute strategy on the circuits
/// where it finishes in reasonable time. Expensive; run in release mode
/// with `--include-ignored` (see the module docs).
#[test]
#[ignore = "whole-suite sweep; run in release mode"]
fn full_suite_parallel_matches_sequential() {
    for spec in suite() {
        assert_threads_invariant(&spec.name, GainUpdate::Incremental);
    }
    for name in ["s5378", "s9234", "bigkey", "dsip", "mult32a", "mult32b"] {
        assert_threads_invariant(name, GainUpdate::Full);
    }
}
