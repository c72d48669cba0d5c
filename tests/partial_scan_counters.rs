//! Work-counter pins for the partial-scan selection loop: for every
//! suite and smoke circuit, TD-CB and TPTIME must take the pinned number
//! of cycle-breaking `rounds`, inspect the pinned number of candidates
//! (`candidates_evaluated`) and scan the pinned number of flip-flops
//! (`selected_ffs`). `tests/partial_scan_identity.rs` pins what the
//! flows produce; this pins how much selection work they do to get
//! there, so a change to the s-graph or the cycle breaker cannot trade
//! one round for another unseen.
//!
//! The six circuits of the `paper_cold` benchmark workload and the two
//! smoke circuits run in the default pass; the five large ones are
//! `#[ignore]`d and run in release mode:
//!
//! ```text
//! cargo test --release --test partial_scan_counters -- --include-ignored
//! ```

use scanpath::tpi::{PartialScanFlow, PartialScanMethod};
use scanpath::workloads::{generate, smoke_suite, suite};

/// `(rounds, candidates_evaluated, selected_ffs)` of one run.
type Counters = (u64, u64, usize);

/// Counters per circuit, TD-CB then TPTIME.
const PINNED: &[(&str, [Counters; 2])] = &[
    ("smoke_mixed", [(10, 11, 7), (7, 7, 7)]),
    ("smoke_dp", [(7, 7, 4), (4, 4, 4)]),
    ("dsip", [(56, 56, 56), (56, 56, 56)]),
    ("s5378", [(38, 41, 35), (35, 35, 35)]),
    ("s9234", [(40, 43, 37), (37, 37, 37)]),
    ("bigkey", [(25, 27, 21), (21, 21, 21)]),
    ("mult32b", [(29, 28, 26), (26, 26, 26)]),
    ("mult32a", [(11, 10, 8), (8, 8, 8)]),
    ("s13207", [(96, 96, 93), (93, 93, 93)]),
    ("s15850", [(150, 154, 150), (152, 152, 152)]),
    ("s35932", [(292, 292, 289), (289, 289, 289)]),
    ("s38417", [(404, 406, 400), (400, 400, 400)]),
    ("s38584", [(174, 174, 171), (171, 171, 171)]),
];

fn assert_counters(name: &str) {
    let spec = suite()
        .into_iter()
        .chain(smoke_suite())
        .find(|s| s.name == name)
        .expect("suite or smoke circuit");
    let pinned = PINNED.iter().find(|(c, _)| *c == name).expect("pinned circuit").1;
    let n = generate(&spec);
    let got = [PartialScanMethod::TdCb, PartialScanMethod::TpTime].map(|m| {
        let r = PartialScanFlow::new(m).run(&n);
        (r.metrics.counter("rounds"), r.metrics.counter("candidates_evaluated"), r.row.selected_ffs)
    });
    assert_eq!(got, pinned, "{name}: (rounds, candidates, selected) for TD-CB, TPTIME");
}

#[test]
fn smoke_mixed() {
    assert_counters("smoke_mixed");
}

#[test]
fn smoke_dp() {
    assert_counters("smoke_dp");
}

#[test]
fn dsip() {
    assert_counters("dsip");
}

#[test]
fn s5378() {
    assert_counters("s5378");
}

#[test]
fn s9234() {
    assert_counters("s9234");
}

#[test]
fn bigkey() {
    assert_counters("bigkey");
}

#[test]
fn mult32b() {
    assert_counters("mult32b");
}

#[test]
fn mult32a() {
    assert_counters("mult32a");
}

#[test]
#[ignore = "large circuit; run in release with --include-ignored"]
fn s13207() {
    assert_counters("s13207");
}

#[test]
#[ignore = "large circuit; run in release with --include-ignored"]
fn s15850() {
    assert_counters("s15850");
}

#[test]
#[ignore = "large circuit; run in release with --include-ignored"]
fn s35932() {
    assert_counters("s35932");
}

#[test]
#[ignore = "large circuit; run in release with --include-ignored"]
fn s38417() {
    assert_counters("s38417");
}

#[test]
#[ignore = "large circuit; run in release with --include-ignored"]
fn s38584() {
    assert_counters("s38584");
}
