//! Output identity gate for `tpi-lint --analysis`: for every suite and
//! smoke circuit and a 25k-gate industrial design, an FNV-1a 64 digest
//! of what the analysis prints is pinned. The digest covers
//!
//! - the `tpi-dfa/v1` JSON line of [`analysis_report`] (the summary
//!   metrics and the worst-burden table with its `cc0`/`cc1`/`co`),
//! - the diagnostics JSON of [`analyze`] (the TPI200-series findings).
//!
//! Both read every SCOAP vector and the dominator tree, so a change to
//! how the analyses compute their fixpoints must leave every digest as
//! it is.

use scanpath::lint::{analysis_report, analyze, render_json, AnalysisConfig};
use scanpath::netlist::Netlist;
use scanpath::workloads::industrial::{generate_industrial, IndustrialSpec};
use scanpath::workloads::{generate, smoke_suite, suite};

fn fnv(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

fn digest(n: &Netlist) -> u64 {
    let cfg = AnalysisConfig::default();
    let report = analysis_report(n, &cfg).expect("generated circuits are acyclic");
    let mut text = report.render_json(n.name());
    text.push('\n');
    text.push_str(&render_json(n.name(), &analyze(n, &cfg)));
    fnv(text.as_bytes())
}

/// Pinned digest per circuit.
const PINNED: &[(&str, u64)] = &[
    ("ind25k", 0xdd4e_f274_ecc9_6189),
    ("s5378", 0xb266_3980_4467_dded),
    ("s9234", 0xd6e6_f776_e040_c1e7),
    ("s13207", 0x0f81_9d8c_1ed8_cc60),
    ("s15850", 0x8e34_4e4a_b5a5_9fd5),
    ("s35932", 0x85de_2216_b776_2169),
    ("s38417", 0xce21_c63c_658e_387c),
    ("s38584", 0xd435_6927_e3b8_d7c5),
    ("bigkey", 0xa8ca_bbfa_250f_bfee),
    ("dsip", 0x1c79_7287_0485_a1e5),
    ("mult32a", 0xf1a6_8100_ca81_a60d),
    ("mult32b", 0xced7_da14_d18f_fb35),
    ("smoke_mixed", 0x68a0_289f_c69e_c209),
    ("smoke_dp", 0x6b1e_8e24_37dd_b727),
];

/// `None` when `n`'s digest is the pinned one, else what differs.
fn mismatch(n: &Netlist) -> Option<String> {
    let got = digest(n);
    let pinned = PINNED.iter().find(|(c, _)| *c == n.name()).map(|p| p.1);
    (Some(got) != pinned).then(|| format!("{}: digest {got:#018x}, pinned {pinned:#x?}", n.name()))
}

#[test]
fn suite_and_smoke_circuits() {
    let bad: Vec<String> =
        suite().into_iter().chain(smoke_suite()).filter_map(|s| mismatch(&generate(&s))).collect();
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

#[test]
fn ind25k() {
    let n = generate_industrial(&IndustrialSpec::sized("ind25k", 25_000, 7));
    assert_eq!(mismatch(&n), None);
}
