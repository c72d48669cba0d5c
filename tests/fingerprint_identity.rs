//! Fingerprint identity gate: the structural fingerprint that every
//! cache key starts from is pinned, over the wire form the service
//! keys (the circuit written as BLIF and parsed back), for every suite
//! and smoke circuit and a 25k-gate industrial design. The 100k-gate
//! preset is `#[ignore]`d; run it in release mode:
//!
//! ```text
//! cargo test --release --test fingerprint_identity -- --include-ignored
//! ```
//!
//! A change to the netlist's storage, the parser or the fingerprint's
//! hashing must leave every value as it is: a moved fingerprint sends
//! every on-disk cache cold.

use scanpath::netlist::{parse_blif, write_blif, Netlist};
use scanpath::serve::netlist_fingerprint;
use scanpath::workloads::industrial::{gen100k, generate_industrial, IndustrialSpec};
use scanpath::workloads::{generate, smoke_suite, suite};

/// Pinned fingerprint per circuit.
const PINNED: &[(&str, u64)] = &[
    ("s5378", 0x0a2c_40f5_ffd0_54b0),
    ("s9234", 0x183a_2184_57bd_8f31),
    ("s13207", 0x281f_85b4_a68c_33a8),
    ("s15850", 0x3210_6b2a_a95f_2410),
    ("s35932", 0xd030_a408_43ad_2d4f),
    ("s38417", 0xb292_b026_0ea9_ee18),
    ("s38584", 0x5e91_0433_c93c_bedf),
    ("bigkey", 0xea8f_9790_b0b9_53c7),
    ("dsip", 0x989b_35b0_f706_a47d),
    ("mult32a", 0x9b80_865d_797d_2fd3),
    ("mult32b", 0xc164_b75c_4e20_5a70),
    ("smoke_mixed", 0x631a_0339_3573_34c9),
    ("smoke_dp", 0xd52c_2a4f_c2a4_2884),
    ("ind25k", 0xbc4c_e80b_08f6_92a3),
    ("ind100k", 0xfe4f_0210_6d29_af6b),
];

/// The fingerprint of `n` as the service computes it from BLIF text.
fn wire_fingerprint(n: &Netlist) -> u64 {
    netlist_fingerprint(&parse_blif(&write_blif(n)).expect("own BLIF output parses"))
}

fn assert_pinned(n: &Netlist) -> Result<(), String> {
    let got = wire_fingerprint(n);
    let pinned = PINNED.iter().find(|(c, _)| *c == n.name()).map(|p| p.1);
    if Some(got) == pinned {
        Ok(())
    } else {
        Err(format!("(\"{}\", {got:#018x})", n.name()))
    }
}

#[test]
fn suite_and_smoke_circuits() {
    let moved: Vec<String> = suite()
        .iter()
        .chain(&smoke_suite())
        .filter_map(|spec| assert_pinned(&generate(spec)).err())
        .collect();
    assert!(moved.is_empty(), "fingerprints moved:\n{}", moved.join(",\n"));
}

#[test]
fn ind25k() {
    let n = generate_industrial(&IndustrialSpec::sized("ind25k", 25_000, 7));
    assert_pinned(&n).unwrap_or_else(|got| panic!("fingerprint moved: {got}"));
}

#[test]
#[ignore = "large circuit; run in release mode"]
fn ind100k() {
    let n = generate_industrial(&gen100k());
    assert_pinned(&n).unwrap_or_else(|got| panic!("fingerprint moved: {got}"));
}
