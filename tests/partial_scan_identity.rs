//! Output identity gate for the partial-scan flows: for every suite and
//! smoke circuit and each of CB, TD-CB and TPTIME, an FNV-1a 64 digest
//! of what the flow produces is pinned. The digest covers
//!
//! - the transformed netlist as BLIF text,
//! - the Table III row's `selected_ffs`, and the bits of its `area` and
//!   `delay`,
//! - the claims' chain links, region placements, physical test points
//!   and primary-input values, in order.
//!
//! A change to the planner's internals must leave every digest as it is.
//! The six circuits of the `paper_cold` benchmark workload and the two
//! smoke circuits run in the default pass; the five large ones are
//! `#[ignore]`d and run in release mode:
//!
//! ```text
//! cargo test --release --test partial_scan_identity -- --include-ignored
//! ```

use scanpath::netlist::{write_blif, GateId};
use scanpath::scan::ChainLink;
use scanpath::sim::Trit;
use scanpath::tpi::flow::PartialScanResult;
use scanpath::tpi::{PartialScanFlow, PartialScanMethod};
use scanpath::workloads::{generate, smoke_suite, suite};

const METHODS: [PartialScanMethod; 3] =
    [PartialScanMethod::Cb, PartialScanMethod::TdCb, PartialScanMethod::TpTime];

/// FNV-1a, 64 bits.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn gate(&mut self, g: GateId) {
        self.u64(g.index() as u64);
    }
    fn trit(&mut self, t: Trit) {
        self.bytes(&[match t {
            Trit::Zero => 0,
            Trit::One => 1,
            Trit::X => 2,
        }]);
    }
}

fn digest(r: &PartialScanResult) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.bytes(write_blif(&r.netlist).as_bytes());
    h.u64(r.row.selected_ffs as u64);
    h.u64(r.row.area.to_bits());
    h.u64(r.row.delay.to_bits());
    let c = &r.claims;
    h.u64(c.links.len() as u64);
    for link in &c.links {
        let (tag, a, ff, inverting) = match *link {
            ChainLink::Mux { mux, ff, inverting } => (0, mux, ff, inverting),
            ChainLink::Path { from, ff, inverting } => (1, from, ff, inverting),
        };
        h.bytes(&[tag, u8::from(inverting)]);
        h.gate(a);
        h.gate(ff);
    }
    h.u64(c.placements.len() as u64);
    for p in &c.placements {
        h.gate(p.ff);
        h.u64(p.inserted.len() as u64);
        for &g in &p.inserted {
            h.gate(g);
        }
    }
    for list in [&c.physical, &c.pi_values] {
        h.u64(list.len() as u64);
        for &(g, v) in list {
            h.gate(g);
            h.trit(v);
        }
    }
    h.0
}

/// Pinned digests per circuit, in `METHODS` order.
const PINNED: &[(&str, [u64; 3])] = &[
    ("smoke_mixed", [0x4480_0dbe_9ba4_2c1a, 0x913d_c03a_bea7_aff6, 0x0f67_8df8_541a_824d]),
    ("smoke_dp", [0x7b00_f287_ef23_5b32, 0x9ccb_bafe_43fa_661f, 0x4336_0d07_e313_6ca1]),
    ("dsip", [0x1721_f1e1_0da7_db96, 0x0424_f3ed_990f_7968, 0x0103_182d_cb48_f3ef]),
    ("s5378", [0x386a_ecee_fca1_f21b, 0xba40_fa8e_078b_e5a0, 0x587d_3c40_bf08_6560]),
    ("s9234", [0xf3b3_4a1b_5813_4592, 0xbe0a_0f0e_5851_a49b, 0xaed1_34aa_5213_a1f1]),
    ("bigkey", [0x9418_0911_aa1d_98bd, 0x49cb_0d0e_7517_01e5, 0x37e5_af85_517f_47ae]),
    ("mult32b", [0xfd2c_f099_698a_0ca2, 0x4554_1b51_e9ec_cca5, 0x2e02_3c5b_2cc2_7b0c]),
    ("mult32a", [0xa7c5_f9f5_5842_4dcf, 0xa329_c387_ca80_09ca, 0x9145_47ce_5a7a_9973]),
    ("s13207", [0xb721_19fd_75a8_c6a5, 0xfbc8_1f61_98bd_3eb5, 0x0ab5_bad0_c1a9_6e70]),
    ("s15850", [0x9800_4e69_11f4_5e28, 0xa131_37f0_87a5_1cde, 0xc19f_1640_aa07_1cc4]),
    ("s35932", [0xa687_29ae_b22d_b2f8, 0x88e1_7ccb_184f_cdd3, 0x16e9_a47f_1d05_2414]),
    ("s38417", [0xe387_910d_3d91_b7de, 0x2a50_fa37_7cda_8e55, 0x1523_cbd8_045b_859a]),
    ("s38584", [0x037c_15a1_702b_66ac, 0x3f43_379a_6c79_3ab4, 0x9f85_9bf3_d91a_d67e]),
];

fn assert_identical(name: &str) {
    let spec = suite()
        .into_iter()
        .chain(smoke_suite())
        .find(|s| s.name == name)
        .expect("suite or smoke circuit");
    let pinned = PINNED.iter().find(|(c, _)| *c == name).expect("pinned circuit").1;
    let n = generate(&spec);
    let got = METHODS.map(|m| digest(&PartialScanFlow::new(m).run(&n)));
    let hex = got.map(|d| format!("{d:#018x}")).join(", ");
    assert_eq!(got, pinned, "{name}: digests (CB, TD-CB, TPTIME) [{hex}]");
}

#[test]
fn smoke_mixed() {
    assert_identical("smoke_mixed");
}

#[test]
fn smoke_dp() {
    assert_identical("smoke_dp");
}

#[test]
fn dsip() {
    assert_identical("dsip");
}

#[test]
fn s5378() {
    assert_identical("s5378");
}

#[test]
fn s9234() {
    assert_identical("s9234");
}

#[test]
fn bigkey() {
    assert_identical("bigkey");
}

#[test]
fn mult32b() {
    assert_identical("mult32b");
}

#[test]
fn mult32a() {
    assert_identical("mult32a");
}

#[test]
#[ignore = "large circuit; run in release mode"]
fn s13207() {
    assert_identical("s13207");
}

#[test]
#[ignore = "large circuit; run in release mode"]
fn s15850() {
    assert_identical("s15850");
}

#[test]
#[ignore = "large circuit; run in release mode"]
fn s35932() {
    assert_identical("s35932");
}

#[test]
#[ignore = "large circuit; run in release mode"]
fn s38417() {
    assert_identical("s38417");
}

#[test]
#[ignore = "large circuit; run in release mode"]
fn s38584() {
    assert_identical("s38584");
}
