//! Output identity gate for the full-scan flow: for every suite and
//! smoke circuit, an FNV-1a 64 digest of what the flow produces is
//! pinned. The digest covers
//!
//! - the transformed netlist as BLIF text,
//! - the Table I row (its `cpu_seconds` as bits: the flow leaves it 0),
//! - every field of the claims: test points, primary-input values, the
//!   claimed paths with their gates and side inputs, physical test
//!   points, chain links, placements, the acyclicity claim and the
//!   reported counts, in order,
//! - the deterministic section of the run's metrics.
//!
//! A change to path enumeration or TPGREED's internals must leave every
//! digest as it is. The six circuits of the `paper_cold` benchmark
//! workload, the two smoke circuits and a 25k-gate industrial design
//! run in the default pass; the five large suite circuits and the
//! 100k-gate industrial preset (thousands of scan muxes, and hundreds
//! of SCOAP waves) are `#[ignore]`d and run in release mode:
//!
//! ```text
//! cargo test --release --test full_scan_identity -- --include-ignored
//! ```

use scanpath::netlist::{write_blif, Conn, GateId, Netlist};
use scanpath::scan::ChainLink;
use scanpath::sim::Trit;
use scanpath::tpi::flow::FullScanResult;
use scanpath::tpi::FullScanFlow;
use scanpath::workloads::industrial::{gen100k, generate_industrial, IndustrialSpec};
use scanpath::workloads::{generate, smoke_suite, suite};

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
    fn gates(&mut self, gs: &[GateId]) {
        self.u64(gs.len() as u64);
        for &g in gs {
            self.gate(g);
        }
    }
    fn conns(&mut self, cs: &[Conn]) {
        self.u64(cs.len() as u64);
        for c in cs {
            self.gate(c.source);
            self.gate(c.sink);
            self.u64(u64::from(c.pin));
        }
    }
    fn trit(&mut self, t: Trit) {
        self.bytes(&[match t {
            Trit::Zero => 0,
            Trit::One => 1,
            Trit::X => 2,
        }]);
    }
    fn constants(&mut self, list: &[(GateId, Trit)]) {
        self.u64(list.len() as u64);
        for &(g, v) in list {
            self.gate(g);
            self.trit(v);
        }
    }
}

fn digest(r: &FullScanResult) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.bytes(write_blif(&r.netlist).as_bytes());
    let row = &r.row;
    h.bytes(row.circuit.as_bytes());
    for v in [row.ff_count, row.insertions, row.free, row.scan_paths] {
        h.u64(v as u64);
    }
    h.u64(row.cpu_seconds.to_bits());
    let c = &r.claims;
    h.constants(&c.test_points);
    h.constants(&c.pi_values);
    h.u64(c.paths.len() as u64);
    for p in &c.paths {
        h.gate(p.from);
        h.gate(p.to);
        h.gates(&p.gates);
        h.conns(&p.side_inputs);
        h.bytes(&[u8::from(p.inverting)]);
    }
    h.constants(&c.physical);
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
        h.gates(&p.inserted);
    }
    h.bytes(&[u8::from(c.claims_acyclic)]);
    match &c.reported {
        None => h.bytes(&[0]),
        Some(rc) => {
            h.bytes(&[1]);
            for v in [rc.ff_count, rc.insertions, rc.free, rc.scan_paths] {
                h.u64(v as u64);
            }
        }
    }
    h.bytes(r.metrics.deterministic_json().as_bytes());
    h.0
}

/// Pinned digest per circuit.
const PINNED: &[(&str, u64)] = &[
    ("smoke_mixed", 0xbf36_730f_d3d4_ad53),
    ("smoke_dp", 0x8136_bccb_3509_4d88),
    ("dsip", 0x9c93_4095_dd66_b331),
    ("s5378", 0x2622_09a8_ec75_7b71),
    ("s9234", 0x0d57_8646_8bda_f3f0),
    ("bigkey", 0x88ec_2fda_2d56_3114),
    ("mult32b", 0x87c1_a9da_edb9_9ba4),
    ("mult32a", 0x3bee_46e8_6d5e_03c9),
    ("s13207", 0xa43a_2251_2b97_0543),
    ("s15850", 0x434d_3ca2_ecd8_013f),
    ("s35932", 0xb48c_45a2_4497_d30a),
    ("s38417", 0x4229_fb8e_68be_289f),
    ("s38584", 0x5329_16de_2012_29b4),
    ("ind25k", 0xf3a5_6ffb_c6e5_65fb),
    ("ind100k", 0xf165_2f21_5873_435d),
];

fn assert_identical(name: &str) {
    let spec = suite()
        .into_iter()
        .chain(smoke_suite())
        .find(|s| s.name == name)
        .expect("suite or smoke circuit");
    assert_flow_identical(&generate(&spec));
}

fn assert_flow_identical(n: &Netlist) {
    let got = digest(&FullScanFlow::default().run(n));
    let pinned = PINNED.iter().find(|(c, _)| *c == n.name()).map(|p| p.1);
    assert_eq!(Some(got), pinned, "{}: digest {got:#018x}", n.name());
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

#[test]
fn ind25k() {
    assert_flow_identical(&generate_industrial(&IndustrialSpec::sized("ind25k", 25_000, 7)));
}

#[test]
#[ignore = "large circuit; run in release mode"]
fn ind100k() {
    assert_flow_identical(&generate_industrial(&gen100k()));
}
