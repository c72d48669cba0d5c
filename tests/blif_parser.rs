//! The BLIF parser against its reference: for every input, the whole
//! `Result` of `parse_blif` must equal the reference parser's — the
//! same `Netlist` on success; the same error variant, line and text on
//! failure. The reference (`blif_oracle`) is the parser as it stood
//! before it learned to borrow its input.

mod blif_oracle;

use proptest::prelude::*;
use rand::{Rng, SeedableRng, StdRng};
use scanpath::netlist::{parse_blif, write_blif, Netlist, ParseBlifError};
use scanpath::tpi::flow::{FullScanFlow, PartialScanFlow, PartialScanMethod};
use scanpath::workloads::industrial::{generate_industrial, IndustrialSpec};
use scanpath::workloads::iscas::s27;
use scanpath::workloads::{generate, smoke_suite, suite};

/// Parses `text` with both parsers, asserts they agree, and returns
/// the shared result.
fn agree(label: &str, text: &str) -> Result<Netlist, ParseBlifError> {
    let got = parse_blif(text);
    let want = blif_oracle::parse_blif(text);
    assert!(got == want, "{label}: parse_blif disagrees with the reference\n{text}");
    got
}

#[test]
fn every_suite_and_smoke_circuit_parses_identically() {
    for spec in suite().iter().chain(&smoke_suite()) {
        let n = generate(spec);
        agree(&spec.name, &write_blif(&n)).expect("generated BLIF parses");
    }
}

#[test]
fn flow_outputs_parse_identically() {
    // Scan-inserted netlists carry the covers plain generated circuits
    // lack: the test input `T`, scan MUXes, XOR and NAND test logic.
    let mut designs = vec![s27()];
    designs.extend(smoke_suite().iter().map(generate));
    for n in &designs {
        let full = FullScanFlow::default().run(n);
        agree(&format!("{} full scan", n.name()), &write_blif(&full.netlist)).unwrap();
        for m in [PartialScanMethod::Cb, PartialScanMethod::TdCb, PartialScanMethod::TpTime] {
            let partial = PartialScanFlow::new(m).run(n);
            agree(&format!("{} {m:?}", n.name()), &write_blif(&partial.netlist)).unwrap();
        }
    }
}

#[test]
fn industrial_25k_design_parses_identically() {
    let n = generate_industrial(&IndustrialSpec::sized("ind25k", 25_000, 0xDAC96));
    let back = agree("ind25k", &write_blif(&n)).unwrap();
    assert!(back.gate_count() >= 25_000);
}

/// The design size the warm service benchmark parses; release only.
#[test]
#[ignore = "100k gates: run in release (`--include-ignored`)"]
fn industrial_100k_design_parses_identically() {
    let n = generate_industrial(&IndustrialSpec::sized("ind100k", 100_000, 0xDAC96));
    agree("ind100k", &write_blif(&n)).unwrap();
}

/// One hand-written input per corner of the format: `(label, text)`.
const HAND_CASES: &[(&str, &str)] = &[
    (
        "continuation inside a .names header",
        ".model t\n.inputs a b\n.outputs y\n.names a \\\n  b y\n11 1\n.end\n",
    ),
    (
        "continuation dangling at end of text",
        ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.outputs b \\",
    ),
    (
        "error on a stitched line",
        ".model t\n.inputs a\n.outputs q\n.latch \\\n\n  a # one argument\n",
    ),
    (
        "continuation of a comment-only line",
        ".model t\n.inputs a \\ # more\nb\n.outputs y\n.names a b y\n11 1\n",
    ),
    (
        "comments",
        "# header\n.model t # name\n.inputs a b\n# between\n.outputs y\n.names a b y # cover\n11 1 # row\n.end\n",
    ),
    (
        "CRLF line endings",
        ".model t\r\n.inputs a b\r\n.outputs y\r\n.names a b y\r\n10 1\r\n01 1\r\n.end\r\n",
    ),
    (
        "off-set covers",
        ".model t\n.inputs a b c\n.outputs y z\n.names a b y\n11 0\n.names a b c z\n1-0 0\n-11 0\n",
    ),
    (
        "non-canonical on-set covers sharing inverters",
        ".model t\n.inputs a b c\n.outputs y z\n.names a b c y\n1-0 1\n-11 1\n.names a c z\n00 1\n",
    ),
    ("mixed cover", ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n"),
    (
        "zero-input covers",
        ".model t\n.inputs a\n.outputs one zero\n.names one\n1\n.names zero\n.names zero2\n0\n",
    ),
    ("all-dash single cube", ".model t\n.inputs a b\n.outputs y\n.names a b y\n-- 1\n"),
    (
        "all-dash cube among others",
        ".model t\n.inputs a b\n.outputs y\n.names a b y\n1- 1\n-- 1\n01 1\n",
    ),
    ("literals split by spaces", ".model t\n.inputs a b c\n.outputs y\n.names a b c y\n1 0 1 1\n"),
    ("bad literal", ".model t\n.inputs a b\n.outputs y\n.names a b y\n1x 1\n"),
    ("bad output value", ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 2\n"),
    ("cube too wide", ".model t\n.inputs a b\n.outputs y\n.names a b y\n111 1\n"),
    ("row before any .names", ".model t\n.inputs a b\n.outputs y\n11 1\n"),
    ("row after .end", ".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n1 1\n"),
    ("empty .names", ".model t\n.inputs a\n.outputs y\n.names\n"),
    ("latch with one argument", ".model t\n.inputs a\n.outputs q\n.latch a\n"),
    (
        "latches declared after the covers that read them",
        ".model t\n.inputs a\n.outputs y\n.names q a y\n11 1\n.latch y q 2\n.names q r\n0 1\n.latch r q2 re clk 0\n",
    ),
    ("unknown directive", ".model t\n.inputs a\n.subckt foo a=a\n"),
    (
        "ignored extensions",
        ".model t\n.inputs a\n.outputs y\n.clock clk\n.names a y\n1 1\n.exdc\n.default_input_arrival 0 0\n",
    ),
    ("duplicate cover output", ".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n.names a y\n0 1\n"),
    ("duplicate input", ".model t\n.inputs a a\n.outputs a\n"),
    ("unknown fanin", ".model t\n.inputs a\n.outputs y\n.names a nope y\n11 1\n"),
    ("unknown output", ".model t\n.inputs a\n.outputs nope\n"),
    (
        "user signal named like a parser inverter",
        ".model t\n.inputs a a__not1\n.outputs y\n.names a a__not1 y\n01 1\n10 1\n11 1\n",
    ),
    (
        "output port named after an internal net",
        ".model t\n.inputs a\n.outputs y\n.names a y__po\n1 1\n.names y__po y\n0 1\n",
    ),
    ("model name set late", ".inputs a\n.outputs y\n.names a y\n1 1\n.model late\n"),
    ("no model", ".inputs a\n.outputs y\n.names a y\n0 1\n"),
    ("empty text", ""),
    ("combinational cycle", ".model t\n.inputs a\n.outputs y\n.names a z y\n11 1\n.names y z\n1 1\n"),
    (
        "latch output colliding with a cover output",
        ".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n.latch a y 2\n",
    ),
    // Whitespace outside ` `, `\t` and `\r`, where the byte scanner
    // hands the line to `split_whitespace`.
    (
        "no-break spaces as separators",
        ".model t\n.inputs a\u{a0}b\n.outputs y\n.names a\u{a0}b y\n11\u{a0}1\n",
    ),
    (
        "em spaces as separators",
        ".model t\n.inputs a b\n.outputs\u{2003}y\u{2003}\n.names a b\u{2003}y\n1-\u{2003}1\n",
    ),
    (
        "next-line characters as separators",
        ".model t\n.inputs a\u{85}b\n.outputs y\n.names a b y\u{85}\\\n\n11 1\u{85}\n",
    ),
    (
        "vertical tabs and form feeds as separators",
        ".model t\x0B\n.inputs\x0Ba\x0Cb\n.outputs y\n.names a b y\x0C# cover\n\x0C01 1\x0B\n",
    ),
    (
        "form feed in a continued line's last token",
        ".model t\n.inputs a b\n.outputs y\n.names a\x0C\\\nb y\n11 1\n",
    ),
    ("lone carriage return mid-line", ".model t\n.inputs a\rb\n.outputs y\n.names a b\ry\n1\r1 1\n"),
    ("UTF-8 signal names", ".model t\n.inputs \u{e9}t\u{e9} b\n.outputs \u{3bb}\n.names \u{e9}t\u{e9} b \u{3bb}\n10 1\n"),
    ("UTF-8 signal name in an error", ".model t\n.inputs \u{e9}\n.latch \u{e9}\u{a0}# x\n"),
];

#[test]
fn hand_cases_parse_identically() {
    let mut accepted = 0;
    for (label, text) in HAND_CASES {
        accepted += usize::from(agree(label, text).is_ok());
    }
    // Both outcomes are exercised, so equal `Err`s are not the only
    // thing the comparison ever sees.
    assert!(accepted >= 10 && accepted < HAND_CASES.len(), "{accepted} accepted");
}

/// The text the mutation property starts from: continuations,
/// comments, on- and off-set covers, a constant and a latch.
const MUTATION_BASE: &str = "\
.model mut
.inputs a b \\
 c d
.outputs y z q
# comment line
.names a b t1
11 1
.names t1 c d y # trailing comment
1-0 1
-11 1
.names a c z
00 0
.names one
1
.latch y q 2
.names q one w
10 1
01 1
.end
";

/// Whitespace the byte scanner leaves to `split_whitespace`, and a
/// letter outside ASCII.
const OTHER_CHARS: [char; 6] = ['\u{a0}', '\u{2003}', '\u{85}', '\x0B', '\x0C', '\u{e9}'];

/// One random edit: delete, duplicate or swap lines or tokens, or
/// insert a `\`, `#`, `\r` or one of [`OTHER_CHARS`] at a random
/// character boundary.
fn mutate(text: &str, rng: &mut StdRng) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let n = lines.len();
    match rng.gen_range(0..10u32) {
        0 if n > 0 => {
            lines.remove(rng.gen_range(0..n));
        }
        1 if n > 0 => {
            let i = rng.gen_range(0..n);
            lines.insert(i, lines[i].clone());
        }
        2 if n > 1 => lines.swap(rng.gen_range(0..n), rng.gen_range(0..n)),
        op @ 3..=5 if n > 0 => {
            let i = rng.gen_range(0..n);
            let mut toks: Vec<&str> = lines[i].split(' ').collect();
            let t = toks.len();
            match op {
                3 => {
                    toks.remove(rng.gen_range(0..t));
                }
                4 => {
                    let j = rng.gen_range(0..t);
                    toks.insert(j, toks[j]);
                }
                _ => toks.swap(rng.gen_range(0..t), rng.gen_range(0..t)),
            }
            lines[i] = toks.join(" ");
        }
        op => {
            let mut joined = lines.join("\n");
            let mut at = rng.gen_range(0..=joined.len());
            while !joined.is_char_boundary(at) {
                at -= 1;
            }
            let c = match op {
                9 => OTHER_CHARS[rng.gen_range(0..OTHER_CHARS.len())],
                _ => ['\\', '#', '\r'][op as usize % 3],
            };
            joined.insert(at, c);
            return joined;
        }
    }
    let mut joined = lines.join("\n");
    joined.push('\n');
    joined
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Up to four random edits of a small BLIF: whatever the parsers
    /// make of it, they make the same.
    #[test]
    fn mutated_blif_parses_identically(seed in any::<u64>(), edits in 1usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut text = MUTATION_BASE.to_string();
        for _ in 0..edits {
            text = mutate(&text, &mut rng);
        }
        prop_assert!(parse_blif(&text) == blif_oracle::parse_blif(&text), "disagree on\n{}", text);
    }
}
