//! ISCAS89 `.bench` format parser and writer.
//!
//! The format, as used by the ISCAS89 sequential benchmark suite:
//!
//! ```text
//! # comment
//! INPUT(G0)
//! OUTPUT(G17)
//! G5 = DFF(G10)
//! G11 = NAND(G0, G10)
//! G14 = NOT(G0)
//! ```
//!
//! Supported gate keywords: `AND`, `OR`, `NAND`, `NOR`, `NOT`/`INV`,
//! `BUF`/`BUFF`, `XOR`, `XNOR`, `DFF`, `MUX`. Names are case-preserving;
//! keywords are case-insensitive.

use crate::builder::NetlistBuilder;
use crate::error::NetlistError;
use crate::gate::GateKind;
use crate::netlist::Netlist;
use std::fmt;

/// Errors from [`parse_bench`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseBenchError {
    /// A line could not be parsed; carries the 1-based line number and the
    /// offending text.
    Syntax { line: usize, text: String },
    /// An unknown gate keyword; carries the line number and keyword.
    UnknownKeyword { line: usize, keyword: String },
    /// The parsed structure failed netlist validation.
    Netlist(NetlistError),
}

impl fmt::Display for ParseBenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseBenchError::Syntax { line, text } => {
                write!(f, "syntax error on line {line}: `{text}`")
            }
            ParseBenchError::UnknownKeyword { line, keyword } => {
                write!(f, "unknown gate keyword `{keyword}` on line {line}")
            }
            ParseBenchError::Netlist(e) => write!(f, "invalid netlist: {e}"),
        }
    }
}

impl std::error::Error for ParseBenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseBenchError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for ParseBenchError {
    fn from(e: NetlistError) -> Self {
        ParseBenchError::Netlist(e)
    }
}

fn keyword_to_kind(kw: &str) -> Option<GateKind> {
    match kw.to_ascii_uppercase().as_str() {
        "AND" => Some(GateKind::And),
        "OR" => Some(GateKind::Or),
        "NAND" => Some(GateKind::Nand),
        "NOR" => Some(GateKind::Nor),
        "NOT" | "INV" => Some(GateKind::Inv),
        "BUF" | "BUFF" => Some(GateKind::Buf),
        "XOR" => Some(GateKind::Xor),
        "XNOR" => Some(GateKind::Xnor),
        "DFF" => Some(GateKind::Dff),
        "MUX" => Some(GateKind::Mux),
        _ => None,
    }
}

/// Parses ISCAS89 `.bench` text into a validated [`Netlist`].
///
/// # Errors
/// Returns [`ParseBenchError`] on malformed lines, unknown keywords or
/// structural violations (dangling names, arity, combinational cycles).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), tpi_netlist::ParseBenchError> {
/// let src = "\
/// INPUT(a)
/// OUTPUT(q)
/// q = DFF(g)
/// g = NAND(a, q)
/// ";
/// let n = tpi_netlist::parse_bench("tiny", src)?;
/// assert_eq!(n.dffs().len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn parse_bench(name: &str, src: &str) -> Result<Netlist, ParseBenchError> {
    let mut b = NetlistBuilder::new(name);
    for (i, raw) in src.lines().enumerate() {
        let lineno = i + 1;
        let line = match raw.find('#') {
            Some(p) => &raw[..p],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        let syntax = || ParseBenchError::Syntax { line: lineno, text: raw.trim().to_string() };
        if let Some(rest) = strip_directive(line, "INPUT") {
            b.input(rest.ok_or_else(syntax)?);
            continue;
        }
        if let Some(rest) = strip_directive(line, "OUTPUT") {
            let net = rest.ok_or_else(syntax)?;
            b.output(&net, &net);
            continue;
        }
        // `name = KIND(args...)`
        let (lhs, rhs) = line.split_once('=').ok_or_else(syntax)?;
        let lhs = lhs.trim();
        let rhs = rhs.trim();
        let open = rhs.find('(').ok_or_else(syntax)?;
        if !rhs.ends_with(')') {
            return Err(syntax());
        }
        let kw = rhs[..open].trim();
        let kind = keyword_to_kind(kw).ok_or_else(|| ParseBenchError::UnknownKeyword {
            line: lineno,
            keyword: kw.to_string(),
        })?;
        let args: Vec<&str> = rhs[open + 1..rhs.len() - 1]
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        if args.is_empty() {
            return Err(syntax());
        }
        b.gate(kind, lhs, &args);
    }
    Ok(b.finish()?)
}

/// If `line` is `DIRECTIVE(arg)` (case-insensitive), returns `Some(arg)`;
/// `Some(None)` means the directive matched but the argument is malformed.
fn strip_directive(line: &str, directive: &str) -> Option<Option<String>> {
    let upper = line.to_ascii_uppercase();
    if !upper.starts_with(directive) {
        return None;
    }
    let rest = line[directive.len()..].trim();
    if !rest.starts_with('(') {
        // Not a directive after all (e.g. a gate named `INPUTX = ...`).
        return None;
    }
    if let Some(inner) = rest.strip_prefix('(').and_then(|r| r.strip_suffix(')')) {
        let inner = inner.trim();
        if inner.is_empty() || inner.contains(',') {
            Some(None)
        } else {
            Some(Some(inner.to_string()))
        }
    } else {
        Some(None)
    }
}

/// Writes a netlist in `.bench` syntax.
///
/// Constants and MUX/scan structures added by DFT transformations are
/// emitted with their extended keywords, so a round trip through
/// [`parse_bench`] reproduces the structure.
pub fn write_bench(n: &Netlist) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {}\n", n.name()));
    for g in n.inputs() {
        out.push_str(&format!("INPUT({})\n", n.gate_name(g)));
    }
    if let Some(t) = n.test_input() {
        out.push_str(&format!("INPUT({})\n", n.gate_name(t)));
    }
    for o in n.outputs() {
        let src = n.fanin(o)[0];
        out.push_str(&format!("OUTPUT({})\n", n.gate_name(src)));
    }
    for g in n.gate_ids() {
        let kind = n.kind(g);
        let Some(kw) = kind.bench_keyword() else { continue };
        let fanins: Vec<&str> = n.fanin(g).iter().map(|&f| n.gate_name(f)).collect();
        out.push_str(&format!("{} = {}({})\n", n.gate_name(g), kw, fanins.join(", ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = "\
# tiny test circuit
INPUT(a)
INPUT(b)
OUTPUT(q)

g1 = NAND(a, b)
g2 = NOT(g1)
q = DFF(g2)
";

    #[test]
    fn parse_counts_structure() {
        let n = parse_bench("tiny", TINY).unwrap();
        assert_eq!(n.inputs().len(), 2);
        assert_eq!(n.outputs().len(), 1);
        assert_eq!(n.dffs().len(), 1);
        assert_eq!(n.comb_gates().len(), 2);
    }

    #[test]
    fn parse_is_case_insensitive_on_keywords() {
        let n = parse_bench("t", "INPUT(a)\ng = nand(a, a)\nOUTPUT(g)\n").unwrap();
        assert_eq!(n.kind(n.find("g").unwrap()), GateKind::Nand);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let n = parse_bench("t", "# header\n\nINPUT(a) # trailing\ng = NOT(a)\n").unwrap();
        assert_eq!(n.comb_gates().len(), 1);
    }

    #[test]
    fn syntax_error_carries_line_number() {
        let err = parse_bench("t", "INPUT(a)\ngarbage line\n").unwrap_err();
        match err {
            ParseBenchError::Syntax { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_keyword_is_reported() {
        let err = parse_bench("t", "INPUT(a)\ng = FROB(a)\n").unwrap_err();
        assert!(matches!(err, ParseBenchError::UnknownKeyword { line: 2, .. }));
    }

    #[test]
    fn unknown_net_is_reported() {
        let err = parse_bench("t", "INPUT(a)\ng = NOT(zz)\n").unwrap_err();
        assert!(matches!(err, ParseBenchError::Netlist(NetlistError::UnknownName(_))));
    }

    #[test]
    fn round_trip_preserves_structure() {
        let n1 = parse_bench("tiny", TINY).unwrap();
        let text = write_bench(&n1);
        let n2 = parse_bench("tiny", &text).unwrap();
        assert_eq!(n1.inputs().len(), n2.inputs().len());
        assert_eq!(n1.outputs().len(), n2.outputs().len());
        assert_eq!(n1.dffs().len(), n2.dffs().len());
        assert_eq!(n1.comb_gates().len(), n2.comb_gates().len());
        // connection multiset preserved (by name)
        let edges = |n: &Netlist| {
            let mut v: Vec<(String, String)> = n
                .connections()
                .iter()
                .map(|c| (n.gate_name(c.source).to_string(), n.gate_name(c.sink).to_string()))
                .filter(|(_, s)| !s.ends_with("__po"))
                .collect();
            v.sort();
            v
        };
        // Compare only non-port edges: port naming may differ.
        let e1: Vec<_> = edges(&n1);
        let e2: Vec<_> = edges(&n2);
        assert_eq!(e1, e2);
    }

    #[test]
    fn feedback_through_dff_parses() {
        let n = parse_bench("t", "INPUT(a)\nq = DFF(g)\ng = NAND(a, q)\nOUTPUT(q)\n").unwrap();
        n.validate().unwrap();
    }
}

#[cfg(test)]
mod extended_tests {
    use super::*;

    #[test]
    fn mux_and_xor_keywords_parse() {
        let n = parse_bench(
            "t",
            "INPUT(s)\nINPUT(a)\nINPUT(b)\nm = MUX(s, a, b)\nx = XOR(a, b)\nxn = XNOR(a, b)\nOUTPUT(m)\nOUTPUT(x)\nOUTPUT(xn)\n",
        )
        .unwrap();
        assert_eq!(n.kind(n.find("m").unwrap()), GateKind::Mux);
        assert_eq!(n.kind(n.find("x").unwrap()), GateKind::Xor);
        assert_eq!(n.kind(n.find("xn").unwrap()), GateKind::Xnor);
    }

    #[test]
    fn whitespace_variants_parse() {
        let n = parse_bench("t", "  INPUT( a )\n g  =  NOT(  a  ) \nOUTPUT( g )\n").unwrap();
        assert_eq!(n.comb_gates().len(), 1);
    }

    #[test]
    fn mux_arity_is_enforced_by_validate() {
        let err = parse_bench("t", "INPUT(s)\nINPUT(a)\nm = MUX(s, a)\nOUTPUT(m)\n").unwrap_err();
        assert!(matches!(err, ParseBenchError::Netlist(NetlistError::ArityUnderflow { .. })));
    }

    #[test]
    fn written_bench_of_dft_netlist_reparses() {
        // A netlist with T, T', a scan mux and test points round-trips.
        let mut n = parse_bench("t", "INPUT(a)\nq = DFF(g)\ng = NAND(a, q)\nOUTPUT(q)\n").unwrap();
        let a = n.find("a").unwrap();
        let q = n.find("q").unwrap();
        n.insert_and_test_point(a).unwrap();
        n.insert_or_test_point(n.find("g").unwrap()).unwrap();
        let si = n.add_input("si");
        n.insert_scan_mux_at_pin(q, 0, si).unwrap();
        n.validate().unwrap();
        let text = write_bench(&n);
        let back = parse_bench("t", &text).unwrap();
        assert_eq!(back.dffs().len(), 1);
        assert_eq!(back.comb_gates().len(), n.comb_gates().len());
    }
}
