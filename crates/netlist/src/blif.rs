//! Berkeley Logic Interchange Format (BLIF) reader and writer.
//!
//! The paper's prototypes were built on SIS-1.2, whose native netlist
//! format is BLIF. This module supports the structural subset SIS emits
//! after technology mapping — `.model`, `.inputs`, `.outputs`, `.names`
//! (single-output sum-of-products covers) and `.latch` — which is enough
//! to round-trip every netlist this workspace produces and to import
//! mapped circuits from SIS-lineage tools.
//!
//! On import, each `.names` cover is decomposed into the primitive gate
//! network the rest of the workspace understands: one AND per product
//! term, an OR across terms, shared input inverters, and a trailing
//! inverter for covers written in the off-set (output value `0`).

use crate::builder::NetlistBuilder;
use crate::error::NetlistError;
use crate::gate::GateKind;
use crate::netlist::Netlist;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

/// Errors from [`parse_blif`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseBlifError {
    /// A malformed line; carries the 1-based line number and text.
    Syntax {
        /// 1-based source line.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A cover row whose width disagrees with the `.names` header.
    CubeWidth {
        /// 1-based source line.
        line: usize,
        /// Expected number of input literals.
        expected: usize,
        /// Literals found.
        actual: usize,
    },
    /// A cover mixes output values 0 and 1 (unsupported and ambiguous).
    MixedCover {
        /// 1-based source line.
        line: usize,
    },
    /// A `.names` header or cover row with no output token.
    MissingOutput {
        /// 1-based source line.
        line: usize,
    },
    /// The resulting structure failed netlist validation.
    Netlist(NetlistError),
}

impl fmt::Display for ParseBlifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseBlifError::Syntax { line, text } => {
                write!(f, "syntax error on line {line}: `{text}`")
            }
            ParseBlifError::CubeWidth { line, expected, actual } => {
                write!(f, "cube on line {line} has {actual} literals, header promises {expected}")
            }
            ParseBlifError::MixedCover { line } => {
                write!(f, "cover ending on line {line} mixes on-set and off-set rows")
            }
            ParseBlifError::MissingOutput { line } => {
                write!(f, "`.names` on line {line} has no output token")
            }
            ParseBlifError::Netlist(e) => write!(f, "invalid netlist: {e}"),
        }
    }
}

impl std::error::Error for ParseBlifError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseBlifError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for ParseBlifError {
    fn from(e: NetlistError) -> Self {
        ParseBlifError::Netlist(e)
    }
}

/// The `.names` cover being read, pre-decomposition. Names borrow the
/// payload (they own their text only on a line stitched from `\`
/// continuations), and the cubes share one literal buffer. The parser
/// keeps one `Cover` and clears it for each `.names`.
#[derive(Default)]
struct Cover<'a> {
    inputs: Vec<Cow<'a, str>>,
    output: Cow<'a, str>,
    /// Product terms back to back, `inputs.len()` literals each:
    /// '0' / '1' / '-'.
    lits: Vec<u8>,
    /// Number of product terms (`lits` alone cannot tell for a
    /// zero-input cover).
    n_cubes: usize,
    /// True when rows are on-set (`1`), false when off-set (`0`).
    on_set: bool,
}

impl Cover<'_> {
    fn cube(&self, k: usize) -> &[u8] {
        let w = self.inputs.len();
        &self.lits[k * w..(k + 1) * w]
    }

    fn cubes(&self) -> impl Iterator<Item = &[u8]> + '_ {
        (0..self.n_cubes).map(|k| self.cube(k))
    }
}

/// The logical lines of a BLIF text with their 1-based starting line
/// numbers: comments stripped, `\` continuations stitched, blank lines
/// skipped, each trimmed. A line borrows the text unless continuations
/// stitched it. A continuation dangling at the end of the text is
/// dropped.
struct LogicalLines<'a> {
    raw: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> Iterator for LogicalLines<'a> {
    type Item = (usize, Cow<'a, str>);

    fn next(&mut self) -> Option<Self::Item> {
        let mut pending: Option<(usize, String)> = None;
        loop {
            let (i, raw) = self.raw.next()?;
            let line = match raw.find('#') {
                Some(p) => &raw[..p],
                None => raw,
            };
            if let Some(stripped) = line.trim_end().strip_suffix('\\') {
                let (_, text) = pending.get_or_insert_with(|| (i + 1, String::new()));
                text.push_str(stripped);
                text.push(' ');
                continue;
            }
            let (lineno, full) = match pending.take() {
                None => (i + 1, Cow::Borrowed(line.trim())),
                Some((lineno, mut text)) => {
                    text.push_str(line);
                    (lineno, Cow::Owned(text.trim().to_string()))
                }
            };
            if !full.is_empty() {
                return Some((lineno, full));
            }
        }
    }
}

/// `tok`, a slice of `line`, with the payload's lifetime when `line`
/// borrows the payload (an owned copy when continuations stitched it).
fn detach<'a>(line: &Cow<'a, str>, tok: &str) -> Cow<'a, str> {
    match line {
        Cow::Borrowed(text) => {
            let start = tok.as_ptr() as usize - text.as_ptr() as usize;
            Cow::Borrowed(&text[start..start + tok.len()])
        }
        Cow::Owned(_) => Cow::Owned(tok.to_string()),
    }
}

/// Parses BLIF text into a validated [`Netlist`].
///
/// Supported directives: `.model`, `.inputs`, `.outputs`, `.names`,
/// `.latch`, `.end`, comments (`#`) and line continuations (`\`).
/// Latch types/controls/init values are accepted and ignored (the
/// workspace models an ideal single-clock DFF).
///
/// The parser streams the text: names are slices of `src` until the
/// builder copies them, and each cover is decomposed as soon as the
/// next directive closes it.
///
/// # Errors
/// Returns [`ParseBlifError`] on malformed input or structural
/// violations.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), tpi_netlist::ParseBlifError> {
/// let src = "\
/// .model tiny
/// .inputs a b
/// .outputs y
/// .names a b w
/// 11 1
/// .latch w y 2
/// .end
/// ";
/// let n = tpi_netlist::parse_blif(src)?;
/// assert_eq!(n.name(), "tiny");
/// assert_eq!(n.dffs().len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn parse_blif(src: &str) -> Result<Netlist, ParseBlifError> {
    let mut model = Cow::Borrowed("blif");
    // Inputs and outputs go straight to the builder (it keeps them in
    // lists of their own); cover gates do too, as each cover closes.
    // Flip-flops must precede every cover gate, so latches wait here.
    let mut b = NetlistBuilder::new(String::new());
    let mut latches: Vec<(Cow<'_, str>, Cow<'_, str>)> = Vec::new();
    let mut cover = Cover::default();
    let mut open = false;
    let mut decomp = Decomposer::default();

    for (lineno, text) in (LogicalLines { raw: src.lines().enumerate() }) {
        let syntax =
            |text: Cow<'_, str>| ParseBlifError::Syntax { line: lineno, text: text.into_owned() };
        let mut toks = text.split_whitespace();
        // Logical lines are non-empty by construction, but keep this a
        // diagnostic rather than a panic: malformed input must never
        // take the caller down.
        let Some(head) = toks.next() else {
            return Err(syntax(text));
        };
        // Every directive closes the open cover (an unknown one fails
        // below, and then nothing built matters).
        if head.starts_with('.') && std::mem::take(&mut open) {
            decomp.cover(&mut b, &cover);
        }
        match head {
            ".model" => {
                if let Some(name) = toks.next() {
                    model = detach(&text, name);
                }
            }
            ".inputs" => {
                for name in toks {
                    b.input(name);
                }
            }
            ".outputs" => {
                for name in toks {
                    b.output(name, name);
                }
            }
            ".latch" => {
                let (Some(d), Some(q)) = (toks.next(), toks.next()) else {
                    return Err(syntax(text));
                };
                latches.push((detach(&text, d), detach(&text, q)));
            }
            ".names" => {
                cover.inputs.clear();
                cover.inputs.extend(toks.map(|t| detach(&text, t)));
                let Some(output) = cover.inputs.pop() else {
                    return Err(ParseBlifError::MissingOutput { line: lineno });
                };
                cover.output = output;
                cover.lits.clear();
                cover.n_cubes = 0;
                cover.on_set = true;
                open = true;
            }
            // `.end`, and extensions accepted and ignored.
            ".end" | ".exdc" | ".wire_load_slope" | ".default_input_arrival" | ".clock" => {}
            _ if head.starts_with('.') => {
                return Err(syntax(text));
            }
            _ => {
                // A cover row: `<literals> <output>` or `<output>` for a
                // zero-input constant. Every token but the last is
                // literals, possibly split by spaces.
                if !open {
                    return Err(syntax(text));
                }
                let row = cover.lits.len();
                let mut out_tok = head;
                for tok in toks {
                    cover.lits.extend_from_slice(out_tok.as_bytes());
                    out_tok = tok;
                }
                let on = match out_tok {
                    "1" => true,
                    "0" => false,
                    _ => return Err(syntax(text)),
                };
                let lits = &cover.lits[row..];
                if lits.len() != cover.inputs.len() {
                    return Err(ParseBlifError::CubeWidth {
                        line: lineno,
                        expected: cover.inputs.len(),
                        actual: lits.len(),
                    });
                }
                if !lits.iter().all(|b| matches!(b, b'0' | b'1' | b'-')) {
                    return Err(syntax(text));
                }
                if cover.n_cubes == 0 {
                    cover.on_set = on;
                } else if cover.on_set != on {
                    return Err(ParseBlifError::MixedCover { line: lineno });
                }
                cover.n_cubes += 1;
            }
        }
    }
    if open {
        decomp.cover(&mut b, &cover);
    }

    b.dffs_first(latches.iter().map(|(d, q)| (q.as_ref(), d.as_ref())));
    b.set_name(model);
    b.finish().map_err(ParseBlifError::from)
}

/// Turns covers into primitive gates. Inverters of negative literals
/// are shared per variable across the whole design and named with a
/// global counter, so they can never collide with re-parsed gate names.
#[derive(Default)]
struct Decomposer<'a> {
    aux: usize,
    inverter_of: HashMap<Cow<'a, str>, String>,
}

impl<'a> Decomposer<'a> {
    /// Emits gates computing one SOP cover, naming the final gate after
    /// the cover's output signal.
    fn cover(&mut self, b: &mut NetlistBuilder, cover: &Cover<'a>) {
        let output = cover.output.as_ref();
        // Constant covers.
        if cover.inputs.is_empty() || cover.n_cubes == 0 {
            let one = cover.n_cubes != 0 && cover.on_set;
            // `.names f` with a `1` row is constant one; an empty cover
            // (or off-set-only degenerate forms) is constant zero.
            let kind = if one { GateKind::Const1 } else { GateKind::Const0 };
            b.gate(kind, output, &[]);
            return;
        }
        // Single-cube, single-literal covers map directly to BUF / INV
        // named after the output — this also makes a write/parse round
        // trip stable.
        if cover.n_cubes == 1 {
            let mut lits = cover.cube(0).iter().enumerate().filter(|&(_, &v)| v != b'-');
            match (lits.next(), lits.next()) {
                (None, _) => {
                    let kind = if cover.on_set { GateKind::Const1 } else { GateKind::Const0 };
                    b.gate(kind, output, &[]);
                    return;
                }
                (Some((i, &v)), None) => {
                    let invert = (v == b'0') == cover.on_set;
                    let kind = if invert { GateKind::Inv } else { GateKind::Buf };
                    b.gate(kind, output, &[&cover.inputs[i]]);
                    return;
                }
                _ => {}
            }
        }
        // Canonical covers (the exact shapes `write_blif` emits) map back
        // to single primitive gates, so a write→parse round trip
        // preserves structure gate-for-gate. Without this,
        // NAND/NOR/XOR/XNOR/MUX covers decompose into INV/AND/OR trees
        // and a 250k-gate design inflates ~2.4× every time it crosses
        // the wire.
        if let Some(kind) = canonical_kind(cover) {
            b.gate_from(kind, output, cover.inputs.iter().map(AsRef::as_ref));
            return;
        }
        // One AND (or passthrough) per cube; term names derive from the
        // cover's own output name to stay collision-free across
        // re-parses.
        let mut terms: Vec<Cow<'_, str>> = Vec::new();
        for (k, cube) in cover.cubes().enumerate() {
            let mut lits: Vec<Cow<'_, str>> = Vec::new();
            for (var, &v) in cover.inputs.iter().zip(cube) {
                match v {
                    b'1' => lits.push(Cow::Borrowed(var)),
                    b'0' => {
                        if !self.inverter_of.contains_key(var.as_ref()) {
                            self.aux += 1;
                            let name = format!("{var}__not{}", self.aux);
                            b.gate(GateKind::Inv, &name, &[var]);
                            self.inverter_of.insert(var.clone(), name);
                        }
                        lits.push(Cow::Owned(self.inverter_of[var.as_ref()].clone()));
                    }
                    _ => {}
                }
            }
            match lits.len() {
                0 => {
                    // An all-don't-care cube makes the cover a tautology.
                    let name = format!("{output}__t{k}");
                    b.gate(GateKind::Const1, &name, &[]);
                    terms.push(Cow::Owned(name));
                }
                1 => terms.push(lits.remove(0)),
                _ => {
                    let name = format!("{output}__t{k}");
                    b.gate_from(GateKind::And, &name, lits.iter().map(AsRef::as_ref));
                    terms.push(Cow::Owned(name));
                }
            }
        }
        // OR across terms, inverted when the cover was written in the
        // off-set.
        let kind = match (terms.len(), cover.on_set) {
            (1, true) => GateKind::Buf,
            (1, false) => GateKind::Inv,
            (_, true) => GateKind::Or,
            (_, false) => GateKind::Nor,
        };
        b.gate_from(kind, output, terms.iter().map(AsRef::as_ref));
    }
}

/// The primitive gate a cover in one of `write_blif`'s exact shapes
/// stands for; `None` for any other cover.
fn canonical_kind(cover: &Cover<'_>) -> Option<GateKind> {
    if !cover.on_set {
        return None;
    }
    let w = cover.inputs.len();
    let single = |lit: u8| cover.n_cubes == 1 && cover.cube(0).iter().all(|&c| c == lit);
    let one_hot = |hot: u8| {
        w >= 2
            && cover.n_cubes == w
            && cover.cubes().enumerate().all(|(k, cube)| {
                cube.iter().enumerate().all(|(i, &c)| c == if i == k { hot } else { b'-' })
            })
    };
    let pair = |a: &[u8], b: &[u8]| cover.n_cubes == 2 && cover.cube(0) == a && cover.cube(1) == b;
    if w >= 2 && single(b'1') {
        Some(GateKind::And)
    } else if w >= 2 && single(b'0') {
        Some(GateKind::Nor)
    } else if one_hot(b'1') {
        Some(GateKind::Or)
    } else if one_hot(b'0') {
        Some(GateKind::Nand)
    } else if w == 2 && pair(b"10", b"01") {
        Some(GateKind::Xor)
    } else if w == 2 && pair(b"11", b"00") {
        Some(GateKind::Xnor)
    } else if w == 3 && pair(b"01-", b"1-1") {
        Some(GateKind::Mux)
    } else {
        None
    }
}

/// Serializes a netlist as BLIF. Every primitive gate is emitted as a
/// `.names` cover, flip-flops as `.latch` lines; a round trip through
/// [`parse_blif`] preserves the logic function (structure may differ for
/// XOR/XNOR/MUX, which BLIF has no primitive for).
pub fn write_blif(n: &Netlist) -> String {
    let mut out = String::new();
    out.push_str(&format!(".model {}\n", n.name()));
    let mut ins: Vec<&str> = n.inputs().iter().map(|&g| n.gate_name(g)).collect();
    if let Some(t) = n.test_input() {
        ins.push(n.gate_name(t));
    }
    out.push_str(&format!(".inputs {}\n", ins.join(" ")));
    let outs: Vec<&str> = n.outputs().iter().map(|&o| n.gate_name(n.fanin(o)[0])).collect();
    out.push_str(&format!(".outputs {}\n", outs.join(" ")));
    for g in n.gate_ids() {
        let name = n.gate_name(g);
        let fanins: Vec<&str> = n.fanin(g).iter().map(|&f| n.gate_name(f)).collect();
        match n.kind(g) {
            GateKind::Input | GateKind::Output => {}
            GateKind::Dff => {
                out.push_str(&format!(".latch {} {} 2\n", fanins[0], name));
            }
            GateKind::Const0 => out.push_str(&format!(".names {name}\n")),
            GateKind::Const1 => out.push_str(&format!(".names {name}\n1\n")),
            GateKind::Buf => out.push_str(&format!(".names {} {}\n1 1\n", fanins[0], name)),
            GateKind::Inv => out.push_str(&format!(".names {} {}\n0 1\n", fanins[0], name)),
            GateKind::And => {
                out.push_str(&format!(
                    ".names {} {}\n{} 1\n",
                    fanins.join(" "),
                    name,
                    "1".repeat(fanins.len())
                ));
            }
            GateKind::Nand => {
                out.push_str(&format!(".names {} {}\n", fanins.join(" "), name));
                for i in 0..fanins.len() {
                    out.push_str(&one_hot_row(fanins.len(), i, b'0'));
                    out.push_str(" 1\n");
                }
            }
            GateKind::Or => {
                out.push_str(&format!(".names {} {}\n", fanins.join(" "), name));
                for i in 0..fanins.len() {
                    out.push_str(&one_hot_row(fanins.len(), i, b'1'));
                    out.push_str(" 1\n");
                }
            }
            GateKind::Nor => {
                out.push_str(&format!(
                    ".names {} {}\n{} 1\n",
                    fanins.join(" "),
                    name,
                    "0".repeat(fanins.len())
                ));
            }
            GateKind::Xor => {
                out.push_str(&format!(".names {} {}\n10 1\n01 1\n", fanins.join(" "), name));
            }
            GateKind::Xnor => {
                out.push_str(&format!(".names {} {}\n11 1\n00 1\n", fanins.join(" "), name));
            }
            GateKind::Mux => {
                // fanins = [sel, d0, d1]; f = sel' d0 + sel d1
                out.push_str(&format!(".names {} {}\n01- 1\n1-1 1\n", fanins.join(" "), name));
            }
        }
    }
    out.push_str(".end\n");
    out
}

fn one_hot_row(width: usize, position: usize, hot: u8) -> String {
    (0..width).map(|i| if i == position { hot as char } else { '-' }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = "\
.model tiny
.inputs a b c
.outputs y z
# two-level logic
.names a b t1
11 1
.names t1 c y
1- 1
-1 1
.latch y z 2
.end
";

    #[test]
    fn parse_counts_structure() {
        let n = parse_blif(TINY).unwrap();
        assert_eq!(n.name(), "tiny");
        assert_eq!(n.inputs().len(), 3);
        assert_eq!(n.outputs().len(), 2);
        assert_eq!(n.dffs().len(), 1);
        n.validate().unwrap();
    }

    #[test]
    fn single_cube_cover_becomes_and() {
        let n =
            parse_blif(".model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n").unwrap();
        let y = n.find("y").unwrap();
        // passthrough Buf over an AND, or the AND itself named y
        assert!(matches!(n.kind(y), GateKind::Buf | GateKind::And));
    }

    #[test]
    fn negative_literals_share_inverters() {
        let n = parse_blif(
            ".model t\n.inputs a b c\n.outputs y z\n.names a b y\n01 1\n.names a c z\n01 1\n.end\n",
        )
        .unwrap();
        let invs = n.gate_ids().filter(|&g| n.kind(g) == GateKind::Inv).count();
        assert_eq!(invs, 1, "the inverter on `a` must be shared");
    }

    #[test]
    fn off_set_cover_inverts() {
        use tpi::{eval3, V};
        // y = (a b)' expressed with output value 0 rows.
        let n =
            parse_blif(".model t\n.inputs a b\n.outputs y\n.names a b y\n11 0\n.end\n").unwrap();
        let table = [
            (V::Zero, V::Zero, V::One),
            (V::Zero, V::One, V::One),
            (V::One, V::Zero, V::One),
            (V::One, V::One, V::Zero),
        ];
        for (a, bv, want) in table {
            assert_eq!(eval3(&n, &[("a", a), ("b", bv)], "y"), want);
        }
    }

    #[test]
    fn constant_covers() {
        let n = parse_blif(".model t\n.inputs a\n.outputs one zero q\n.names one\n1\n.names zero\n.names a q\n1 1\n.end\n").unwrap();
        assert_eq!(n.kind(n.find("one").unwrap()), GateKind::Const1);
        assert_eq!(n.kind(n.find("zero").unwrap()), GateKind::Const0);
    }

    #[test]
    fn continuation_lines_are_stitched() {
        let n = parse_blif(".model t\n.inputs a \\\nb\n.outputs y\n.names a b y\n11 1\n.end\n")
            .unwrap();
        assert_eq!(n.inputs().len(), 2);
    }

    #[test]
    fn cube_width_mismatch_is_reported() {
        let err = parse_blif(".model t\n.inputs a b\n.outputs y\n.names a b y\n111 1\n.end\n")
            .unwrap_err();
        assert!(matches!(err, ParseBlifError::CubeWidth { expected: 2, actual: 3, .. }));
    }

    #[test]
    fn empty_names_directive_is_a_diagnostic() {
        let err = parse_blif(".model t\n.inputs a\n.outputs y\n.names\n.end\n").unwrap_err();
        assert!(matches!(err, ParseBlifError::MissingOutput { line: 4 }), "{err:?}");
    }

    #[test]
    fn truncated_cover_line_is_a_diagnostic() {
        // A 2-input cover whose row carries only the output token.
        let err =
            parse_blif(".model t\n.inputs a b\n.outputs y\n.names a b y\n1\n.end\n").unwrap_err();
        assert!(matches!(err, ParseBlifError::CubeWidth { expected: 2, actual: 0, .. }), "{err:?}");
    }

    #[test]
    fn cover_row_without_output_token_is_a_diagnostic() {
        // `11` parses as literals with no 0/1 output token at the end.
        let err =
            parse_blif(".model t\n.inputs a b\n.outputs y\n.names a b y\n11\n.end\n").unwrap_err();
        assert!(matches!(err, ParseBlifError::Syntax { line: 5, .. }), "{err:?}");
    }

    #[test]
    fn malformed_errors_render_with_line_numbers() {
        let e = ParseBlifError::MissingOutput { line: 7 };
        assert_eq!(e.to_string(), "`.names` on line 7 has no output token");
    }

    #[test]
    fn mixed_cover_is_rejected() {
        let err = parse_blif(".model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n.end\n")
            .unwrap_err();
        assert!(matches!(err, ParseBlifError::MixedCover { .. }));
    }

    #[test]
    fn round_trip_preserves_function() {
        use tpi::{eval3, exhaustive_equal, V};
        let n1 = parse_blif(TINY).unwrap();
        let text = write_blif(&n1);
        let n2 = parse_blif(&text).unwrap();
        assert!(exhaustive_equal(&n1, &n2, &["a", "b", "c"], "y"));
        let _ = (eval3 as fn(&Netlist, &[(&str, V)], &str) -> V, V::X);
    }

    #[test]
    fn round_trip_covers_every_gate_kind() {
        use tpi::exhaustive_equal;
        let mut b = NetlistBuilder::new("kinds");
        b.input("a");
        b.input("b");
        b.input("s");
        b.gate(GateKind::Nand, "w_nand", &["a", "b"]);
        b.gate(GateKind::Nor, "w_nor", &["a", "b"]);
        b.gate(GateKind::Xor, "w_xor", &["a", "b"]);
        b.gate(GateKind::Xnor, "w_xnor", &["a", "b"]);
        b.gate(GateKind::Mux, "w_mux", &["s", "w_nand", "w_nor"]);
        b.gate(GateKind::Or, "y", &["w_mux", "w_xor", "w_xnor"]);
        b.output("y", "y");
        let n1 = b.finish().unwrap();
        let n2 = parse_blif(&write_blif(&n1)).unwrap();
        assert!(exhaustive_equal(&n1, &n2, &["a", "b", "s"], "y"));
    }

    /// Tiny ternary evaluator used by the functional round-trip tests.
    mod tpi {
        use crate::gate::GateKind;
        use crate::netlist::Netlist;

        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum V {
            Zero,
            One,
            X,
        }

        pub fn eval3(n: &Netlist, assign: &[(&str, V)], out: &str) -> V {
            let order = n.topo_order().unwrap();
            let mut vals = vec![V::X; n.gate_count()];
            for &(name, v) in assign {
                vals[n.find(name).unwrap().index()] = v;
            }
            for g in order {
                let k = n.kind(g);
                if matches!(k, GateKind::Input | GateKind::Dff) {
                    continue;
                }
                let ins: Vec<V> = n.fanin(g).iter().map(|&f| vals[f.index()]).collect();
                vals[g.index()] = eval_kind(k, &ins);
            }
            vals[n.find(out).unwrap().index()]
        }

        fn b2v(b: bool) -> V {
            if b {
                V::One
            } else {
                V::Zero
            }
        }

        fn eval_kind(k: GateKind, ins: &[V]) -> V {
            let known: Option<Vec<bool>> = ins
                .iter()
                .map(|v| match v {
                    V::Zero => Some(false),
                    V::One => Some(true),
                    V::X => None,
                })
                .collect();
            let Some(bits) = known else { return V::X };
            match k {
                GateKind::And => b2v(bits.iter().all(|&x| x)),
                GateKind::Or => b2v(bits.iter().any(|&x| x)),
                GateKind::Nand => b2v(!bits.iter().all(|&x| x)),
                GateKind::Nor => b2v(!bits.iter().any(|&x| x)),
                GateKind::Inv => b2v(!bits[0]),
                GateKind::Buf => b2v(bits[0]),
                GateKind::Xor => b2v(bits[0] ^ bits[1]),
                GateKind::Xnor => b2v(!(bits[0] ^ bits[1])),
                GateKind::Mux => b2v(if bits[0] { bits[2] } else { bits[1] }),
                GateKind::Const0 => V::Zero,
                GateKind::Const1 => V::One,
                _ => V::X,
            }
        }

        /// Exhaustive 2-valued equivalence over the named inputs.
        pub fn exhaustive_equal(a: &Netlist, b: &Netlist, inputs: &[&str], out: &str) -> bool {
            for m in 0..(1u32 << inputs.len()) {
                let assign: Vec<(&str, V)> = inputs
                    .iter()
                    .enumerate()
                    .map(|(i, &name)| (name, b2v(m >> i & 1 == 1)))
                    .collect();
                if eval3(a, &assign, out) != eval3(b, &assign, out) {
                    return false;
                }
            }
            true
        }
    }
}
