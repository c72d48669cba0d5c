//! The reference BLIF reader: `parse_blif` and `NetlistBuilder` as they
//! stood before the parser learned to borrow its input, kept verbatim
//! (imports aside) as the oracle `tests/blif_parser.rs` compares the
//! production parser against. It builds a `String` per token and keeps
//! every logical line; only its results matter here.

use std::collections::HashMap;
use tpi_netlist::{GateKind, Netlist, NetlistError, ParseBlifError};

#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    name: String,
    inputs: Vec<String>,
    outputs: Vec<(String, String)>,
    gates: Vec<(GateKind, String, Vec<String>)>,
}

impl NetlistBuilder {
    /// Creates a builder for a design named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// Declares a primary input.
    pub fn input(&mut self, name: impl Into<String>) -> &mut Self {
        self.inputs.push(name.into());
        self
    }

    /// Declares a primary output port `name` driven by net `src`.
    pub fn output(&mut self, name: impl Into<String>, src: impl Into<String>) -> &mut Self {
        self.outputs.push((name.into(), src.into()));
        self
    }

    /// Declares a gate `name = kind(fanins...)`.
    pub fn gate(&mut self, kind: GateKind, name: impl Into<String>, fanins: &[&str]) -> &mut Self {
        self.gates.push((kind, name.into(), fanins.iter().map(|s| s.to_string()).collect()));
        self
    }

    /// Shorthand for a D flip-flop `name = DFF(d)`.
    pub fn dff(&mut self, name: impl Into<String>, d: impl Into<String>) -> &mut Self {
        let d = d.into();
        self.gates.push((GateKind::Dff, name.into(), vec![d]));
        self
    }

    /// Resolves all names and produces a validated [`Netlist`].
    ///
    /// # Errors
    /// Fails on unknown or duplicate names, arity violations, or
    /// combinational cycles.
    pub fn finish(&self) -> Result<Netlist, NetlistError> {
        let mut n = Netlist::new(self.name.clone());
        for name in &self.inputs {
            if n.find(name).is_some() {
                return Err(NetlistError::DuplicateName(name.clone()));
            }
            n.add_input(name.clone());
        }
        for (kind, name, _) in &self.gates {
            if n.find(name).is_some() {
                return Err(NetlistError::DuplicateName(name.clone()));
            }
            n.add_gate(*kind, name.clone());
        }
        for (_, name, fanins) in &self.gates {
            let g = n.find_required(name)?;
            for fin in fanins {
                let src = n.find_required(fin)?;
                n.connect(src, g)?;
            }
        }
        for (name, src) in &self.outputs {
            let s = n.find_required(src)?;
            let port_name = if n.find(name).is_some() {
                // ISCAS89 benches name the output port after the net that
                // drives it; uniquify with a suffix.
                format!("{name}__po")
            } else {
                name.clone()
            };
            n.add_output(port_name, s)?;
        }
        n.validate()?;
        Ok(n)
    }
}

/// One parsed `.names` cover, pre-decomposition.
struct Cover {
    inputs: Vec<String>,
    output: String,
    /// Product terms: one literal per input, '0' / '1' / '-'.
    cubes: Vec<Vec<u8>>,
    /// True when rows are on-set (`1`), false when off-set (`0`).
    on_set: bool,
    line: usize,
}

/// Parses BLIF text into a validated [`Netlist`].
///
/// Supported directives: `.model`, `.inputs`, `.outputs`, `.names`,
/// `.latch`, `.end`, comments (`#`) and line continuations (`\`).
/// Latch types/controls/init values are accepted and ignored (the
/// workspace models an ideal single-clock DFF).
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
    // Stitch continuations, strip comments.
    let mut logical: Vec<(usize, String)> = Vec::new();
    let mut pending = String::new();
    let mut pending_line = 0usize;
    for (i, raw) in src.lines().enumerate() {
        let line = match raw.find('#') {
            Some(p) => &raw[..p],
            None => raw,
        };
        if pending.is_empty() {
            pending_line = i + 1;
        }
        if let Some(stripped) = line.trim_end().strip_suffix('\\') {
            pending.push_str(stripped);
            pending.push(' ');
            continue;
        }
        pending.push_str(line);
        let full = pending.trim().to_string();
        pending.clear();
        if !full.is_empty() {
            logical.push((pending_line, full));
        }
    }

    let mut model = String::from("blif");
    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut latches: Vec<(String, String)> = Vec::new();
    let mut covers: Vec<Cover> = Vec::new();
    let mut current: Option<Cover> = None;

    let flush = |current: &mut Option<Cover>, covers: &mut Vec<Cover>| {
        if let Some(c) = current.take() {
            covers.push(c);
        }
    };

    for (lineno, text) in logical {
        let mut toks = text.split_whitespace();
        // Logical lines are non-empty by construction, but keep this a
        // diagnostic rather than a panic: malformed input must never
        // take the caller down.
        let Some(head) = toks.next() else {
            return Err(ParseBlifError::Syntax { line: lineno, text });
        };
        match head {
            ".model" => {
                flush(&mut current, &mut covers);
                if let Some(name) = toks.next() {
                    model = name.to_string();
                }
            }
            ".inputs" => {
                flush(&mut current, &mut covers);
                inputs.extend(toks.map(str::to_string));
            }
            ".outputs" => {
                flush(&mut current, &mut covers);
                outputs.extend(toks.map(str::to_string));
            }
            ".latch" => {
                flush(&mut current, &mut covers);
                let args: Vec<&str> = toks.collect();
                if args.len() < 2 {
                    return Err(ParseBlifError::Syntax { line: lineno, text });
                }
                latches.push((args[0].to_string(), args[1].to_string()));
            }
            ".names" => {
                flush(&mut current, &mut covers);
                let mut names: Vec<String> = toks.map(str::to_string).collect();
                let Some(output) = names.pop() else {
                    return Err(ParseBlifError::MissingOutput { line: lineno });
                };
                current = Some(Cover {
                    inputs: names,
                    output,
                    cubes: Vec::new(),
                    on_set: true,
                    line: lineno,
                });
            }
            ".end" => {
                flush(&mut current, &mut covers);
            }
            ".exdc" | ".wire_load_slope" | ".default_input_arrival" | ".clock" => {
                // Accepted and ignored extensions.
                flush(&mut current, &mut covers);
            }
            _ if head.starts_with('.') => {
                return Err(ParseBlifError::Syntax { line: lineno, text });
            }
            _ => {
                // A cover row: `<literals> <output>` or `<output>` for a
                // zero-input constant.
                let Some(cover) = current.as_mut() else {
                    return Err(ParseBlifError::Syntax { line: lineno, text });
                };
                let mut parts: Vec<&str> = text.split_whitespace().collect();
                let Some(out_tok) = parts.pop() else {
                    return Err(ParseBlifError::MissingOutput { line: lineno });
                };
                let on = match out_tok {
                    "1" => true,
                    "0" => false,
                    _ => return Err(ParseBlifError::Syntax { line: lineno, text }),
                };
                let lits: Vec<u8> = parts.concat().bytes().collect();
                if lits.len() != cover.inputs.len() {
                    return Err(ParseBlifError::CubeWidth {
                        line: lineno,
                        expected: cover.inputs.len(),
                        actual: lits.len(),
                    });
                }
                if !lits.iter().all(|b| matches!(b, b'0' | b'1' | b'-')) {
                    return Err(ParseBlifError::Syntax { line: lineno, text });
                }
                if cover.cubes.is_empty() {
                    cover.on_set = on;
                } else if cover.on_set != on {
                    return Err(ParseBlifError::MixedCover { line: lineno });
                }
                cover.cubes.push(lits);
            }
        }
    }
    flush(&mut current, &mut covers);

    // ---- Decompose covers into primitive gates. ----
    let mut b = NetlistBuilder::new(model);
    for i in &inputs {
        b.input(i.clone());
    }
    for (d, q) in &latches {
        b.dff(q.clone(), d.clone());
    }
    let mut aux = 0usize;
    let mut inverter_of: HashMap<String, String> = HashMap::new();
    for cover in &covers {
        decompose_cover(&mut b, cover, &mut aux, &mut inverter_of)?;
    }
    for o in &outputs {
        b.output(o.to_string(), o.clone());
    }
    b.finish().map_err(ParseBlifError::from)
}

/// Emits gates computing one SOP cover, naming the final gate after the
/// cover's output signal.
fn decompose_cover(
    b: &mut NetlistBuilder,
    cover: &Cover,
    aux: &mut usize,
    inverter_of: &mut HashMap<String, String>,
) -> Result<(), ParseBlifError> {
    // Constant covers.
    if cover.inputs.is_empty() || cover.cubes.is_empty() {
        let one = !cover.cubes.is_empty() && cover.on_set;
        // `.names f` with a `1` row is constant one; an empty cover (or
        // off-set-only degenerate forms) is constant zero.
        let kind = if one { GateKind::Const1 } else { GateKind::Const0 };
        b.gate(kind, cover.output.clone(), &[]);
        return Ok(());
    }
    // Single-cube, single-literal covers map directly to BUF / INV named
    // after the output — this also makes a write/parse round trip stable.
    if cover.cubes.len() == 1 {
        let lits: Vec<(usize, u8)> = cover.cubes[0]
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != b'-')
            .map(|(i, &v)| (i, v))
            .collect();
        if lits.is_empty() {
            let kind = if cover.on_set { GateKind::Const1 } else { GateKind::Const0 };
            b.gate(kind, cover.output.clone(), &[]);
            return Ok(());
        }
        if lits.len() == 1 {
            let (i, v) = lits[0];
            let invert = (v == b'0') == cover.on_set;
            let kind = if invert { GateKind::Inv } else { GateKind::Buf };
            b.gate(kind, cover.output.clone(), &[cover.inputs[i].as_str()]);
            return Ok(());
        }
    }
    // Canonical covers (the exact shapes `write_blif` emits) map back to
    // single primitive gates, so a write→parse round trip preserves
    // structure gate-for-gate. Without this, NAND/NOR/XOR/XNOR/MUX
    // covers decompose into INV/AND/OR trees and a 250k-gate design
    // inflates ~2.4× every time it crosses the wire.
    if cover.on_set {
        let w = cover.inputs.len();
        let single = |lit: u8| cover.cubes.len() == 1 && cover.cubes[0].iter().all(|&c| c == lit);
        let one_hot = |hot: u8| {
            w >= 2
                && cover.cubes.len() == w
                && cover.cubes.iter().enumerate().all(|(k, cube)| {
                    cube.iter().enumerate().all(|(i, &c)| c == if i == k { hot } else { b'-' })
                })
        };
        let pair = |a: &[u8], b: &[u8]| {
            cover.cubes.len() == 2 && cover.cubes[0] == a && cover.cubes[1] == b
        };
        let kind = if w >= 2 && single(b'1') {
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
        };
        if let Some(kind) = kind {
            let refs: Vec<&str> = cover.inputs.iter().map(String::as_str).collect();
            b.gate(kind, cover.output.clone(), &refs);
            return Ok(());
        }
    }
    // Literal factory: returns the signal name for var / var'. Inverters
    // are shared per variable and named with a global counter, so they
    // can never collide with re-parsed gate names.
    let literal = |b: &mut NetlistBuilder,
                   inverter_of: &mut HashMap<String, String>,
                   aux: &mut usize,
                   var: &str,
                   positive: bool| {
        if positive {
            var.to_string()
        } else if let Some(n) = inverter_of.get(var) {
            n.clone()
        } else {
            *aux += 1;
            let name = format!("{var}__not{aux}");
            b.gate(GateKind::Inv, name.clone(), &[var]);
            inverter_of.insert(var.to_string(), name.clone());
            name
        }
    };
    // One AND (or passthrough) per cube; term names derive from the
    // cover's own output name to stay collision-free across re-parses.
    let mut terms: Vec<String> = Vec::new();
    for (k, cube) in cover.cubes.iter().enumerate() {
        let mut lits: Vec<String> = Vec::new();
        for (var, &v) in cover.inputs.iter().zip(cube) {
            match v {
                b'1' => lits.push(literal(b, inverter_of, aux, var, true)),
                b'0' => lits.push(literal(b, inverter_of, aux, var, false)),
                _ => {}
            }
        }
        match lits.len() {
            0 => {
                // An all-don't-care cube makes the cover a tautology.
                let name = format!("{}__t{k}", cover.output);
                b.gate(GateKind::Const1, name.clone(), &[]);
                terms.push(name);
            }
            1 => terms.push(lits.remove(0)),
            _ => {
                let name = format!("{}__t{k}", cover.output);
                let refs: Vec<&str> = lits.iter().map(String::as_str).collect();
                b.gate(GateKind::And, name.clone(), &refs);
                terms.push(name);
            }
        }
    }
    // OR across terms, inverted when the cover was written in the off-set.
    let refs: Vec<&str> = terms.iter().map(String::as_str).collect();
    match (terms.len(), cover.on_set) {
        (1, true) => {
            b.gate(GateKind::Buf, cover.output.clone(), &[refs[0]]);
        }
        (1, false) => {
            b.gate(GateKind::Inv, cover.output.clone(), &[refs[0]]);
        }
        (_, true) => {
            b.gate(GateKind::Or, cover.output.clone(), &refs);
        }
        (_, false) => {
            b.gate(GateKind::Nor, cover.output.clone(), &refs);
        }
    }
    let _ = cover.line;
    Ok(())
}
