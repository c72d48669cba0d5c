//! Ergonomic name-based netlist construction.

use crate::error::NetlistError;
use crate::gate::{GateId, GateKind};
use crate::netlist::Netlist;

/// A builder that wires gates by *name*, deferring resolution so gates can
/// be referenced before they are declared (as `.bench` files do).
///
/// # Example
///
/// ```
/// use tpi_netlist::{NetlistBuilder, GateKind};
/// # fn main() -> Result<(), tpi_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new("c17ish");
/// b.input("a");
/// b.input("b");
/// b.gate(GateKind::Nand, "g", &["a", "b"]);
/// b.gate(GateKind::Dff, "q", &["g"]);
/// b.output("o", "q");
/// let n = b.finish()?;
/// assert_eq!(n.dffs().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    name: String,
    /// Every declared name, back to back; the lists below hold spans
    /// into it, so a 100k-gate design costs a handful of allocations
    /// rather than one per name.
    names: String,
    inputs: Vec<Span>,
    /// `(port, driving net)` pairs.
    outputs: Vec<(Span, Span)>,
    gates: Vec<GateDecl>,
    /// Fanin names of every gate, back to back; a [`GateDecl`] holds
    /// its range.
    fanins: Vec<Span>,
}

/// A half-open range `start..end`, into [`NetlistBuilder::names`] for a
/// name and into [`NetlistBuilder::fanins`] for a gate's fanin list.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    end: usize,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

/// One declared gate: `name = kind(fanins...)`.
#[derive(Debug, Clone, Copy)]
struct GateDecl {
    kind: GateKind,
    name: Span,
    fanins: Span,
}

impl NetlistBuilder {
    /// Creates a builder for a design named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            names: String::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            gates: Vec::new(),
            fanins: Vec::new(),
        }
    }

    /// Declares a primary input.
    pub fn input(&mut self, name: impl AsRef<str>) -> &mut Self {
        let name = self.push_name(name.as_ref());
        self.inputs.push(name);
        self
    }

    /// Declares a primary output port `name` driven by net `src`.
    pub fn output(&mut self, name: impl AsRef<str>, src: impl AsRef<str>) -> &mut Self {
        let name = self.push_name(name.as_ref());
        let src = self.push_name(src.as_ref());
        self.outputs.push((name, src));
        self
    }

    /// Declares a gate `name = kind(fanins...)`.
    pub fn gate(&mut self, kind: GateKind, name: impl AsRef<str>, fanins: &[&str]) -> &mut Self {
        self.gate_from(kind, name.as_ref(), fanins.iter().copied())
    }

    /// Shorthand for a D flip-flop `name = DFF(d)`.
    pub fn dff(&mut self, name: impl AsRef<str>, d: impl AsRef<str>) -> &mut Self {
        self.gate_from(GateKind::Dff, name.as_ref(), [d.as_ref()])
    }

    /// [`NetlistBuilder::gate`] over any sequence of fanin names, for
    /// callers whose names are not already a `&[&str]`.
    pub(crate) fn gate_from<'f>(
        &mut self,
        kind: GateKind,
        name: &str,
        fanins: impl IntoIterator<Item = &'f str>,
    ) -> &mut Self {
        let name = self.push_name(name);
        let first = self.fanins.len();
        for fin in fanins {
            let fin = self.push_name(fin);
            self.fanins.push(fin);
        }
        let fanins = Span { start: first, end: self.fanins.len() };
        self.gates.push(GateDecl { kind, name, fanins });
        self
    }

    /// Renames the design; for parsers that learn the name late.
    pub(crate) fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Declares flip-flops `q = DFF(d)` from `(q, d)` pairs ahead of
    /// every gate declared so far. BLIF may declare a `.latch` after
    /// the covers that read it, while the parsed netlist numbers
    /// flip-flops before every cover gate.
    pub(crate) fn dffs_first<'f>(&mut self, dffs: impl IntoIterator<Item = (&'f str, &'f str)>) {
        let declared = self.gates.len();
        for (q, d) in dffs {
            self.dff(q, d);
        }
        self.gates.rotate_left(declared);
    }

    fn push_name(&mut self, name: &str) -> Span {
        let start = self.names.len();
        self.names.push_str(name);
        Span { start, end: self.names.len() }
    }

    fn name_at(&self, span: Span) -> &str {
        &self.names[span.range()]
    }

    /// Resolves all names and produces a validated [`Netlist`].
    ///
    /// The result, and on failure the first error, is what declaring
    /// every input and gate, then connecting each gate's fanins in gate
    /// order, then adding each output would give. The build gets there
    /// in bulk: one name-index probe per declared name, and every fanin
    /// and fanout list allocated once at its final length.
    ///
    /// # Errors
    /// Fails on unknown or duplicate names, arity violations, or
    /// combinational cycles.
    pub fn finish(&self) -> Result<Netlist, NetlistError> {
        let mut n = Netlist::new(self.name.clone());
        n.reserve(self.inputs.len() + self.gates.len() + self.outputs.len());
        let declared = self.inputs.iter().map(|&span| (GateKind::Input, span));
        let declared = declared.chain(self.gates.iter().map(|decl| (decl.kind, decl.name)));
        // Declare: one probe both rejects a taken name and takes it.
        // An empty name gets `Netlist::add_gate`'s generated one.
        for (kind, span) in declared {
            let name = self.name_at(span);
            if name.is_empty() {
                n.add_gate(kind, name);
            } else if n.add_gate_named(kind, name).is_none() {
                return Err(NetlistError::DuplicateName(name.to_string()));
            }
        }
        // Resolve every fanin in gate order, checking each pin as
        // `Netlist::connect` would. No name was taken twice, so gate `i`
        // kept its name and sits at `first_gate + i` — unless the name
        // was empty, which `find` never knows.
        let first_gate = self.inputs.len();
        for (i, decl) in self.gates.iter().enumerate() {
            if decl.name.start == decl.name.end {
                return Err(NetlistError::UnknownName(String::new()));
            }
            let g = GateId::from_index(first_gate + i);
            let names = &self.fanins[decl.fanins.range()];
            let mut fanins = Vec::with_capacity(names.len());
            for &fin in names {
                let src = n.find_required(self.name_at(fin))?;
                n.check_wiring(src, g, fanins.len())?;
                fanins.push(src);
            }
            n.set_fanins(g, fanins);
        }
        for &(name, src) in &self.outputs {
            let (name, src) = (self.name_at(name), self.name_at(src));
            let s = n.find_required(src)?;
            let port = if n.find(name).is_some() {
                // ISCAS89 benches name the output port after the net that
                // drives it; uniquify with a suffix.
                n.add_gate(GateKind::Output, format!("{name}__po"))
            } else {
                n.add_gate(GateKind::Output, name)
            };
            n.check_wiring(s, port, 0)?;
            n.set_fanins(port, vec![s]);
        }
        n.wire_fanouts();
        n.validate()?;
        Ok(n)
    }

    /// Resolves a name in a finished netlist; convenience for tests.
    pub fn resolve(n: &Netlist, name: &str) -> Option<GateId> {
        n.find(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_references_resolve() {
        let mut b = NetlistBuilder::new("t");
        b.gate(GateKind::Inv, "g", &["a"]); // `a` declared after use
        b.input("a");
        b.output("o", "g");
        let n = b.finish().unwrap();
        assert_eq!(n.fanin(n.find("g").unwrap()), &[n.find("a").unwrap()]);
    }

    #[test]
    fn unknown_name_is_reported() {
        let mut b = NetlistBuilder::new("t");
        b.gate(GateKind::Inv, "g", &["nope"]);
        assert!(matches!(b.finish(), Err(NetlistError::UnknownName(_))));
    }

    #[test]
    fn duplicate_gate_name_is_rejected() {
        let mut b = NetlistBuilder::new("t");
        b.input("a");
        b.gate(GateKind::Inv, "a", &["a"]);
        assert!(matches!(b.finish(), Err(NetlistError::DuplicateName(_))));
    }

    #[test]
    fn output_port_sharing_net_name_is_uniquified() {
        let mut b = NetlistBuilder::new("t");
        b.input("a");
        b.gate(GateKind::Inv, "g17", &["a"]);
        b.output("g17", "g17"); // bench style: OUTPUT(G17)
        let n = b.finish().unwrap();
        assert_eq!(n.outputs().len(), 1);
        let port = n.outputs()[0];
        assert_eq!(n.fanin(port), &[n.find("g17").unwrap()]);
    }

    #[test]
    fn dff_shorthand() {
        let mut b = NetlistBuilder::new("t");
        b.input("d");
        b.dff("q", "d");
        b.output("o", "q");
        let n = b.finish().unwrap();
        assert_eq!(n.dffs().len(), 1);
    }
}
