//! Ergonomic name-based netlist construction.

use crate::error::NetlistError;
use crate::gate::{GateId, GateKind};
use crate::netlist::{offset, span, NameIndex, Netlist, FREE};
use std::fmt::Write as _;

/// A builder that wires gates by *name*, deferring resolution so gates can
/// be referenced before they are declared (as `.bench` files do).
///
/// Each name is interned the first time the builder sees it: hashed
/// once, copied once into one arena, and known by a symbol from then
/// on. [`NetlistBuilder::finish`] resolves symbols to gates with array
/// lookups and hands the arena and its index to the netlist.
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
    symbols: Symbols,
    inputs: Vec<Sym>,
    /// `(port, driving net)` pairs.
    outputs: Vec<(Sym, Sym)>,
    /// Flip-flops declared by [`NetlistBuilder::latch`]; they precede
    /// every gate of `gates` in the netlist.
    latches: Vec<GateDecl>,
    gates: Vec<GateDecl>,
    /// Fanins of every gate, back to back; a [`GateDecl`] holds its
    /// range.
    fanins: Vec<Sym>,
}

/// A name interned by a [`NetlistBuilder`]: its rank in first-sight
/// order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub(crate) struct Sym(u32);

impl Sym {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// One declared gate: `name = kind(fanins...)`, its fanins at
/// `fanins.0..fanins.1` of [`NetlistBuilder::fanins`].
#[derive(Debug, Clone, Copy)]
struct GateDecl {
    kind: GateKind,
    name: Sym,
    fanins: (u32, u32),
}

/// Every distinct name a builder has seen, with the index that finds
/// its symbol. The index is keyed like a netlist's, so it becomes the
/// netlist's once its ids are renumbered from symbols to gates.
#[derive(Debug, Clone)]
struct Symbols {
    /// Each name once, back to back, in first-sight order.
    names: String,
    /// `start..end` of each symbol's name in `names`.
    spans: Vec<(u32, u32)>,
    index: NameIndex,
}

impl Symbols {
    fn new() -> Self {
        Symbols { names: String::new(), spans: Vec::new(), index: NameIndex::new() }
    }

    fn len(&self) -> usize {
        self.spans.len()
    }

    fn name(&self, s: Sym) -> &str {
        span(&self.names, self.spans[s.index()])
    }

    fn is_empty_name(&self, s: Sym) -> bool {
        let (start, end) = self.spans[s.index()];
        start == end
    }

    /// The gate of symbol `s` in `gate_of`.
    fn gate(&self, gate_of: &[u32], s: Sym) -> Result<GateId, NetlistError> {
        match gate_of[s.index()] {
            FREE => Err(NetlistError::UnknownName(self.name(s).to_string())),
            g => Ok(GateId(g)),
        }
    }

    /// The symbol of `name`, new if the name is: one probe.
    fn intern(&mut self, name: &str) -> Sym {
        self.index.reserve(1);
        let hash = self.index.hash(name);
        match self.index.probe(hash, name, |id| span(&self.names, self.spans[id as usize])) {
            Ok(id) => Sym(id),
            Err(slot) => {
                assert!(self.spans.len() < FREE as usize, "builder exceeds {FREE} names");
                let id = self.spans.len() as u32;
                let start = offset(self.names.len());
                self.names.push_str(name);
                self.spans.push((start, offset(self.names.len())));
                self.index.insert_at(slot, hash, id);
                Sym(id)
            }
        }
    }

    /// The symbol of the name [`Netlist::add_gate`] gives gate `id` of
    /// `kind` when asked for `name`, where a name is taken when its
    /// symbol has a gate in `gate_of`. `gate_of` grows, free, with any
    /// symbol this interns.
    fn unique(&mut self, kind: GateKind, name: &str, id: usize, gate_of: &mut Vec<u32>) -> Sym {
        let mut base = name.to_string();
        if base.is_empty() {
            base.push_str(&kind.label().to_ascii_lowercase());
            write!(base, "_{id}").expect("writing to a String");
        }
        let mut candidate = base.clone();
        let mut suffix = id;
        loop {
            let s = self.intern(&candidate);
            gate_of.resize(self.len(), FREE);
            if gate_of[s.index()] == FREE {
                return s;
            }
            candidate.truncate(base.len());
            write!(candidate, "_{suffix}").expect("writing to a String");
            suffix += 1;
        }
    }
}

impl NetlistBuilder {
    /// Creates a builder for a design named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            symbols: Symbols::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            latches: Vec::new(),
            gates: Vec::new(),
            fanins: Vec::new(),
        }
    }

    /// Declares a primary input.
    pub fn input(&mut self, name: impl AsRef<str>) -> &mut Self {
        let name = self.intern(name.as_ref());
        self.inputs.push(name);
        self
    }

    /// Declares a primary output port `name` driven by net `src`.
    pub fn output(&mut self, name: impl AsRef<str>, src: impl AsRef<str>) -> &mut Self {
        let name = self.intern(name.as_ref());
        let src = self.intern(src.as_ref());
        self.output_sym(name, src);
        self
    }

    /// Declares a gate `name = kind(fanins...)`.
    pub fn gate(&mut self, kind: GateKind, name: impl AsRef<str>, fanins: &[&str]) -> &mut Self {
        let name = self.intern(name.as_ref());
        let first = self.fanins.len();
        for fin in fanins {
            let fin = self.intern(fin);
            self.fanins.push(fin);
        }
        let decl = self.decl(kind, name, first);
        self.gates.push(decl);
        self
    }

    /// Shorthand for a D flip-flop `name = DFF(d)`.
    pub fn dff(&mut self, name: impl AsRef<str>, d: impl AsRef<str>) -> &mut Self {
        self.gate(GateKind::Dff, name, &[d.as_ref()])
    }

    /// The symbol of `name`, for parsers that declare by symbol.
    pub(crate) fn intern(&mut self, name: &str) -> Sym {
        self.symbols.intern(name)
    }

    /// The name of symbol `s`.
    pub(crate) fn name_of(&self, s: Sym) -> &str {
        self.symbols.name(s)
    }

    /// [`NetlistBuilder::output`] by symbol.
    pub(crate) fn output_sym(&mut self, name: Sym, src: Sym) {
        self.outputs.push((name, src));
    }

    /// [`NetlistBuilder::gate`] by symbol.
    pub(crate) fn gate_sym(&mut self, kind: GateKind, name: Sym, fanins: &[Sym]) {
        let first = self.fanins.len();
        self.fanins.extend_from_slice(fanins);
        let decl = self.decl(kind, name, first);
        self.gates.push(decl);
    }

    /// Declares a flip-flop `q = DFF(d)` ahead of every gate, whenever
    /// it is declared. BLIF may declare a `.latch` after the covers
    /// that read it, while the parsed netlist numbers flip-flops before
    /// every cover gate.
    pub(crate) fn latch(&mut self, q: Sym, d: Sym) {
        let first = self.fanins.len();
        self.fanins.push(d);
        let decl = self.decl(GateKind::Dff, q, first);
        self.latches.push(decl);
    }

    /// A gate named `name` whose fanins start at `fanins[first]` and
    /// run to the end.
    fn decl(&self, kind: GateKind, name: Sym, first: usize) -> GateDecl {
        GateDecl { kind, name, fanins: (offset(first), offset(self.fanins.len())) }
    }

    /// Renames the design; for parsers that learn the name late.
    pub(crate) fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Resolves all names and produces a validated [`Netlist`].
    ///
    /// The result, and on failure the first error, is what declaring
    /// every input, latch and gate, then connecting each gate's fanins
    /// in gate order, then adding each output would give. The build
    /// gets there in bulk: every name was interned when it was
    /// declared to the builder, so symbols resolve to gates by array
    /// lookup, the fanin and fanout lists are laid out back to back in
    /// two arenas, each allocated once at its final length, and the
    /// name arena and index move into the netlist without a name being
    /// hashed again.
    ///
    /// # Errors
    /// Fails on unknown or duplicate names, arity violations, or
    /// combinational cycles.
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        let NetlistBuilder { name, mut symbols, inputs, outputs, latches, gates, fanins } = self;
        let declared = inputs.len() + latches.len() + gates.len();
        let mut n =
            Netlist::with_capacity(name, declared + outputs.len(), fanins.len() + outputs.len());
        // The gate of each symbol, or `FREE` while its name is not
        // taken.
        let mut gate_of = vec![FREE; symbols.len()];
        // Declare. An empty name gets `Netlist::add_gate`'s generated
        // one.
        let decls = inputs.iter().map(|&s| (GateKind::Input, s));
        let decls = decls.chain(latches.iter().chain(&gates).map(|d| (d.kind, d.name)));
        for (kind, mut s) in decls {
            if symbols.is_empty_name(s) {
                s = symbols.unique(kind, "", n.gate_count(), &mut gate_of);
            } else if gate_of[s.index()] != FREE {
                return Err(NetlistError::DuplicateName(symbols.name(s).to_string()));
            }
            gate_of[s.index()] = n.push_unindexed(kind, symbols.spans[s.index()]).0;
        }
        // Resolve every fanin in gate order, checking each pin as
        // `Netlist::connect` would.
        for (i, decl) in latches.iter().chain(&gates).enumerate() {
            if symbols.is_empty_name(decl.name) {
                return Err(NetlistError::UnknownName(String::new()));
            }
            let g = GateId::from_index(inputs.len() + i);
            let (first, end) = decl.fanins;
            for (pin, &fin) in fanins[first as usize..end as usize].iter().enumerate() {
                let src = symbols.gate(&gate_of, fin)?;
                Netlist::check_wiring((src, n.kind(src)), (g, decl.kind), pin)?;
                n.push_fanin(g, src);
            }
        }
        for &(port, src) in &outputs {
            let s = symbols.gate(&gate_of, src)?;
            // ISCAS89 benches name the output port after the net that
            // drives it; uniquify with a suffix.
            let name = match symbols.name(port) {
                name if gate_of[port.index()] != FREE => format!("{name}__po"),
                name => name.to_string(),
            };
            let sym = symbols.unique(GateKind::Output, &name, n.gate_count(), &mut gate_of);
            let g = n.push_unindexed(GateKind::Output, symbols.spans[sym.index()]);
            gate_of[sym.index()] = g.0;
            Netlist::check_wiring((s, n.kind(s)), (g, GateKind::Output), 0)?;
            n.push_fanin(g, s);
        }
        let Symbols { names, mut index, .. } = symbols;
        index.renumber(&gate_of);
        n.adopt_names(names, index);
        n.wire_fanouts();
        n.validate_built()?;
        debug_assert_eq!(n.validate(), Ok(()), "a bulk build mirrors fanins by construction");
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
    fn duplicate_after_an_unknown_fanin_is_reported_first() {
        // Every name is declared before any fanin is resolved.
        let mut b = NetlistBuilder::new("t");
        b.input("a");
        b.gate(GateKind::Inv, "g", &["nope"]);
        b.gate(GateKind::Buf, "a", &["a"]);
        assert_eq!(b.finish(), Err(NetlistError::DuplicateName("a".into())));
    }

    #[test]
    fn unknown_fanin_in_an_earlier_gate_beats_a_later_arity_error() {
        let mut b = NetlistBuilder::new("t");
        b.input("a");
        b.gate(GateKind::Buf, "g", &["nope"]);
        b.gate(GateKind::Inv, "h", &["a", "a"]);
        assert_eq!(b.finish(), Err(NetlistError::UnknownName("nope".into())));
    }

    #[test]
    fn latch_colliding_with_a_cover_output_is_a_duplicate() {
        // Latches are declared ahead of every gate, so the gate declared
        // first is the one reported as the duplicate.
        let mut b = NetlistBuilder::new("t");
        b.input("a");
        b.gate(GateKind::Buf, "y", &["a"]);
        let (q, d) = (b.intern("y"), b.intern("a"));
        b.latch(q, d);
        assert_eq!(b.finish(), Err(NetlistError::DuplicateName("y".into())));
    }

    #[test]
    fn latches_precede_gates_declared_before_them() {
        let mut b = NetlistBuilder::new("t");
        b.input("a");
        b.gate(GateKind::Inv, "g", &["q"]);
        let (q, d) = (b.intern("q"), b.intern("g"));
        b.latch(q, d);
        let n = b.finish().unwrap();
        let names: Vec<&str> = n.gate_ids().map(|g| n.gate_name(g)).collect();
        assert_eq!(names, ["a", "q", "g"]);
    }

    #[test]
    fn empty_names_get_generated_ones() {
        let mut b = NetlistBuilder::new("t");
        b.input("");
        b.input("b");
        b.gate(GateKind::And, "g", &["input_0", "b"]);
        b.output("", "g");
        let n = b.finish().unwrap();
        let names: Vec<&str> = n.gate_ids().map(|g| n.gate_name(g)).collect();
        assert_eq!(names, ["input_0", "b", "g", "output_3"]);
        assert_eq!(n.find("input_0"), Some(GateId::from_index(0)));
    }

    #[test]
    fn generated_name_taken_by_a_later_declaration_is_a_duplicate() {
        let mut b = NetlistBuilder::new("t");
        b.input("");
        b.input("input_0");
        assert_eq!(b.finish(), Err(NetlistError::DuplicateName("input_0".into())));
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
