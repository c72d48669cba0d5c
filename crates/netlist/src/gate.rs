//! Gate primitives: identifiers, kinds and connections.

use std::fmt;

/// Identifier of a gate inside a [`crate::Netlist`].
///
/// A `GateId` doubles as the identifier of the gate's output **net**:
/// every gate drives exactly one net, so "the net `g`" and "the output of
/// gate `g`" are used interchangeably throughout the workspace, exactly as
/// the paper names signals after the gate that drives them.
///
/// `GateId`s are dense indices. Deleting gates is not supported (the DFT
/// transformations in this workspace only ever *add* gates and rewire
/// connections), so ids stay valid for the lifetime of the netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// Returns the underlying dense index.
    ///
    /// ```
    /// use tpi_netlist::{Netlist, GateKind};
    /// let mut n = Netlist::new("t");
    /// let a = n.add_input("a");
    /// assert_eq!(a.index(), 0);
    /// ```
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `GateId` from a raw index. Intended for dense side tables
    /// (e.g. timing annotations) that iterate `0..netlist.gate_count()`.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        GateId(i as u32)
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// The primitive gate alphabet.
///
/// The paper's prototype handles the primitive gates produced by SIS
/// mapping onto `nand-nor.genlib` (AND, OR, NAND, NOR, inverters) plus D
/// flip-flops; we additionally support buffers, XOR/XNOR and a 2-to-1 MUX
/// (the scan multiplexer itself is a first-class gate so that conventional
/// scan conversion stays inside the same data model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GateKind {
    /// Primary input port. No fanins.
    Input,
    /// Primary output port. Exactly one fanin; drives nothing.
    Output,
    /// N-input AND (N >= 1).
    And,
    /// N-input OR.
    Or,
    /// N-input NAND.
    Nand,
    /// N-input NOR.
    Nor,
    /// Inverter, one fanin.
    Inv,
    /// Buffer, one fanin.
    Buf,
    /// 2-input XOR.
    Xor,
    /// 2-input XNOR.
    Xnor,
    /// 2-to-1 multiplexer with fanins `[sel, d0, d1]`:
    /// output = `d0` when `sel = 0`, `d1` when `sel = 1`.
    ///
    /// Scan muxes are wired with the test input `T` on `sel`, the scan
    /// source on `d0` (test mode drives `T = 0`) and the functional data
    /// on `d1` (mission mode drives `T = 1`), mirroring §III of the paper
    /// where `T` is 1 in normal mode and 0 in test mode.
    Mux,
    /// D flip-flop: one fanin (D); the gate's net is Q.
    Dff,
    /// Constant 0 driver. No fanins.
    Const0,
    /// Constant 1 driver. No fanins.
    Const1,
}

impl GateKind {
    /// All kinds, useful for exhaustive tests.
    pub const ALL: [GateKind; 14] = [
        GateKind::Input,
        GateKind::Output,
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Inv,
        GateKind::Buf,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Mux,
        GateKind::Dff,
        GateKind::Const0,
        GateKind::Const1,
    ];

    /// True for gates that participate in the combinational network
    /// (everything except ports, flip-flops and constants).
    #[inline]
    pub fn is_combinational(self) -> bool {
        !matches!(
            self,
            GateKind::Input
                | GateKind::Output
                | GateKind::Dff
                | GateKind::Const0
                | GateKind::Const1
        )
    }

    /// True for gates that act as *sources* of the combinational timing
    /// graph: primary inputs, flip-flop outputs and constants.
    #[inline]
    pub fn is_source(self) -> bool {
        matches!(self, GateKind::Input | GateKind::Dff | GateKind::Const0 | GateKind::Const1)
    }

    /// True when the gate logically inverts the data path from any single
    /// sensitized input to the output (NAND, NOR, INV, XNOR-with-0 ... for
    /// XNOR the parity depends on the side input, handled by callers).
    ///
    /// This is the *shift polarity* used when scan data rides through the
    /// gate on a sensitized path: an inverting gate flips the shifted bit.
    #[inline]
    pub fn inverts(self) -> bool {
        matches!(self, GateKind::Nand | GateKind::Nor | GateKind::Inv | GateKind::Xnor)
    }

    /// The value that, applied to any one input, forces the gate output
    /// regardless of the other inputs (the paper's *controlling value*).
    /// `None` for gates without one (XOR/XNOR, BUF, INV, MUX, ports, FFs).
    #[inline]
    pub fn controlling_value(self) -> Option<bool> {
        match self {
            GateKind::And | GateKind::Nand => Some(false),
            GateKind::Or | GateKind::Nor => Some(true),
            _ => None,
        }
    }

    /// The value that, applied to a side input, lets the other input's
    /// value pass through (possibly inverted) — the paper's *sensitizing
    /// value*. `None` when the notion does not apply (a side input of an
    /// XOR sensitizes with *either* value; callers treat any known value
    /// as sensitizing there).
    #[inline]
    pub fn sensitizing_value(self) -> Option<bool> {
        self.controlling_value().map(|c| !c)
    }

    /// The fixed fanin arity, if the kind has one. Variadic gates
    /// (AND/OR/NAND/NOR) return `None`.
    #[inline]
    pub fn fixed_arity(self) -> Option<usize> {
        match self {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => Some(0),
            GateKind::Output | GateKind::Inv | GateKind::Buf | GateKind::Dff => Some(1),
            GateKind::Xor | GateKind::Xnor => Some(2),
            GateKind::Mux => Some(3),
            GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor => None,
        }
    }

    /// Canonical ISCAS89 `.bench` keyword for the kind, if one exists.
    pub fn bench_keyword(self) -> Option<&'static str> {
        match self {
            GateKind::And => Some("AND"),
            GateKind::Or => Some("OR"),
            GateKind::Nand => Some("NAND"),
            GateKind::Nor => Some("NOR"),
            GateKind::Inv => Some("NOT"),
            GateKind::Buf => Some("BUFF"),
            GateKind::Xor => Some("XOR"),
            GateKind::Xnor => Some("XNOR"),
            GateKind::Dff => Some("DFF"),
            GateKind::Mux => Some("MUX"),
            _ => None,
        }
    }

    /// The kind's upper-case name, as [`fmt::Display`] prints it.
    pub fn label(self) -> &'static str {
        match self {
            GateKind::Input => "INPUT",
            GateKind::Output => "OUTPUT",
            GateKind::And => "AND",
            GateKind::Or => "OR",
            GateKind::Nand => "NAND",
            GateKind::Nor => "NOR",
            GateKind::Inv => "NOT",
            GateKind::Buf => "BUFF",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Mux => "MUX",
            GateKind::Dff => "DFF",
            GateKind::Const0 => "CONST0",
            GateKind::Const1 => "CONST1",
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A *connection* `[g_source, g_sink]` in the paper's terminology: a
/// directed edge from the net driven by `source` into input pin `pin` of
/// `sink`.
///
/// The `source` is redundant with `netlist.fanin(sink)[pin]` but is kept
/// inline because most algorithms in the workspace reason about
/// connections as values detached from the netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Conn {
    /// Gate whose output net carries the signal.
    pub source: GateId,
    /// Gate receiving the signal.
    pub sink: GateId,
    /// Input pin index on `sink`.
    pub pin: u32,
}

impl Conn {
    /// Creates a connection value.
    #[inline]
    pub fn new(source: GateId, sink: GateId, pin: u32) -> Self {
        Conn { source, sink, pin }
    }
}

impl fmt::Display for Conn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} -> {}:{}]", self.source, self.sink, self.pin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controlling_and_sensitizing_values_are_consistent() {
        for k in GateKind::ALL {
            if let (Some(c), Some(s)) = (k.controlling_value(), k.sensitizing_value()) {
                assert_ne!(c, s, "{k}: controlling and sensitizing must differ");
            }
        }
        assert_eq!(GateKind::And.controlling_value(), Some(false));
        assert_eq!(GateKind::Nand.controlling_value(), Some(false));
        assert_eq!(GateKind::Or.controlling_value(), Some(true));
        assert_eq!(GateKind::Nor.controlling_value(), Some(true));
        assert_eq!(GateKind::Xor.controlling_value(), None);
        assert_eq!(GateKind::Inv.controlling_value(), None);
    }

    #[test]
    fn inversion_parity_matches_logic() {
        assert!(GateKind::Nand.inverts());
        assert!(GateKind::Nor.inverts());
        assert!(GateKind::Inv.inverts());
        assert!(!GateKind::And.inverts());
        assert!(!GateKind::Or.inverts());
        assert!(!GateKind::Buf.inverts());
        assert!(!GateKind::Mux.inverts());
    }

    #[test]
    fn arity_table() {
        assert_eq!(GateKind::Input.fixed_arity(), Some(0));
        assert_eq!(GateKind::Dff.fixed_arity(), Some(1));
        assert_eq!(GateKind::Mux.fixed_arity(), Some(3));
        assert_eq!(GateKind::And.fixed_arity(), None);
    }

    #[test]
    fn combinational_classification() {
        assert!(GateKind::And.is_combinational());
        assert!(GateKind::Mux.is_combinational());
        assert!(!GateKind::Dff.is_combinational());
        assert!(!GateKind::Input.is_combinational());
        assert!(GateKind::Dff.is_source());
        assert!(GateKind::Input.is_source());
        assert!(!GateKind::Nand.is_source());
    }

    #[test]
    fn display_forms() {
        assert_eq!(GateId(3).to_string(), "g3");
        assert_eq!(GateKind::Nand.to_string(), "NAND");
        let c = Conn::new(GateId(1), GateId(2), 0);
        assert_eq!(c.to_string(), "[g1 -> g2:0]");
    }
}
