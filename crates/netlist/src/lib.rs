//! Gate-level netlist model for the `scanpath` design-for-testability toolkit.
//!
//! This crate is the structural substrate of the reproduction of
//! *"Test Point Insertion: Scan Paths through Combinational Logic"*
//! (Lin, Marek-Sadowska, Cheng, Lee — DAC 1996). It provides:
//!
//! * [`Netlist`] — a mutable gate-level circuit graph over primitive gates
//!   (AND/OR/NAND/NOR/INV/BUF/XOR/XNOR/MUX), D flip-flops and I/O ports,
//!   with the connection-splicing edits that test-point insertion needs;
//! * [`GateKind`] / [`GateId`] / [`Conn`] — the vocabulary used by every
//!   other crate in the workspace;
//! * [`mod@bench`] — an ISCAS89 `.bench` format parser and writer;
//! * [`TechLibrary`] — a technology library with the linear delay model
//!   `delay(g) = block(g) + drive(g) * load` used by the paper's static
//!   timing analysis (§II of the paper);
//! * [`NetlistStats`] — interface/area statistics as reported in the
//!   paper's Table II.
//!
//! # Example
//!
//! Build the tiny circuit of the paper's Figure 1 and query it:
//!
//! ```
//! use tpi_netlist::{Netlist, GateKind};
//!
//! # fn main() -> Result<(), tpi_netlist::NetlistError> {
//! let mut n = Netlist::new("fig1");
//! let x = n.add_input("x");
//! let f1 = n.add_gate(GateKind::Dff, "F1");
//! let g = n.add_gate(GateKind::Or, "g");
//! n.connect(x, g)?;
//! n.connect(f1, g)?;
//! let f2 = n.add_gate(GateKind::Dff, "F2");
//! n.connect(g, f2)?;
//! assert_eq!(n.fanout(f1).len(), 1);
//! assert!(n.topo_order()?.len() > 0);
//! # Ok(())
//! # }
//! ```

mod bench_io;
mod blif;
mod builder;
mod error;
mod gate;
mod library;
mod netlist;
pub mod region;
mod stats;
mod topo;
pub mod transform;
mod verilog;

pub use bench_io::{parse_bench, write_bench, ParseBenchError};
pub use blif::{parse_blif, write_blif, ParseBlifError};
pub use builder::NetlistBuilder;
pub use error::NetlistError;
pub use gate::{Conn, GateId, GateKind};
pub use library::{Cell, TechLibrary};
pub use netlist::Netlist;
pub use region::Region;
pub use stats::{net_loads, NetlistStats};
pub use topo::{find_comb_cycle, levelize, TopoError};
pub use verilog::write_verilog;

/// Convenience module for ISCAS89 `.bench` I/O, re-exported under a
/// domain name so `tpi_netlist::bench::parse_bench` reads naturally.
pub mod bench {
    pub use crate::bench_io::{parse_bench, write_bench, ParseBenchError};
}

/// Convenience module for BLIF I/O (the SIS-native format the paper's
/// prototypes consumed).
pub mod blif_io {
    pub use crate::blif::{parse_blif, write_blif, ParseBlifError};
}
