//! Scan infrastructure for the DAC'96 test-point-insertion reproduction.
//!
//! This crate supplies the substrates the paper's §IV flows stand on:
//!
//! * [`SGraph`] — the flip-flop connectivity graph (s-graph) excluding
//!   combinational internals;
//! * [`cycle_break`] — the Lee–Reddy cycle-breaking partial-scan selector
//!   (paper ref. \[6\]) and its timing-driven variant (ref. \[7\], "TD-CB"):
//!   graph reduction (source / sink / self-loop / unit-in / unit-out
//!   operations) plus max-(fanin+fanout) heuristic selection;
//! * [`ScanChain`] — the representation of a stitched scan chain whose
//!   links are either conventional scan muxes or sensitized combinational
//!   paths established by test points;
//! * [`flush`] — the §V *flush test*: shifting a pattern of alternating
//!   0's and 1's through the chain in test mode and checking the scan-out
//!   stream (accounting for inversion parity along paths through logic).

pub mod chain;
pub mod cycle_break;
pub mod flush;
pub mod sgraph;

pub use chain::{ChainLink, ScanChain, StitchError};
pub use cycle_break::{break_cycles, CycleBreakOptions, CycleBreakResult, CycleBreaker};
pub use flush::{flush_test, flush_test_inductive, FlushError, FlushMismatch, FlushReport};
pub use sgraph::SGraph;
