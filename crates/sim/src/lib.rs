//! Three-valued logic, constant implication and sequential simulation.
//!
//! This crate provides the logic-domain substrate of the DAC'96
//! test-point-insertion reproduction:
//!
//! * [`Trit`] — the 0/1/X value domain and per-gate ternary evaluation
//!   ([`eval_gate`]);
//! * [`Implication`] — the forward constant-implication engine of §III:
//!   assigning a constant at a net (as a test point or a primary-input
//!   value would) implies constants in its fanout cone; forced values
//!   *override* previously implied ones, which is exactly the paper's
//!   "side-effect constants may be changed by subsequent insertions"
//!   semantics (§IV.A, Fig. 6);
//! * [`NetView`] — a contiguous structure-of-arrays snapshot of the
//!   netlist (CSR fanin/fanout index arrays plus the topological order)
//!   shared by the engines so cone walks stay allocation-free;
//! * [`LaneEngine`] — the word-parallel twin of [`Implication`]: two
//!   `u64` bit-planes per net encode [`LANES`] independent trit lanes,
//!   so one ordered pass previews 64 candidate forces at once (the
//!   engine behind TPGREED's batched gain sweep);
//! * [`Simulator`] — a ternary cycle-based sequential simulator used to
//!   verify established scan chains by shifting patterns through them
//!   (the paper's §V flush test);
//! * [`mission_equivalent`] — lock-step random-simulation equivalence of
//!   a transformed netlist against its original in mission mode
//!   (`T = 1`), the transparency contract every DFT edit must honor.

mod equiv;
mod implication;
mod lanes;
mod simulator;
mod trit;
mod view;

pub use equiv::{mission_equivalent, Mismatch};
pub use implication::{Assignment, Implication, Preview};
pub use lanes::{LaneEngine, LANES};
pub use simulator::Simulator;
pub use trit::{eval_by, eval_gate, Trit};
pub use view::NetView;
