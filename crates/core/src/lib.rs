//! The paper's contribution: **test point insertion that establishes scan
//! paths through combinational logic** (Lin, Marek-Sadowska, Cheng, Lee —
//! DAC 1996).
//!
//! Instead of paying one multiplexer per scanned flip-flop, the technique
//! re-uses existing combinational paths between flip-flops as shift
//! paths. A path is usable once all of its *side inputs* carry
//! sensitizing values in test mode; those values are produced by 2-input
//! AND test points (force 0, gated by the test input `T`), 2-input OR
//! test points (force 1, gated by `T'`), or free primary-input
//! assignments.
//!
//! Crate layout, following the paper's sections:
//!
//! * [`paths`] — FF-to-FF combinational path enumeration bounded by
//!   `K_bound` side inputs, and the sparse path matrix `A` (§III.A);
//! * [`tpgreed`] — the greedy full-scan insertion algorithm with the gain
//!   function of Equation 1 (§III.A), in both full-recompute and
//!   incremental-gain variants (§III.C);
//! * [`input_assign`] — realizing test-point constants for free via
//!   primary-input values (§III.B, in the spirit of ref. \[13\]);
//! * [`tpi_netlist::region`] — the *non-reconvergent fanin region*
//!   (§IV.A, Def. 1), kept with the netlist so `tpi-lint` can verify
//!   placements without a dependency cycle;
//! * [`tptime`] — the timing-driven recursive cost functions of
//!   Equations 2–4 with desired/side-effect constant tracking (§IV.A);
//! * [`flow`] — end-to-end flows: [`flow::FullScanFlow`] (Table I) and
//!   [`flow::PartialScanFlow`] running CB / TD-CB / TPTIME (Table III),
//!   both driven through the shared [`FlowOptions`] builder;
//! * [`options`] — [`FlowOptions`]: threads, progress, deadline and
//!   metrics in one place, shared by flows and the job service;
//! * [`phases`] — the canonical span names the flows record into
//!   `tpi-obs` (one span per phase per run);
//! * [`progress`] — the cooperative [`Progress`] hook the flows
//!   checkpoint at iteration boundaries: cancellation, deadlines, and
//!   deterministic per-phase counters;
//! * [`report`] — result rows shaped like the paper's tables.

pub mod flow;
pub mod input_assign;
pub mod options;
pub mod paths;
pub mod phases;
pub mod progress;
pub mod report;
pub mod tpgreed;
pub mod tptime;

pub use flow::{FlowError, FlushFailure, FullScanFlow, PartialScanFlow, PartialScanMethod};
pub use input_assign::assign_inputs;
pub use options::FlowOptions;
pub use paths::{enumerate_paths, enumerate_paths_with, PathId, PathSet, ScanPath, Threads};
pub use progress::{CancelKind, Canceled, CounterSnapshot, Progress};
pub use report::{Table1Row, Table3Row};
pub use tpgreed::{GainModel, GainUpdate, TpGreed, TpGreedConfig, TpGreedOutcome};
pub use tpi_netlist::Region;
pub use tpi_obs::{FlowMetrics, Recorder};
pub use tptime::{PlanAction, ScanPlan, ScanPlanner};
