//! `tpi-dfa`: netlist dataflow analyses over the shared [`NetView`]
//! structure-of-arrays snapshot.
//!
//! Three production analyses on one tiny framework:
//!
//! - [`Scoap`] — CC0/CC1/CO testability (forward + backward monotone
//!   fixpoints, saturating arithmetic).
//! - [`DomTree`] — structural observation dominators (single-point
//!   observation bottlenecks, coverage proofs).
//! - [`XReach`] — one-pass X-propagation reach from uninitialized
//!   flip-flops.
//!
//! The framework contract, shared by all three: every analysis is a
//! pure function of the snapshot, sweeps run in the view's
//! deterministic topo order (forward or reversed), transfer functions
//! are monotone on their lattice (saturating `u32` min-cost for SCOAP,
//! the dominator semilattice under [`DomTree`]'s intersection, boolean
//! OR for X-reach flags), and sequential loops are closed by
//! [`fixpoint`]-style iterate-to-convergence with an asserted pass
//! bound. Nothing here depends on thread count, hash order, or
//! allocation addresses, so results are byte-identical across
//! `--threads 1/2/0` by construction — the same determinism contract
//! the rest of the workspace gates in CI.
//!
//! Consumers: `tpi-lint` surfaces the results as TPI200-series
//! diagnostics and the `--analysis` table; `tpi-core` ranks TPGREED
//! candidates with `GainModel::Scoap` weights and reports an analysis
//! section in `FlowMetrics`.

// The whole crate builds clean under `clippy::pedantic` modulo the
// narrow allowlist below, and the workspace `-D warnings` CI step
// enforces it. Index↔`u32` casts are the crate's bread and butter
// (`NetView` stores gate indices as `u32`, analyses use `usize`), and
// `#[must_use]` on pure accessors is noise — everything else pedantic
// flags is a hard error here.
#![warn(clippy::pedantic)]
#![allow(clippy::cast_possible_truncation, clippy::must_use_candidate)]
// Test fixtures name gates a..e after the paper's figures.
#![cfg_attr(test, allow(clippy::many_single_char_names))]

mod dominators;
mod scoap;
mod xprop;

pub use dominators::{DomTree, UNREACHABLE};
pub use scoap::{Scoap, SAT};
pub use xprop::XReach;

use tpi_sim::NetView;

/// Runs `pass` — one monotone sweep returning whether anything changed
/// — until the fixpoint, asserting it lands within `bound` sweeps.
/// Returns the number of sweeps run (including the final no-change
/// confirmation).
///
/// # Panics
/// Panics if the fixpoint takes more than `bound` sweeps, which for a
/// monotone transfer function on a finite lattice indicates a bug.
pub fn fixpoint(name: &str, bound: u32, mut pass: impl FnMut() -> bool) -> u32 {
    let mut sweeps = 0u32;
    loop {
        sweeps += 1;
        assert!(sweeps <= bound, "{name}: fixpoint exceeded {bound} sweeps");
        if !pass() {
            return sweeps;
        }
    }
}

/// All three analyses over one snapshot, plus the deterministic summary
/// the flow reports in `FlowMetrics`.
#[derive(Debug, Clone)]
pub struct NetlistAnalysis {
    /// SCOAP testability vectors.
    pub scoap: Scoap,
    /// Observation dominator tree.
    pub dominators: DomTree,
    /// X reach from uninitialized flip-flops.
    pub xreach: XReach,
}

impl NetlistAnalysis {
    /// Runs SCOAP, dominators and X-prop over `view`.
    pub fn run(view: &NetView) -> NetlistAnalysis {
        NetlistAnalysis {
            scoap: Scoap::analyze(view),
            dominators: DomTree::observation(view),
            xreach: XReach::analyze(view),
        }
    }

    /// Deterministic scalar summary, ordered by key. Saturated ([`SAT`])
    /// measures are excluded from the maxima and counted separately.
    pub fn metrics(&self) -> Vec<(&'static str, u64)> {
        let n = self.scoap.co.len();
        let finite_max =
            |v: &[u32]| u64::from(v.iter().copied().filter(|&x| x != SAT).max().unwrap_or(0));
        let sizes = self.dominators.dominated_sizes();
        let mut bottlenecks = 0u64;
        let mut max_cone = 0u64;
        for (v, &size) in sizes.iter().enumerate().take(n) {
            if self.dominators.has_bottleneck(v) {
                bottlenecks += 1;
            }
            if self.dominators.idom(v).is_some() && u64::from(size) > max_cone {
                max_cone = u64::from(size);
            }
        }
        vec![
            ("dom_bottleneck_nets", bottlenecks),
            ("dom_max_cone", max_cone),
            ("scoap_cc_max", finite_max(&self.scoap.cc0).max(finite_max(&self.scoap.cc1))),
            ("scoap_co_max", finite_max(&self.scoap.co)),
            ("scoap_unobservable_nets", self.scoap.co.iter().filter(|&&c| c == SAT).count() as u64),
            ("xreach_nets", self.xreach.reachable_nets() as u64),
            ("xreach_sources", self.xreach.ff_count as u64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_netlist::{GateKind, Netlist};

    #[test]
    fn fixpoint_counts_sweeps() {
        let mut left = 3;
        let sweeps = fixpoint("t", 10, || {
            left -= 1;
            left > 0
        });
        assert_eq!(sweeps, 3);
    }

    #[test]
    #[should_panic(expected = "fixpoint exceeded")]
    fn fixpoint_asserts_the_bound() {
        fixpoint("t", 2, || true);
    }

    #[test]
    fn metrics_are_ordered_and_complete() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let ff = n.add_gate(GateKind::Dff, "ff");
        n.connect(a, ff).unwrap();
        let g = n.add_gate(GateKind::And, "g");
        n.connect(a, g).unwrap();
        n.connect(ff, g).unwrap();
        n.add_output("y", g).unwrap();
        let m = NetlistAnalysis::run(&NetView::new(&n)).metrics();
        let keys: Vec<_> = m.iter().map(|(k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "metric keys must be pre-sorted");
        let get = |k: &str| m.iter().find(|(mk, _)| *mk == k).unwrap().1;
        assert_eq!(get("xreach_sources"), 1);
        assert!(get("xreach_nets") >= 2); // ff, g, y
        assert_eq!(get("scoap_unobservable_nets"), 0);
    }
}
