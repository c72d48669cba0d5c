//! Cooperative progress reporting, deadlines and cancellation.
//!
//! A [`Progress`] is shared (via `Arc`) between a caller — typically the
//! `tpi-serve` job service — and a running flow. The flow checks
//! [`Progress::checkpoint`] at iteration boundaries (greedy selection
//! rounds, cycle-breaking rounds) and bails out with [`Canceled`] when
//! the caller canceled the run or its deadline passed. Alongside the
//! token, `Progress` carries the per-phase run counters that replaced
//! the ad-hoc wall-clock timing the flows used to do themselves:
//! callers that want timing measure around the flow call; callers that
//! want to know *what the run did* read [`Progress::snapshot`].
//!
//! Counter determinism: `paths_enumerated`, `candidates_evaluated`,
//! `test_points_placed` and `rounds` are pure functions of the input
//! netlist and configuration — identical at every `threads` setting (the
//! flows increment them by scheduling-independent amounts). The
//! speculative `plans_attempted` counter is the exception: parallel
//! TPTIME planning speculates past the first hit, so its value may grow
//! with the worker count. Result payloads that must be byte-identical
//! across thread counts (the `tpi-serve` cache contract) therefore
//! include only the deterministic counters.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Why a run stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelKind {
    /// The caller canceled the run explicitly.
    Canceled,
    /// The run's deadline passed.
    DeadlineExceeded,
}

/// Error returned by [`Progress::checkpoint`] and propagated out of the
/// flows' `run_with` entry points when a run is stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Canceled {
    /// What stopped the run.
    pub kind: CancelKind,
}

impl fmt::Display for Canceled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            CancelKind::Canceled => write!(f, "run canceled"),
            CancelKind::DeadlineExceeded => write!(f, "run deadline exceeded"),
        }
    }
}

impl std::error::Error for Canceled {}

/// Shared cancellation token, deadline, and per-phase run counters.
///
/// Cheap to share: every field is atomic, so one instance can be read by
/// a monitoring thread while flow workers increment it.
#[derive(Debug, Default)]
pub struct Progress {
    cancel: AtomicBool,
    deadline: Option<Instant>,
    paths_enumerated: AtomicU64,
    candidates_evaluated: AtomicU64,
    test_points_placed: AtomicU64,
    rounds: AtomicU64,
    plans_attempted: AtomicU64,
}

impl Progress {
    /// A token with no deadline; never fires unless [`Progress::cancel`]
    /// is called.
    pub fn new() -> Self {
        Progress::default()
    }

    /// A token whose [`Progress::checkpoint`] fails once `budget` has
    /// elapsed from *now*.
    pub fn with_deadline(budget: Duration) -> Self {
        Progress::with_deadline_at(Instant::now() + budget)
    }

    /// A token with an absolute deadline.
    pub fn with_deadline_at(at: Instant) -> Self {
        Progress { deadline: Some(at), ..Progress::default() }
    }

    /// Requests cancellation; the next [`Progress::checkpoint`] fails.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// True once [`Progress::cancel`] was called.
    pub fn is_canceled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Cooperative stop check: flows call this at iteration boundaries.
    ///
    /// # Errors
    /// [`Canceled`] when the token was canceled or the deadline passed.
    pub fn checkpoint(&self) -> Result<(), Canceled> {
        if self.is_canceled() {
            return Err(Canceled { kind: CancelKind::Canceled });
        }
        if let Some(at) = self.deadline {
            if Instant::now() >= at {
                return Err(Canceled { kind: CancelKind::DeadlineExceeded });
            }
        }
        Ok(())
    }

    /// Records `n` enumerated FF-to-FF candidate paths.
    pub fn add_paths_enumerated(&self, n: u64) {
        self.paths_enumerated.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` candidate gain/plan evaluations.
    pub fn add_candidates_evaluated(&self, n: u64) {
        self.candidates_evaluated.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` placed test points (AND/OR insertions, virtual or
    /// physical).
    pub fn add_test_points_placed(&self, n: u64) {
        self.test_points_placed.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one selection round (greedy iteration or cycle-breaking
    /// round).
    pub fn add_round(&self) {
        self.rounds.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` zero-degradation planning attempts (may include
    /// speculative ones; see the module docs on determinism).
    pub fn add_plans_attempted(&self, n: u64) {
        self.plans_attempted.fetch_add(n, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            paths_enumerated: self.paths_enumerated.load(Ordering::Relaxed),
            candidates_evaluated: self.candidates_evaluated.load(Ordering::Relaxed),
            test_points_placed: self.test_points_placed.load(Ordering::Relaxed),
            rounds: self.rounds.load(Ordering::Relaxed),
            plans_attempted: self.plans_attempted.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of a [`Progress`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    /// FF-to-FF candidate paths enumerated.
    pub paths_enumerated: u64,
    /// Candidate evaluations (TPGREED gain sweeps plus the deterministic
    /// per-round TPTIME candidate count).
    pub candidates_evaluated: u64,
    /// Test points placed (TPGREED selections plus TPTIME plan inserts).
    pub test_points_placed: u64,
    /// Selection rounds executed.
    pub rounds: u64,
    /// Raw zero-degradation planning attempts, including speculative
    /// ones (thread-count dependent; excluded from cacheable payloads).
    pub plans_attempted: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_passes_checkpoints() {
        let p = Progress::new();
        assert!(p.checkpoint().is_ok());
        assert!(!p.is_canceled());
    }

    #[test]
    fn cancel_fires_checkpoint() {
        let p = Progress::new();
        p.cancel();
        assert_eq!(p.checkpoint(), Err(Canceled { kind: CancelKind::Canceled }));
    }

    #[test]
    fn expired_deadline_fires_checkpoint() {
        let p = Progress::with_deadline(Duration::ZERO);
        assert_eq!(p.checkpoint(), Err(Canceled { kind: CancelKind::DeadlineExceeded }));
    }

    #[test]
    fn generous_deadline_passes() {
        let p = Progress::with_deadline(Duration::from_secs(3600));
        assert!(p.checkpoint().is_ok());
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let p = Progress::new();
        p.add_paths_enumerated(3);
        p.add_candidates_evaluated(10);
        p.add_candidates_evaluated(5);
        p.add_test_points_placed(2);
        p.add_round();
        p.add_round();
        p.add_plans_attempted(7);
        let s = p.snapshot();
        assert_eq!(s.paths_enumerated, 3);
        assert_eq!(s.candidates_evaluated, 15);
        assert_eq!(s.test_points_placed, 2);
        assert_eq!(s.rounds, 2);
        assert_eq!(s.plans_attempted, 7);
    }

    #[test]
    fn cancellation_error_displays() {
        let c = Canceled { kind: CancelKind::DeadlineExceeded };
        assert!(c.to_string().contains("deadline"));
    }
}
