//! [`FlowOptions`]: one builder for everything a flow run can carry.
//!
//! Before PR 4 the `threads` / [`Progress`] / deadline plumbing was
//! duplicated across `FullScanFlow`, `PartialScanFlow`, and the job
//! service's `JobSpec` — three slightly different spellings of the same
//! four knobs. `FlowOptions` is the shared spelling: build one, hand it
//! to [`FullScanFlow::run_with`](crate::flow::FullScanFlow::run_with) /
//! [`PartialScanFlow::run_with`](crate::flow::PartialScanFlow::run_with)
//! (or embed it in a `JobSpec`), and the flow resolves it into a
//! concrete progress token, worker count, and metrics recorder.
//!
//! Options never change a flow's results. What does — the TPGREED
//! parameters and gain model, the partial-scan method — lives on the
//! flow itself ([`TpGreedConfig`](crate::tpgreed::TpGreedConfig),
//! [`PartialScanMethod`](crate::flow::PartialScanMethod)).
//!
//! ```
//! use std::time::Duration;
//! use tpi_core::FlowOptions;
//!
//! assert_eq!(FlowOptions::new().threads(), 1); // sequential by default
//! let opts = FlowOptions::new()
//!     .with_threads(0) // all hardware threads
//!     .with_deadline(Duration::from_secs(30));
//! assert_eq!(opts.threads(), 0);
//! ```

use crate::progress::Progress;
use std::sync::Arc;
use std::time::Duration;
use tpi_obs::Recorder;

/// Options shared by every flow entry point: worker threads, cooperative
/// progress/cancellation, a deadline, and a metrics recorder.
///
/// All knobs are optional; `FlowOptions::default()` runs sequentially
/// with a fresh progress token, no deadline, and a private recorder.
///
/// An explicit [`FlowOptions::with_progress`] token wins over
/// [`FlowOptions::with_deadline`]: its own deadline (if any) governs,
/// because [`Progress`] deadlines are fixed at construction. Without an
/// explicit token, the flow builds a fresh one from the deadline.
#[derive(Debug, Clone, Default)]
pub struct FlowOptions {
    threads: Option<usize>,
    progress: Option<Arc<Progress>>,
    deadline: Option<Duration>,
    metrics: Option<Arc<Recorder>>,
}

impl FlowOptions {
    /// All defaults: one thread, no deadline, fresh progress, private
    /// recorder.
    pub fn new() -> Self {
        FlowOptions::default()
    }

    /// Sets the worker-thread knob: `1` sequential, `0` all hardware
    /// threads. Flow *results* are identical for every setting.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Attaches a shared progress token for cancellation and counters.
    /// Takes precedence over [`FlowOptions::with_deadline`] (see the
    /// type-level docs).
    pub fn with_progress(mut self, progress: Arc<Progress>) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Gives the run `budget` of wall time from the moment it starts;
    /// past it, the flow stops at the next checkpoint with
    /// [`CancelKind::DeadlineExceeded`](crate::progress::CancelKind).
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Attaches a metrics recorder; the flow records its phase spans and
    /// counters into it (in addition to returning the finished
    /// [`FlowMetrics`](tpi_obs::FlowMetrics) on the result). Useful for
    /// aggregating several runs into one recorder.
    pub fn with_metrics(mut self, recorder: Arc<Recorder>) -> Self {
        self.metrics = Some(recorder);
        self
    }

    /// The worker-thread knob: `1` when unset.
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or(1)
    }

    /// The attached progress token, if any.
    pub fn progress(&self) -> Option<&Arc<Progress>> {
        self.progress.as_ref()
    }

    /// The deadline budget, if one was set.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The attached recorder, if any.
    pub fn metrics(&self) -> Option<&Arc<Recorder>> {
        self.metrics.as_ref()
    }

    /// Resolves the progress token a run should use: the explicit one if
    /// attached, else a fresh token armed with the deadline (if any).
    pub fn resolve_progress(&self) -> Arc<Progress> {
        match (&self.progress, self.deadline) {
            (Some(p), _) => Arc::clone(p),
            (None, Some(budget)) => Arc::new(Progress::with_deadline(budget)),
            (None, None) => Arc::new(Progress::new()),
        }
    }

    /// Resolves the recorder a run should write to: the explicit one if
    /// attached, else a fresh private recorder.
    pub fn resolve_recorder(&self) -> Arc<Recorder> {
        self.metrics.clone().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_inert() {
        let o = FlowOptions::new();
        assert_eq!(o.threads(), 1);
        assert!(o.progress().is_none());
        assert!(o.deadline().is_none());
        assert!(o.metrics().is_none());
        assert!(o.resolve_progress().checkpoint().is_ok());
    }

    #[test]
    fn explicit_progress_wins_over_deadline() {
        let token = Arc::new(Progress::new());
        let o = FlowOptions::new().with_progress(Arc::clone(&token)).with_deadline(Duration::ZERO);
        let resolved = o.resolve_progress();
        assert!(Arc::ptr_eq(&resolved, &token));
        assert!(resolved.checkpoint().is_ok(), "the token's (absent) deadline governs");
    }

    #[test]
    fn deadline_arms_a_fresh_token() {
        let o = FlowOptions::new().with_deadline(Duration::ZERO);
        assert!(o.resolve_progress().checkpoint().is_err());
    }

    #[test]
    fn attached_recorder_is_resolved_by_identity() {
        let rec = Arc::new(Recorder::new());
        let o = FlowOptions::new().with_metrics(Arc::clone(&rec));
        assert!(Arc::ptr_eq(&o.resolve_recorder(), &rec));
    }
}
