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
//! ```
//! use std::time::Duration;
//! use tpi_core::FlowOptions;
//!
//! let opts = FlowOptions::new()
//!     .with_threads(0) // all hardware threads
//!     .with_deadline(Duration::from_secs(30));
//! assert_eq!(opts.threads(), Some(0));
//! ```

use crate::progress::Progress;
use crate::tpgreed::GainModel;
use std::sync::Arc;
use std::time::Duration;
use tpi_obs::Recorder;

/// Options shared by every flow entry point: worker threads, cooperative
/// progress/cancellation, a deadline, and a metrics recorder.
///
/// All knobs are optional; `FlowOptions::default()` reproduces the
/// flows' historical behavior (flow-configured thread count, fresh
/// progress token, no deadline, private recorder).
///
/// # Precedence rules
///
/// * **Threads**: [`FlowOptions::with_threads`] overrides the flow's own
///   thread knob; unset, the flow's configuration applies.
/// * **Progress vs deadline**: an explicit [`FlowOptions::with_progress`]
///   token wins — its own deadline (if any) governs, and
///   [`FlowOptions::with_deadline`] is ignored, because [`Progress`]
///   deadlines are fixed at construction. Without an explicit token, the
///   flow builds a fresh one from the deadline.
#[derive(Debug, Clone, Default)]
pub struct FlowOptions {
    threads: Option<usize>,
    progress: Option<Arc<Progress>>,
    deadline: Option<Duration>,
    metrics: Option<Arc<Recorder>>,
    gain_model: Option<GainModel>,
}

impl FlowOptions {
    /// All defaults: flow-configured threads, no deadline, fresh
    /// progress, private recorder.
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
    /// type-level precedence rules).
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

    /// Overrides the flow's TPGREED destination weight model. Unlike
    /// [`FlowOptions::with_threads`] this changes *selections* (it is
    /// part of the flow semantics, and of the service cache key);
    /// unset, the flow configuration's model applies.
    pub fn with_gain_model(mut self, model: GainModel) -> Self {
        self.gain_model = Some(model);
        self
    }

    /// The thread override, if one was set.
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// The gain-model override, if one was set.
    pub fn gain_model(&self) -> Option<GainModel> {
        self.gain_model
    }

    /// The thread override, or `default` (normally the flow's own
    /// configuration) when unset.
    pub fn threads_or(&self, default: usize) -> usize {
        self.threads.unwrap_or(default)
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
        assert_eq!(o.threads(), None);
        assert_eq!(o.threads_or(7), 7);
        assert!(o.progress().is_none());
        assert!(o.deadline().is_none());
        assert!(o.metrics().is_none());
        assert!(o.gain_model().is_none());
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

    #[test]
    fn threads_override() {
        assert_eq!(FlowOptions::new().with_threads(0).threads_or(1), 0);
    }

    #[test]
    fn gain_model_override() {
        let o = FlowOptions::new().with_gain_model(GainModel::Scoap);
        assert_eq!(o.gain_model(), Some(GainModel::Scoap));
    }
}
