//! A long-lived job service wrapping the DAC'96 flows.
//!
//! The flows in `tpi-core` ([`tpi_core::FullScanFlow`],
//! [`tpi_core::PartialScanFlow`]) are one-shot: build, run, drop. Batch
//! DFT exploration wants something longer-lived — sweep a directory of
//! netlists through several methods, re-run with tweaked configs, and
//! never pay twice for work already done. This crate provides that as a
//! std-only service:
//!
//! * [`JobService`] — a fixed pool of workers (built on
//!   [`tpi_par::WorkerPool`]) draining a queue of [`JobSpec`]s and
//!   returning structured [`JobReport`]s through per-job handles;
//! * [`key`] — content-addressed cache keys: an FNV-64 fingerprint of
//!   the *canonicalized* netlist (internal combinational gate names and
//!   BLIF formatting do not matter) combined with the flow kind and its
//!   determinism-relevant config;
//! * [`cache`] — an in-memory LRU of rendered result payloads, with an
//!   optional on-disk spill directory that survives service restarts;
//! * deadlines and cancellation — every job carries a
//!   [`tpi_core::Progress`] token the flows checkpoint at iteration
//!   boundaries, so an expired deadline surfaces as
//!   [`JobStatus::TimedOut`] without poisoning the queue.
//!
//! Payloads are deterministic by construction: they contain only
//! thread-count-independent counters and results, so a cold run, a warm
//! cache hit, and a run at any [`ServiceConfig::threads`] setting produce
//! byte-identical bytes for the same netlist + config.
//!
//! Worker sizing belongs to the service: every job runs at
//! [`ServiceConfig::threads`]. Jobs carry their other run knobs as a
//! [`tpi_core::FlowOptions`] (progress / deadline / metrics; its thread
//! count is ignored), every live run's phase spans and counters ride on
//! [`JobReport::metrics`] as a [`tpi_obs::FlowMetrics`], and each report
//! also snapshots the aggregate service metrics — job counts, cache hit
//! rate, queue-latency histogram — as [`MetricsSnapshot`]
//! ([`JobService::metrics_json`] renders the same snapshot on demand).

pub mod cache;
pub mod job;
pub mod key;
pub mod service;

pub use cache::{CacheSource, ResultCache};
pub use job::{FlowKind, JobSpec, NetlistSource};
pub use key::{cache_key, netlist_fingerprint, CacheKey, Fnv64};
pub use service::{
    JobHandle, JobReport, JobService, JobStatus, JobTicket, MetricsSnapshot, ServiceConfig,
};
pub use tpi_core::FlowOptions;
/// The parser behind [`NetlistSource::Blif`], for callers that key a
/// borrowed BLIF text without copying it into a source.
pub use tpi_netlist::parse_blif;
