//! Job descriptions: what to run, on what, with how much time.

use tpi_core::{FlowOptions, PartialScanMethod, TpGreedConfig};
use tpi_netlist::{parse_blif, Netlist, ParseBlifError};

/// Where the job's netlist comes from.
///
/// BLIF sources are parsed on the worker, so a malformed file fails
/// *that job* (as [`crate::JobStatus::Failed`]) without touching the
/// queue.
#[derive(Debug, Clone)]
pub enum NetlistSource {
    /// BLIF text, parsed when the job runs.
    Blif(String),
    /// An already-built netlist.
    Netlist(Netlist),
}

impl NetlistSource {
    /// Produces the netlist, parsing if necessary.
    pub fn resolve(&self) -> Result<Netlist, ParseBlifError> {
        match self {
            NetlistSource::Blif(text) => parse_blif(text),
            NetlistSource::Netlist(n) => Ok(n.clone()),
        }
    }
}

impl From<Netlist> for NetlistSource {
    fn from(n: Netlist) -> Self {
        NetlistSource::Netlist(n)
    }
}

/// Which flow to run (and its result-relevant configuration).
#[derive(Debug, Clone, PartialEq)]
pub enum FlowKind {
    /// §III full scan: TPGREED with the given config.
    FullScan(TpGreedConfig),
    /// §IV partial scan with the given method.
    Partial(PartialScanMethod),
}

impl FlowKind {
    /// Short label used in payloads, filenames and logs.
    pub fn label(&self) -> &'static str {
        match self {
            FlowKind::FullScan(_) => "full-scan",
            FlowKind::Partial(PartialScanMethod::Cb) => "cb",
            FlowKind::Partial(PartialScanMethod::TdCb) => "td-cb",
            FlowKind::Partial(PartialScanMethod::TpTime) => "tptime",
        }
    }
}

/// One unit of work for the service.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The circuit.
    pub source: NetlistSource,
    /// The flow to run on it.
    pub flow: FlowKind,
    /// Per-job run options — the same [`FlowOptions`] the flows take
    /// directly. A deadline is measured from *submission* (queue time
    /// counts); when unset it falls back to the service default. An
    /// attached metrics recorder receives the job's phase spans in
    /// addition to the per-job [`crate::JobReport::metrics`]. Worker
    /// sizing belongs to the service: the thread count is ignored, and
    /// every job runs at [`crate::ServiceConfig::threads`].
    pub options: FlowOptions,
}

impl JobSpec {
    /// Full-scan job with the default TPGREED config.
    pub fn full_scan(source: impl Into<NetlistSource>) -> Self {
        JobSpec {
            source: source.into(),
            flow: FlowKind::FullScan(TpGreedConfig::default()),
            options: FlowOptions::new(),
        }
    }

    /// Partial-scan job with the given method.
    pub fn partial(source: impl Into<NetlistSource>, method: PartialScanMethod) -> Self {
        JobSpec {
            source: source.into(),
            flow: FlowKind::Partial(method),
            options: FlowOptions::new(),
        }
    }

    /// Replaces the job's run options wholesale.
    pub fn with_options(mut self, options: FlowOptions) -> Self {
        self.options = options;
        self
    }

    /// Overrides the flow config/kind.
    pub fn with_flow(mut self, flow: FlowKind) -> Self {
        self.flow = flow;
        self
    }
}
