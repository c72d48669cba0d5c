//! Payload encodings for the `tpi-net` verbs.
//!
//! Payloads are flat little-endian binary, decoded with explicit bounds
//! checks — no `serde`, no reflection, no panics. Strings are
//! length-prefixed UTF-8. The job *result* itself rides through
//! [`WireReport::payload`] verbatim: the server copies the
//! `tpi-serve/v1` JSON bytes straight from the [`tpi_serve::JobReport`]
//! into the frame, so the loopback round trip is byte-identical to an
//! in-process run by construction, not by re-serialization.

use std::fmt;
use std::time::Duration;
use tpi_core::tpgreed::{GainModel, GainUpdate};
use tpi_core::{FlowOptions, PartialScanMethod, TpGreedConfig};
use tpi_serve::{CacheSource, FlowKind, JobReport, JobSpec, JobStatus, NetlistSource};

/// Every way a payload can fail to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The payload ended before the field being read.
    Truncated {
        /// Field being decoded when the bytes ran out.
        field: &'static str,
    },
    /// An enum tag byte had no meaning.
    BadTag {
        /// Field carrying the tag.
        field: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A length-prefixed string was not UTF-8.
    BadUtf8 {
        /// Field carrying the string.
        field: &'static str,
    },
    /// Decoding finished with bytes left over (version-skew canary).
    TrailingBytes {
        /// How many bytes remained.
        extra: usize,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated { field } => write!(f, "payload truncated reading {field}"),
            ProtoError::BadTag { field, tag } => write!(f, "bad {field} tag {tag:#04x}"),
            ProtoError::BadUtf8 { field } => write!(f, "{field} is not valid UTF-8"),
            ProtoError::TrailingBytes { extra } => {
                write!(f, "{extra} unexpected byte(s) after the payload")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

// ---------------------------------------------------------------------
// Little-endian reader/writer primitives
// ---------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(ProtoError::Truncated { field }),
        }
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, ProtoError> {
        Ok(self.take(1, field)?[0])
    }

    fn u16(&mut self, field: &'static str) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2, field)?.try_into().expect("length checked")))
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4, field)?.try_into().expect("length checked")))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8, field)?.try_into().expect("length checked")))
    }

    fn f64(&mut self, field: &'static str) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64(field)?))
    }

    fn string(&mut self, field: &'static str) -> Result<String, ProtoError> {
        let len = self.u32(field)? as usize;
        let bytes = self.take(len, field)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::BadUtf8 { field })
    }

    fn finish(self) -> Result<(), ProtoError> {
        let extra = self.buf.len() - self.pos;
        if extra == 0 {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes { extra })
        }
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&u32::try_from(s.len()).expect("string fits u32").to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------
// Submit request
// ---------------------------------------------------------------------

/// A job submission as it travels over the wire: the flow + its
/// result-relevant config, an optional deadline, and the BLIF text.
///
/// No thread count rides along: worker sizing belongs to the server
/// (payloads are byte-identical at every setting, so the client cannot
/// observe the difference anyway).
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// The flow to run.
    pub flow: FlowKind,
    /// Deadline the server arms at submission (queue time counts),
    /// exactly like [`tpi_core::FlowOptions::with_deadline`].
    pub deadline: Option<Duration>,
    /// The circuit, as BLIF text (parsed on a server worker, so a
    /// malformed file fails that job, not the connection).
    pub blif: String,
    /// Sibling backend addresses the serving node may
    /// [`crate::frame::Verb::PeerFetch`] a cached payload from before
    /// recomputing. Empty for direct submissions; a gateway fills it
    /// when forwarding so a ring rebalance turns into one cheap peer
    /// round-trip instead of a cold flow run.
    pub peers: Vec<String>,
}

impl WireRequest {
    /// A full-scan request with the default TPGREED config.
    pub fn full_scan(blif: impl Into<String>) -> Self {
        WireRequest {
            flow: FlowKind::FullScan(TpGreedConfig::default()),
            deadline: None,
            blif: blif.into(),
            peers: Vec::new(),
        }
    }

    /// A partial-scan request.
    pub fn partial(blif: impl Into<String>, method: PartialScanMethod) -> Self {
        WireRequest {
            flow: FlowKind::Partial(method),
            deadline: None,
            blif: blif.into(),
            peers: Vec::new(),
        }
    }

    /// Sets the wire deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Replaces the sibling-backend addresses for peer fetching.
    pub fn with_peers(mut self, peers: Vec<String>) -> Self {
        self.peers = peers;
        self
    }

    /// Renders the Submit payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.blif.len());
        match &self.flow {
            FlowKind::FullScan(cfg) => {
                out.push(0);
                out.extend_from_slice(&(cfg.k_bound as u64).to_le_bytes());
                out.extend_from_slice(&cfg.gain_bound.to_bits().to_le_bytes());
                out.push(match cfg.gain_update {
                    GainUpdate::Full => 0,
                    GainUpdate::Incremental => 1,
                });
                out.extend_from_slice(&(cfg.max_paths as u64).to_le_bytes());
                out.push(match cfg.gain_model {
                    GainModel::PathCount => 0,
                    GainModel::Scoap => 1,
                });
            }
            FlowKind::Partial(PartialScanMethod::Cb) => out.push(1),
            FlowKind::Partial(PartialScanMethod::TdCb) => out.push(2),
            FlowKind::Partial(PartialScanMethod::TpTime) => out.push(3),
        }
        match self.deadline {
            Some(d) => {
                out.push(1);
                out.extend_from_slice(
                    &(d.as_millis().min(u128::from(u64::MAX)) as u64).to_le_bytes(),
                );
            }
            None => out.push(0),
        }
        put_string(&mut out, &self.blif);
        out.extend_from_slice(
            &u32::try_from(self.peers.len()).expect("peer count fits u32").to_le_bytes(),
        );
        for p in &self.peers {
            put_string(&mut out, p);
        }
        out
    }

    /// Parses a Submit payload.
    pub fn decode(bytes: &[u8]) -> Result<WireRequest, ProtoError> {
        let mut r = Reader::new(bytes);
        let flow = match r.u8("flow")? {
            0 => {
                let k_bound = r.u64("k_bound")? as usize;
                let gain_bound = r.f64("gain_bound")?;
                let gain_update = match r.u8("gain_update")? {
                    0 => GainUpdate::Full,
                    1 => GainUpdate::Incremental,
                    tag => return Err(ProtoError::BadTag { field: "gain_update", tag }),
                };
                let max_paths = r.u64("max_paths")? as usize;
                let gain_model = match r.u8("gain_model")? {
                    0 => GainModel::PathCount,
                    1 => GainModel::Scoap,
                    tag => return Err(ProtoError::BadTag { field: "gain_model", tag }),
                };
                FlowKind::FullScan(TpGreedConfig {
                    k_bound,
                    gain_bound,
                    gain_update,
                    max_paths,
                    gain_model,
                })
            }
            1 => FlowKind::Partial(PartialScanMethod::Cb),
            2 => FlowKind::Partial(PartialScanMethod::TdCb),
            3 => FlowKind::Partial(PartialScanMethod::TpTime),
            tag => return Err(ProtoError::BadTag { field: "flow", tag }),
        };
        let deadline = match r.u8("deadline flag")? {
            0 => None,
            1 => Some(Duration::from_millis(r.u64("deadline_ms")?)),
            tag => return Err(ProtoError::BadTag { field: "deadline flag", tag }),
        };
        let blif = r.string("blif")?;
        let n_peers = r.u32("peer count")? as usize;
        let mut peers = Vec::new();
        for _ in 0..n_peers {
            peers.push(r.string("peer address")?);
        }
        r.finish()?;
        Ok(WireRequest { flow, deadline, blif, peers })
    }

    /// Builds the server-side [`JobSpec`]: BLIF source, the decoded
    /// flow, and the deadline propagated onto the job's
    /// [`FlowOptions`]. Copies the BLIF text; a caller that owns the
    /// request should use [`WireRequest::into_spec`].
    pub fn to_spec(&self) -> JobSpec {
        self.clone().into_spec()
    }

    /// [`WireRequest::to_spec`] for an owned request: moves the BLIF
    /// text into the spec instead of copying it.
    pub fn into_spec(self) -> JobSpec {
        let mut options = FlowOptions::new();
        if let Some(d) = self.deadline {
            options = options.with_deadline(d);
        }
        JobSpec { source: NetlistSource::Blif(self.blif), flow: self.flow, options }
    }
}

// ---------------------------------------------------------------------
// Report response
// ---------------------------------------------------------------------

/// A [`JobReport`] flattened for the wire. The deterministic result
/// JSON crosses as raw bytes in [`WireReport::payload`]; diagnostics
/// cross as their rendered text lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireReport {
    /// Server-side job id (submission order on that server).
    pub id: u64,
    /// Flow label (`full-scan`, `cb`, `td-cb`, `tptime`).
    pub flow: String,
    /// Terminal state (message preserved for failures).
    pub status: JobStatus,
    /// Content-addressed cache key, when the netlist parsed.
    pub key: Option<u64>,
    /// Whether the result passed independent verification.
    pub verified: bool,
    /// Where the payload came from on the server.
    pub cache: CacheSource,
    /// Server-side wall clock, µs (dequeue to finish).
    pub wall_micros: u64,
    /// The deterministic `tpi-serve/v1` JSON, byte-for-byte as the
    /// in-process service produced it.
    pub payload: Option<String>,
    /// Rendered diagnostic lines (pre-flight lint + verifier findings).
    pub diagnostics: Vec<String>,
}

impl WireReport {
    /// Flattens a service report for the wire.
    pub fn from_report(r: &JobReport) -> Self {
        WireReport {
            id: r.id,
            flow: r.flow.to_string(),
            status: r.status.clone(),
            key: r.key.map(|k| k.0),
            verified: r.verified,
            cache: r.cache,
            wall_micros: r.wall.as_micros().min(u128::from(u64::MAX)) as u64,
            payload: r.payload.as_deref().map(str::to_string),
            diagnostics: r.diagnostics.iter().map(|d| d.render_text()).collect(),
        }
    }

    /// Renders the Report payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            64 + self.payload.as_deref().map_or(0, str::len)
                + self.diagnostics.iter().map(|d| d.len() + 4).sum::<usize>(),
        );
        out.extend_from_slice(&self.id.to_le_bytes());
        put_string(&mut out, &self.flow);
        match &self.status {
            JobStatus::Completed => {
                out.push(0);
                put_string(&mut out, "");
            }
            JobStatus::TimedOut => {
                out.push(1);
                put_string(&mut out, "");
            }
            JobStatus::Canceled => {
                out.push(2);
                put_string(&mut out, "");
            }
            JobStatus::Failed(msg) => {
                out.push(3);
                put_string(&mut out, msg);
            }
        }
        match self.key {
            Some(k) => {
                out.push(1);
                out.extend_from_slice(&k.to_le_bytes());
            }
            None => out.push(0),
        }
        out.push(u8::from(self.verified));
        out.push(match self.cache {
            CacheSource::Cold => 0,
            CacheSource::Memory => 1,
            CacheSource::Disk => 2,
        });
        out.extend_from_slice(&self.wall_micros.to_le_bytes());
        match &self.payload {
            Some(p) => {
                out.push(1);
                put_string(&mut out, p);
            }
            None => out.push(0),
        }
        out.extend_from_slice(
            &u32::try_from(self.diagnostics.len()).expect("diag count fits u32").to_le_bytes(),
        );
        for d in &self.diagnostics {
            put_string(&mut out, d);
        }
        out
    }

    /// Parses a Report payload.
    pub fn decode(bytes: &[u8]) -> Result<WireReport, ProtoError> {
        let mut r = Reader::new(bytes);
        let id = r.u64("id")?;
        let flow = r.string("flow")?;
        let status_tag = r.u8("status")?;
        let msg = r.string("status message")?;
        let status = match status_tag {
            0 => JobStatus::Completed,
            1 => JobStatus::TimedOut,
            2 => JobStatus::Canceled,
            3 => JobStatus::Failed(msg),
            tag => return Err(ProtoError::BadTag { field: "status", tag }),
        };
        let key = match r.u8("key flag")? {
            0 => None,
            1 => Some(r.u64("key")?),
            tag => return Err(ProtoError::BadTag { field: "key flag", tag }),
        };
        let verified = match r.u8("verified")? {
            0 => false,
            1 => true,
            tag => return Err(ProtoError::BadTag { field: "verified", tag }),
        };
        let cache = match r.u8("cache")? {
            0 => CacheSource::Cold,
            1 => CacheSource::Memory,
            2 => CacheSource::Disk,
            tag => return Err(ProtoError::BadTag { field: "cache", tag }),
        };
        let wall_micros = r.u64("wall_micros")?;
        let payload = match r.u8("payload flag")? {
            0 => None,
            1 => Some(r.string("payload")?),
            tag => return Err(ProtoError::BadTag { field: "payload flag", tag }),
        };
        let n_diags = r.u32("diagnostic count")? as usize;
        let mut diagnostics = Vec::new();
        for _ in 0..n_diags {
            diagnostics.push(r.string("diagnostic")?);
        }
        r.finish()?;
        Ok(WireReport { id, flow, status, key, verified, cache, wall_micros, payload, diagnostics })
    }
}

// ---------------------------------------------------------------------
// Peer fetch (cache lookup by key)
// ---------------------------------------------------------------------

/// The payload of a [`Verb::PeerFetch`](crate::frame::Verb::PeerFetch)
/// request: a content-addressed cache key, exactly as
/// [`tpi_serve::cache_key`] computed it. No netlist rides along — the
/// key *is* the job's identity, which is what makes peer fetching
/// cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLookup {
    /// The [`tpi_serve::CacheKey`] value being looked up.
    pub key: u64,
}

impl CacheLookup {
    /// Renders the PeerFetch payload.
    pub fn encode(&self) -> Vec<u8> {
        self.key.to_le_bytes().to_vec()
    }

    /// Parses a PeerFetch payload.
    pub fn decode(bytes: &[u8]) -> Result<CacheLookup, ProtoError> {
        let mut r = Reader::new(bytes);
        let key = r.u64("cache key")?;
        r.finish()?;
        Ok(CacheLookup { key })
    }
}

/// The payload of a
/// [`Verb::CachePayload`](crate::frame::Verb::CachePayload) response: a
/// hit carries the `tpi-serve/v1` payload bytes verbatim, a miss is
/// `None` — a perfectly valid answer, not an error (the asker simply
/// computes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheAnswer {
    /// The cached payload, byte-for-byte as the owning service stored
    /// it; `None` on a miss.
    pub payload: Option<String>,
}

impl CacheAnswer {
    /// Renders the CachePayload payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(5 + self.payload.as_deref().map_or(0, str::len));
        match &self.payload {
            Some(p) => {
                out.push(1);
                put_string(&mut out, p);
            }
            None => out.push(0),
        }
        out
    }

    /// Parses a CachePayload payload.
    pub fn decode(bytes: &[u8]) -> Result<CacheAnswer, ProtoError> {
        let mut r = Reader::new(bytes);
        let payload = match r.u8("hit flag")? {
            0 => None,
            1 => Some(r.string("cached payload")?),
            tag => return Err(ProtoError::BadTag { field: "hit flag", tag }),
        };
        r.finish()?;
        Ok(CacheAnswer { payload })
    }
}

// ---------------------------------------------------------------------
// Streaming batch (v2): SubmitMany / ReportOne
// ---------------------------------------------------------------------

/// The payload of a [`Verb::SubmitMany`](crate::frame::Verb::SubmitMany)
/// request (v2 only): a batch of jobs submitted in one frame. The
/// server answers with one [`ReportOne`] frame per job — in
/// *completion* order, not submission order — all carrying the batch
/// frame's request ID; the embedded index is what maps a report back
/// to its request.
///
/// Admission is all-or-nothing: a server that cannot take the whole
/// batch under its in-flight cap answers a single `Busy` frame for the
/// batch's request ID (partial admission would make "which jobs ran?"
/// ambiguous under retry).
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitMany {
    /// The jobs, in batch-index order.
    pub requests: Vec<WireRequest>,
}

impl SubmitMany {
    /// Renders the SubmitMany payload: a count, then each request as a
    /// length-prefixed [`WireRequest`] encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(
            &u32::try_from(self.requests.len()).expect("batch count fits u32").to_le_bytes(),
        );
        for req in &self.requests {
            let bytes = req.encode();
            out.extend_from_slice(
                &u32::try_from(bytes.len()).expect("request fits u32").to_le_bytes(),
            );
            out.extend_from_slice(&bytes);
        }
        out
    }

    /// Parses a SubmitMany payload.
    pub fn decode(bytes: &[u8]) -> Result<SubmitMany, ProtoError> {
        let mut r = Reader::new(bytes);
        let count = r.u32("batch count")? as usize;
        let mut requests = Vec::new();
        for _ in 0..count {
            let len = r.u32("request length")? as usize;
            let body = r.take(len, "batched request")?;
            requests.push(WireRequest::decode(body)?);
        }
        r.finish()?;
        Ok(SubmitMany { requests })
    }
}

/// The payload of a [`Verb::ReportOne`](crate::frame::Verb::ReportOne)
/// response (v2 only): one finished job out of a [`SubmitMany`] batch,
/// tagged with the batch index it answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportOne {
    /// Index into the batch's [`SubmitMany::requests`].
    pub index: u32,
    /// The job's report, exactly as a standalone Submit would carry it.
    pub report: WireReport,
}

impl ReportOne {
    /// Renders the ReportOne payload.
    pub fn encode(&self) -> Vec<u8> {
        let report = self.report.encode();
        let mut out = Vec::with_capacity(4 + report.len());
        out.extend_from_slice(&self.index.to_le_bytes());
        out.extend_from_slice(&report);
        out
    }

    /// Parses a ReportOne payload.
    pub fn decode(bytes: &[u8]) -> Result<ReportOne, ProtoError> {
        let mut r = Reader::new(bytes);
        let index = r.u32("batch index")?;
        let rest = r.take(bytes.len() - 4, "batched report")?;
        r.finish()?;
        Ok(ReportOne { index, report: WireReport::decode(rest)? })
    }
}

// ---------------------------------------------------------------------
// Error response
// ---------------------------------------------------------------------

/// Machine-readable class of a server-reported failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The frame itself was malformed (bad magic/version/length/trailer).
    MalformedFrame = 1,
    /// The verb byte was unknown.
    UnknownVerb = 2,
    /// The frame was fine but its payload did not decode.
    BadRequest = 3,
    /// A response verb arrived where a request was expected.
    UnexpectedVerb = 4,
    /// The server is shutting down and no longer takes requests.
    ShuttingDown = 5,
    /// Anything else (message carries the detail).
    Internal = 6,
}

impl ErrorCode {
    /// Decodes a wire code (unknown codes map to `Internal` rather than
    /// failing — an error response must never itself error).
    pub fn from_u16(v: u16) -> ErrorCode {
        match v {
            1 => ErrorCode::MalformedFrame,
            2 => ErrorCode::UnknownVerb,
            3 => ErrorCode::BadRequest,
            4 => ErrorCode::UnexpectedVerb,
            5 => ErrorCode::ShuttingDown,
            _ => ErrorCode::Internal,
        }
    }

    /// Short label for logs.
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::MalformedFrame => "malformed-frame",
            ErrorCode::UnknownVerb => "unknown-verb",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnexpectedVerb => "unexpected-verb",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Internal => "internal",
        }
    }
}

/// The structured payload of an [`Verb::Error`](crate::frame::Verb::Error) frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorInfo {
    /// Failure class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ErrorInfo {
    /// A new error payload.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ErrorInfo { code, message: message.into() }
    }

    /// Renders the Error payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(6 + self.message.len());
        out.extend_from_slice(&(self.code as u16).to_le_bytes());
        put_string(&mut out, &self.message);
        out
    }

    /// Parses an Error payload.
    pub fn decode(bytes: &[u8]) -> Result<ErrorInfo, ProtoError> {
        let mut r = Reader::new(bytes);
        let code = ErrorCode::from_u16(r.u16("error code")?);
        let message = r.string("error message")?;
        r.finish()?;
        Ok(ErrorInfo { code, message })
    }
}

impl fmt::Display for ErrorInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code.label(), self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_every_flow() {
        let flows = [
            FlowKind::FullScan(TpGreedConfig {
                k_bound: 7,
                gain_bound: 0.25,
                ..Default::default()
            }),
            FlowKind::Partial(PartialScanMethod::Cb),
            FlowKind::Partial(PartialScanMethod::TdCb),
            FlowKind::Partial(PartialScanMethod::TpTime),
        ];
        for flow in flows {
            let req = WireRequest {
                flow,
                deadline: Some(Duration::from_millis(1234)),
                blif: ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n".into(),
                peers: vec!["127.0.0.1:9001".into(), "127.0.0.1:9002".into()],
            };
            let back = WireRequest::decode(&req.encode()).unwrap();
            assert_eq!(back.blif, req.blif);
            assert_eq!(back.deadline, req.deadline);
            assert_eq!(back.peers, req.peers);
            assert_eq!(back.to_spec().flow.label(), req.flow.label());
        }
    }

    #[test]
    fn request_without_deadline_roundtrips() {
        let req = WireRequest::partial(".model x\n.end\n", PartialScanMethod::TpTime);
        let back = WireRequest::decode(&req.encode()).unwrap();
        assert_eq!(back, req);
        assert!(back.to_spec().options.deadline().is_none());
    }

    #[test]
    fn full_scan_config_survives_the_wire() {
        let cfg = TpGreedConfig {
            k_bound: 3,
            gain_bound: 1.5,
            gain_update: GainUpdate::Incremental,
            max_paths: 999,
            gain_model: GainModel::Scoap,
        };
        let req = WireRequest {
            flow: FlowKind::FullScan(cfg),
            deadline: None,
            blif: String::new(),
            peers: Vec::new(),
        };
        let back = WireRequest::decode(&req.encode()).unwrap();
        match back.flow {
            FlowKind::FullScan(c) => {
                assert_eq!(c.k_bound, 3);
                assert_eq!(c.gain_bound, 1.5);
                assert_eq!(c.gain_update, GainUpdate::Incremental);
                assert_eq!(c.max_paths, 999);
                assert_eq!(c.gain_model, GainModel::Scoap);
            }
            _ => panic!("flow kind changed on the wire"),
        }
    }

    #[test]
    fn report_roundtrips_every_status() {
        let statuses = [
            JobStatus::Completed,
            JobStatus::TimedOut,
            JobStatus::Canceled,
            JobStatus::Failed("netlist parse error: line 3".into()),
        ];
        for status in statuses {
            let rep = WireReport {
                id: 42,
                flow: "full-scan".into(),
                status,
                key: Some(0xdead_beef),
                verified: true,
                cache: CacheSource::Memory,
                wall_micros: 1234,
                payload: Some(r#"{"schema":"tpi-serve/v1"}"#.into()),
                diagnostics: vec!["warning: TPI004 ...".into()],
            };
            assert_eq!(WireReport::decode(&rep.encode()).unwrap(), rep);
        }
    }

    #[test]
    fn report_with_nothing_optional_roundtrips() {
        let rep = WireReport {
            id: 0,
            flow: "tptime".into(),
            status: JobStatus::TimedOut,
            key: None,
            verified: false,
            cache: CacheSource::Cold,
            wall_micros: 0,
            payload: None,
            diagnostics: Vec::new(),
        };
        assert_eq!(WireReport::decode(&rep.encode()).unwrap(), rep);
    }

    #[test]
    fn submit_many_roundtrips_and_preserves_batch_order() {
        let batch = SubmitMany {
            requests: vec![
                WireRequest::full_scan(".model a\n.end\n"),
                WireRequest::partial(".model b\n.end\n", PartialScanMethod::TpTime),
                WireRequest::full_scan(".model c\n.end\n"),
            ],
        };
        let back = SubmitMany::decode(&batch.encode()).unwrap();
        assert_eq!(back.requests.len(), 3);
        assert_eq!(back.requests[0].blif, ".model a\n.end\n");
        assert_eq!(back.requests[1].blif, ".model b\n.end\n");
        assert_eq!(back.requests[2].blif, ".model c\n.end\n");
    }

    #[test]
    fn empty_submit_many_roundtrips() {
        let batch = SubmitMany { requests: Vec::new() };
        assert_eq!(SubmitMany::decode(&batch.encode()).unwrap(), batch);
    }

    #[test]
    fn report_one_roundtrips() {
        let one = ReportOne {
            index: 7,
            report: WireReport {
                id: 9,
                flow: "full-scan".into(),
                status: JobStatus::Completed,
                key: Some(1),
                verified: true,
                cache: CacheSource::Disk,
                wall_micros: 55,
                payload: None,
                diagnostics: vec!["note".into()],
            },
        };
        assert_eq!(ReportOne::decode(&one.encode()).unwrap(), one);
    }

    #[test]
    fn truncated_batch_payloads_decode_to_typed_errors() {
        let batch = SubmitMany { requests: vec![WireRequest::full_scan(".model m\n.end\n")] };
        let good = batch.encode();
        for cut in 0..good.len() {
            assert!(SubmitMany::decode(&good[..cut]).is_err(), "prefix {cut} decoded");
        }
        let one = ReportOne {
            index: 0,
            report: WireReport {
                id: 1,
                flow: "tptime".into(),
                status: JobStatus::TimedOut,
                key: None,
                verified: false,
                cache: CacheSource::Cold,
                wall_micros: 0,
                payload: None,
                diagnostics: Vec::new(),
            },
        };
        let good = one.encode();
        for cut in 0..good.len() {
            assert!(ReportOne::decode(&good[..cut]).is_err(), "prefix {cut} decoded");
        }
    }

    #[test]
    fn truncated_and_tagged_garbage_decode_to_typed_errors() {
        let good = WireRequest::full_scan(".model m\n.end\n").encode();
        for cut in 0..good.len() {
            match WireRequest::decode(&good[..cut]) {
                Err(_) => {}
                Ok(_) => panic!("prefix of length {cut} decoded"),
            }
        }
        let mut bad_tag = good.clone();
        bad_tag[0] = 77;
        assert_eq!(
            WireRequest::decode(&bad_tag),
            Err(ProtoError::BadTag { field: "flow", tag: 77 })
        );
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(WireRequest::decode(&trailing), Err(ProtoError::TrailingBytes { extra: 1 }));
    }

    #[test]
    fn error_info_roundtrips_and_tolerates_unknown_codes() {
        let e = ErrorInfo::new(ErrorCode::BadRequest, "payload truncated reading blif");
        assert_eq!(ErrorInfo::decode(&e.encode()).unwrap(), e);
        let mut bytes = e.encode();
        bytes[0..2].copy_from_slice(&999u16.to_le_bytes());
        assert_eq!(ErrorInfo::decode(&bytes).unwrap().code, ErrorCode::Internal);
        assert!(e.to_string().contains("bad-request"));
    }

    #[test]
    fn non_utf8_string_is_a_typed_error() {
        let mut out = Vec::new();
        out.extend_from_slice(&1u64.to_le_bytes()); // id
        out.extend_from_slice(&2u32.to_le_bytes()); // flow length
        out.extend_from_slice(&[0xff, 0xfe]); // not UTF-8
        assert_eq!(WireReport::decode(&out), Err(ProtoError::BadUtf8 { field: "flow" }));
    }

    #[test]
    fn verb_labels_cover_the_protocol_table() {
        use crate::frame::Verb;
        assert_eq!(Verb::Submit.label(), "submit");
        assert_eq!(Verb::MetricsReport.label(), "metrics-report");
        assert_eq!(Verb::PeerFetch.label(), "peer-fetch");
        assert_eq!(Verb::CachePayload.label(), "cache-payload");
    }

    #[test]
    fn cache_lookup_roundtrips_and_rejects_garbage() {
        let l = CacheLookup { key: 0x29b3_c0a6_4a7b_22ef };
        assert_eq!(CacheLookup::decode(&l.encode()).unwrap(), l);
        assert_eq!(
            CacheLookup::decode(&[1, 2, 3]),
            Err(ProtoError::Truncated { field: "cache key" })
        );
        let mut long = l.encode();
        long.push(0);
        assert_eq!(CacheLookup::decode(&long), Err(ProtoError::TrailingBytes { extra: 1 }));
    }

    #[test]
    fn cache_answer_roundtrips_hit_and_miss() {
        let hit = CacheAnswer { payload: Some(r#"{"schema":"tpi-serve/v1"}"#.into()) };
        assert_eq!(CacheAnswer::decode(&hit.encode()).unwrap(), hit);
        let miss = CacheAnswer { payload: None };
        assert_eq!(CacheAnswer::decode(&miss.encode()).unwrap(), miss);
        assert_eq!(
            CacheAnswer::decode(&[9]),
            Err(ProtoError::BadTag { field: "hit flag", tag: 9 })
        );
    }

    #[test]
    fn request_peers_survive_the_wire_and_default_empty() {
        let req = WireRequest::full_scan(".model m\n.end\n");
        assert!(req.peers.is_empty());
        let back = WireRequest::decode(&req.encode()).unwrap();
        assert_eq!(back, req);
        let with = req.with_peers(vec!["10.0.0.1:4000".into()]);
        let back = WireRequest::decode(&with.encode()).unwrap();
        assert_eq!(back.peers, vec!["10.0.0.1:4000".to_string()]);
    }
}
