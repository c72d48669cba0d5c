//! The `tpi-net/v2` frame codec, plus the retired v1 codec the server
//! still uses to refuse non-v2 peers in a framing they can parse.
//!
//! A v1 frame:
//!
//! ```text
//! +-------+---------+------+-----------+---------+------------+
//! | magic | version | verb | len (u32) | payload | fnv (u64)  |
//! | TPIN  |   0x01  | u8   | LE        | len B   | LE trailer |
//! +-------+---------+------+-----------+---------+------------+
//! ```
//!
//! A v2 frame inserts a `u32` request ID between the verb and the
//! length, so one connection can carry many in-flight requests and
//! match each response to its request without ordering assumptions:
//!
//! ```text
//! +-------+---------+------+--------------+-----------+---------+------------+
//! | magic | version | verb | req_id (u32) | len (u32) | payload | fnv (u64)  |
//! | TPIN  |   0x02  | u8   | LE           | LE        | len B   | LE trailer |
//! +-------+---------+------+--------------+-----------+---------+------------+
//! ```
//!
//! Both versions share the magic and the version byte at offset 4: a
//! server sniffs it on the first frame of a connection, serves v2, and
//! refuses anything else (see [`crate::server`]).
//!
//! The trailer is the FNV-64 hash of the payload bytes (the same
//! [`Fnv64`] the cache keys use) — not a security boundary, but enough
//! to turn a torn or corrupted frame into a typed
//! [`FrameError::BadTrailer`] instead of a garbage report. Frames
//! larger than the reader's cap are rejected *before* the payload is
//! read ([`FrameError::Oversize`]), so a hostile length field cannot
//! make the server allocate unboundedly.
//!
//! Decoding never panics: every way a frame can be malformed maps to a
//! [`FrameError`] variant, and the server answers those with a
//! structured error frame and closes the connection (the stream is
//! desynchronized past the first bad byte). The non-blocking server
//! loop uses [`FrameAssembler`] — the same validation order over an
//! incrementally-fed buffer — so partial reads never block a thread.

use std::fmt;
use std::io::{self, Read, Write};
use tpi_serve::Fnv64;

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"TPIN";

/// The original (blocking, one-request-at-a-time) protocol version.
pub const VERSION: u8 = 1;

/// The pipelined protocol version: every frame carries a request ID.
pub const VERSION_V2: u8 = 2;

/// Default cap on payload length (16 MiB — a BLIF netlist of several
/// million gates fits with room to spare).
pub const DEFAULT_MAX_FRAME: u32 = 16 << 20;

/// Fixed v1 bytes before the payload: magic + version + verb + length.
pub const HEADER_LEN: usize = 4 + 1 + 1 + 4;

/// Fixed v2 bytes before the payload: magic + version + verb +
/// request ID + length.
pub const HEADER_LEN_V2: usize = 4 + 1 + 1 + 4 + 4;

/// Fixed bytes after the payload: the FNV-64 trailer.
pub const TRAILER_LEN: usize = 8;

/// What a frame is for. Requests flow client→server, responses
/// server→client; a server answers a response verb arriving as a
/// request with an error frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Verb {
    /// Request: run a job ([`crate::proto::WireRequest`] payload).
    Submit = 1,
    /// Response: the finished job ([`crate::proto::WireReport`] payload).
    Report = 2,
    /// Response: structured failure ([`crate::proto::ErrorInfo`] payload).
    Error = 3,
    /// Response: the server is at its connection cap; retry later
    /// (empty payload).
    Busy = 4,
    /// Request: server + service metrics snapshot (empty payload).
    Metrics = 5,
    /// Response: the metrics JSON (`tpi-netd-metrics/v1`, UTF-8 payload).
    MetricsReport = 6,
    /// Request: liveness probe (empty payload).
    Ping = 7,
    /// Response: liveness answer / shutdown acknowledgement (empty).
    Pong = 8,
    /// Request: begin graceful shutdown — stop accepting, drain
    /// in-flight jobs, exit (empty payload; acknowledged with `Pong`).
    Shutdown = 9,
    /// Request: look a cached payload up by its content-addressed key
    /// ([`crate::proto::CacheLookup`] payload) — how a backend pulls a
    /// result from a sibling instead of recomputing it after a gateway
    /// ring rebalance.
    PeerFetch = 10,
    /// Response: the peer-fetch answer
    /// ([`crate::proto::CacheAnswer`] payload; a miss is a valid answer).
    CachePayload = 11,
    /// Request (v2 only): a streaming batch of jobs
    /// ([`crate::proto::SubmitMany`] payload). The server answers with
    /// one [`Verb::ReportOne`] frame per job, in *completion* order,
    /// all carrying the batch frame's request ID.
    SubmitMany = 12,
    /// Response (v2 only): one finished job out of a [`Verb::SubmitMany`]
    /// batch ([`crate::proto::ReportOne`] payload, which names the
    /// batch index the report belongs to).
    ReportOne = 13,
}

impl Verb {
    /// Decodes a wire byte.
    pub fn from_u8(b: u8) -> Option<Verb> {
        Some(match b {
            1 => Verb::Submit,
            2 => Verb::Report,
            3 => Verb::Error,
            4 => Verb::Busy,
            5 => Verb::Metrics,
            6 => Verb::MetricsReport,
            7 => Verb::Ping,
            8 => Verb::Pong,
            9 => Verb::Shutdown,
            10 => Verb::PeerFetch,
            11 => Verb::CachePayload,
            12 => Verb::SubmitMany,
            13 => Verb::ReportOne,
            _ => return None,
        })
    }

    /// Short label for logs and error messages.
    pub fn label(self) -> &'static str {
        match self {
            Verb::Submit => "submit",
            Verb::Report => "report",
            Verb::Error => "error",
            Verb::Busy => "busy",
            Verb::Metrics => "metrics",
            Verb::MetricsReport => "metrics-report",
            Verb::Ping => "ping",
            Verb::Pong => "pong",
            Verb::Shutdown => "shutdown",
            Verb::PeerFetch => "peer-fetch",
            Verb::CachePayload => "cache-payload",
            Verb::SubmitMany => "submit-many",
            Verb::ReportOne => "report-one",
        }
    }
}

/// Every way reading a frame can fail. `Closed` is the *clean* end of a
/// connection (EOF on a frame boundary); everything else is a protocol
/// or transport fault.
#[derive(Debug)]
pub enum FrameError {
    /// Transport error from the underlying stream.
    Io(io::Error),
    /// Clean EOF: the peer closed the connection between frames.
    Closed,
    /// EOF in the middle of a frame.
    Truncated {
        /// Bytes of the current section actually read.
        got: usize,
        /// Bytes the section needed.
        want: usize,
    },
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Declared payload length exceeds the reader's cap.
    Oversize {
        /// Declared payload length.
        len: u32,
        /// The reader's cap.
        max: u32,
    },
    /// The verb byte is not a known [`Verb`].
    UnknownVerb(u8),
    /// The FNV-64 trailer does not match the payload.
    BadTrailer {
        /// Hash recomputed from the payload read.
        expected: u64,
        /// Hash the frame carried.
        observed: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated { got, want } => {
                write!(f, "frame truncated: got {got} of {want} bytes")
            }
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this side speaks v{VERSION} and \
                     v{VERSION_V2})"
                )
            }
            FrameError::Oversize { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::UnknownVerb(v) => write!(f, "unknown verb byte {v:#04x}"),
            FrameError::BadTrailer { expected, observed } => write!(
                f,
                "frame checksum mismatch: payload hashes to {expected:016x}, trailer says \
                 {observed:016x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// FNV-64 of the payload — the trailer every frame carries.
pub fn payload_checksum(payload: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(payload);
    h.finish()
}

/// Renders one complete frame (header + payload + trailer) as bytes.
///
/// Panics if `payload` exceeds `u32::MAX` bytes (no realistic payload
/// does; the read side additionally enforces its own cap).
pub fn encode_frame(verb: Verb, payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("payload fits in a u32 length field");
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    buf.push(verb as u8);
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(payload);
    buf.extend_from_slice(&payload_checksum(payload).to_le_bytes());
    buf
}

/// Writes one frame in a single `write_all` (fewer syscalls, and no
/// interleaving hazard if a writer ever races). Returns the number of
/// bytes put on the wire.
pub fn write_frame(w: &mut impl Write, verb: Verb, payload: &[u8]) -> io::Result<usize> {
    let buf = encode_frame(verb, payload);
    w.write_all(&buf)?;
    w.flush()?;
    Ok(buf.len())
}

/// Reads exactly `buf.len()` bytes, mapping EOF to
/// [`FrameError::Closed`] (nothing read yet *and* `clean_eof`) or
/// [`FrameError::Truncated`] (mid-section).
fn read_section(r: &mut impl Read, buf: &mut [u8], clean_eof: bool) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 && clean_eof {
                    FrameError::Closed
                } else {
                    FrameError::Truncated { got: filled, want: buf.len() }
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Reads one frame, enforcing `max_frame` on the declared payload
/// length, and returns its verb and payload.
///
/// Validation order: magic, version, length cap, verb, then (after the
/// payload is read) the checksum trailer — so the cheapest rejections
/// happen before any allocation.
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> Result<(Verb, Vec<u8>), FrameError> {
    let mut header = [0u8; HEADER_LEN];
    read_section(r, &mut header, true)?;

    let magic: [u8; 4] = header[0..4].try_into().expect("slice length matches");
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    if header[4] != VERSION {
        return Err(FrameError::BadVersion(header[4]));
    }
    let len = u32::from_le_bytes(header[6..10].try_into().expect("slice length matches"));
    if len > max_frame {
        return Err(FrameError::Oversize { len, max: max_frame });
    }
    let verb = Verb::from_u8(header[5]).ok_or(FrameError::UnknownVerb(header[5]))?;

    let mut payload = vec![0u8; len as usize];
    read_section(r, &mut payload, false)?;

    let mut trailer = [0u8; TRAILER_LEN];
    read_section(r, &mut trailer, false)?;
    let observed = u64::from_le_bytes(trailer);
    let expected = payload_checksum(&payload);
    if observed != expected {
        return Err(FrameError::BadTrailer { expected, observed });
    }
    Ok((verb, payload))
}

/// Renders one complete v2 frame (header + payload + trailer).
///
/// Panics if `payload` exceeds `u32::MAX` bytes (no realistic payload
/// does; the read side additionally enforces its own cap).
pub fn encode_frame_v2(verb: Verb, req_id: u32, payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("payload fits in a u32 length field");
    let mut buf = Vec::with_capacity(HEADER_LEN_V2 + payload.len() + TRAILER_LEN);
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION_V2);
    buf.push(verb as u8);
    buf.extend_from_slice(&req_id.to_le_bytes());
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(payload);
    buf.extend_from_slice(&payload_checksum(payload).to_le_bytes());
    buf
}

/// Writes one v2 frame in a single `write_all`. Returns the number of
/// bytes put on the wire.
pub fn write_frame_v2(
    w: &mut impl Write,
    verb: Verb,
    req_id: u32,
    payload: &[u8],
) -> io::Result<usize> {
    let buf = encode_frame_v2(verb, req_id, payload);
    w.write_all(&buf)?;
    w.flush()?;
    Ok(buf.len())
}

/// Validates a complete v2 header, returning `(verb, req_id, len)`.
///
/// Validation order matches [`read_frame`]: magic, version, length cap,
/// verb — the cheapest rejections first, all before any allocation.
fn parse_header_v2(
    header: &[u8; HEADER_LEN_V2],
    max_frame: u32,
) -> Result<(Verb, u32, u32), FrameError> {
    let magic: [u8; 4] = header[0..4].try_into().expect("slice length matches");
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    if header[4] != VERSION_V2 {
        return Err(FrameError::BadVersion(header[4]));
    }
    let req_id = u32::from_le_bytes(header[6..10].try_into().expect("slice length matches"));
    let len = u32::from_le_bytes(header[10..14].try_into().expect("slice length matches"));
    if len > max_frame {
        return Err(FrameError::Oversize { len, max: max_frame });
    }
    let verb = Verb::from_u8(header[5]).ok_or(FrameError::UnknownVerb(header[5]))?;
    Ok((verb, req_id, len))
}

/// Reads one v2 frame from a blocking stream, returning its verb,
/// request ID, and payload. This is the client-side reader; the server
/// side uses [`FrameAssembler`] so partial reads never pin a thread.
pub fn read_frame_v2(
    r: &mut impl Read,
    max_frame: u32,
) -> Result<(Verb, u32, Vec<u8>), FrameError> {
    let mut header = [0u8; HEADER_LEN_V2];
    read_section(r, &mut header, true)?;
    let (verb, req_id, len) = parse_header_v2(&header, max_frame)?;

    let mut payload = vec![0u8; len as usize];
    read_section(r, &mut payload, false)?;

    let mut trailer = [0u8; TRAILER_LEN];
    read_section(r, &mut trailer, false)?;
    let observed = u64::from_le_bytes(trailer);
    let expected = payload_checksum(&payload);
    if observed != expected {
        return Err(FrameError::BadTrailer { expected, observed });
    }
    Ok((verb, req_id, payload))
}

/// Incremental v2 frame parser for the non-blocking server loop: feed
/// it whatever bytes a readiness pass produced, pull complete frames
/// out. Validation is identical to [`read_frame_v2`] (same order, same
/// typed errors) — the only difference is that "not enough bytes yet"
/// is `Ok(None)` instead of a blocked thread.
///
/// An error is terminal for the stream: past the first bad byte the
/// frame boundary is gone, so the caller must close the connection.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by returned frames. Compacted
    /// lazily so a burst of small frames does not memmove per frame.
    pos: usize,
}

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> FrameAssembler {
        FrameAssembler::default()
    }

    /// Appends bytes read from the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing, once the dead prefix dominates.
        if self.pos > 0 && self.pos >= self.buf.len().saturating_sub(self.pos) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pulls the next complete frame, if the buffer holds one.
    pub fn next_frame(
        &mut self,
        max_frame: u32,
    ) -> Result<Option<(Verb, u32, Vec<u8>)>, FrameError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < HEADER_LEN_V2 {
            return Ok(None);
        }
        let header: [u8; HEADER_LEN_V2] =
            avail[..HEADER_LEN_V2].try_into().expect("slice length matches");
        let (verb, req_id, len) = parse_header_v2(&header, max_frame)?;
        let total = HEADER_LEN_V2 + len as usize + TRAILER_LEN;
        if avail.len() < total {
            return Ok(None);
        }
        let payload = avail[HEADER_LEN_V2..HEADER_LEN_V2 + len as usize].to_vec();
        let observed = u64::from_le_bytes(
            avail[HEADER_LEN_V2 + len as usize..total].try_into().expect("slice length matches"),
        );
        let expected = payload_checksum(&payload);
        if observed != expected {
            return Err(FrameError::BadTrailer { expected, observed });
        }
        self.pos += total;
        Ok(Some((verb, req_id, payload)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(verb: Verb, payload: &[u8]) {
        let bytes = encode_frame(verb, payload);
        let (v, p) = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(v, verb);
        assert_eq!(p, payload);
    }

    #[test]
    fn all_verbs_roundtrip() {
        for verb in [
            Verb::Submit,
            Verb::Report,
            Verb::Error,
            Verb::Busy,
            Verb::Metrics,
            Verb::MetricsReport,
            Verb::Ping,
            Verb::Pong,
            Verb::Shutdown,
            Verb::PeerFetch,
            Verb::CachePayload,
        ] {
            assert_eq!(Verb::from_u8(verb as u8), Some(verb));
            roundtrip(verb, b"");
            roundtrip(verb, b"hello \x00\xff frame");
        }
    }

    #[test]
    fn clean_eof_is_closed_mid_frame_is_truncated() {
        assert!(matches!(
            read_frame(&mut [].as_slice(), DEFAULT_MAX_FRAME),
            Err(FrameError::Closed)
        ));
        let bytes = encode_frame(Verb::Ping, b"xy");
        for cut in 1..bytes.len() {
            let err = read_frame(&mut &bytes[..cut], DEFAULT_MAX_FRAME).unwrap_err();
            assert!(matches!(err, FrameError::Truncated { .. }), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn bad_magic_version_verb_are_typed() {
        let mut bytes = encode_frame(Verb::Ping, b"");
        bytes[0] = b'X';
        assert!(matches!(
            read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME),
            Err(FrameError::BadMagic(_))
        ));

        let mut bytes = encode_frame(Verb::Ping, b"");
        bytes[4] = 99;
        assert!(matches!(
            read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME),
            Err(FrameError::BadVersion(99))
        ));

        let mut bytes = encode_frame(Verb::Ping, b"");
        bytes[5] = 0xEE;
        assert!(matches!(
            read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME),
            Err(FrameError::UnknownVerb(0xEE))
        ));
    }

    #[test]
    fn oversize_is_rejected_before_reading_the_payload() {
        // Header declares 1 GiB; only the header exists. The cap must
        // reject on the declared length, never try to read (or allocate)
        // the payload.
        let mut bytes = encode_frame(Verb::Submit, b"");
        bytes[6..10].copy_from_slice(&(1u32 << 30).to_le_bytes());
        assert!(matches!(
            read_frame(&mut bytes.as_slice(), 1024),
            Err(FrameError::Oversize { len, max: 1024 }) if len == 1 << 30
        ));
    }

    #[test]
    fn corrupted_payload_fails_the_trailer() {
        let mut bytes = encode_frame(Verb::Submit, b"payload-bytes");
        bytes[HEADER_LEN] ^= 0x01;
        assert!(matches!(
            read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME),
            Err(FrameError::BadTrailer { .. })
        ));
    }

    #[test]
    fn write_frame_reports_wire_bytes() {
        let mut sink = Vec::new();
        let n = write_frame(&mut sink, Verb::Pong, b"abc").unwrap();
        assert_eq!(n, sink.len());
        assert_eq!(n, HEADER_LEN + 3 + TRAILER_LEN);
    }

    #[test]
    fn v2_roundtrips_all_verbs_and_ids() {
        for verb in [Verb::Submit, Verb::Report, Verb::SubmitMany, Verb::ReportOne, Verb::Busy] {
            for req_id in [0u32, 1, 7, u32::MAX] {
                let bytes = encode_frame_v2(verb, req_id, b"v2 \x00 payload");
                let (v, id, p) = read_frame_v2(&mut bytes.as_slice(), DEFAULT_MAX_FRAME).unwrap();
                assert_eq!((v, id, p.as_slice()), (verb, req_id, b"v2 \x00 payload".as_slice()));
            }
        }
    }

    #[test]
    fn v2_reader_rejects_v1_frames_and_vice_versa() {
        let v1 = encode_frame(Verb::Ping, b"");
        assert!(matches!(
            read_frame_v2(&mut v1.as_slice(), DEFAULT_MAX_FRAME),
            Err(FrameError::BadVersion(1))
        ));
        let v2 = encode_frame_v2(Verb::Ping, 9, b"");
        assert!(matches!(
            read_frame(&mut v2.as_slice(), DEFAULT_MAX_FRAME),
            Err(FrameError::BadVersion(2))
        ));
    }

    #[test]
    fn assembler_yields_frames_across_arbitrary_chunking() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&encode_frame_v2(Verb::Submit, 1, b"first"));
        wire.extend_from_slice(&encode_frame_v2(Verb::Ping, 2, b""));
        wire.extend_from_slice(&encode_frame_v2(Verb::SubmitMany, 3, b"third payload"));
        // Feed one byte at a time: the assembler must never yield a
        // frame early, and must yield all three in order.
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for b in &wire {
            asm.feed(std::slice::from_ref(b));
            while let Some(f) = asm.next_frame(DEFAULT_MAX_FRAME).unwrap() {
                got.push(f);
            }
        }
        assert_eq!(asm.pending(), 0);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], (Verb::Submit, 1, b"first".to_vec()));
        assert_eq!(got[1], (Verb::Ping, 2, Vec::new()));
        assert_eq!(got[2], (Verb::SubmitMany, 3, b"third payload".to_vec()));
    }

    /// Every split point of a v2 frame — including each header-internal
    /// boundary (magic / version / verb / req-id / length) — must yield
    /// nothing before the final byte and exactly one frame after it.
    #[test]
    fn assembler_is_immune_to_header_boundary_splits() {
        let frame = encode_frame_v2(Verb::Submit, 0xDEAD_BEEF, b"split me");
        for cut in 0..frame.len() {
            let mut asm = FrameAssembler::new();
            asm.feed(&frame[..cut]);
            assert!(
                asm.next_frame(DEFAULT_MAX_FRAME).unwrap().is_none(),
                "cut at {cut}: no early frame"
            );
            asm.feed(&frame[cut..]);
            let got = asm.next_frame(DEFAULT_MAX_FRAME).unwrap().expect("complete after cut");
            assert_eq!(got, (Verb::Submit, 0xDEAD_BEEF, b"split me".to_vec()));
            assert!(asm.next_frame(DEFAULT_MAX_FRAME).unwrap().is_none());
            assert_eq!(asm.pending(), 0);
        }
    }

    /// Many connections, each with its own assembler, fed round-robin
    /// in adversarial chunk sizes (connection `c` always feeds
    /// `c + 1` bytes at a time, so connection 0 is a pure 1-byte drip).
    /// Interleaving must not leak bytes or frames between assemblers.
    #[test]
    fn assembler_interleaved_across_many_connections() {
        const CONNS: usize = 8;
        let streams: Vec<Vec<(Verb, u32, Vec<u8>)>> = (0..CONNS as u32)
            .map(|c| {
                vec![
                    (Verb::Submit, c * 100 + 1, vec![c as u8; (c as usize) * 37 + 1]),
                    (Verb::Ping, c * 100 + 2, Vec::new()),
                    (Verb::SubmitMany, c * 100 + 3, format!("conn-{c}-batch").into_bytes()),
                ]
            })
            .collect();
        let wires: Vec<Vec<u8>> = streams
            .iter()
            .map(|frames| {
                frames
                    .iter()
                    .flat_map(|(v, id, p)| encode_frame_v2(*v, *id, p))
                    .collect::<Vec<u8>>()
            })
            .collect();
        let mut asms: Vec<FrameAssembler> = (0..CONNS).map(|_| FrameAssembler::new()).collect();
        let mut offsets = [0usize; CONNS];
        let mut got: Vec<Vec<(Verb, u32, Vec<u8>)>> = vec![Vec::new(); CONNS];
        // Round-robin until every wire is fully fed and drained.
        while (0..CONNS).any(|c| offsets[c] < wires[c].len()) {
            for c in 0..CONNS {
                let chunk = (c + 1).min(wires[c].len() - offsets[c]);
                if chunk == 0 {
                    continue;
                }
                asms[c].feed(&wires[c][offsets[c]..offsets[c] + chunk]);
                offsets[c] += chunk;
                while let Some(f) = asms[c].next_frame(DEFAULT_MAX_FRAME).unwrap() {
                    got[c].push(f);
                }
            }
        }
        for c in 0..CONNS {
            assert_eq!(got[c], streams[c], "connection {c} frames in order, nothing leaked");
            assert_eq!(asms[c].pending(), 0);
        }
    }

    #[test]
    fn assembler_errors_match_the_blocking_reader() {
        // Oversize rejected on the header alone, before the payload
        // arrives.
        let mut bytes = encode_frame_v2(Verb::Submit, 1, b"");
        bytes[10..14].copy_from_slice(&(1u32 << 30).to_le_bytes());
        let mut asm = FrameAssembler::new();
        asm.feed(&bytes[..HEADER_LEN_V2]);
        assert!(matches!(
            asm.next_frame(1024),
            Err(FrameError::Oversize { len, max: 1024 }) if len == 1 << 30
        ));

        // Corrupt payload fails the trailer.
        let mut bytes = encode_frame_v2(Verb::Submit, 1, b"payload");
        bytes[HEADER_LEN_V2] ^= 0x01;
        let mut asm = FrameAssembler::new();
        asm.feed(&bytes);
        assert!(matches!(asm.next_frame(DEFAULT_MAX_FRAME), Err(FrameError::BadTrailer { .. })));
    }
}
