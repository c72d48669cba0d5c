//! `tpi-net`: the [`tpi_serve::JobService`] over TCP, std-only.
//!
//! The container has no async runtime and no serialization crates, so
//! this crate is deliberately boring: sockets, a hand-rolled binary
//! protocol, and — since `tpi-net/v2` — a single poll-based readiness
//! loop on the server instead of a thread per connection.
//!
//! # The frame: `tpi-net/v2`
//!
//! Every message on the wire is one frame carrying a request ID, so
//! many jobs can be in flight on one connection and complete out of
//! order:
//!
//! | bytes | field | value |
//! |------:|-------|-------|
//! | 4 | magic | `TPIN` |
//! | 1 | version | `2` |
//! | 1 | verb | see [`frame::Verb`] |
//! | 4 | request ID | u32 LE, echoed on the response |
//! | 4 | length | payload length, u32 LE, capped at [`frame::DEFAULT_MAX_FRAME`] |
//! | n | payload | verb-specific bytes |
//! | 8 | trailer | FNV-1a 64 of the payload, u64 LE (same hasher as the cache keys) |
//!
//! The length is validated *before* the payload is read, so an
//! adversarial header cannot make the server allocate 4 GiB; the
//! trailer catches truncation and corruption with a typed error rather
//! than a garbage decode. The server sniffs the first five bytes of
//! each connection: `TPIN\x02` is served, and anything else — including
//! a retired `tpi-net/v1` peer (`TPIN\x01`, the same layout without the
//! request ID) — gets one v1-framed `MalformedFrame` error and a close.
//! The v1 codec ([`frame::encode_frame`], [`frame::read_frame`]) stays
//! for exactly that answer.
//!
//! # Backpressure, not queues
//!
//! `Busy` is *per request*: a submit past
//! [`server::ServerConfig::max_inflight`] is refused with its request
//! ID while the connection stays open, and [`session::Connection`]
//! retries just that request with seeded-deterministic exponential
//! backoff (the same discipline it uses for connects). The wait lives
//! in the client, not in an unbounded server-side queue; job-level
//! parallelism is still the [`tpi_serve`] worker pool's business.
//!
//! # Sessions
//!
//! [`session::Connection`] is the client: open once, pipeline many
//! [`session::Connection::submit`]s, collect completions with
//! [`session::Connection::wait`] / [`session::Connection::wait_any`],
//! or ship a whole batch with [`session::Connection::submit_many`]
//! ([`frame::Verb::SubmitMany`]) and stream the per-item
//! [`frame::Verb::ReportOne`] answers back in index order.
//!
//! # Byte identity
//!
//! A job's `tpi-serve/v1` payload crosses the wire as the raw bytes
//! the service produced — the server never re-serializes it — so a
//! loopback round trip is byte-identical to calling
//! [`tpi_serve::JobService`] in-process. The integration tests assert
//! exactly that, at `--threads 1` and `--threads 0`.

pub mod cli;
pub mod client;
pub mod frame;
pub mod proto;
pub mod server;
pub mod session;

pub use cli::NetCliOpts;
pub use client::{ClientConfig, ClientError};
pub use frame::{
    encode_frame, encode_frame_v2, payload_checksum, read_frame, read_frame_v2, write_frame,
    write_frame_v2, FrameAssembler, FrameError, Verb, DEFAULT_MAX_FRAME,
};
pub use proto::{
    CacheAnswer, CacheLookup, ErrorCode, ErrorInfo, ProtoError, ReportOne, SubmitMany, WireReport,
    WireRequest,
};
pub use server::{
    write_addr_file, FrameHandler, JobHandler, NetServer, ServerConfig, ServerHandle,
};
pub use session::{Connection, Pending, PendingBatch};
