//! Client configuration and errors for [`crate::session::Connection`].
//!
//! Retry policy: connection failures (refused / reset / timed out) and
//! `Busy` answers are retried with exponential backoff plus
//! **seeded-deterministic jitter** until [`ClientConfig::retry_budget`]
//! is spent. The jitter stream is a pure function of
//! [`ClientConfig::seed`], so two runs of a test (or a batch worker
//! with a fixed per-worker seed) back off identically — retries are
//! reproducible, not a new source of nondeterminism. Transport errors
//! *after* the request is written are **not** retried: the job may
//! already be running, and the caller decides whether resubmitting
//! (idempotent thanks to the content-addressed cache) is worth it.

use crate::frame::{FrameError, Verb, DEFAULT_MAX_FRAME};
use crate::proto::{ErrorInfo, ProtoError};
use std::fmt;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

/// Tuning for one [`crate::session::Connection`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Per-attempt connect timeout.
    pub connect_timeout: Duration,
    /// Read/write timeout once connected.
    pub io_timeout: Duration,
    /// Total time the client may spend retrying connect failures and
    /// `Busy` answers before giving up ([`Duration::ZERO`] disables
    /// retries entirely — the first refusal is final).
    pub retry_budget: Duration,
    /// Hard cap on retries regardless of the time budget: `Some(0)`
    /// makes the first refusal final (the scriptable `--retries 0`
    /// path), `None` leaves the budget in charge.
    pub max_retries: Option<u32>,
    /// First backoff step (doubles each retry).
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
    /// Largest accepted response payload, in bytes.
    pub max_frame: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(120),
            retry_budget: Duration::from_secs(30),
            max_retries: None,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(500),
            seed: 0x0709_15EE_DD06_F00D,
            max_frame: DEFAULT_MAX_FRAME,
        }
    }
}

/// Every way a client call can fail.
#[derive(Debug)]
pub enum ClientError {
    /// The address string did not resolve.
    BadAddr(String),
    /// Could not connect within the retry budget.
    Connect {
        /// Connection attempts made.
        attempts: u32,
        /// The final attempt's error.
        last: io::Error,
    },
    /// The server answered `Busy` until the retry budget ran out.
    Busy {
        /// Attempts that reached the server and were turned away.
        attempts: u32,
    },
    /// Transport error after connecting.
    Io(io::Error),
    /// The response frame was malformed.
    Frame(FrameError),
    /// The response payload did not decode.
    Proto(ProtoError),
    /// The server answered with a structured error frame.
    Remote(ErrorInfo),
    /// The server answered with a verb this call cannot use.
    UnexpectedVerb(Verb),
    /// The session's transport died; outstanding and future calls on
    /// that [`crate::session::Connection`] fail with the stored reason
    /// until the caller reopens.
    ConnectionLost(String),
    /// `wait_any` was handed an empty ticket set.
    NoPending,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::BadAddr(a) => write!(f, "cannot resolve {a:?}"),
            ClientError::Connect { attempts, last } => {
                write!(f, "connect failed after {attempts} attempt(s): {last}")
            }
            ClientError::Busy { attempts } => {
                write!(f, "server busy after {attempts} attempt(s)")
            }
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Frame(e) => write!(f, "bad response frame: {e}"),
            ClientError::Proto(e) => write!(f, "bad response payload: {e}"),
            ClientError::Remote(e) => write!(f, "server error: {e}"),
            ClientError::UnexpectedVerb(v) => {
                write!(f, "unexpected response verb {:?}", v.label())
            }
            ClientError::ConnectionLost(reason) => {
                write!(f, "connection lost: {reason}")
            }
            ClientError::NoPending => write!(f, "wait_any on an empty ticket set"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

pub(crate) fn resolve(addr: &str) -> Result<SocketAddr, ClientError> {
    addr.to_socket_addrs()
        .ok()
        .and_then(|mut it| it.next())
        .ok_or_else(|| ClientError::BadAddr(addr.to_string()))
}

/// Connect-phase errors worth retrying: the server may be starting, at
/// its accept backlog, or mid-restart.
pub(crate) fn retriable_connect(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::TimedOut
    )
}
