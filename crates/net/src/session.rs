//! The session-oriented client: one persistent `tpi-net/v2` connection
//! carrying many in-flight requests.
//!
//! A [`Connection`] is the client: open once, then
//! [`Connection::submit`] returns a [`Pending`] ticket immediately and [`Connection::wait`] /
//! [`Connection::wait_any`] collect completions — in whatever order the
//! server finishes them. Every request carries a connection-unique
//! `u32` request ID; a background reader thread routes each response
//! frame to its ticket, so any number of threads may share one
//! connection (`Connection` is `Send + Sync`).
//!
//! Retry policy (see [`crate::client`]): connect failures retry with
//! seeded-deterministic backoff inside [`ClientConfig::retry_budget`],
//! and a per-request [`Verb::Busy`] answer is re-submitted (same
//! request ID, same bytes) after a backoff draw from the same seeded
//! jitter stream. Transport errors are **not** retried: the connection
//! is declared dead, every outstanding ticket fails with
//! [`ClientError::ConnectionLost`], and the caller reopens.

use crate::client::{resolve, retriable_connect, ClientConfig, ClientError};
use crate::frame::{encode_frame_v2, read_frame_v2, FrameError, Verb};
use crate::proto::{
    CacheAnswer, CacheLookup, ErrorInfo, ProtoError, ReportOne, SubmitMany, WireReport,
};
use crate::WireRequest;
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A ticket for one in-flight request on a [`Connection`]. Redeem it
/// with [`Connection::wait`] (or hand a set to
/// [`Connection::wait_any`]). Dropping a ticket abandons the response:
/// the job still runs server-side (and lands in its cache), the bytes
/// are discarded on arrival.
#[derive(Debug)]
pub struct Pending {
    id: u32,
}

impl Pending {
    /// The request ID this ticket redeems (diagnostic; IDs are
    /// connection-scoped).
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// A ticket for one in-flight [`Connection::submit_many`] batch.
#[derive(Debug)]
pub struct PendingBatch {
    id: u32,
    count: usize,
}

impl PendingBatch {
    /// The batch frame's request ID.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// How many reports the batch will produce.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the batch was empty (zero requests, zero reports).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// What one request ID is waiting for. The encoded request frame stays
/// in the slot so a [`Verb::Busy`] answer can be re-sent
/// byte-identically under the same ID (`busy` flags that one arrived;
/// the *waiter* performs the backoff and the re-send — the reader
/// thread never sleeps).
enum Slot {
    /// Single-response request, response not yet arrived.
    Waiting { frame: Vec<u8>, attempts: u32, busy: bool },
    /// Single-frame response arrived (Report, Pong, Error, ...).
    Done { verb: Verb, payload: Vec<u8> },
    /// A batch gathering its per-index reports.
    Gathering {
        frame: Vec<u8>,
        attempts: u32,
        busy: bool,
        reports: Vec<Option<WireReport>>,
        remaining: usize,
    },
    /// A batch whose reports all arrived, in index order.
    BatchDone { reports: Vec<WireReport> },
}

/// Shared connection state behind the reader thread and every caller.
struct SessionState {
    slots: HashMap<u32, Slot>,
    /// Why the connection died, once it has (sticky).
    dead: Option<String>,
}

struct Inner {
    config: ClientConfig,
    /// Write half; one lock per frame keeps writes atomic.
    writer: Mutex<TcpStream>,
    state: Mutex<SessionState>,
    completed: Condvar,
    next_id: AtomicU32,
    /// xorshift64* state for the jitter stream.
    rng: Mutex<u64>,
}

/// The jitter stream's starting state: the configured seed, with zero
/// (a fixed point of xorshift) replaced by a constant.
fn jitter_seed(seed: u64) -> u64 {
    if seed == 0 {
        0x9E37_79B9_7F4A_7C15
    } else {
        seed
    }
}

/// xorshift64*: tiny, seedable, and plenty for jitter.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Exponential backoff with deterministic jitter: step `k` sleeps
/// `min(base · 2^(k-1), cap)` plus a jitter draw in `[0, base)`.
fn backoff_step(config: &ClientConfig, attempt: u32, rand: u64) -> Duration {
    let base = config.backoff_base.max(Duration::from_micros(100));
    let exp = base.saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
    let step = exp.min(config.backoff_cap);
    let jitter_micros = rand % (base.as_micros().max(1) as u64);
    step + Duration::from_micros(jitter_micros)
}

impl Inner {
    fn backoff(&self, attempt: u32) -> Duration {
        let mut s = self.rng.lock().expect("jitter lock never poisoned");
        backoff_step(&self.config, attempt, xorshift(&mut s))
    }

    /// Whether a retry is still allowed after `attempt` tries: inside
    /// the time budget *and* under the hard retry cap (when set).
    fn may_retry(&self, attempt: u32, give_up: Instant) -> bool {
        Instant::now() < give_up && self.config.max_retries.is_none_or(|m| attempt <= m)
    }

    /// Sends one already-encoded frame.
    fn send_frame(&self, frame: &[u8]) -> Result<(), ClientError> {
        let mut w = self.writer.lock().expect("writer lock never poisoned");
        w.write_all(frame).map_err(ClientError::Io)?;
        w.flush().map_err(ClientError::Io)
    }

    fn dead_reason(&self) -> Option<String> {
        self.state.lock().expect("session lock never poisoned").dead.clone()
    }

    /// Marks the connection dead and wakes every waiter.
    fn declare_dead(&self, reason: String) {
        let mut st = self.state.lock().expect("session lock never poisoned");
        if st.dead.is_none() {
            st.dead = Some(reason);
        }
        drop(st);
        self.completed.notify_all();
    }
}

/// A persistent, pipelined session with one server. See the module
/// docs for the contract.
pub struct Connection {
    inner: Arc<Inner>,
    /// Clone of the stream, kept to unblock the reader on drop.
    stream: TcpStream,
    reader: Option<JoinHandle<()>>,
}

impl Connection {
    /// Opens a session with default configuration.
    pub fn open(addr: impl AsRef<str>) -> Result<Connection, ClientError> {
        Connection::open_with(addr, ClientConfig::default())
    }

    /// Opens a session: resolves, connects (retrying under the seeded
    /// backoff), and starts the reader thread.
    pub fn open_with(
        addr: impl AsRef<str>,
        config: ClientConfig,
    ) -> Result<Connection, ClientError> {
        let mut rng = jitter_seed(config.seed);
        let sockaddr = resolve(addr.as_ref())?;
        // Connect under the retry budget; the jitter state carries over
        // into the session's stream so the whole connection draws one
        // sequence.
        let give_up = Instant::now() + config.retry_budget;
        let mut attempt: u32 = 0;
        let stream = loop {
            attempt += 1;
            match TcpStream::connect_timeout(&sockaddr, config.connect_timeout) {
                Ok(s) => break s,
                Err(last) => {
                    let may =
                        Instant::now() < give_up && config.max_retries.is_none_or(|m| attempt <= m);
                    if retriable_connect(&last) && may {
                        std::thread::sleep(backoff_step(&config, attempt, xorshift(&mut rng)));
                        continue;
                    }
                    return Err(ClientError::Connect { attempts: attempt, last });
                }
            }
        };
        let _ = stream.set_nodelay(true);
        // Writes are bounded; reads are not — a pipelined job may
        // legitimately take long, and idle sessions stay open forever.
        // Caller-side waits are bounded by `io_timeout` in the wait
        // calls instead.
        let _ = stream.set_write_timeout(Some(config.io_timeout));
        let reader_stream = stream.try_clone().map_err(ClientError::Io)?;
        let writer_stream = stream.try_clone().map_err(ClientError::Io)?;
        let max_frame = config.max_frame;
        let inner = Arc::new(Inner {
            config,
            writer: Mutex::new(writer_stream),
            state: Mutex::new(SessionState { slots: HashMap::new(), dead: None }),
            completed: Condvar::new(),
            next_id: AtomicU32::new(1),
            rng: Mutex::new(rng),
        });
        let reader_inner = Arc::clone(&inner);
        let reader = std::thread::Builder::new()
            .name("tpi-net-session".into())
            .spawn(move || reader_loop(reader_stream, &reader_inner, max_frame))
            .expect("spawning the session reader succeeds");
        Ok(Connection { inner, stream, reader: Some(reader) })
    }

    /// Submits a job without waiting: the returned ticket redeems the
    /// report via [`Connection::wait`].
    pub fn submit(&self, request: &WireRequest) -> Result<Pending, ClientError> {
        let id = self.start(Verb::Submit, &request.encode(), None)?;
        Ok(Pending { id })
    }

    /// Submits a whole batch in one frame ([`Verb::SubmitMany`]); the
    /// server streams one report per job back as it finishes. Admission
    /// is all-or-nothing: a `Busy` answer (retried under the budget
    /// like any other) means nothing from the batch ran.
    pub fn submit_many(&self, requests: &[WireRequest]) -> Result<PendingBatch, ClientError> {
        if requests.is_empty() {
            // Zero jobs produce zero frames in either direction; the
            // batch self-completes without touching the wire.
            let id = self.next_id();
            let mut st = self.inner.state.lock().expect("session lock never poisoned");
            st.slots.insert(id, Slot::BatchDone { reports: Vec::new() });
            return Ok(PendingBatch { id, count: 0 });
        }
        let payload = SubmitMany { requests: requests.to_vec() }.encode();
        let id = self.start(Verb::SubmitMany, &payload, Some(requests.len()))?;
        Ok(PendingBatch { id, count: requests.len() })
    }

    /// Blocks until a submitted job's report arrives. Busy answers are
    /// re-submitted under the retry budget; the wait itself is bounded
    /// by [`ClientConfig::io_timeout`].
    pub fn wait(&self, ticket: Pending) -> Result<WireReport, ClientError> {
        let (verb, payload) = self.redeem(ticket.id)?;
        match verb {
            Verb::Report => Ok(WireReport::decode(&payload)?),
            other => Err(classify(other, &payload)),
        }
    }

    /// Blocks until *one* of the given tickets completes; removes it
    /// from the set and returns it with its report. Order is completion
    /// order — the whole point of the v2 pipeline.
    pub fn wait_any(
        &self,
        tickets: &mut Vec<Pending>,
    ) -> Result<(Pending, WireReport), ClientError> {
        if tickets.is_empty() {
            return Err(ClientError::NoPending);
        }
        let give_up = Instant::now() + self.inner.config.io_timeout;
        let retry_until = Instant::now() + self.inner.config.retry_budget;
        loop {
            enum Found {
                Done(usize),
                Busy(usize),
                None,
            }
            let mut st = self.inner.state.lock().expect("session lock never poisoned");
            let mut found = Found::None;
            for (i, t) in tickets.iter().enumerate() {
                match st.slots.get(&t.id) {
                    Some(Slot::Done { .. }) => {
                        found = Found::Done(i);
                        break;
                    }
                    Some(Slot::Waiting { busy: true, .. }) => {
                        found = Found::Busy(i);
                        break;
                    }
                    _ => {}
                }
            }
            match found {
                Found::Done(i) => {
                    let ticket = tickets.remove(i);
                    let Some(Slot::Done { verb, payload }) = st.slots.remove(&ticket.id) else {
                        unreachable!("the scan just saw a Done slot");
                    };
                    drop(st);
                    return match verb {
                        Verb::Report => Ok((ticket, WireReport::decode(&payload)?)),
                        other => Err(classify(other, &payload)),
                    };
                }
                Found::Busy(i) => {
                    drop(st);
                    self.resend_after_busy(tickets[i].id, retry_until)?;
                    continue;
                }
                Found::None => {}
            }
            if let Some(reason) = st.dead.clone() {
                return Err(ClientError::ConnectionLost(reason));
            }
            let now = Instant::now();
            if now >= give_up {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "no completion within io_timeout",
                )));
            }
            let (guard, _t) = self
                .inner
                .completed
                .wait_timeout(st, give_up - now)
                .expect("session lock never poisoned");
            drop(guard);
        }
    }

    /// Blocks until every report of a batch arrived, returned in batch
    /// index order (completion order is not observable here; use
    /// individual [`Connection::submit`] calls plus
    /// [`Connection::wait_any`] when it matters).
    pub fn wait_batch(&self, batch: PendingBatch) -> Result<Vec<WireReport>, ClientError> {
        let give_up = Instant::now() + self.inner.config.io_timeout;
        let retry_until = Instant::now() + self.inner.config.retry_budget;
        loop {
            let mut st = self.inner.state.lock().expect("session lock never poisoned");
            match st.slots.get(&batch.id) {
                Some(Slot::BatchDone { .. }) => {
                    let Some(Slot::BatchDone { reports }) = st.slots.remove(&batch.id) else {
                        unreachable!("the probe just saw BatchDone");
                    };
                    return Ok(reports);
                }
                Some(Slot::Gathering { busy: true, .. }) => {
                    drop(st);
                    self.resend_after_busy(batch.id, retry_until)?;
                    continue;
                }
                // A whole-batch error answer replaces the slot.
                Some(Slot::Done { .. }) => {
                    let Some(Slot::Done { verb, payload }) = st.slots.remove(&batch.id) else {
                        unreachable!("the probe just saw Done");
                    };
                    return Err(classify(verb, &payload));
                }
                _ => {}
            }
            if let Some(reason) = st.dead.clone() {
                return Err(ClientError::ConnectionLost(reason));
            }
            let now = Instant::now();
            if now >= give_up {
                st.slots.remove(&batch.id);
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "batch incomplete within io_timeout",
                )));
            }
            let (guard, _t) = self
                .inner
                .completed
                .wait_timeout(st, give_up - now)
                .expect("session lock never poisoned");
            drop(guard);
        }
    }

    /// Liveness probe over this session.
    pub fn ping(&self) -> Result<(), ClientError> {
        let (verb, payload) = self.call(Verb::Ping, &[])?;
        match verb {
            Verb::Pong => Ok(()),
            other => Err(classify(other, &payload)),
        }
    }

    /// Fetches the server's metrics JSON over this session.
    pub fn metrics_json(&self) -> Result<String, ClientError> {
        let (verb, payload) = self.call(Verb::Metrics, &[])?;
        match verb {
            Verb::MetricsReport => String::from_utf8(payload)
                .map_err(|_| ClientError::Proto(ProtoError::BadUtf8 { field: "metrics json" })),
            other => Err(classify(other, &payload)),
        }
    }

    /// Looks a cached payload up on the server by its content-addressed
    /// key. `Ok(None)` is a miss — a valid answer, not an error.
    pub fn peer_fetch(&self, key: u64) -> Result<Option<String>, ClientError> {
        let (verb, payload) = self.call(Verb::PeerFetch, &CacheLookup { key }.encode())?;
        match verb {
            Verb::CachePayload => Ok(CacheAnswer::decode(&payload)?.payload),
            other => Err(classify(other, &payload)),
        }
    }

    /// Asks the server to drain and exit; returns once acknowledged.
    pub fn shutdown_server(&self) -> Result<(), ClientError> {
        let (verb, payload) = self.call(Verb::Shutdown, &[])?;
        match verb {
            Verb::Pong => Ok(()),
            other => Err(classify(other, &payload)),
        }
    }

    /// Whether the connection has died (a submit would fail). A live
    /// answer is advisory: the peer can vanish right after.
    pub fn is_dead(&self) -> bool {
        self.inner.dead_reason().is_some()
    }

    /// One full request/response exchange on this session.
    fn call(&self, verb: Verb, payload: &[u8]) -> Result<(Verb, Vec<u8>), ClientError> {
        let id = self.start(verb, payload, None)?;
        self.redeem(id)
    }

    /// Registers a slot and writes the request frame.
    fn start(&self, verb: Verb, payload: &[u8], batch: Option<usize>) -> Result<u32, ClientError> {
        if let Some(reason) = self.inner.dead_reason() {
            return Err(ClientError::ConnectionLost(reason));
        }
        let id = self.next_id();
        let frame = encode_frame_v2(verb, id, payload);
        {
            let mut st = self.inner.state.lock().expect("session lock never poisoned");
            let slot = match batch {
                None => Slot::Waiting { frame: frame.clone(), attempts: 0, busy: false },
                Some(count) => Slot::Gathering {
                    frame: frame.clone(),
                    attempts: 0,
                    busy: false,
                    reports: std::iter::repeat_with(|| None).take(count).collect(),
                    remaining: count,
                },
            };
            st.slots.insert(id, slot);
        }
        if let Err(e) = self.inner.send_frame(&frame) {
            let mut st = self.inner.state.lock().expect("session lock never poisoned");
            st.slots.remove(&id);
            return Err(e);
        }
        Ok(id)
    }

    /// Allocates the next request ID, skipping 0 (reserved for
    /// server-side frame-level errors) and any ID still in flight (so
    /// IDs can never alias, even after the 2^32 wrap).
    fn next_id(&self) -> u32 {
        loop {
            let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
            if id == 0 {
                continue;
            }
            let st = self.inner.state.lock().expect("session lock never poisoned");
            if !st.slots.contains_key(&id) {
                return id;
            }
        }
    }

    /// Blocks until `id`'s single-frame response arrives, retrying Busy
    /// answers under the budget.
    fn redeem(&self, id: u32) -> Result<(Verb, Vec<u8>), ClientError> {
        let give_up = Instant::now() + self.inner.config.io_timeout;
        let retry_until = Instant::now() + self.inner.config.retry_budget;
        loop {
            let mut st = self.inner.state.lock().expect("session lock never poisoned");
            match st.slots.get(&id) {
                Some(Slot::Done { .. }) => {
                    let Some(Slot::Done { verb, payload }) = st.slots.remove(&id) else {
                        unreachable!("the probe just saw a Done slot");
                    };
                    return Ok((verb, payload));
                }
                Some(Slot::Waiting { busy: true, .. }) => {
                    drop(st);
                    self.resend_after_busy(id, retry_until)?;
                    continue;
                }
                _ => {}
            }
            if let Some(reason) = st.dead.clone() {
                return Err(ClientError::ConnectionLost(reason));
            }
            let now = Instant::now();
            if now >= give_up {
                st.slots.remove(&id);
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "no response within io_timeout",
                )));
            }
            let (guard, _t) = self
                .inner
                .completed
                .wait_timeout(st, give_up - now)
                .expect("session lock never poisoned");
            drop(guard);
        }
    }

    /// After a Busy answer on `id`: count the attempt, wait out a
    /// backoff draw, and re-send the stored frame under the same ID.
    /// Fails with [`ClientError::Busy`] once the budget is spent.
    fn resend_after_busy(&self, id: u32, retry_until: Instant) -> Result<(), ClientError> {
        let (frame, attempts) = {
            let mut st = self.inner.state.lock().expect("session lock never poisoned");
            match st.slots.get_mut(&id) {
                Some(
                    Slot::Waiting { frame, attempts, busy }
                    | Slot::Gathering { frame, attempts, busy, .. },
                ) => {
                    *attempts += 1;
                    *busy = false;
                    (frame.clone(), *attempts)
                }
                _ => return Err(ClientError::Busy { attempts: 1 }),
            }
        };
        if !self.inner.may_retry(attempts, retry_until) {
            let mut st = self.inner.state.lock().expect("session lock never poisoned");
            st.slots.remove(&id);
            return Err(ClientError::Busy { attempts });
        }
        std::thread::sleep(self.inner.backoff(attempts));
        self.inner.send_frame(&frame)
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        // Unblock the reader (its read carries no timeout), then
        // collect it.
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// Routes every incoming frame to its slot until the stream dies.
fn reader_loop(stream: TcpStream, inner: &Inner, max_frame: u32) {
    let mut reader = BufReader::new(stream);
    loop {
        let (verb, req_id, payload) = match read_frame_v2(&mut reader, max_frame) {
            Ok(frame) => frame,
            Err(FrameError::Closed) => {
                inner.declare_dead("connection closed by server".into());
                return;
            }
            Err(e) => {
                inner.declare_dead(format!("session read failed: {e}"));
                return;
            }
        };
        if req_id == 0 && verb == Verb::Error {
            // Frame-level server error: the stream is desynchronized
            // from the server's point of view and it will close.
            let reason = match ErrorInfo::decode(&payload) {
                Ok(info) => format!("server error: {info}"),
                Err(_) => "server reported a frame-level error".into(),
            };
            inner.declare_dead(reason);
            return;
        }
        let mut st = inner.state.lock().expect("session lock never poisoned");
        match st.slots.get_mut(&req_id) {
            Some(Slot::Waiting { busy, .. }) => {
                if verb == Verb::Busy {
                    *busy = true;
                } else {
                    st.slots.insert(req_id, Slot::Done { verb, payload });
                }
            }
            Some(Slot::Gathering { busy, reports, remaining, .. }) => match verb {
                Verb::Busy => *busy = true,
                Verb::ReportOne => {
                    if let Ok(one) = ReportOne::decode(&payload) {
                        let idx = one.index as usize;
                        if idx < reports.len() && reports[idx].is_none() {
                            reports[idx] = Some(one.report);
                            *remaining -= 1;
                        }
                    }
                    if matches!(st.slots.get(&req_id), Some(Slot::Gathering { remaining: 0, .. })) {
                        let Some(Slot::Gathering { reports, .. }) = st.slots.remove(&req_id) else {
                            unreachable!("the probe just saw Gathering");
                        };
                        let reports =
                            reports.into_iter().map(|r| r.expect("remaining == 0")).collect();
                        st.slots.insert(req_id, Slot::BatchDone { reports });
                    }
                }
                // A whole-batch error answer replaces the slot.
                _ => {
                    st.slots.insert(req_id, Slot::Done { verb, payload });
                }
            },
            // Unknown ID: a ticket abandoned by a timed-out wait, or a
            // dropped Pending. The job ran; the bytes are discarded.
            _ => {}
        }
        drop(st);
        inner.completed.notify_all();
    }
}

/// Turns a non-success response into the matching error.
fn classify(verb: Verb, payload: &[u8]) -> ClientError {
    match verb {
        Verb::Error => match ErrorInfo::decode(payload) {
            Ok(info) => ClientError::Remote(info),
            Err(e) => ClientError::Proto(e),
        },
        Verb::Busy => ClientError::Busy { attempts: 1 },
        other => ClientError::UnexpectedVerb(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64) -> Vec<u64> {
        let mut state = jitter_seed(seed);
        (0..8).map(|_| xorshift(&mut state)).collect()
    }

    #[test]
    fn jitter_stream_is_deterministic_per_seed() {
        assert_eq!(draws(7), draws(7), "same seed, same stream");
        assert_ne!(draws(7), draws(8), "different seed, different stream");
    }

    #[test]
    fn backoff_grows_and_caps() {
        let cfg = ClientConfig {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(80),
            ..Default::default()
        };
        let mut rng = jitter_seed(1);
        let mut step = |attempt| backoff_step(&cfg, attempt, xorshift(&mut rng));
        // Jitter is < base, so the deterministic part dominates.
        assert!(step(1) < Duration::from_millis(20));
        assert!(step(4) >= Duration::from_millis(80));
        assert!(step(30) < Duration::from_millis(90), "capped plus jitter");
    }

    #[test]
    fn zero_seed_is_replaced() {
        assert_ne!(xorshift(&mut jitter_seed(0)), 0, "xorshift state must never be zero");
    }

    #[test]
    fn zero_max_retries_makes_the_first_refusal_final() {
        // Port 1 refuses on any sane loopback; with a hard cap of zero
        // retries the refusal must surface as one attempt even though
        // the time budget would allow thirty seconds of backoff.
        let config = ClientConfig {
            max_retries: Some(0),
            retry_budget: Duration::from_secs(30),
            ..Default::default()
        };
        let t0 = Instant::now();
        match Connection::open_with("127.0.0.1:1", config) {
            Err(ClientError::Connect { attempts: 1, .. }) => {}
            Err(other) => panic!("expected a single-attempt Connect error, got {other:?}"),
            Ok(_) => panic!("expected a single-attempt Connect error, got a session"),
        }
        assert!(t0.elapsed() < Duration::from_secs(10), "no backoff loop may run");
    }

    #[test]
    fn unresolvable_addr_is_typed() {
        match Connection::open("definitely-not-a-host-name-7f3a:99999") {
            Err(ClientError::BadAddr(_)) => {}
            Err(other) => panic!("expected BadAddr, got {other:?}"),
            Ok(_) => panic!("expected BadAddr, got a session"),
        }
    }
}
