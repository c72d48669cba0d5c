//! The network front-end: a poll-based readiness loop wrapping a
//! [`FrameHandler`].
//!
//! Design constraints, in order:
//!
//! * **A bad peer must never take the listener down.** Every malformed
//!   frame becomes a structured [`Verb::Error`] response followed by a
//!   connection close (the stream is desynchronized past the first bad
//!   byte); accept errors are counted and skipped. A v2 request that
//!   *frames* correctly but *decodes* badly is cheaper to survive: the
//!   error answer carries the request ID and the connection stays open,
//!   because nothing about the stream is desynchronized.
//! * **Idle connections cost no threads.** One poll thread owns every
//!   v2 connection: reads are non-blocking, frames are reassembled by
//!   a [`FrameAssembler`], and job execution lands on the `tpi-par`
//!   worker pool via [`FrameHandler::submit_async`] — the poll thread
//!   never blocks on a job. A thousand idle sessions are a thousand
//!   entries in a `poll(2)` set, not a thousand parked threads.
//! * **Backpressure, not queues.** Requests are admitted against
//!   [`ServerConfig::max_inflight`]; past the cap a request is answered
//!   with a [`Verb::Busy`] frame carrying its request ID, and the
//!   connection stays open. The session client's seeded backoff (see
//!   [`crate::session`]) re-submits the same ID, so overload degrades
//!   to latency instead of memory.
//! * **One protocol.** The first five bytes of every connection are
//!   sniffed: `TPIN\x02` is served; anything else — a retired
//!   `tpi-net/v1` peer included — gets one v1-framed [`Verb::Error`]
//!   (`MalformedFrame`, naming the version it saw) and a close. v1
//!   framing is the one an old peer can parse.
//! * **Graceful shutdown drains.** [`ServerHandle::shutdown`] (or a
//!   [`Verb::Shutdown`] frame) stops the accept loop; in-flight
//!   requests run to completion before [`NetServer::serve`] returns.
//!
//! The accept loop, framing, backpressure, and shutdown logic are
//! verb-agnostic; what a `Submit` or `PeerFetch` *means* is the
//! [`FrameHandler`]'s business. [`JobHandler`] is the handler behind
//! `tpi-netd` (decode → [`tpi_serve::JobService`] → encode, with
//! peer-fetch seeding of forwarded jobs); `tpi-gatewayd` plugs in its
//! own handler that forwards instead of executing.
//!
//! Observability rides on a [`Recorder`]: connection/frame/byte
//! counters (all [`Recorder::add_nd`] — traffic is wall-clock data, not
//! part of any determinism contract) plus a `frame_latency` histogram,
//! served over the wire by the [`Verb::Metrics`] verb next to the
//! handler's embedded snapshot.

use crate::client::ClientConfig;
use crate::frame::{
    encode_frame, encode_frame_v2, write_frame, FrameAssembler, FrameError, Verb,
    DEFAULT_MAX_FRAME, MAGIC, VERSION_V2,
};
use crate::proto::{
    CacheAnswer, CacheLookup, ErrorCode, ErrorInfo, SubmitMany, WireReport, WireRequest,
};
use crate::session::Connection;
use std::collections::VecDeque;
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tpi_obs::{JsonObject, Recorder};
use tpi_serve::{cache_key, netlist_fingerprint, parse_blif, CacheKey, JobService};

/// Tuning for one [`NetServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Write timeout for refusal answers; also bounds the final drain
    /// on shutdown. Sessions may idle indefinitely: they hold no
    /// thread, so there is no read timeout.
    pub write_timeout: Duration,
    /// Largest accepted frame payload, in bytes.
    pub max_frame: u32,
    /// Server-wide cap on v2 requests dispatched but not yet answered.
    /// A Submit past the cap gets a per-request [`Verb::Busy`]; a
    /// SubmitMany that does not fit *whole* is refused whole (partial
    /// admission would make "which jobs ran?" ambiguous under retry).
    pub max_inflight: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            write_timeout: Duration::from_secs(30),
            max_frame: DEFAULT_MAX_FRAME,
            max_inflight: 256,
        }
    }
}

/// What a server *does* with the request verbs; the accept loop,
/// framing, backpressure, and shutdown are [`NetServer`]'s.
///
/// Implementations answer with `(response verb, payload bytes)` — the
/// loop writes the frame. An error answer keeps the connection open,
/// because the frame layer stayed in sync.
pub trait FrameHandler: Send + Sync + 'static {
    /// Answers a decoded Submit with [`Verb::Report`] or [`Verb::Error`]
    /// without blocking the caller: `done` fires on whatever thread
    /// finishes the job. The poll loop calls this for every Submit, so
    /// an implementation that executes inline serializes the whole
    /// server — real handlers hand the work to a pool.
    fn submit_async(&self, req: WireRequest, done: Box<dyn FnOnce(Verb, Vec<u8>) + Send>);

    /// Answers a decoded PeerFetch request with [`Verb::CachePayload`]
    /// or [`Verb::Error`]. A cache miss is a `CachePayload` carrying
    /// `None`, not an error. Must be fast — the poll loop calls it
    /// inline (for [`JobHandler`] it is a local cache probe).
    fn peer_fetch(&self, lookup: CacheLookup) -> (Verb, Vec<u8>);

    /// Schema string of this server's metrics JSON
    /// (`tpi-netd-metrics/v1` for [`JobHandler`]).
    fn metrics_schema(&self) -> &'static str;

    /// The handler-specific snapshot embedded in the metrics JSON:
    /// a field name plus already-rendered, byte-stable JSON.
    fn snapshot(&self) -> (&'static str, String);
}

/// The `tpi-netd` handler: decode, run on the shared
/// [`JobService`], encode. When a forwarded request names sibling
/// backends ([`WireRequest::peers`]), a locally-missing result is
/// peer-fetched and seeded before the job runs, so a gateway ring
/// rebalance costs one small round-trip instead of a cold flow run.
pub struct JobHandler {
    service: Arc<JobService>,
    peer_config: ClientConfig,
}

impl JobHandler {
    /// Wraps a service. The service stays shared — the caller may keep
    /// submitting in-process jobs through its own handle; cache and
    /// metrics are one pool either way.
    pub fn new(service: Arc<JobService>) -> JobHandler {
        JobHandler {
            service,
            // Peer fetches are an optimization, never worth waiting
            // for: no retries, short timeouts, fall back to computing.
            peer_config: ClientConfig {
                connect_timeout: Duration::from_millis(500),
                io_timeout: Duration::from_secs(10),
                retry_budget: Duration::ZERO,
                max_retries: Some(0),
                ..ClientConfig::default()
            },
        }
    }

    /// The wrapped service.
    pub fn service(&self) -> &Arc<JobService> {
        &self.service
    }

    /// Tries to satisfy `req` from its named sibling backends: compute
    /// the content-addressed key, and if this service does not hold it,
    /// ask each peer once. The first hit is seeded into the local
    /// cache; the submission that follows then completes as a memory
    /// hit. Returns whether a payload was seeded. Every failure mode
    /// (unparsable BLIF, dead peer, miss) just means "compute locally".
    fn seed_from_peers(&self, req: &WireRequest) -> bool {
        if req.peers.is_empty() {
            return false;
        }
        let Ok(netlist) = parse_blif(&req.blif) else {
            return false;
        };
        let key = cache_key(netlist_fingerprint(&netlist), &req.flow);
        if self.service.lookup(key).is_some() {
            return false;
        }
        for peer in &req.peers {
            let Ok(conn) = Connection::open_with(peer, self.peer_config.clone()) else {
                continue;
            };
            if let Ok(Some(payload)) = conn.peer_fetch(key.0) {
                self.service.seed(key, payload.into());
                return true;
            }
        }
        false
    }
}

impl FrameHandler for JobHandler {
    fn submit_async(&self, req: WireRequest, done: Box<dyn FnOnce(Verb, Vec<u8>) + Send>) {
        if req.peers.is_empty() {
            // The common case: straight onto the worker pool, report
            // encoded on the worker that ran the job.
            self.service.submit_with(req.into_spec(), move |report| {
                done(Verb::Report, WireReport::from_report(&report).encode());
            });
            return;
        }
        // Forwarded jobs name sibling caches, and probing them is
        // blocking network I/O that must not run on the poll thread.
        // Rebalances are rare (a gateway ring change), so a short-lived
        // thread per such request is cheaper than a dedicated pool.
        let service = Arc::clone(&self.service);
        let peer_config = self.peer_config.clone();
        std::thread::Builder::new()
            .name("tpi-net-seed".into())
            .spawn(move || {
                let seeder = JobHandler { service: Arc::clone(&service), peer_config };
                seeder.seed_from_peers(&req);
                service.submit_with(req.into_spec(), move |report| {
                    done(Verb::Report, WireReport::from_report(&report).encode());
                });
            })
            .expect("spawning a peer-seed thread succeeds");
    }

    fn peer_fetch(&self, lookup: CacheLookup) -> (Verb, Vec<u8>) {
        let payload = self.service.lookup(CacheKey(lookup.key)).map(|(p, _)| p.to_string());
        (Verb::CachePayload, CacheAnswer { payload }.encode())
    }

    fn metrics_schema(&self) -> &'static str {
        "tpi-netd-metrics/v1"
    }

    fn snapshot(&self) -> (&'static str, String) {
        ("service", self.service.metrics_json())
    }
}

/// State shared by the poll loop and handles.
struct ServerState {
    shutdown: AtomicBool,
    /// Open (and still-sniffing) connections owned by the poll loop.
    conns: AtomicUsize,
    /// Requests dispatched to the handler, completion pending.
    inflight: AtomicUsize,
    obs: Recorder,
}

/// A cloneable remote control for a running server: observe its
/// address, trigger graceful shutdown from any thread.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests graceful shutdown: the poll loop stops taking
    /// connections and [`NetServer::serve`] returns once in-flight
    /// requests drain. Idempotent.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // Wake the poll loop with a throwaway connection (the listener
        // turning readable is a wakeup); the loop re-checks the flag
        // before handling anything.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.state.shutdown.load(Ordering::SeqCst)
    }
}

/// The server: a bound listener plus the [`FrameHandler`] it drives.
/// `tpi-netd` constructs one with [`NetServer::bind`] (a [`JobHandler`]
/// over a shared service); `tpi-gatewayd` brings its own handler via
/// [`NetServer::bind_with`]. Then either call [`NetServer::serve`] on
/// the current thread or [`NetServer::spawn`] to run it on its own.
pub struct NetServer<H: FrameHandler = JobHandler> {
    listener: TcpListener,
    handler: Arc<H>,
    config: ServerConfig,
    state: Arc<ServerState>,
    addr: SocketAddr,
}

impl NetServer<JobHandler> {
    /// Binds the listener and wires it to `service` through a
    /// [`JobHandler`].
    pub fn bind(config: ServerConfig, service: Arc<JobService>) -> io::Result<NetServer> {
        NetServer::bind_with(config, JobHandler::new(service))
    }
}

impl<H: FrameHandler> NetServer<H> {
    /// Binds the listener and wires it to an arbitrary handler.
    pub fn bind_with(config: ServerConfig, handler: H) -> io::Result<NetServer<H>> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState {
            shutdown: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            obs: Recorder::new(),
        });
        Ok(NetServer { listener, handler: Arc::new(handler), config, state, addr })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A remote control for this server.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { addr: self.addr, state: Arc::clone(&self.state) }
    }

    /// The metrics JSON: net counters, the frame-latency histogram,
    /// and the handler's embedded snapshot, under the handler's schema.
    pub fn metrics_json(&self) -> String {
        metrics_json(&self.state, &*self.handler)
    }

    /// Runs the readiness loop until shutdown, then drains: every
    /// in-flight request (and therefore every in-flight job) finishes
    /// before this returns. The listener closes on return, and the
    /// handler is dropped, so an `Arc<JobService>` shared with the
    /// caller is uniquely theirs again.
    pub fn serve(self) -> io::Result<()> {
        let NetServer { listener, handler, config, state, addr: _ } = self;
        PollLoop::new(listener, handler, config, state)?.run()
    }

    /// Runs [`NetServer::serve`] on a new thread, returning the handle
    /// pair: control the server with the [`ServerHandle`], observe its
    /// exit by joining the [`JoinHandle`].
    pub fn spawn(self) -> (ServerHandle, JoinHandle<io::Result<()>>) {
        let handle = self.handle();
        let join = std::thread::Builder::new()
            .name("tpi-net-accept".into())
            .spawn(move || self.serve())
            .expect("spawning the accept thread succeeds");
        (handle, join)
    }
}

// ---------------------------------------------------------------------
// Readiness: a minimal poll(2) registry
// ---------------------------------------------------------------------

/// The std-only readiness primitive: `poll(2)` through the libc that
/// std already links. One entry per descriptor of interest; the loop
/// rebuilds the set each iteration (hundreds of entries rebuild in
/// microseconds, and it keeps the registry trivially consistent with
/// the connection slab).
#[cfg(unix)]
mod readiness {
    use std::io;
    use std::os::unix::io::RawFd;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    /// Error/hangup conditions: never requested, always reportable.
    /// Treated as readable so the subsequent `read` surfaces the fault
    /// instead of the loop spinning on an eternally-"ready" socket.
    pub const POLLFAULT: i16 = 0x008 | 0x010 | 0x020; // ERR | HUP | NVAL

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// Waits until a descriptor is ready or `timeout` passes. Readiness
    /// lands in each entry's `revents`. `Interrupted` is reported as
    /// zero ready descriptors — the caller's loop re-polls anyway.
    pub fn wait(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
        if rc < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(rc as usize)
    }
}

/// Fallback for platforms without `poll(2)`: a fixed short sleep. The
/// loop then runs level-triggered against non-blocking sockets, which
/// is correct but burns a wakeup per tick; only the Unix path is
/// exercised by CI.
#[cfg(not(unix))]
mod readiness {
    use std::io;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLFAULT: i16 = 0x008 | 0x010 | 0x020;

    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub fn wait(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        std::thread::sleep(std::time::Duration::from_millis(timeout_ms.clamp(1, 10) as u64));
        for f in fds.iter_mut() {
            f.revents = f.events;
        }
        Ok(fds.len())
    }
}

/// Wakes the poll loop from worker threads: a loopback stream pair
/// standing in for a pipe (std has no `pipe(2)`). The `pending` flag
/// coalesces bursts — one byte in flight is enough, the loop drains
/// the completion queue wholesale.
struct Waker {
    tx: TcpStream,
    pending: AtomicBool,
}

impl Waker {
    fn wake(&self) {
        if !self.pending.swap(true, Ordering::SeqCst) {
            let _ = (&self.tx).write(&[1u8]);
        }
    }

    /// Empties `rx`, then re-arms `pending`; `between` runs between the
    /// two (a no-op outside tests). The order is the point: a wake
    /// landing after the re-arm writes a fresh byte that stays in the
    /// socket, and one landing before it is coalesced into a wake whose
    /// completion the caller drains next. Re-arming first would let a
    /// wake's byte be swallowed while `pending` stays set, silencing
    /// every later wake until the poll timeout.
    fn drain(&self, rx: &TcpStream, between: impl FnOnce()) {
        let mut buf = [0u8; 64];
        loop {
            match (&*rx).read(&mut buf) {
                Ok(0) => break, // waker closed; completions still drain via timeout
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // WouldBlock: empty
            }
        }
        between();
        self.pending.store(false, Ordering::SeqCst);
    }
}

/// Builds the waker pair: `rx` joins the poll set, `tx` goes to worker
/// threads. Bound to loopback on an ephemeral port that closes again
/// immediately after the one accept.
fn waker_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let tx = TcpStream::connect(addr)?;
    let (rx, _) = listener.accept()?;
    rx.set_nonblocking(true)?;
    tx.set_nonblocking(true)?;
    tx.set_nodelay(true)?;
    Ok((rx, tx))
}

// ---------------------------------------------------------------------
// The poll loop
// ---------------------------------------------------------------------

/// One finished v2 request, traveling from the worker that ran it back
/// to the poll thread that owns the connection.
struct Completion {
    token: usize,
    gen: u64,
    verb: Verb,
    req_id: u32,
    payload: Vec<u8>,
    t0: Instant,
}

/// What phase a poll-owned connection is in.
enum Phase {
    /// Waiting for the first five bytes to learn the protocol version.
    Sniff,
    /// Speaking v2: frames reassembled from non-blocking reads.
    V2,
}

/// One connection owned by the poll loop.
struct Conn {
    stream: TcpStream,
    phase: Phase,
    sniff: Vec<u8>,
    asm: FrameAssembler,
    out: VecDeque<u8>,
    /// Requests dispatched from this connection, completion pending.
    inflight: usize,
    /// Set when the connection should close once `out` drains (frame
    /// errors, peer hangup with responses still buffered).
    closing: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            phase: Phase::Sniff,
            sniff: Vec::with_capacity(5),
            asm: FrameAssembler::new(),
            out: VecDeque::new(),
            inflight: 0,
            closing: false,
        }
    }
}

struct PollLoop<H: FrameHandler> {
    listener: TcpListener,
    handler: Arc<H>,
    config: ServerConfig,
    state: Arc<ServerState>,
    /// Connection slab: token = index. `gens[token]` bumps on every
    /// reuse so a completion for a dead connection can never write
    /// into its successor.
    conns: Vec<Option<Conn>>,
    gens: Vec<u64>,
    free: Vec<usize>,
    completions_tx: mpsc::Sender<Completion>,
    completions_rx: mpsc::Receiver<Completion>,
    waker: Arc<Waker>,
    wake_rx: TcpStream,
    /// Requests dispatched, completion not yet received (mirrors
    /// `state.inflight`, but owned — no racing decrements).
    inflight_total: usize,
}

impl<H: FrameHandler> PollLoop<H> {
    fn new(
        listener: TcpListener,
        handler: Arc<H>,
        config: ServerConfig,
        state: Arc<ServerState>,
    ) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        let (wake_rx, wake_tx) = waker_pair()?;
        let (completions_tx, completions_rx) = mpsc::channel();
        Ok(PollLoop {
            listener,
            handler,
            config,
            state,
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            completions_tx,
            completions_rx,
            waker: Arc::new(Waker { tx: wake_tx, pending: AtomicBool::new(false) }),
            wake_rx,
            inflight_total: 0,
        })
    }

    fn run(mut self) -> io::Result<()> {
        use readiness::{wait, PollFd, POLLFAULT, POLLIN, POLLOUT};
        #[cfg(unix)]
        use std::os::unix::io::AsRawFd;

        let mut fds: Vec<PollFd> = Vec::new();
        let mut tokens: Vec<usize> = Vec::new();
        let mut drain_started: Option<Instant> = None;

        loop {
            let shutting = self.state.shutdown.load(Ordering::SeqCst);
            if shutting {
                let drained = self.inflight_total == 0
                    && self.conns.iter().flatten().all(|c| c.out.is_empty());
                let deadline_passed = *drain_started.get_or_insert_with(Instant::now)
                    + self.config.write_timeout
                    < Instant::now();
                if drained || deadline_passed {
                    break;
                }
            }

            // Rebuild the poll set: listener, waker, then every live
            // connection (write interest only when bytes are buffered).
            fds.clear();
            tokens.clear();
            #[cfg(unix)]
            {
                fds.push(PollFd { fd: self.listener.as_raw_fd(), events: POLLIN, revents: 0 });
                fds.push(PollFd { fd: self.wake_rx.as_raw_fd(), events: POLLIN, revents: 0 });
                for (token, slot) in self.conns.iter().enumerate() {
                    if let Some(conn) = slot {
                        // A closing connection stops reading; if its
                        // output is drained too it is parked entirely
                        // (a completion or the reap will advance it) —
                        // registering it would spin on POLLHUP.
                        let mut events = 0;
                        if !conn.closing {
                            events |= POLLIN;
                        }
                        if !conn.out.is_empty() {
                            events |= POLLOUT;
                        }
                        if events == 0 {
                            continue;
                        }
                        fds.push(PollFd { fd: conn.stream.as_raw_fd(), events, revents: 0 });
                        tokens.push(token);
                    }
                }
            }
            #[cfg(not(unix))]
            {
                fds.push(PollFd { fd: 0, events: POLLIN, revents: 0 });
                fds.push(PollFd { fd: 0, events: POLLIN, revents: 0 });
                for (token, slot) in self.conns.iter().enumerate() {
                    if slot.is_some() {
                        fds.push(PollFd { fd: 0, events: POLLIN | POLLOUT, revents: 0 });
                        tokens.push(token);
                    }
                }
            }

            // A finite timeout backstops every wakeup path (flag set
            // without a connect, a drain deadline approaching).
            wait(&mut fds, 100)?;

            if fds[0].revents & POLLIN != 0 {
                self.accept_ready();
            }
            if fds[1].revents & POLLIN != 0 {
                self.waker.drain(&self.wake_rx, || {});
            }
            self.drain_completions();

            for (i, fd) in fds.iter().enumerate().skip(2) {
                let token = tokens[i - 2];
                if fd.revents & (POLLIN | POLLFAULT) != 0 {
                    self.conn_readable(token);
                }
                if fd.revents & POLLOUT != 0 {
                    self.conn_writable(token);
                }
                self.reap_if_done(token);
            }
        }

        // Shutdown: close every connection.
        for (token, slot) in self.conns.iter_mut().enumerate() {
            if slot.take().is_some() {
                self.gens[token] += 1;
                self.state.conns.fetch_sub(1, Ordering::SeqCst);
            }
        }
        Ok(())
    }

    /// Accepts every pending connection. During shutdown each one gets
    /// a best-effort "draining" notice and closes.
    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.state.obs.add_nd("accept_errors", 1);
                    continue;
                }
            };
            if self.state.shutdown.load(Ordering::SeqCst) {
                refuse(stream, &self.config, Verb::Error, &shutting_down_payload());
                continue;
            }
            self.state.obs.add_nd("connections_accepted", 1);
            if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                continue;
            }
            let token = match self.free.pop() {
                Some(t) => t,
                None => {
                    self.conns.push(None);
                    self.gens.push(0);
                    self.conns.len() - 1
                }
            };
            self.gens[token] += 1;
            self.conns[token] = Some(Conn::new(stream));
            self.state.conns.fetch_add(1, Ordering::SeqCst);
            // The five version bytes may already be on the wire.
            self.conn_readable(token);
            self.reap_if_done(token);
        }
    }

    /// Moves every finished request's response into its connection's
    /// write buffer (if the connection still exists — a peer that hung
    /// up mid-job just forfeits the bytes; the job ran and its result
    /// is cached).
    fn drain_completions(&mut self) {
        while let Ok(c) = self.completions_rx.try_recv() {
            self.inflight_total -= 1;
            self.state.inflight.fetch_sub(1, Ordering::SeqCst);
            self.state.obs.observe("frame_latency", c.t0.elapsed());
            let live = self.gens[c.token] == c.gen;
            if let Some(conn) = self.conns.get_mut(c.token).and_then(Option::as_mut) {
                if live {
                    conn.inflight -= 1;
                    if c.verb == Verb::Error {
                        self.state.obs.add_nd("bad_requests", 1);
                    }
                    let frame = encode_frame_v2(c.verb, c.req_id, &c.payload);
                    self.state.obs.add_nd("frames_written", 1);
                    self.state.obs.add_nd("bytes_written", frame.len() as u64);
                    conn.out.extend(frame);
                    // Opportunistic flush: the socket is almost always
                    // writable, and skipping a poll round-trip is what
                    // keeps sequential request latency low.
                    self.conn_writable(c.token);
                    self.reap_if_done(c.token);
                }
            }
        }
    }

    /// Reads everything available on a connection and processes it.
    fn conn_readable(&mut self, token: usize) {
        let mut scratch = [0u8; 16384];
        loop {
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else { return };
            if conn.closing {
                return;
            }
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    // Peer closed its half; anything buffered is
                    // undeliverable enough to stop reading for.
                    conn.closing = true;
                    return;
                }
                Ok(n) => {
                    self.state.obs.add_nd("bytes_read", n as u64);
                    self.ingest(token, &scratch[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
    }

    /// Feeds freshly-read bytes through the sniff/v2 state machine.
    fn ingest(&mut self, token: usize, mut bytes: &[u8]) {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else { return };
        if let Phase::Sniff = conn.phase {
            let need = 5 - conn.sniff.len();
            let take = need.min(bytes.len());
            conn.sniff.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if conn.sniff.len() < 5 {
                return;
            }
            let magic_ok = conn.sniff[..4] == MAGIC;
            let version = conn.sniff[4];
            if !magic_ok || version != VERSION_V2 {
                // Not v2 (a retired v1 peer, or not this protocol at
                // all). Answer in v1 framing, the one an old peer can
                // parse, and close.
                self.state.obs.add_nd("malformed_frames", 1);
                let message = if magic_ok {
                    format!(
                        "unsupported protocol version {version}; this server speaks \
                         tpi-net/v{VERSION_V2} only"
                    )
                } else {
                    let mut m = [0u8; 4];
                    m.copy_from_slice(&conn.sniff[..4]);
                    FrameError::BadMagic(m).to_string()
                };
                let info = ErrorInfo::new(ErrorCode::MalformedFrame, message);
                let frame = encode_frame(Verb::Error, &info.encode());
                self.state.obs.add_nd("frames_written", 1);
                self.state.obs.add_nd("bytes_written", frame.len() as u64);
                conn.out.extend(frame);
                conn.closing = true;
                return;
            }
            conn.phase = Phase::V2;
            let sniffed = std::mem::take(&mut conn.sniff);
            conn.asm.feed(&sniffed);
        }
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else { return };
        conn.asm.feed(bytes);
        self.pump_frames(token);
    }

    /// Decodes and dispatches every complete frame buffered on a v2
    /// connection.
    fn pump_frames(&mut self, token: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else { return };
            if conn.closing {
                return;
            }
            match conn.asm.next_frame(self.config.max_frame) {
                Ok(Some((verb, req_id, payload))) => {
                    self.state.obs.add_nd("frames_read", 1);
                    self.dispatch(token, verb, req_id, payload);
                }
                Ok(None) => return,
                Err(e) => {
                    // Frame-level faults desynchronize the stream:
                    // answer once (request ID 0 — there is no trustable
                    // ID in a broken frame) and close after the flush.
                    self.state.obs.add_nd("malformed_frames", 1);
                    let code = match e {
                        FrameError::UnknownVerb(_) => ErrorCode::UnknownVerb,
                        _ => ErrorCode::MalformedFrame,
                    };
                    let info = ErrorInfo::new(code, e.to_string());
                    self.enqueue(token, Verb::Error, 0, &info.encode());
                    if let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) {
                        conn.closing = true;
                    }
                    return;
                }
            }
        }
    }

    /// One v2 request. Fast verbs answer inline; Submits go to the
    /// handler's pool and come back through the completion channel.
    fn dispatch(&mut self, token: usize, verb: Verb, req_id: u32, payload: Vec<u8>) {
        let t0 = Instant::now();
        let shutting = self.state.shutdown.load(Ordering::SeqCst);
        match verb {
            Verb::Ping => {
                self.enqueue(token, Verb::Pong, req_id, &[]);
                self.state.obs.observe("frame_latency", t0.elapsed());
            }
            Verb::Metrics => {
                let json = metrics_json(&self.state, &*self.handler);
                self.enqueue(token, Verb::MetricsReport, req_id, json.as_bytes());
                self.state.obs.observe("frame_latency", t0.elapsed());
            }
            Verb::Shutdown => {
                // Acknowledge first (the requester should not hang),
                // then start the drain.
                self.enqueue(token, Verb::Pong, req_id, &[]);
                self.state.shutdown.store(true, Ordering::SeqCst);
                self.state.obs.observe("frame_latency", t0.elapsed());
            }
            Verb::PeerFetch => match CacheLookup::decode(&payload) {
                Ok(lookup) => {
                    let (rverb, rpayload) = self.handler.peer_fetch(lookup);
                    if rverb == Verb::Error {
                        self.state.obs.add_nd("bad_requests", 1);
                    }
                    self.enqueue(token, rverb, req_id, &rpayload);
                    self.state.obs.observe("frame_latency", t0.elapsed());
                }
                Err(e) => self.bad_request(token, req_id, &e.to_string()),
            },
            Verb::Submit => {
                if shutting {
                    self.enqueue(token, Verb::Error, req_id, &shutting_down_payload());
                    return;
                }
                if self.inflight_total >= self.config.max_inflight {
                    self.state.obs.add_nd("requests_busy", 1);
                    self.enqueue(token, Verb::Busy, req_id, &[]);
                    return;
                }
                match WireRequest::decode(&payload) {
                    Ok(req) => {
                        let done = self.completion_sender(token, req_id, t0, None);
                        self.note_dispatch(token);
                        self.handler.submit_async(req, done);
                    }
                    Err(e) => self.bad_request(token, req_id, &e.to_string()),
                }
            }
            Verb::SubmitMany => {
                if shutting {
                    self.enqueue(token, Verb::Error, req_id, &shutting_down_payload());
                    return;
                }
                let batch = match SubmitMany::decode(&payload) {
                    Ok(batch) => batch,
                    Err(e) => return self.bad_request(token, req_id, &e.to_string()),
                };
                // All-or-nothing admission, so a Busy answer means
                // "nothing from this frame ran" — retry the frame.
                if self.inflight_total + batch.requests.len() > self.config.max_inflight {
                    self.state.obs.add_nd("requests_busy", 1);
                    self.enqueue(token, Verb::Busy, req_id, &[]);
                    return;
                }
                for (index, req) in batch.requests.into_iter().enumerate() {
                    let done = self.completion_sender(token, req_id, t0, Some(index as u32));
                    self.note_dispatch(token);
                    self.handler.submit_async(req, done);
                }
            }
            // A response verb has no meaning as a request. The frame
            // layer stayed in sync, so this answers and keeps the
            // connection.
            Verb::Report
            | Verb::ReportOne
            | Verb::Error
            | Verb::Busy
            | Verb::MetricsReport
            | Verb::Pong
            | Verb::CachePayload => {
                self.state.obs.add_nd("bad_requests", 1);
                let info = ErrorInfo::new(
                    ErrorCode::UnexpectedVerb,
                    format!("{} is a response verb", verb.label()),
                );
                self.enqueue(token, Verb::Error, req_id, &info.encode());
            }
        }
    }

    /// Builds the `done` callback for one dispatched request. For a
    /// batch member (`index` set), the handler's Report payload is
    /// re-enveloped as a [`Verb::ReportOne`] — an index prefix spliced
    /// onto the report bytes — and a handler *error* is folded into a
    /// failed report, so every batch member answers exactly once with
    /// the batch's request ID.
    fn completion_sender(
        &self,
        token: usize,
        req_id: u32,
        t0: Instant,
        index: Option<u32>,
    ) -> Box<dyn FnOnce(Verb, Vec<u8>) + Send> {
        let gen = self.gens[token];
        let tx = self.completions_tx.clone();
        let waker = Arc::clone(&self.waker);
        Box::new(move |verb, payload| {
            let (verb, payload) = match index {
                None => (verb, payload),
                Some(index) => {
                    let report = if verb == Verb::Report {
                        payload
                    } else {
                        synthesized_failure(&payload).encode()
                    };
                    let mut enveloped = Vec::with_capacity(4 + report.len());
                    enveloped.extend_from_slice(&index.to_le_bytes());
                    enveloped.extend_from_slice(&report);
                    (Verb::ReportOne, enveloped)
                }
            };
            let _ = tx.send(Completion { token, gen, verb, req_id, payload, t0 });
            waker.wake();
        })
    }

    fn note_dispatch(&mut self, token: usize) {
        self.inflight_total += 1;
        self.state.inflight.fetch_add(1, Ordering::SeqCst);
        if let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) {
            conn.inflight += 1;
        }
    }

    /// Answers a request that framed correctly but decoded badly. The
    /// connection stays open: the stream is still in sync.
    fn bad_request(&mut self, token: usize, req_id: u32, msg: &str) {
        self.state.obs.add_nd("bad_requests", 1);
        let info = ErrorInfo::new(ErrorCode::BadRequest, msg);
        self.enqueue(token, Verb::Error, req_id, &info.encode());
    }

    /// Appends one v2 frame to a connection's write buffer and tries to
    /// flush it immediately.
    fn enqueue(&mut self, token: usize, verb: Verb, req_id: u32, payload: &[u8]) {
        let frame = encode_frame_v2(verb, req_id, payload);
        self.state.obs.add_nd("frames_written", 1);
        self.state.obs.add_nd("bytes_written", frame.len() as u64);
        if let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) {
            conn.out.extend(frame);
        }
        self.conn_writable(token);
    }

    /// Writes as much buffered output as the socket will take.
    fn conn_writable(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else { return };
        while !conn.out.is_empty() {
            let (front, _) = conn.out.as_slices();
            match conn.stream.write(front) {
                Ok(0) => {
                    self.state.obs.add_nd("write_failures", 1);
                    self.close_conn(token);
                    return;
                }
                Ok(n) => {
                    conn.out.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.state.obs.add_nd("write_failures", 1);
                    self.close_conn(token);
                    return;
                }
            }
        }
    }

    /// Closes a connection marked `closing` once its output drained and
    /// no completions are owed to it.
    fn reap_if_done(&mut self, token: usize) {
        let done = match self.conns.get(token).and_then(Option::as_ref) {
            Some(conn) => conn.closing && conn.out.is_empty() && conn.inflight == 0,
            None => false,
        };
        if done {
            self.close_conn(token);
        }
    }

    /// Frees a connection slot. In-flight completions for it will miss
    /// the generation check and be dropped.
    fn close_conn(&mut self, token: usize) {
        if self.conns[token].take().is_some() {
            self.gens[token] += 1;
            self.free.push(token);
            self.state.conns.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Folds a handler error payload into a failed [`WireReport`], so a
/// batch member that errored still answers as a ReportOne (the batch
/// protocol promises exactly one report per index).
fn synthesized_failure(error_payload: &[u8]) -> WireReport {
    let message = match ErrorInfo::decode(error_payload) {
        Ok(info) => info.message,
        Err(_) => "request failed".into(),
    };
    WireReport {
        id: 0,
        flow: "error".into(),
        status: tpi_serve::JobStatus::Failed(message),
        key: None,
        verified: false,
        cache: tpi_serve::CacheSource::Cold,
        wall_micros: 0,
        payload: None,
        diagnostics: Vec::new(),
    }
}

/// Atomically publishes a server's bound address to `path`: write to a
/// sibling temp file, `fsync`, rename into place, then `fsync` the
/// directory. A reader polling the path therefore sees either nothing
/// or a complete `HOST:PORT\n` — never a partial write — which is what
/// lets scripts race `tpi-netd --addr-file` safely.
pub fn write_addr_file(path: impl AsRef<Path>, addr: SocketAddr) -> io::Result<()> {
    let path = path.as_ref();
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(format!("{addr}\n").as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Persist the rename itself. Best-effort: some filesystems refuse
    // directory fsync, and durability of the *name* is not what the
    // race fix depends on (the atomic rename is).
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

fn shutting_down_payload() -> Vec<u8> {
    ErrorInfo::new(ErrorCode::ShuttingDown, "server is draining; try another replica").encode()
}

/// Best-effort single-frame answer to a connection arriving during
/// shutdown.
fn refuse(stream: TcpStream, config: &ServerConfig, verb: Verb, payload: &[u8]) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let mut stream = stream;
    let _ = write_frame(&mut stream, verb, payload);
}

/// Renders the metrics snapshot under the handler's schema.
fn metrics_json<H: FrameHandler>(state: &ServerState, handler: &H) -> String {
    let counters = [
        "connections_accepted",
        "accept_errors",
        "frames_read",
        "frames_written",
        "bytes_read",
        "bytes_written",
        "malformed_frames",
        "bad_requests",
        "requests_busy",
        "write_failures",
    ];
    let mut o = JsonObject::new();
    o.field_str("schema", handler.metrics_schema());
    for name in counters {
        o.field_u64(name, state.obs.nd_counter(name));
    }
    o.field_u64("active_connections", state.conns.load(Ordering::SeqCst) as u64);
    o.field_u64("inflight_requests", state.inflight.load(Ordering::SeqCst) as u64);
    o.field_object(
        "frame_latency",
        state.obs.histogram("frame_latency").unwrap_or_default().to_json_object(),
    );
    // The handler snapshot is already rendered byte-stable JSON; embed
    // it verbatim rather than re-serializing.
    let (name, json) = handler.snapshot();
    o.field_raw(name, &json);
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads one byte from the non-blocking waker socket, polling for
    /// up to a second (loopback delivery is not instantaneous).
    fn wake_byte_arrives(rx: &TcpStream) -> bool {
        let give_up = Instant::now() + Duration::from_secs(1);
        let mut buf = [0u8; 1];
        while Instant::now() < give_up {
            match (&*rx).read(&mut buf) {
                Ok(1) => return true,
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        false
    }

    /// A wake that lands while the poll loop is draining the waker must
    /// not silence later wakes: after the drain, the next `wake` still
    /// puts a byte on the socket.
    #[test]
    fn a_wake_racing_the_drain_is_not_lost() {
        let (rx, tx) = waker_pair().expect("loopback waker pair");
        let waker = Waker { tx, pending: AtomicBool::new(false) };
        waker.wake();
        std::thread::sleep(Duration::from_millis(20)); // let the byte land
        waker.drain(&rx, || {
            waker.wake();
            std::thread::sleep(Duration::from_millis(20));
        });
        waker.wake();
        assert!(wake_byte_arrives(&rx), "a wake after the drain must reach the socket");
    }
}
