//! Loopback integration tests for the `tpi-net` subsystem: the
//! byte-identity contract, deadline propagation over the wire,
//! per-request `Busy` backpressure, out-of-order pipelined completions,
//! the 1k-idle-connections thread bound, refusal of v1 peers,
//! malformed-frame survival, mid-job disconnects, drain on shutdown —
//! plus property tests for both frame codecs.

use proptest::prelude::*;
use scanpath::net::{
    encode_frame, encode_frame_v2, read_frame, read_frame_v2, write_addr_file, write_frame_v2,
    CacheAnswer, CacheLookup, ClientConfig, ClientError, Connection, ErrorCode, ErrorInfo,
    FrameAssembler, FrameError, FrameHandler, NetServer, ProtoError, ServerConfig, Verb,
    WireRequest,
};
use scanpath::netlist::write_blif;
use scanpath::serve::{JobService, JobSpec, JobStatus, NetlistSource, ServiceConfig};
use scanpath::workloads::iscas;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

fn s27_blif() -> String {
    write_blif(&iscas::s27())
}

/// Starts a loopback server over a fresh service and returns
/// `(session, handle, join, service)`.
fn loopback(
    threads: usize,
    config: ServerConfig,
) -> (
    Connection,
    scanpath::net::ServerHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
    Arc<JobService>,
) {
    let service = Arc::new(JobService::new(ServiceConfig { threads, ..ServiceConfig::default() }));
    let server = NetServer::bind(config, Arc::clone(&service)).expect("bind loopback");
    let addr = server.local_addr().to_string();
    let (handle, join) = server.spawn();
    (Connection::open(addr).expect("open session"), handle, join, service)
}

/// Submit-and-wait over a session: the sequential idiom.
fn run(conn: &Connection, req: &WireRequest) -> Result<scanpath::net::WireReport, ClientError> {
    conn.submit(req).and_then(|ticket| conn.wait(ticket))
}

/// The headline contract: a report fetched over TCP carries the exact
/// payload bytes an in-process service produces for the same spec.
fn assert_loopback_byte_identical(threads: usize) {
    let (conn, handle, join, _service) = loopback(threads, ServerConfig::default());
    let wire = run(&conn, &WireRequest::full_scan(s27_blif())).expect("network submit");
    assert_eq!(wire.status, JobStatus::Completed);
    let over_the_wire = wire.payload.expect("completed jobs carry a payload");

    // A *separate* in-process service: nothing shared, so agreement
    // means determinism + faithful transport, not a cache hit.
    let local = JobService::new(ServiceConfig { threads, ..ServiceConfig::default() });
    let report = local.submit(JobSpec::full_scan(NetlistSource::Blif(s27_blif()))).wait();
    let in_process = report.payload.expect("completed jobs carry a payload");

    assert_eq!(
        over_the_wire.as_bytes(),
        in_process.as_bytes(),
        "wire payload must be byte-identical to the in-process payload"
    );
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn loopback_byte_identical_at_one_thread() {
    assert_loopback_byte_identical(1);
}

#[test]
fn loopback_byte_identical_at_all_threads() {
    assert_loopback_byte_identical(0);
}

/// v1 is retired: a peer speaking it — here a well-formed v1 `Ping` —
/// gets exactly one v1-framed `MalformedFrame` error naming version 1,
/// then the connection closes. The listener is untouched: a v2 session
/// on the same server still returns s27 byte-identical to in-process.
#[test]
fn v1_peer_is_refused_and_a_v2_session_still_serves() {
    let (conn, handle, join, _service) = loopback(1, ServerConfig::default());

    let mut v1 = TcpStream::connect(handle.addr()).expect("connect");
    v1.set_read_timeout(Some(Duration::from_secs(10))).expect("set read timeout");
    v1.write_all(&encode_frame(Verb::Ping, b"")).expect("write a v1 ping");
    let (verb, payload) = read_frame(&mut &v1, u32::MAX).expect("one v1-framed answer");
    assert_eq!(verb, Verb::Error);
    let info = ErrorInfo::decode(&payload).expect("typed error payload");
    assert_eq!(info.code, ErrorCode::MalformedFrame);
    assert!(info.message.contains("version 1"), "names the refused version: {}", info.message);
    let mut rest = Vec::new();
    v1.read_to_end(&mut rest).expect("the server closes the connection");
    assert!(rest.is_empty(), "exactly one frame before the close, got {} more bytes", rest.len());

    let wire = run(&conn, &WireRequest::full_scan(s27_blif())).expect("v2 submit after v1");
    let local = JobService::new(ServiceConfig { threads: 1, ..ServiceConfig::default() });
    let report = local.submit(JobSpec::full_scan(NetlistSource::Blif(s27_blif()))).wait();
    assert_eq!(
        wire.payload.expect("completed jobs carry a payload").as_bytes(),
        report.payload.expect("completed jobs carry a payload").as_bytes(),
        "v2 payload stays byte-identical to the in-process payload"
    );

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn deadline_crosses_the_wire() {
    let (conn, handle, join, _service) = loopback(1, ServerConfig::default());
    let req = WireRequest::full_scan(s27_blif()).with_deadline(Duration::ZERO);
    let wire = run(&conn, &req).expect("submit with an expired deadline still reports");
    assert_eq!(wire.status, JobStatus::TimedOut, "a zero deadline must time out server-side");
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// One worker means server-side completion order equals submission
/// order — so redeeming the *second* ticket first forces the session
/// reader to park the first report in its slot and route purely by
/// request ID. Then `wait_any` drains a mixed set in completion order.
#[test]
fn pipelined_completions_route_out_of_order() {
    let (conn, handle, join, _service) = loopback(1, ServerConfig::default());

    let first = conn.submit(&WireRequest::full_scan(s27_blif())).expect("submit first");
    let second = conn
        .submit(&WireRequest::full_scan(s27_blif()).with_deadline(Duration::ZERO))
        .expect("submit second");
    let late = conn.wait(second).expect("the second report redeems first");
    assert_eq!(late.status, JobStatus::TimedOut);
    let early = conn.wait(first).expect("the first report was parked in its slot");
    assert_eq!(early.status, JobStatus::Completed);
    assert!(early.payload.is_some());

    let a = conn.submit(&WireRequest::full_scan(s27_blif())).expect("submit a");
    let b = conn
        .submit(&WireRequest::full_scan(s27_blif()).with_deadline(Duration::ZERO))
        .expect("submit b");
    let (a_id, b_id) = (a.id(), b.id());
    assert_ne!(a_id, b_id, "in-flight request IDs never alias");
    let mut set = vec![a, b];
    let (t1, r1) = conn.wait_any(&mut set).expect("first completion");
    let (t2, r2) = conn.wait_any(&mut set).expect("second completion");
    assert!(set.is_empty(), "wait_any removes redeemed tickets");
    assert_eq!((t1.id(), r1.status), (a_id, JobStatus::Completed));
    assert_eq!((t2.id(), r2.status), (b_id, JobStatus::TimedOut));

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// `SubmitMany` streams one report per job; `wait_batch` returns them
/// in batch index order regardless of completion order.
#[test]
fn submit_many_streams_a_report_per_job() {
    let (conn, handle, join, _service) = loopback(1, ServerConfig::default());
    let reqs = vec![
        WireRequest::full_scan(s27_blif()),
        WireRequest::full_scan(s27_blif()).with_deadline(Duration::ZERO),
        WireRequest::full_scan(s27_blif()),
    ];
    let batch = conn.submit_many(&reqs).expect("batch admitted whole");
    let reports = conn.wait_batch(batch).expect("every report comes back");
    assert_eq!(reports.len(), 3);
    assert_eq!(reports[0].status, JobStatus::Completed);
    assert_eq!(reports[1].status, JobStatus::TimedOut);
    assert_eq!(reports[2].status, JobStatus::Completed);
    assert!(reports[0].payload.is_some());
    assert_eq!(reports[0].payload, reports[2].payload, "same spec, same bytes");

    let empty = conn.submit_many(&[]).expect("empty batch self-completes");
    assert!(conn.wait_batch(empty).expect("no frames needed").is_empty());

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// A handler whose submits park until the test opens the gate — the
/// deterministic way to hold a request in flight.
#[derive(Clone)]
struct Gate(Arc<(Mutex<bool>, Condvar)>);

impl Gate {
    fn new() -> Gate {
        Gate(Arc::new((Mutex::new(false), Condvar::new())))
    }

    fn open(&self) {
        let (lock, cv) = &*self.0;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }

    fn wait(&self) {
        let (lock, cv) = &*self.0;
        let mut open = lock.lock().unwrap();
        while !*open {
            open = cv.wait(open).unwrap();
        }
    }
}

struct GateHandler {
    gate: Gate,
}

impl FrameHandler for GateHandler {
    fn submit_async(&self, _req: WireRequest, done: Box<dyn FnOnce(Verb, Vec<u8>) + Send>) {
        // Parked on a thread, never on the poll loop.
        let gate = self.gate.clone();
        std::thread::spawn(move || {
            gate.wait();
            done(Verb::Error, ErrorInfo::new(ErrorCode::Internal, "gated handler").encode());
        });
    }

    fn peer_fetch(&self, _lookup: CacheLookup) -> (Verb, Vec<u8>) {
        (Verb::CachePayload, CacheAnswer { payload: None }.encode())
    }

    fn metrics_schema(&self) -> &'static str {
        "test-gate-metrics/v1"
    }

    fn snapshot(&self) -> (&'static str, String) {
        ("gate", "{}".to_string())
    }
}

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map(|d| d.count()).unwrap_or(0)
}

/// The two headline v2 server properties at once: a thousand idle
/// sessions cost no server threads (the readiness loop, not
/// thread-per-connection), and with them all open, `Busy` is
/// *per-request* backpressure — an over-cap submit is turned away and
/// retried without touching the other in-flight request or any of the
/// idle connections.
#[test]
fn a_thousand_idle_connections_bounded_threads_with_busy_backpressure() {
    let gate = Gate::new();
    let server = NetServer::bind_with(
        ServerConfig { max_inflight: 1, ..ServerConfig::default() },
        GateHandler { gate: gate.clone() },
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();
    let (handle, join) = server.spawn();

    let before = thread_count();
    let mut idle = Vec::with_capacity(1000);
    for i in 0..1000 {
        let mut s = TcpStream::connect(&addr).unwrap_or_else(|e| panic!("idle connect {i}: {e}"));
        s.write_all(b"TPIN\x02").expect("announce v2");
        idle.push(s);
    }
    std::thread::sleep(Duration::from_millis(300));
    let during = thread_count();
    if before > 0 {
        // /proc is available: the readiness loop must not have grown
        // the process by even a fraction of the connection count.
        assert!(
            during.saturating_sub(before) <= 8,
            "1000 idle v2 connections grew the process from {before} to {during} threads"
        );
    }

    // Per-request Busy while all thousand sessions are open: the gated
    // occupier fills the single in-flight slot, so the next submit is
    // answered Busy — on its own request ID, on the same connection.
    let impatient = Connection::open_with(
        &addr,
        ClientConfig {
            retry_budget: Duration::ZERO,
            max_retries: Some(0),
            ..ClientConfig::default()
        },
    )
    .expect("open impatient session");
    let req = WireRequest::full_scan(s27_blif());
    let occupier = impatient.submit(&req).expect("occupier submit");
    let crowded = impatient.submit(&req).expect("over-cap submit still goes out");
    match impatient.wait(crowded) {
        Err(ClientError::Busy { .. }) => {}
        other => panic!("expected per-request Busy past max_inflight, got {other:?}"),
    }

    // A patient session rides the Busy out: open the gate shortly and
    // its retry is admitted once the occupier's slot frees.
    let patient = Connection::open(&addr).expect("open patient session");
    let queued = patient.submit(&req).expect("patient submit");
    let opener = {
        let gate = gate.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            gate.open();
        })
    };
    match patient.wait(queued) {
        Err(ClientError::Remote(info)) => assert_eq!(info.message, "gated handler"),
        other => panic!("expected the gated handler's answer, got {other:?}"),
    }
    match impatient.wait(occupier) {
        Err(ClientError::Remote(info)) => assert_eq!(info.message, "gated handler"),
        other => panic!("expected the gated handler's answer, got {other:?}"),
    }
    opener.join().unwrap();

    // The server is still fully responsive under the idle thousand.
    patient.ping().expect("ping under 1k idle connections");
    drop(idle);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn malformed_frame_gets_an_error_and_the_listener_survives() {
    let (conn, handle, join, _service) = loopback(1, ServerConfig::default());
    let addr = handle.addr();

    // Garbage that is not even a header.
    let mut bad = TcpStream::connect(addr).expect("connect");
    bad.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("write garbage");
    let (verb, payload) = read_frame(&mut &bad, u32::MAX).expect("server answers a frame");
    assert_eq!(verb, Verb::Error);
    let info = ErrorInfo::decode(&payload).expect("typed error payload");
    assert_eq!(info.code, ErrorCode::MalformedFrame);
    drop(bad);

    // A valid frame with a corrupted trailer is also refused politely,
    // on request ID 0 (a broken frame has no trustable ID).
    let mut torn = TcpStream::connect(addr).expect("connect");
    let mut frame = encode_frame_v2(Verb::Ping, 7, b"");
    let last = frame.len() - 1;
    frame[last] ^= 0xff;
    torn.write_all(&frame).expect("write corrupted frame");
    let (verb, id, _) = read_frame_v2(&mut &torn, u32::MAX).expect("server answers a frame");
    assert_eq!((verb, id), (Verb::Error, 0));
    drop(torn);

    // The listener is untouched: real work on a fresh connection runs.
    let wire = run(&conn, &WireRequest::full_scan(s27_blif())).expect("submit after garbage");
    assert_eq!(wire.status, JobStatus::Completed);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn mid_job_disconnect_does_not_poison_the_server() {
    let (conn, handle, join, _service) = loopback(1, ServerConfig::default());
    let addr = handle.addr();

    // Submit a real job and hang up before reading the response.
    let mut rude = TcpStream::connect(addr).expect("connect");
    let payload = WireRequest::full_scan(s27_blif()).encode();
    write_frame_v2(&mut rude, Verb::Submit, 1, &payload).expect("write submit");
    drop(rude);

    // Follow-up requests on fresh connections must succeed.
    let wire = run(&conn, &WireRequest::full_scan(s27_blif())).expect("submit after hangup");
    assert_eq!(wire.status, JobStatus::Completed);
    conn.ping().expect("ping after hangup");
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn shutdown_drains_in_flight_jobs() {
    let (conn, handle, join, service) = loopback(1, ServerConfig::default());
    let addr = handle.addr();

    // An in-flight submission racing the shutdown.
    let racer = std::thread::spawn(move || {
        let c = Connection::open(addr.to_string())?;
        let ticket = c.submit(&WireRequest::full_scan(write_blif(&iscas::s27())))?;
        c.wait(ticket)
    });
    std::thread::sleep(Duration::from_millis(30));
    conn.shutdown_server().expect("shutdown acknowledged");
    join.join().unwrap().unwrap();

    // The drain guarantee: the in-flight job completed and its report
    // made it back out before the server exited.
    let wire = racer.join().unwrap().expect("in-flight job survives the drain");
    assert_eq!(wire.status, JobStatus::Completed);
    assert!(wire.payload.is_some());
    assert!(service.metrics().completed >= 1);
}

#[test]
fn metrics_verb_serves_both_snapshots() {
    let (conn, handle, join, _service) = loopback(1, ServerConfig::default());
    run(&conn, &WireRequest::full_scan(s27_blif())).expect("seed some traffic");
    let json = conn.metrics_json().expect("metrics over the wire");
    assert!(json.starts_with("{\"schema\":\"tpi-netd-metrics/v1\""), "netd schema first: {json}");
    assert!(json.contains("\"tpi-serve-metrics/v1\""), "service snapshot embedded: {json}");
    assert!(json.contains("\"frames_read\""), "traffic counters present: {json}");
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// The peer-fetch path end to end: after a job completes, a
/// `PeerFetch` for its content-addressed key returns the exact cached
/// payload, and an unknown key answers a clean miss.
#[test]
fn peer_fetch_round_trips_the_cached_payload() {
    let (conn, handle, join, _service) = loopback(1, ServerConfig::default());
    let wire = run(&conn, &WireRequest::full_scan(s27_blif())).expect("submit");
    assert_eq!(wire.status, JobStatus::Completed);
    let key = wire.key.expect("completed jobs carry a cache key");
    let payload = wire.payload.expect("completed jobs carry a payload");

    let fetched = conn.peer_fetch(key).expect("peer-fetch over the wire");
    assert_eq!(fetched.as_deref(), Some(payload.as_str()), "hit returns the exact cached bytes");
    assert_eq!(conn.peer_fetch(!key).expect("miss still answers"), None, "unknown key misses");
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// `write_addr_file` vs. a polling reader: the reader may see nothing,
/// but every byte it does see must parse as a complete `HOST:PORT`
/// line. This is the regression test for the torn-read race the
/// write-to-temp + fsync + rename publish fixes.
#[test]
fn addr_file_readers_never_observe_a_partial_write() {
    let dir = std::env::temp_dir().join(format!("tpi-addr-race-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("make scratch dir");
    let path = dir.join("netd.addr");

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let reader = {
        let (path, stop) = (path.clone(), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut reads = 0u32;
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                if let Ok(text) = std::fs::read_to_string(&path) {
                    reads += 1;
                    assert!(text.ends_with('\n'), "file is complete, got {text:?}");
                    text.trim()
                        .parse::<SocketAddr>()
                        .unwrap_or_else(|e| panic!("torn read {text:?}: {e}"));
                }
            }
            reads
        })
    };

    // Republish many times with addresses of different lengths, so a
    // torn read would also show up as a mixed-length mangle.
    for i in 0..400u32 {
        let addr: SocketAddr = match i % 2 {
            0 => format!("127.0.0.1:{}", 1 + i % 9).parse().unwrap(),
            _ => format!("10.200.100.50:{}", 60_000 + i % 5000).parse().unwrap(),
        };
        write_addr_file(&path, addr).expect("publish address");
    }
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let reads = reader.join().expect("reader thread saw only complete addresses");
    assert!(reads > 0, "the reader raced at least one publish");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deterministic pseudo-random payload bytes: the proptest shim has no
/// byte-vector strategy, so payloads are derived from `(len, seed)`
/// via an LCG inside `prop_map`.
fn payload_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 56) as u8
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary payload bytes survive encode → decode exactly, for
    /// every verb.
    #[test]
    fn frame_roundtrip_identity(len in 0usize..2048, seed in 0u64..u64::MAX, verb_pick in 0usize..9) {
        let verbs = [
            Verb::Submit, Verb::Report, Verb::Error, Verb::Busy, Verb::Metrics,
            Verb::MetricsReport, Verb::Ping, Verb::Pong, Verb::Shutdown,
        ];
        let verb = verbs[verb_pick];
        let payload = payload_bytes(len, seed);
        let bytes = encode_frame(verb, &payload);
        let (got_verb, got_payload) = read_frame(&mut bytes.as_slice(), u32::MAX)
            .expect("well-formed frames decode");
        prop_assert_eq!(got_verb, verb);
        prop_assert_eq!(got_payload, payload);
    }

    /// Corrupting any single byte of a frame yields a typed error or a
    /// short read — never a panic, and never a silently wrong payload.
    #[test]
    fn frame_corruption_is_typed_never_panics(
        len in 1usize..256,
        seed in 0u64..u64::MAX,
        corrupt_at_fraction in 0usize..10_000,
        flip in 1u8..=255,
    ) {
        let payload = payload_bytes(len, seed);
        let mut bytes = encode_frame(Verb::Report, &payload);
        let idx = corrupt_at_fraction * bytes.len() / 10_000;
        bytes[idx] ^= flip;
        match read_frame(&mut bytes.as_slice(), u32::MAX) {
            // A length-field corruption that *shrinks* the frame can
            // decode a shorter prefix — but then the trailer (checksum
            // over the payload) must have caught any payload change.
            Ok((verb, got)) => {
                prop_assert_eq!(verb, Verb::Report);
                prop_assert_eq!(got, payload, "a successful decode must return the true payload");
            }
            Err(
                FrameError::BadMagic(_)
                | FrameError::BadVersion(_)
                | FrameError::UnknownVerb(_)
                | FrameError::Oversize { .. }
                | FrameError::BadTrailer { .. }
                | FrameError::Truncated { .. }
                | FrameError::Closed,
            ) => {}
            Err(other) => return Err(TestCaseError::fail(format!("untyped error: {other}"))),
        }
    }

    /// Every `(verb, req_id, payload)` triple — including the v2-only
    /// batch verbs and the extreme request IDs — survives the v2
    /// encode → decode exactly.
    #[test]
    fn frame_v2_roundtrip_identity(
        len in 0usize..2048,
        seed in 0u64..u64::MAX,
        verb_pick in 0usize..13,
        req_id in 0u32..=u32::MAX,
    ) {
        let verbs = [
            Verb::Submit, Verb::Report, Verb::Error, Verb::Busy, Verb::Metrics,
            Verb::MetricsReport, Verb::Ping, Verb::Pong, Verb::Shutdown,
            Verb::PeerFetch, Verb::CachePayload, Verb::SubmitMany, Verb::ReportOne,
        ];
        let verb = verbs[verb_pick];
        let payload = payload_bytes(len, seed);
        let bytes = encode_frame_v2(verb, req_id, &payload);
        let (got_verb, got_id, got_payload) = read_frame_v2(&mut bytes.as_slice(), u32::MAX)
            .expect("well-formed v2 frames decode");
        prop_assert_eq!(got_verb, verb);
        prop_assert_eq!(got_id, req_id);
        prop_assert_eq!(got_payload, payload);
    }

    /// Single-byte corruption of a v2 frame never *aliases* request
    /// IDs: a decode can only surface a different ID when the flipped
    /// byte is inside the ID field itself (bytes 6..10) — corruption
    /// anywhere else either is a typed error or leaves the ID intact.
    /// Likewise a changed verb pins the flip to the verb byte, and any
    /// successful decode returns the true payload (the trailer's job).
    #[test]
    fn frame_v2_corruption_never_aliases_request_ids(
        len in 1usize..256,
        seed in 0u64..u64::MAX,
        req_id in 0u32..=u32::MAX,
        corrupt_at_fraction in 0usize..10_000,
        flip in 1u8..=255,
    ) {
        let payload = payload_bytes(len, seed);
        let mut bytes = encode_frame_v2(Verb::Report, req_id, &payload);
        let idx = corrupt_at_fraction * bytes.len() / 10_000;
        bytes[idx] ^= flip;
        match read_frame_v2(&mut bytes.as_slice(), u32::MAX) {
            Ok((verb, got_id, got)) => {
                prop_assert_eq!(got, payload, "a successful decode must return the true payload");
                if got_id != req_id {
                    prop_assert!(
                        (6..10).contains(&idx),
                        "request ID changed from a flip at byte {} — IDs aliased", idx
                    );
                }
                if verb != Verb::Report {
                    prop_assert_eq!(idx, 5, "verb changed from a flip outside the verb byte");
                }
            }
            Err(
                FrameError::BadMagic(_)
                | FrameError::BadVersion(_)
                | FrameError::UnknownVerb(_)
                | FrameError::Oversize { .. }
                | FrameError::BadTrailer { .. }
                | FrameError::Truncated { .. }
                | FrameError::Closed,
            ) => {}
            Err(other) => return Err(TestCaseError::fail(format!("untyped error: {other}"))),
        }
    }

    /// The incremental assembler agrees with the blocking reader no
    /// matter how the byte stream is chunked: a burst of frames fed in
    /// arbitrary slices comes back out as exactly the frames that went
    /// in, in order.
    #[test]
    fn frame_assembler_survives_arbitrary_chunking(
        frames in 1usize..5,
        len in 0usize..96,
        seed in 0u64..u64::MAX,
        chunk in 1usize..48,
    ) {
        let mut wire = Vec::new();
        let mut expect = Vec::new();
        for i in 0..frames {
            let payload = payload_bytes(len + i, seed.wrapping_add(i as u64));
            let id = (seed as u32).wrapping_add(i as u32);
            wire.extend_from_slice(&encode_frame_v2(Verb::Report, id, &payload));
            expect.push((Verb::Report, id, payload));
        }
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for piece in wire.chunks(chunk) {
            asm.feed(piece);
            loop {
                match asm.next_frame(u32::MAX) {
                    Ok(Some(frame)) => got.push(frame),
                    Ok(None) => break,
                    Err(e) => return Err(TestCaseError::fail(format!("assembler error: {e}"))),
                }
            }
        }
        prop_assert_eq!(asm.pending(), 0, "no bytes left over after whole frames");
        prop_assert_eq!(got, expect);
    }

    /// A corrupted trailer specifically reports `BadTrailer`.
    #[test]
    fn trailer_corruption_is_bad_trailer(len in 0usize..512, seed in 0u64..u64::MAX) {
        let payload = payload_bytes(len, seed);
        let mut bytes = encode_frame(Verb::Submit, &payload);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let err = read_frame(&mut bytes.as_slice(), u32::MAX).unwrap_err();
        prop_assert!(
            matches!(err, FrameError::BadTrailer { .. }),
            "expected BadTrailer, got {}", err
        );
    }

    /// An oversize length field is rejected before any allocation of
    /// payload-sized buffers.
    #[test]
    fn oversize_length_is_rejected_early(extra in 1u32..1_000_000) {
        let cap = 1024u32;
        let mut bytes = encode_frame(Verb::Ping, &[0u8; 8]);
        bytes[6..10].copy_from_slice(&(cap + extra).to_le_bytes());
        let err = read_frame(&mut bytes.as_slice(), cap).unwrap_err();
        prop_assert!(matches!(err, FrameError::Oversize { .. }), "got {}", err);
    }

    /// Every cache key survives `CacheLookup` encode → decode, and the
    /// truncated/padded forms are typed errors, mirroring the frame
    /// corruption property for the peer-fetch verbs.
    #[test]
    fn cache_lookup_roundtrip_and_resize_are_typed(key in 0u64..u64::MAX, cut in 0usize..8) {
        let bytes = CacheLookup { key }.encode();
        prop_assert_eq!(CacheLookup::decode(&bytes).expect("well-formed lookups decode").key, key);

        let err = CacheLookup::decode(&bytes[..cut]).unwrap_err();
        prop_assert!(matches!(err, ProtoError::Truncated { .. }), "short: {}", err);

        let mut padded = bytes.clone();
        padded.push(0);
        let err = CacheLookup::decode(&padded).unwrap_err();
        prop_assert!(matches!(err, ProtoError::TrailingBytes { .. }), "long: {}", err);
    }

    /// `CacheAnswer` round-trips hits and misses, and a single
    /// corrupted byte decodes to a typed error or some valid answer —
    /// never a panic. (Byte-level integrity is the frame trailer's job,
    /// one layer down.)
    #[test]
    fn cache_answer_corruption_is_typed_never_panics(
        len in 0usize..512,
        seed in 0u64..u64::MAX,
        hit_pick in 0usize..2,
        corrupt_at_fraction in 0usize..10_000,
        flip in 1u8..=255,
    ) {
        let payload = (hit_pick == 1).then(|| {
            payload_bytes(len, seed).iter().map(|b| char::from(b'a' + b % 26)).collect::<String>()
        });
        let bytes = CacheAnswer { payload: payload.clone() }.encode();
        let back = CacheAnswer::decode(&bytes).expect("well-formed answers decode");
        prop_assert_eq!(back.payload, payload);

        let mut torn = bytes.clone();
        let idx = corrupt_at_fraction * torn.len() / 10_000;
        torn[idx] ^= flip;
        match CacheAnswer::decode(&torn) {
            Ok(_) => {}
            Err(
                ProtoError::Truncated { .. }
                | ProtoError::BadTag { .. }
                | ProtoError::BadUtf8 { .. }
                | ProtoError::TrailingBytes { .. },
            ) => {}
        }
    }
}
