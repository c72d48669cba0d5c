//! The gateway proper: route, forward, fail over, observe.
//!
//! [`Gateway::submit`] computes the job's content-addressed cache key
//! (the *same* key the backend will compute — see
//! [`tpi_serve::cache_key`]), asks the [`HashRing`] for the owner, and
//! forwards the request there with:
//!
//! * **peers filled in** — the other healthy backends ride along in
//!   [`WireRequest::peers`], so a backend that lost the key in a ring
//!   rebalance pulls the payload from its previous owner instead of
//!   recomputing;
//! * **the deadline decremented** — time spent inside the gateway
//!   (including earlier failed forward attempts) counts against the
//!   caller's deadline, preserving the "queue time counts" promise;
//! * **failover on transport failure** — a dead or draining owner
//!   demotes to the next distinct backend on the ring, in
//!   [`HashRing::successors`] order with healthy backends first.
//!
//! Authoritative answers are never second-guessed: a backend that
//! *decodes and rejects* a job (`BadRequest`) speaks for every replica
//! (they run identical code), so the error returns to the caller
//! instead of burning the remaining candidates.
//!
//! # Failover state machine
//!
//! Each backend is `up` or `down` (an [`AtomicBool`]):
//!
//! * `up → down` on a failed forward or a failed health probe;
//! * `down → up` on a successful probe or a successful forward
//!   (a failover attempt that reaches a "down" backend and succeeds
//!   resurrects it — the flag is a routing hint, not a fence);
//! * while `down`, probes back off exponentially (seeded-deterministic
//!   tick skipping, same jitter discipline as the client's retry loop)
//!   and routing prefers `up` backends, but a fully-`down` ring is
//!   still *tried* in ring order — the flags are advisory, never a
//!   reason to refuse work the backends might serve.

use crate::ring::HashRing;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tpi_net::{
    ClientConfig, ClientError, Connection, ErrorCode, ErrorInfo, WireReport, WireRequest,
};
use tpi_obs::{JsonArray, JsonObject};
use tpi_serve::{cache_key, netlist_fingerprint, parse_blif, CacheSource, Fnv64};

/// Tuning for one [`Gateway`].
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Backend addresses (`HOST:PORT` per `tpi-netd`).
    pub backends: Vec<String>,
    /// Virtual nodes per backend on the [`HashRing`].
    pub replicas: usize,
    /// Health-probe cadence for [`Gateway::probe_tick`] callers.
    pub health_interval: Duration,
    /// Seed for the deterministic probe-backoff jitter stream.
    pub seed: u64,
    /// Template for the per-backend forward clients. The default keeps
    /// retry budgets *small*: the gateway's answer to a struggling
    /// backend is failover to a sibling, not patient backoff.
    pub client: ClientConfig,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            backends: Vec::new(),
            replicas: 32,
            health_interval: Duration::from_millis(500),
            seed: 0x6A7E_11A7_E6A7_E11A,
            client: ClientConfig {
                connect_timeout: Duration::from_millis(500),
                retry_budget: Duration::from_secs(2),
                ..ClientConfig::default()
            },
        }
    }
}

/// Every way a gateway submission can fail *at the gateway*.
#[derive(Debug)]
pub enum GatewayError {
    /// The gateway was configured with no backends.
    NoBackends,
    /// Every backend was tried and none produced a report. Carries the
    /// last transport error for the postmortem.
    Exhausted {
        /// Backends attempted.
        attempts: usize,
        /// The final backend's error.
        last: ClientError,
    },
    /// A backend gave an authoritative rejection (e.g. `BadRequest`);
    /// retrying elsewhere would get the same answer.
    Remote(ErrorInfo),
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::NoBackends => write!(f, "gateway has no backends"),
            GatewayError::Exhausted { attempts, last } => {
                write!(f, "all {attempts} backend(s) failed; last: {last}")
            }
            GatewayError::Remote(e) => write!(f, "backend error: {e}"),
        }
    }
}

impl std::error::Error for GatewayError {}

/// One backend's slot: its persistent forward session, health flag,
/// probe-backoff state, and counters.
struct Backend {
    addr: String,
    /// Config for (re)opening the session; seeded per backend.
    config: ClientConfig,
    /// The persistent `tpi-net/v2` session. Opened on first use,
    /// shared by forwards and health probes, and torn down only when
    /// an exchange on it fails — reconnect happens on the *next* use,
    /// not eagerly, so a dead backend costs one failed open per
    /// attempt, not a spin.
    conn: Mutex<Option<Arc<Connection>>>,
    healthy: AtomicBool,
    /// Consecutive failed probes (drives the probe backoff).
    probe_failures: AtomicU64,
    /// Ticks to skip before the next probe of a down backend.
    probe_skip: AtomicU64,
    /// Jobs whose ring owner this backend is.
    routed: AtomicU64,
    /// Jobs actually answered by this backend (owner or failover).
    forwarded: AtomicU64,
    /// Forward attempts this backend failed (transport or draining).
    failed: AtomicU64,
    /// Of the answered jobs: served cold / from memory / from disk.
    served_cold: AtomicU64,
    served_memory: AtomicU64,
    served_disk: AtomicU64,
}

impl Backend {
    fn new(index: usize, addr: String, template: &ClientConfig, seed: u64) -> Backend {
        // Distinct per-backend jitter streams, deterministically.
        let config = ClientConfig { seed: seed ^ (index as u64 + 1), ..template.clone() };
        Backend {
            addr,
            config,
            conn: Mutex::new(None),
            healthy: AtomicBool::new(true),
            probe_failures: AtomicU64::new(0),
            probe_skip: AtomicU64::new(0),
            routed: AtomicU64::new(0),
            forwarded: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            served_cold: AtomicU64::new(0),
            served_memory: AtomicU64::new(0),
            served_disk: AtomicU64::new(0),
        }
    }

    /// The persistent session, opened on first use and reopened only
    /// after [`Backend::disconnect`] (or a server-side close) tore the
    /// previous one down. The lock is held across the open so
    /// concurrent forwards share one session instead of racing to
    /// build several.
    fn connection(&self) -> Result<Arc<Connection>, ClientError> {
        let mut slot = self.conn.lock().expect("conn lock never poisoned");
        if let Some(conn) = slot.as_ref() {
            if !conn.is_dead() {
                return Ok(Arc::clone(conn));
            }
        }
        let conn = Arc::new(Connection::open_with(&self.addr, self.config.clone())?);
        *slot = Some(Arc::clone(&conn));
        Ok(conn)
    }

    /// Drops the session; the next use reconnects.
    fn disconnect(&self) {
        *self.conn.lock().expect("conn lock never poisoned") = None;
    }

    fn hit_rate(&self) -> f64 {
        let hits =
            self.served_memory.load(Ordering::Relaxed) + self.served_disk.load(Ordering::Relaxed);
        let total = hits + self.served_cold.load(Ordering::Relaxed);
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// A cache-affinity router over N `tpi-netd` backends. Cheap to share
/// behind an `Arc`; every method takes `&self`.
pub struct Gateway {
    backends: Vec<Backend>,
    ring: HashRing,
    /// xorshift64* state for probe-backoff jitter.
    rng: Mutex<u64>,
    exhausted: AtomicU64,
}

impl Gateway {
    /// Builds the ring and the per-backend clients. No I/O happens
    /// here; backends may come up later (they start `up` and demote on
    /// first failure).
    pub fn new(config: GatewayConfig) -> Gateway {
        let GatewayConfig { backends, replicas, health_interval: _, seed, client } = config;
        let ring = HashRing::new(&backends, replicas);
        let backends = backends
            .into_iter()
            .enumerate()
            .map(|(i, addr)| Backend::new(i, addr, &client, seed))
            .collect();
        Gateway {
            backends,
            ring,
            rng: Mutex::new(if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed }),
            exhausted: AtomicU64::new(0),
        }
    }

    /// Number of configured backends.
    pub fn backend_count(&self) -> usize {
        self.backends.len()
    }

    /// The routing key for a request: exactly the content-addressed
    /// cache key the backend will compute ([`tpi_serve::cache_key`]
    /// over the structural fingerprint + flow config), so "lands on the
    /// backend that has it warm" is true by construction, not by
    /// convention. A BLIF that does not parse still routes
    /// deterministically (FNV of the raw text + flow label) — the
    /// backend will reject it, and identical garbage should at least
    /// hit the same backend's error path.
    pub fn routing_key(req: &WireRequest) -> u64 {
        match parse_blif(&req.blif) {
            Ok(netlist) => cache_key(netlist_fingerprint(&netlist), &req.flow).0,
            Err(_) => {
                let mut h = Fnv64::new();
                h.write_str("tpi-gateway-unparsable");
                h.write_str(&req.blif);
                h.write_str(req.flow.label());
                h.finish()
            }
        }
    }

    /// Routes and forwards one job; fails over along the ring until a
    /// backend answers or every backend has been tried.
    pub fn submit(&self, req: &WireRequest) -> Result<WireReport, GatewayError> {
        if self.backends.is_empty() {
            return Err(GatewayError::NoBackends);
        }
        let key = Self::routing_key(req);
        let t0 = Instant::now();

        // Ring order, stably partitioned healthy-first: a down owner
        // is still tried, just after the live candidates.
        let ring_order: Vec<usize> = self.ring.successors(key).collect();
        let mut candidates: Vec<usize> = Vec::with_capacity(ring_order.len());
        candidates.extend(ring_order.iter().filter(|&&b| self.is_healthy(b)));
        candidates.extend(ring_order.iter().filter(|&&b| !self.is_healthy(b)));
        self.backends[ring_order[0]].routed.fetch_add(1, Ordering::Relaxed);

        let mut last: Option<ClientError> = None;
        let mut attempts = 0usize;
        for &b in &candidates {
            let backend = &self.backends[b];
            attempts += 1;
            let forwarded = self.prepare(req, b, t0);
            let outcome = backend.connection().and_then(|conn| {
                let ticket = conn.submit(&forwarded)?;
                conn.wait(ticket)
            });
            match outcome {
                Ok(report) => {
                    backend.forwarded.fetch_add(1, Ordering::Relaxed);
                    match report.cache {
                        CacheSource::Cold => &backend.served_cold,
                        CacheSource::Memory => &backend.served_memory,
                        CacheSource::Disk => &backend.served_disk,
                    }
                    .fetch_add(1, Ordering::Relaxed);
                    self.mark_up(b);
                    return Ok(report);
                }
                Err(ClientError::Remote(info)) if authoritative(&info) => {
                    // The backend understood the job and rejected it;
                    // its siblings would too.
                    backend.forwarded.fetch_add(1, Ordering::Relaxed);
                    return Err(GatewayError::Remote(info));
                }
                Err(e) => {
                    backend.disconnect();
                    backend.failed.fetch_add(1, Ordering::Relaxed);
                    self.mark_down(b);
                    last = Some(e);
                }
            }
        }
        self.exhausted.fetch_add(1, Ordering::Relaxed);
        Err(GatewayError::Exhausted {
            attempts,
            last: last.expect("at least one backend was tried"),
        })
    }

    /// Serves a PeerFetch arriving *at the gateway* by asking the key's
    /// owner (then its successors). A miss everywhere is a miss, not an
    /// error.
    pub fn peer_fetch(&self, key: u64) -> Option<String> {
        for b in self.ring.successors(key) {
            let backend = &self.backends[b];
            match backend.connection().and_then(|conn| conn.peer_fetch(key)) {
                Ok(found) => {
                    if found.is_some() {
                        self.mark_up(b);
                        return found;
                    }
                }
                Err(_) => backend.disconnect(),
            }
        }
        None
    }

    /// The forwarded copy of `req` for backend `b`: sibling peers
    /// filled in, deadline decremented by the time already spent in
    /// the gateway (a deadline is a promise to the *caller*; forwarding
    /// must not silently extend it). An already-spent deadline forwards
    /// as zero so the backend times the job out deterministically.
    fn prepare(&self, req: &WireRequest, b: usize, t0: Instant) -> WireRequest {
        let peers: Vec<String> = self
            .backends
            .iter()
            .enumerate()
            .filter(|&(i, be)| i != b && be.healthy.load(Ordering::Relaxed))
            .map(|(_, be)| be.addr.clone())
            .collect();
        let mut out = req.clone().with_peers(peers);
        if let Some(d) = out.deadline {
            out.deadline = Some(d.saturating_sub(t0.elapsed()));
        }
        out
    }

    fn is_healthy(&self, b: usize) -> bool {
        self.backends[b].healthy.load(Ordering::Relaxed)
    }

    fn mark_up(&self, b: usize) {
        let backend = &self.backends[b];
        backend.healthy.store(true, Ordering::Relaxed);
        backend.probe_failures.store(0, Ordering::Relaxed);
        backend.probe_skip.store(0, Ordering::Relaxed);
    }

    fn mark_down(&self, b: usize) {
        self.backends[b].healthy.store(false, Ordering::Relaxed);
    }

    /// One health-probe tick: pings every backend that is due, over
    /// the backend's *persistent* session — a probe costs one v2 frame
    /// round trip, not a fresh TCP connect (a failed probe tears the
    /// session down; the next due probe reconnects). Healthy
    /// backends are probed every tick; a down backend's probes back off
    /// exponentially in *ticks* — after `f` consecutive failures it
    /// skips `min(2^f, 64) - 1 + jitter` ticks, jitter drawn from the
    /// gateway's seeded xorshift64* stream, so two gateways with the
    /// same seed probe on the same schedule. Call this every
    /// [`GatewayConfig::health_interval`]; `tpi-gatewayd` runs it on a
    /// dedicated thread.
    pub fn probe_tick(&self) {
        for b in 0..self.backends.len() {
            let backend = &self.backends[b];
            let skip = backend.probe_skip.load(Ordering::Relaxed);
            if skip > 0 {
                backend.probe_skip.store(skip - 1, Ordering::Relaxed);
                continue;
            }
            match backend.connection().and_then(|conn| conn.ping()) {
                Ok(()) => self.mark_up(b),
                Err(_) => {
                    backend.disconnect();
                    let f = backend.probe_failures.fetch_add(1, Ordering::Relaxed) + 1;
                    let base = 1u64 << f.min(6);
                    let jitter = self.next_rand() % base.max(1);
                    backend.probe_skip.store(base - 1 + jitter, Ordering::Relaxed);
                    self.mark_down(b);
                }
            }
        }
    }

    /// Asks every backend to drain and exit (used by `tpi-gatewayd`'s
    /// `--shutdown-backends` teardown and the bench harness). Returns
    /// how many acknowledged.
    pub fn shutdown_backends(&self) -> usize {
        self.backends
            .iter()
            .filter(|b| {
                let acked = b.connection().and_then(|conn| conn.shutdown_server()).is_ok();
                // Acked or not, the server side of this session is gone.
                b.disconnect();
                acked
            })
            .count()
    }

    /// xorshift64*: the same tiny generator the client uses for retry
    /// jitter, seeded from [`GatewayConfig::seed`].
    fn next_rand(&self) -> u64 {
        let mut s = self.rng.lock().expect("jitter lock never poisoned");
        let mut x = *s;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        *s = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// The `tpi-gateway-metrics/v1` snapshot: overall routing counters,
    /// the ring shape, and a per-backend table with each backend's
    /// warm-hit rate and its delta against the fleet-wide rate (a
    /// backend whose delta is strongly negative is the one whose cache
    /// the ring is failing to exploit).
    pub fn metrics_json(&self) -> String {
        let totals = |f: fn(&Backend) -> u64| self.backends.iter().map(f).sum::<u64>();
        let hits = totals(|b| b.served_memory.load(Ordering::Relaxed))
            + totals(|b| b.served_disk.load(Ordering::Relaxed));
        let answered = hits + totals(|b| b.served_cold.load(Ordering::Relaxed));
        let overall_rate = if answered == 0 { 0.0 } else { hits as f64 / answered as f64 };

        let mut backends = JsonArray::new();
        for b in &self.backends {
            let mut o = JsonObject::new();
            o.field_str("addr", &b.addr)
                .field_bool("healthy", b.healthy.load(Ordering::Relaxed))
                .field_u64("routed", b.routed.load(Ordering::Relaxed))
                .field_u64("forwarded", b.forwarded.load(Ordering::Relaxed))
                .field_u64("failed", b.failed.load(Ordering::Relaxed))
                .field_u64("served_cold", b.served_cold.load(Ordering::Relaxed))
                .field_u64("served_memory", b.served_memory.load(Ordering::Relaxed))
                .field_u64("served_disk", b.served_disk.load(Ordering::Relaxed))
                .field_f64("hit_rate", b.hit_rate())
                .field_f64("hit_rate_delta", b.hit_rate() - overall_rate);
            backends.push_object(o);
        }

        let mut ring = JsonObject::new();
        ring.field_u64("backends", self.ring.backends() as u64)
            .field_u64("replicas", self.ring.replicas() as u64)
            .field_u64("points", (self.ring.backends() * self.ring.replicas()) as u64);

        let mut o = JsonObject::new();
        o.field_str("schema", "tpi-gateway-metrics/v1")
            .field_u64("jobs_routed", totals(|b| b.routed.load(Ordering::Relaxed)))
            .field_u64("jobs_answered", answered)
            .field_u64("forward_failures", totals(|b| b.failed.load(Ordering::Relaxed)))
            .field_u64("exhausted", self.exhausted.load(Ordering::Relaxed))
            .field_f64("hit_rate", overall_rate)
            .field_object("ring", ring)
            .field_array("backends", backends);
        o.finish()
    }
}

/// Whether a backend's structured error settles the job for every
/// replica. `ShuttingDown` (and transport-level trouble) does not —
/// another backend can still answer. `BadRequest` &co. do: the job
/// itself is defective and the sibling would say the same.
fn authoritative(info: &ErrorInfo) -> bool {
    info.code != ErrorCode::ShuttingDown
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn quick_config(backends: Vec<String>) -> GatewayConfig {
        GatewayConfig {
            backends,
            client: ClientConfig {
                connect_timeout: Duration::from_millis(200),
                retry_budget: Duration::ZERO,
                max_retries: Some(0),
                ..ClientConfig::default()
            },
            ..GatewayConfig::default()
        }
    }

    #[test]
    fn no_backends_is_a_typed_error() {
        let gw = Gateway::new(quick_config(Vec::new()));
        let req = WireRequest::full_scan(".model m\n.end\n");
        assert!(matches!(gw.submit(&req), Err(GatewayError::NoBackends)));
    }

    #[test]
    fn dead_backends_exhaust_instead_of_hanging() {
        // Port 1: refused immediately on loopback; no-retry clients.
        let gw = Gateway::new(quick_config(vec!["127.0.0.1:1".into(), "127.0.0.1:1".into()]));
        let req =
            WireRequest::full_scan(".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n");
        match gw.submit(&req) {
            Err(GatewayError::Exhausted { attempts: 2, .. }) => {}
            other => panic!("expected Exhausted over 2 backends, got {other:?}"),
        }
        let json = gw.metrics_json();
        assert!(json.starts_with(r#"{"schema":"tpi-gateway-metrics/v1""#), "{json}");
        assert!(json.contains(r#""exhausted":1"#), "{json}");
        assert!(json.contains(r#""healthy":false"#), "{json}");
    }

    #[test]
    fn routing_key_matches_the_serve_cache_key_and_tolerates_garbage() {
        // s27-like tiny circuit: the routing key must equal the cache
        // key a backend computes, or affinity is fiction.
        let blif = ".model tiny\n.inputs a b\n.outputs y\n.latch g f0 re clk 0\n\
                    .names a b g\n11 1\n.names f0 y\n1 1\n.end\n";
        let req = WireRequest::full_scan(blif);
        let netlist = parse_blif(blif).expect("valid BLIF");
        let expect = cache_key(netlist_fingerprint(&netlist), &req.flow).0;
        assert_eq!(Gateway::routing_key(&req), expect);

        let garbage = WireRequest::full_scan(".model broken\n.nonsense\n");
        let k1 = Gateway::routing_key(&garbage);
        let k2 = Gateway::routing_key(&garbage);
        assert_eq!(k1, k2, "unparsable inputs still route deterministically");
        assert_ne!(k1, expect);
    }

    #[test]
    fn probe_backoff_skips_ticks_deterministically() {
        let gw = Gateway::new(quick_config(vec!["127.0.0.1:1".into()]));
        gw.probe_tick();
        assert!(!gw.is_healthy(0));
        let skip_after_first = gw.backends[0].probe_skip.load(Ordering::Relaxed);
        assert!(skip_after_first >= 1, "a failed probe must back off");
        // Skipped ticks decrement without touching the network.
        gw.probe_tick();
        assert_eq!(gw.backends[0].probe_skip.load(Ordering::Relaxed), skip_after_first - 1);
        // Same seed, same schedule.
        let gw2 = Gateway::new(quick_config(vec!["127.0.0.1:1".into()]));
        gw2.probe_tick();
        assert_eq!(gw2.backends[0].probe_skip.load(Ordering::Relaxed), skip_after_first);
    }
}
