//! The [`FrameHandler`] that makes a [`Gateway`] servable: plug it
//! into [`tpi_net::NetServer::bind_with`] and the gateway speaks the
//! same `tpi-net/v2` protocol as a backend — clients cannot tell
//! (and must not need to tell) whether `--addr` points at a `tpi-netd`
//! or a `tpi-gatewayd`.

use crate::gateway::{Gateway, GatewayError};
use std::sync::Arc;
use tpi_net::{CacheAnswer, CacheLookup, ErrorCode, ErrorInfo, FrameHandler, Verb, WireRequest};
use tpi_par::{Threads, WorkerPool};

/// Forward threads per gateway. A forward is network-bound (it blocks
/// on a backend's report), so the pool is sized for concurrency, not
/// cores; past this many in-flight forwards, submissions queue in the
/// pool.
const FORWARD_THREADS: usize = 8;

/// Serves the gateway over [`tpi_net::NetServer`]. Submits forward
/// through [`Gateway::submit`] (ring routing + failover) on a small
/// forward pool (a forward blocks on the backend, and the server's
/// poll loop must never block on the network). Peer fetches forward to the
/// key's ring owner; metrics embed the `tpi-gateway-metrics/v1`
/// snapshot.
pub struct GatewayHandler {
    gateway: Arc<Gateway>,
    forward: WorkerPool,
}

impl GatewayHandler {
    /// Wraps a shared gateway (the health-probe thread keeps its own
    /// clone).
    pub fn new(gateway: Arc<Gateway>) -> GatewayHandler {
        GatewayHandler { gateway, forward: WorkerPool::new(Threads::new(FORWARD_THREADS)) }
    }
}

/// One forward, rendered as a response frame. A backend's own verdict
/// crosses back verbatim; gateway failures (no backends, all dead)
/// become `Internal` — the *caller's* request was fine.
fn forward(gateway: &Gateway, req: &WireRequest) -> (Verb, Vec<u8>) {
    match gateway.submit(req) {
        Ok(report) => (Verb::Report, report.encode()),
        Err(GatewayError::Remote(info)) => (Verb::Error, info.encode()),
        Err(e) => (Verb::Error, ErrorInfo::new(ErrorCode::Internal, e.to_string()).encode()),
    }
}

impl FrameHandler for GatewayHandler {
    fn submit_async(&self, req: WireRequest, done: Box<dyn FnOnce(Verb, Vec<u8>) + Send>) {
        let gateway = Arc::clone(&self.gateway);
        self.forward.spawn(move || {
            let (verb, payload) = forward(&gateway, &req);
            done(verb, payload);
        });
    }

    fn peer_fetch(&self, lookup: CacheLookup) -> (Verb, Vec<u8>) {
        let payload = self.gateway.peer_fetch(lookup.key);
        (Verb::CachePayload, CacheAnswer { payload }.encode())
    }

    fn metrics_schema(&self) -> &'static str {
        "tpi-gatewayd-metrics/v1"
    }

    fn snapshot(&self) -> (&'static str, String) {
        ("gateway", self.gateway.metrics_json())
    }
}
