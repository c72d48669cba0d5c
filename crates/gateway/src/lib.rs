//! `tpi-gateway`: cache-affinity sharding across `tpi-netd` backends.
//!
//! A single `tpi-netd` (PR 5) caches every result it computes, but a
//! *fleet* of them is worse than one: round-robin routing sprays
//! identical jobs across backends, so each backend re-computes what a
//! sibling already holds and the warm hit rate *drops* as backends are
//! added. This crate fixes that with three pieces:
//!
//! * [`HashRing`] — consistent hashing with virtual nodes over the
//!   job's **content-addressed cache key** (the same
//!   [`tpi_serve::cache_key`] the backend uses), so a given
//!   netlist + flow-config always routes to the backend whose cache
//!   holds it;
//! * [`Gateway`] — the router: health-checked backends, deadline-aware
//!   forwarding, failover to ring successors when a backend dies
//!   mid-batch, and `tpi-gateway-metrics/v1` observability;
//! * [`GatewayHandler`] — a [`tpi_net::FrameHandler`] that serves the
//!   gateway over the same `tpi-net/v2` frame protocol as a backend,
//!   so every existing client (`tpi-cli`, [`tpi_net::Connection`],
//!   `tpi-batch --jobs`) works against `tpi-gatewayd` unchanged.
//!
//! Rebalance cost is bounded by the **peer-fetch protocol**: forwarded
//! requests carry the sibling backend addresses
//! ([`tpi_net::WireRequest::peers`]); a backend that misses locally
//! asks its siblings for the payload by key
//! ([`tpi_net::Verb::PeerFetch`]) and seeds its own cache, so keys that
//! move when the backend set changes cost one small round-trip instead
//! of a recompute.
//!
//! The whole stack preserves the byte-identity contract: a report
//! payload produced by any backend crosses the gateway verbatim, so
//! direct netd, a 1-backend gateway, and a 3-backend gateway (with or
//! without a mid-batch backend kill) produce `cmp`-identical reports.

pub mod gateway;
pub mod handler;
pub mod ring;

pub use gateway::{Gateway, GatewayConfig, GatewayError};
pub use handler::GatewayHandler;
pub use ring::HashRing;
