//! `tpi-gatewayd`: front N `tpi-netd` backends with cache-affinity
//! routing.
//!
//! ```text
//! tpi-gatewayd --backend HOST:PORT [--backend HOST:PORT ...]
//!              [--backends HOST:PORT,HOST:PORT,...]
//!              [--addr HOST:PORT] [--addr-file PATH]
//!              [--replicas N] [--health-interval-ms N] [--seed N]
//! ```
//!
//! Speaks the same `tpi-net/v2` protocol as `tpi-netd`, so `tpi-cli`
//! and `tpi-batch --jobs` point at it unchanged. Jobs route by the
//! content-addressed cache key over a consistent-hash ring; a dead
//! backend fails over to its ring successor; `--metrics` serves the
//! `tpi-gatewayd-metrics/v1` snapshot with the embedded
//! `tpi-gateway-metrics/v1` routing table. Exits on a `Shutdown` frame
//! (`tpi-cli --shutdown`), draining in-flight forwards first; the
//! backends keep running — they belong to whoever started them.

use std::process::exit;
use std::sync::Arc;
use tpi_gateway::{Gateway, GatewayConfig, GatewayHandler};
use tpi_net::cli::{ArgCursor, NetCliOpts};
use tpi_net::{write_addr_file, NetServer, ServerConfig};

fn main() {
    let mut net = ServerConfig::default();
    let mut gw = GatewayConfig::default();
    let mut opts = NetCliOpts::default();

    let mut args = ArgCursor::new(std::env::args().skip(1).collect());
    while let Some(arg) = args.next_arg() {
        if opts.try_flag(&arg, &mut args) {
            continue;
        }
        match arg.as_str() {
            "--backend" => gw.backends.push(args.value("--backend")),
            "--backends" => {
                let list = args.value("--backends");
                gw.backends.extend(
                    list.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from),
                );
            }
            "--replicas" => {
                gw.replicas = args.parsed_value("--replicas", "a positive integer");
                if gw.replicas == 0 {
                    eprintln!("--replicas must be at least 1");
                    exit(2);
                }
            }
            "--health-interval-ms" => {
                gw.health_interval = std::time::Duration::from_millis(
                    args.parsed_value("--health-interval-ms", "milliseconds"),
                );
            }
            "--seed" => gw.seed = args.parsed_value("--seed", "a u64 seed"),
            other => {
                eprintln!(
                    "unknown argument {other:?}\n\
                     usage: tpi-gatewayd --backend HOST:PORT [--backend HOST:PORT ...] \
                     [--addr HOST:PORT] [--addr-file PATH] [--replicas N] \
                     [--health-interval-ms N] [--seed N]"
                );
                exit(2);
            }
        }
    }
    if gw.backends.is_empty() {
        eprintln!("at least one --backend is required (the address a tpi-netd printed)");
        exit(2);
    }
    if let Some(addr) = opts.addr.clone() {
        net.addr = addr;
    }
    let addr_file = opts.addr_file.clone();

    let health_interval = gw.health_interval;
    let n_backends = gw.backends.len();
    let gateway = Arc::new(Gateway::new(gw));

    let server = match NetServer::bind_with(net, GatewayHandler::new(Arc::clone(&gateway))) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tpi-gatewayd: bind failed: {e}");
            exit(1);
        }
    };
    let addr = server.local_addr();
    println!("tpi-gatewayd listening on {addr} fronting {n_backends} backend(s)");
    if let Some(path) = addr_file {
        if let Err(e) = write_addr_file(&path, addr) {
            eprintln!("tpi-gatewayd: cannot write {path:?}: {e}");
            exit(1);
        }
    }

    // Health probes on their own thread; it exits within one interval
    // of the accept loop shutting down.
    let handle = server.handle();
    let prober = {
        let gateway = Arc::clone(&gateway);
        let handle = handle.clone();
        std::thread::Builder::new()
            .name("tpi-gatewayd-health".into())
            .spawn(move || {
                while !handle.is_shutting_down() {
                    gateway.probe_tick();
                    std::thread::sleep(health_interval);
                }
            })
            .expect("spawning the health thread succeeds")
    };

    if let Err(e) = server.serve() {
        eprintln!("tpi-gatewayd: serve failed: {e}");
        exit(1);
    }
    let _ = prober.join();
    println!("tpi-gatewayd drained and stopped");
}
