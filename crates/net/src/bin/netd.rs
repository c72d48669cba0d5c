//! `tpi-netd`: serve a [`tpi_serve::JobService`] over TCP.
//!
//! ```text
//! tpi-netd [--addr HOST:PORT] [--addr-file PATH] [--threads N]
//!          [--max-inflight N] [--cache-dir DIR]
//! ```
//!
//! `--addr` defaults to `127.0.0.1:0` (an ephemeral port); the bound
//! address is printed to stdout and, with `--addr-file`, written to a
//! file so scripts can discover the port without parsing logs.
//! `--max-inflight` caps admitted-but-unfinished requests (past it the
//! server answers per-request `Busy`). The process exits after a
//! client sends the `Shutdown` verb (`tpi-cli --shutdown`), draining
//! in-flight jobs first.

use std::process::exit;
use std::sync::Arc;
use tpi_net::cli::{ArgCursor, Cli, NetCliOpts};
use tpi_net::{write_addr_file, NetServer, ServerConfig};
use tpi_serve::{JobService, ServiceConfig};

fn main() {
    let cli = Cli::parse();
    let mut net = ServerConfig::default();
    let mut opts = NetCliOpts::default();
    let mut cache_dir: Option<String> = None;

    let mut args = ArgCursor::new(cli.args);
    while let Some(arg) = args.next_arg() {
        if opts.try_flag(&arg, &mut args) {
            continue;
        }
        match arg.as_str() {
            "--max-inflight" => {
                net.max_inflight = args.parsed_value("--max-inflight", "a positive integer");
                if net.max_inflight == 0 {
                    eprintln!("--max-inflight must be at least 1");
                    exit(2);
                }
            }
            "--cache-dir" => cache_dir = Some(args.value("--cache-dir")),
            other => {
                eprintln!(
                    "unknown argument {other:?}\n\
                     usage: tpi-netd [--addr HOST:PORT] [--addr-file PATH] [--threads N] \
                     [--max-inflight N] [--cache-dir DIR]"
                );
                exit(2);
            }
        }
    }
    if let Some(addr) = opts.addr.clone() {
        net.addr = addr;
    }
    let addr_file = opts.addr_file.clone();

    let service = Arc::new(JobService::new(ServiceConfig {
        threads: cli.threads,
        cache_dir: cache_dir.map(Into::into),
        ..ServiceConfig::default()
    }));

    let server = match NetServer::bind(net, Arc::clone(&service)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tpi-netd: bind failed: {e}");
            exit(1);
        }
    };
    let addr = server.local_addr();
    println!("tpi-netd listening on {addr}");
    if let Some(path) = addr_file {
        // Atomic publish (tmp + fsync + rename): a script polling the
        // file sees a complete address or nothing, never a torn write.
        if let Err(e) = write_addr_file(&path, addr) {
            eprintln!("tpi-netd: cannot write {path:?}: {e}");
            exit(1);
        }
    }

    if let Err(e) = server.serve() {
        eprintln!("tpi-netd: serve failed: {e}");
        exit(1);
    }
    // `serve` returning means the handler (the only other Arc holder)
    // is dropped, so this unwrap succeeds and the service
    // drains its worker pool for the closing numbers.
    match Arc::try_unwrap(service) {
        Ok(service) => {
            let m = service.shutdown();
            println!(
                "tpi-netd drained and stopped ({} submitted, {} completed)",
                m.submitted, m.completed
            );
        }
        Err(_) => println!("tpi-netd drained and stopped"),
    }
}
