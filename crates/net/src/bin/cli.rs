//! `tpi-cli`: submit jobs to a running `tpi-netd`.
//!
//! ```text
//! tpi-cli --addr HOST:PORT [--flow full-scan|cb|td-cb|tptime]
//!         [--deadline-ms N] [--retry-budget-ms N] [--retries N] FILE.blif
//! tpi-cli --addr HOST:PORT --metrics | --ping | --shutdown
//! ```
//!
//! `--retries N` hard-caps connect/busy retries regardless of the time
//! budget; `--retries 0` makes the first refusal final, which is what
//! scripts probing for a live server want. Every action runs over a
//! single-use `tpi-net/v2` session ([`Connection`]); the shared flags
//! are parsed by [`NetCliOpts`], so they spell the same here as in
//! `tpi-batch` and `tpi-gatewayd`.
//!
//! On a completed job, the report's `tpi-serve/v1` JSON payload is
//! printed to stdout exactly as the service produced it (the bytes are
//! never re-serialized on the way through), so the output diffs clean
//! against an in-process run. Failures print the status and
//! diagnostics to stderr and exit 1.

use std::process::exit;
use tpi_core::PartialScanMethod;
use tpi_net::cli::{ArgCursor, NetCliOpts};
use tpi_net::{ClientError, Connection, WireRequest};
use tpi_serve::JobStatus;

enum Action {
    Submit,
    Metrics,
    Ping,
    Shutdown,
}

fn main() {
    let mut opts = NetCliOpts::default();
    let mut flow = "full-scan".to_string();
    let mut action = Action::Submit;
    let mut blif_path: Option<String> = None;

    let mut args = ArgCursor::new(std::env::args().skip(1).collect());
    while let Some(arg) = args.next_arg() {
        if opts.try_flag(&arg, &mut args) {
            continue;
        }
        match arg.as_str() {
            "--flow" => flow = args.value("--flow"),
            "--metrics" => action = Action::Metrics,
            "--ping" => action = Action::Ping,
            "--shutdown" => action = Action::Shutdown,
            other if !other.starts_with('-') && blif_path.is_none() => {
                blif_path = Some(arg);
            }
            other => {
                eprintln!(
                    "unknown argument {other:?}\n\
                     usage: tpi-cli --addr HOST:PORT [--flow NAME] [--deadline-ms N] \
                     [--retries N] FILE.blif\n\
                     \u{20}      tpi-cli --addr HOST:PORT --metrics | --ping | --shutdown"
                );
                exit(2);
            }
        }
    }

    let addr = opts.require_addr("tpi-netd prints its address on startup");
    let deadline = opts.deadline;
    let conn = match Connection::open_with(&addr, opts.client_config()) {
        Ok(c) => c,
        Err(e) => fail(&addr, &e),
    };

    match action {
        Action::Ping => match conn.ping() {
            Ok(()) => println!("pong"),
            Err(e) => fail(&addr, &e),
        },
        Action::Shutdown => match conn.shutdown_server() {
            Ok(()) => println!("shutdown acknowledged"),
            Err(e) => fail(&addr, &e),
        },
        Action::Metrics => match conn.metrics_json() {
            Ok(json) => println!("{json}"),
            Err(e) => fail(&addr, &e),
        },
        Action::Submit => {
            let Some(path) = blif_path else {
                eprintln!("a BLIF file argument is required for submission");
                exit(2);
            };
            let blif = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("cannot read {path:?}: {e}");
                exit(1);
            });
            let mut request = match flow.as_str() {
                "full-scan" => WireRequest::full_scan(blif),
                "cb" => WireRequest::partial(blif, PartialScanMethod::Cb),
                "td-cb" => WireRequest::partial(blif, PartialScanMethod::TdCb),
                "tptime" => WireRequest::partial(blif, PartialScanMethod::TpTime),
                other => {
                    eprintln!("--flow: expected full-scan|cb|td-cb|tptime, got {other:?}");
                    exit(2);
                }
            };
            if let Some(d) = deadline {
                request = request.with_deadline(d);
            }
            let report = match conn.submit(&request).and_then(|ticket| conn.wait(ticket)) {
                Ok(r) => r,
                Err(e) => fail(&addr, &e),
            };
            match (&report.status, &report.payload) {
                (JobStatus::Completed, Some(payload)) => println!("{payload}"),
                (status, _) => {
                    eprintln!("job {} {}: {}", report.id, report.flow, status.label());
                    for d in &report.diagnostics {
                        eprintln!("  {d}");
                    }
                    exit(1);
                }
            }
        }
    }
}

/// Prints the error and exits 1. Connection failures — by far the most
/// common scripting mistake — get a typed, actionable line instead of
/// the raw error chain.
fn fail(addr: &str, e: &ClientError) -> ! {
    match e {
        ClientError::Connect { attempts, last }
            if last.kind() == std::io::ErrorKind::ConnectionRefused =>
        {
            eprintln!(
                "tpi-cli: connection refused at {addr} after {attempts} attempt(s) \
                 (is tpi-netd running there?)"
            );
        }
        ClientError::Connect { attempts, last } => {
            eprintln!("tpi-cli: cannot connect to {addr} after {attempts} attempt(s): {last}");
        }
        other => eprintln!("tpi-cli: {other}"),
    }
    exit(1)
}
