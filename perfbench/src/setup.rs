//! Set-up and the untraced timed phase, shared by both modes.

use crate::cluster::{self, Cluster};
use crate::drive::{self, Outcome};
use crate::host;
use crate::plan::{Job, Plan, Workload};
use std::sync::Arc;
use tpi_net::{Connection, WireRequest};
use tpi_serve::{CacheSource, JobStatus};

/// Backends behind the gateway of `gateway_open`.
pub const GATEWAY_BACKENDS: usize = 2;

/// A cluster ready for its timed phase.
pub struct Ready {
    /// The requests.
    pub plan: Plan,
    /// The running cluster.
    pub cluster: Cluster,
    /// Reference payload of each pool design, from an in-process
    /// `JobService`.
    pub references: Vec<Arc<str>>,
    /// Set-up checks that failed.
    pub failures: Vec<String>,
}

/// Service workers in total and requests in flight: one per hardware
/// thread, except on `paper_cold`, which runs one of each. Its jobs are
/// short (median about 40 ms), so two workers often finish two of them
/// within microseconds of each other, and that hits a lost wake-up in
/// the server's poll loop: `drain_waker` clears `Waker::pending` before
/// it reads the wake byte, so a wake landing in between leaves
/// `pending` set for good and every later report waits for the loop's
/// 100 ms poll timeout. Two of ten two-worker runs did, at a p50 of
/// 100 ms against 38 ms. One job at a time cannot finish while the
/// loop drains the waker.
pub fn workers(workload: Workload) -> usize {
    match workload {
        Workload::PaperCold => 1,
        Workload::IndustrialWarm | Workload::GatewayOpen => host::nproc(),
    }
}

/// Generates the plan, starts the cluster, primes the cache and warms
/// up, checking every primed payload.
pub fn prepare(workload: Workload, seed: u64, seconds: f64) -> std::io::Result<Ready> {
    let plan = Plan::new(workload, seed, seconds);
    let mut failures = Vec::new();
    let (cluster, references) = match workload {
        Workload::PaperCold => {
            let cluster = Cluster::direct(workers(workload))?;
            warm_up(&cluster, &mut failures);
            (cluster, Vec::new())
        }
        Workload::IndustrialWarm => {
            let cluster = Cluster::direct(workers(workload))?;
            // Priming in-process on the backend's own service makes the
            // reference and the cache entry the same payload.
            let references =
                prime_in_process(&cluster.backends[0].service, &plan.pool, &mut failures);
            let reads = plan.pool_reads();
            note(
                &mut failures,
                drive::closed_loop(cluster.addr(), &reads, &references, workers(workload)),
            );
            (cluster, references)
        }
        Workload::GatewayOpen => {
            let reference = cluster::service(workers(workload));
            let references = prime_in_process(&reference, &plan.pool, &mut failures);
            drop(reference);
            let per_backend = (workers(workload) / GATEWAY_BACKENDS).max(1);
            let cluster = Cluster::gateway(GATEWAY_BACKENDS, per_backend)?;
            // Prime through the gateway so each design lands on its ring
            // owner, then read each once, untimed.
            let primed = drive::closed_loop(cluster.addr(), &plan.pool, &[], workers(workload));
            for (i, payload) in primed.payloads.iter().enumerate() {
                if payload.as_deref() != references.get(i).map(|r| &**r) {
                    failures.push(format!(
                        "{}: primed payload differs from reference",
                        plan.pool[i].name
                    ));
                }
            }
            note(&mut failures, primed);
            let reads = plan.pool_reads();
            note(
                &mut failures,
                drive::closed_loop(cluster.addr(), &reads, &references, workers(workload)),
            );
            (cluster, references)
        }
    };
    Ok(Ready { plan, cluster, references, failures })
}

fn note(failures: &mut Vec<String>, outcome: Outcome) {
    failures.extend(outcome.failures.into_iter().map(|(_, f)| format!("set-up: {f}")));
}

/// Runs every pool design cold through `service`, checking each
/// report, and returns the payloads.
fn prime_in_process(
    service: &tpi_serve::JobService,
    pool: &[Job],
    failures: &mut Vec<String>,
) -> Vec<Arc<str>> {
    let handles: Vec<_> = pool.iter().map(|j| service.submit(j.request.to_spec())).collect();
    handles
        .into_iter()
        .zip(pool)
        .map(|(h, job)| {
            let r = h.wait();
            if r.status != JobStatus::Completed || !r.verified || r.cache != CacheSource::Cold {
                failures.push(format!("{}: priming gave {:?}/{:?}", job.name, r.status, r.cache));
            }
            r.payload.unwrap_or_else(|| Arc::from(""))
        })
        .collect()
}

/// Untimed warm-up for a workload with no pool: a ping and two small
/// cold jobs that share nothing with the plan.
fn warm_up(cluster: &Cluster, failures: &mut Vec<String>) {
    let warm = || -> Result<(), String> {
        let conn = Connection::open_with(cluster.addr(), drive::client_config())
            .map_err(|e| e.to_string())?;
        conn.ping().map_err(|e| e.to_string())?;
        for spec in tpi_workloads::smoke_suite() {
            let blif = tpi_netlist::write_blif(&tpi_workloads::generate(&spec));
            let ticket = conn.submit(&WireRequest::full_scan(blif)).map_err(|e| e.to_string())?;
            let report = conn.wait(ticket).map_err(|e| e.to_string())?;
            if report.status != JobStatus::Completed {
                return Err(format!("{}: {:?}", spec.name, report.status));
            }
        }
        Ok(())
    };
    if let Err(e) = warm() {
        failures.push(format!("set-up: warm-up: {e}"));
    }
}

/// The timed phase: the workload's own loop over its plan.
pub fn timed(ready: &Ready) -> Outcome {
    let Ready { plan, cluster, references, .. } = ready;
    match plan.workload {
        Workload::PaperCold | Workload::IndustrialWarm => {
            drive::closed_loop(cluster.addr(), &plan.jobs, references, workers(plan.workload))
        }
        Workload::GatewayOpen => {
            drive::open_loop(cluster.addr(), &plan.jobs, &plan.due, references)
        }
    }
}

/// `served-by-owner ÷ routed` from a `tpi-gateway-metrics/v1` snapshot.
/// With no failover every job is answered where it was routed, so the
/// per-backend minimum of routed and answered counts the owner's
/// answers exactly.
pub fn owner_ratio(gateway_metrics: &str) -> Option<f64> {
    let routed = json_u64s(gateway_metrics, "\"routed\":");
    let forwarded = json_u64s(gateway_metrics, "\"forwarded\":");
    let total: u64 = routed.iter().sum();
    if total == 0 || routed.len() != forwarded.len() {
        return None;
    }
    let owned: u64 = routed.iter().zip(&forwarded).map(|(r, f)| (*r).min(*f)).sum();
    Some(owned as f64 / total as f64)
}

/// Every unsigned integer following `field` in a flat JSON rendering.
pub fn json_u64s(json: &str, field: &str) -> Vec<u64> {
    json.match_indices(field)
        .filter_map(|(at, _)| {
            let rest = &json[at + field.len()..];
            let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_ratio_reads_the_gateway_snapshot() {
        let json = r#"{"backends":[{"routed":3,"forwarded":3},{"routed":5,"forwarded":4}]}"#;
        assert_eq!(owner_ratio(json), Some(7.0 / 8.0));
        assert_eq!(owner_ratio("{}"), None);
        assert_eq!(json_u64s(r#"{"count":12,"x":{"count":7}}"#, "\"count\":"), vec![12, 7]);
    }
}
