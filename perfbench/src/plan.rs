//! Seeded request lists for the three workloads.
//!
//! A [`Plan`] is a pure function of `(workload, seed, scale)`: the
//! designs primed during set-up, the timed requests in send order, and
//! (open loop only) each request's due time. The cluster only ever sees
//! the generated BLIF; the seed never crosses the wire.

use std::sync::Arc;
use std::time::Duration;
use tpi_core::PartialScanMethod;
use tpi_net::WireRequest;
use tpi_workloads::industrial::{generate_industrial, IndustrialSpec};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, every request a cold Table I/III job.
    PaperCold,
    /// Closed loop, every request a warm hit on a ~100k-gate design.
    IndustrialWarm,
    /// Open loop through the gateway: warm reads beside cold writes.
    GatewayOpen,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] =
        [Workload::PaperCold, Workload::IndustrialWarm, Workload::GatewayOpen];

    /// The name the command line and the reports use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCold => "paper_cold",
            Workload::IndustrialWarm => "industrial_warm",
            Workload::GatewayOpen => "gateway_open",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Whether a request must be served from cache or computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A repeat of a primed design: must be a cache hit.
    Read,
    /// A design the cluster has never seen: must run cold.
    Write,
}

impl Class {
    /// Label in the reports.
    pub fn label(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::Write => "write",
        }
    }
}

/// One request of a plan. Reads share their primed design's request,
/// so a 3.4 MB BLIF is held once however often it is replayed.
#[derive(Debug, Clone)]
pub struct Job {
    /// Design and flow, for failure messages.
    pub name: String,
    /// Read or write.
    pub class: Class,
    /// For reads: index of the primed design in [`Plan::pool`].
    pub pool: Option<usize>,
    /// The request as the client sends it.
    pub request: Arc<WireRequest>,
}

/// Everything one run sends.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Designs computed during set-up (all writes); reads name them.
    pub pool: Vec<Job>,
    /// Timed requests, in send order.
    pub jobs: Vec<Job>,
    /// Open loop only: when each timed request is due, from the start
    /// of the timed phase.
    pub due: Vec<Duration>,
}

/// Length of one run at scale 1, in seconds: `BENCHMARK.json`'s
/// `run_seconds`. `--seconds` scales the job counts against it.
pub const BASE_SECONDS: f64 = 20.0;

/// The fewest timed requests a run may have: p90 needs ten samples
/// beyond it.
pub const MIN_TIMED: usize = 100;

/// The Table I/III circuits of `paper_cold` and of the `gateway_open`
/// read pool.
///
/// `s13207` and `s15850` stay out. Their TPTIME and TD-CB jobs take
/// 0.5–3 s each, against at most about 0.3 s for any job here, so a
/// handful of them set a run's wall time and its p90: with them in,
/// `jobs_per_s` and `latency_p90_ms` moved 14–32 % between runs of the
/// same code.
pub const PAPER_CIRCUITS: [&str; 6] = ["dsip", "s5378", "s9234", "bigkey", "mult32b", "mult32a"];

/// Cold jobs of a `paper_cold` run at scale 1: whole passes over
/// [`PAPER_CIRCUITS`] × the four flows.
pub const PAPER_JOBS: usize = 384;

/// Flows in send order within one circuit, heaviest first.
const FLOWS: [Option<PartialScanMethod>; 4] = [
    Some(PartialScanMethod::TpTime),
    Some(PartialScanMethod::TdCb),
    None,
    Some(PartialScanMethod::Cb),
];

/// Gates of an `industrial_warm` design.
pub const INDUSTRIAL_GATES: usize = 100_000;
/// Distinct designs `industrial_warm` reads.
pub const INDUSTRIAL_POOL: usize = 4;
/// Gates of a `gateway_open` write.
pub const WRITE_GATES: usize = 5_000;
/// Mean arrival rate of `gateway_open`, requests per second.
pub const GATEWAY_RATE: f64 = 12.0;
/// Share of `gateway_open` requests that are writes, per mille.
const WRITE_PER_MILLE: usize = 250;

/// SplitMix64: the benchmark's only random source.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream starting from `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A seed for sub-stream `(a, b)` of `seed`.
fn derive(seed: u64, a: u64, b: u64) -> u64 {
    SplitMix::new(
        seed ^ a.wrapping_mul(0xA24B_AED4_963E_E407) ^ b.wrapping_mul(0x9FB2_1C65_1E98_DF25),
    )
    .next_u64()
}

fn flow_label(flow: Option<PartialScanMethod>) -> &'static str {
    match flow {
        None => "full-scan",
        Some(PartialScanMethod::Cb) => "cb",
        Some(PartialScanMethod::TdCb) => "td-cb",
        Some(PartialScanMethod::TpTime) => "tptime",
    }
}

fn request(blif: &str, flow: Option<PartialScanMethod>) -> Arc<WireRequest> {
    Arc::new(match flow {
        None => WireRequest::full_scan(blif),
        Some(m) => WireRequest::partial(blif, m),
    })
}

/// A Table II circuit, as BLIF, named for `pass` of the run with
/// `seed`. The structure is the suite's own, so every run does the same
/// work and every job is known to complete and verify; only the name
/// carries the pass and the run seed, so no two jobs of a run, and no
/// two runs, share a cache key.
fn paper_circuit(circuit: &str, seed: u64, pass: u64) -> (String, String) {
    let mut spec = tpi_workloads::suite()
        .into_iter()
        .find(|s| s.name == circuit)
        .expect("circuit names come from the Table II suite");
    spec.name = format!("{circuit}_p{pass}_s{seed:x}");
    let name = spec.name.clone();
    (name, tpi_netlist::write_blif(&tpi_workloads::generate(&spec)))
}

/// A fresh industrial design, as BLIF.
fn industrial(tag: &str, gates: usize, seed: u64, index: u64) -> (String, String) {
    let name = format!("{tag}_{index}_s{seed:x}");
    let spec = IndustrialSpec::sized(name.clone(), gates, derive(seed, 0x1D, index));
    (name, tpi_netlist::write_blif(&generate_industrial(&spec)))
}

/// Scales a job count by `seconds / BASE_SECONDS`, never below
/// [`MIN_TIMED`].
fn scaled(base: usize, seconds: f64) -> usize {
    ((base as f64 * seconds / BASE_SECONDS).round() as usize).max(MIN_TIMED)
}

impl Plan {
    /// The plan for `workload` at `seed`, sized for a run of `seconds`.
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Plan {
        match workload {
            Workload::PaperCold => Plan::paper_cold(seed, scaled(PAPER_JOBS, seconds)),
            Workload::IndustrialWarm => {
                Plan::industrial_warm(seed, scaled(120, seconds), INDUSTRIAL_GATES)
            }
            Workload::GatewayOpen => Plan::gateway_open(seed, scaled(400, seconds), WRITE_GATES),
        }
    }

    /// Whole passes over the circuits × flows, each pass renaming every
    /// circuit: every job has its own cache key and runs cold.
    fn paper_cold(seed: u64, min_jobs: usize) -> Plan {
        let per_pass = PAPER_CIRCUITS.len() * FLOWS.len();
        let passes = min_jobs.div_ceil(per_pass) as u64;
        let mut jobs = Vec::new();
        for pass in 0..passes {
            for circuit in PAPER_CIRCUITS {
                let (name, blif) = paper_circuit(circuit, seed, pass);
                for flow in FLOWS {
                    jobs.push(Job {
                        name: format!("{name}/{}", flow_label(flow)),
                        class: Class::Write,
                        pool: None,
                        request: request(&blif, flow),
                    });
                }
            }
        }
        Plan { workload: Workload::PaperCold, pool: Vec::new(), jobs, due: Vec::new() }
    }

    /// A pool of large designs primed in set-up, then read in shuffled
    /// rounds so each design is read equally often.
    fn industrial_warm(seed: u64, reads: usize, gates: usize) -> Plan {
        let pool: Vec<Job> = (0..INDUSTRIAL_POOL as u64)
            .map(|i| {
                let (name, blif) = industrial("ind100k", gates, seed, i);
                Job {
                    name: format!("{name}/full-scan"),
                    class: Class::Write,
                    pool: None,
                    request: request(&blif, None),
                }
            })
            .collect();
        let mut rng = SplitMix::new(derive(seed, 0x1A, 0));
        let mut order = Vec::with_capacity(reads);
        while order.len() < reads {
            let mut round: Vec<usize> = (0..pool.len()).collect();
            rng.shuffle(&mut round);
            order.extend(round);
        }
        order.truncate(reads);
        let jobs = order.into_iter().map(|i| read_of(&pool, i)).collect();
        Plan { workload: Workload::IndustrialWarm, pool, jobs, due: Vec::new() }
    }

    /// Paper-size reads and fresh industrial writes in a seeded order,
    /// with Poisson arrivals at [`GATEWAY_RATE`].
    fn gateway_open(seed: u64, requests: usize, write_gates: usize) -> Plan {
        let mut pool = Vec::new();
        for circuit in PAPER_CIRCUITS {
            let (name, blif) = paper_circuit(circuit, seed, 0);
            for flow in FLOWS {
                pool.push(Job {
                    name: format!("{name}/{}", flow_label(flow)),
                    class: Class::Write,
                    pool: None,
                    request: request(&blif, flow),
                });
            }
        }
        let writes = requests * WRITE_PER_MILLE / 1000;
        let mut rng = SplitMix::new(derive(seed, 0x6A, 0));
        let mut classes: Vec<Class> =
            (0..requests).map(|i| if i < writes { Class::Write } else { Class::Read }).collect();
        rng.shuffle(&mut classes);
        let mut written = 0u64;
        let mut jobs = Vec::with_capacity(requests);
        for class in classes {
            jobs.push(match class {
                Class::Read => read_of(&pool, rng.below(pool.len())),
                Class::Write => {
                    let (name, blif) = industrial("ind25k", write_gates, seed, written);
                    written += 1;
                    Job {
                        name: format!("{name}/full-scan"),
                        class: Class::Write,
                        pool: None,
                        request: request(&blif, None),
                    }
                }
            });
        }
        // Exponential gaps, rescaled so the last arrival is due at
        // exactly `requests / GATEWAY_RATE`: Poisson arrivals conditioned
        // on their count, so every seed offers the same mean rate.
        let gaps: Vec<f64> = (0..requests).map(|_| -rng.unit().ln()).collect();
        let scale = requests as f64 / GATEWAY_RATE / gaps.iter().sum::<f64>();
        let mut at = 0.0f64;
        let due = gaps
            .into_iter()
            .map(|gap| {
                at += gap * scale;
                Duration::from_secs_f64(at)
            })
            .collect();
        Plan { workload: Workload::GatewayOpen, pool, jobs, due }
    }

    /// Timed requests of `class`.
    pub fn count(&self, class: Class) -> usize {
        self.jobs.iter().filter(|j| j.class == class).count()
    }

    /// One read of every pool design, in pool order.
    pub fn pool_reads(&self) -> Vec<Job> {
        (0..self.pool.len()).map(|i| read_of(&self.pool, i)).collect()
    }
}

fn read_of(pool: &[Job], i: usize) -> Job {
    Job {
        name: pool[i].name.clone(),
        class: Class::Read,
        pool: Some(i),
        request: Arc::clone(&pool[i].request),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use tpi_serve::{cache_key, netlist_fingerprint};

    fn bytes(plan: &Plan) -> Vec<Vec<u8>> {
        plan.pool.iter().chain(&plan.jobs).map(|j| j.request.encode()).collect()
    }

    fn key(job: &Job) -> u64 {
        let n = tpi_netlist::parse_blif(&job.request.blif).expect("generated BLIF parses");
        cache_key(netlist_fingerprint(&n), &job.request.flow).0
    }

    fn cold_keys(plan: &Plan) -> Vec<u64> {
        plan.pool.iter().chain(&plan.jobs).filter(|j| j.class == Class::Write).map(key).collect()
    }

    /// Small plans: enough structure to test, cheap in a debug build.
    fn small(workload: Workload, seed: u64) -> Plan {
        match workload {
            Workload::PaperCold => Plan::paper_cold(seed, 64),
            Workload::IndustrialWarm => Plan::industrial_warm(seed, 12, 2_000),
            Workload::GatewayOpen => Plan::gateway_open(seed, 24, 2_000),
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_request_lists() {
        for w in Workload::ALL {
            let (a, b) = (small(w, 7), small(w, 7));
            assert_eq!(bytes(&a), bytes(&b), "{}", w.name());
            assert_eq!(a.due, b.due, "{}", w.name());
            let classes = |p: &Plan| p.jobs.iter().map(|j| (j.class, j.pool)).collect::<Vec<_>>();
            assert_eq!(classes(&a), classes(&b), "{}", w.name());
        }
    }

    #[test]
    fn different_seeds_give_disjoint_cold_keys() {
        for w in [Workload::PaperCold, Workload::GatewayOpen] {
            let a = cold_keys(&small(w, 1));
            let b = cold_keys(&small(w, 2));
            let a_set: BTreeSet<u64> = a.iter().copied().collect();
            assert_eq!(a_set.len(), a.len(), "{}: a run's cold keys are distinct", w.name());
            assert!(b.iter().all(|k| !a_set.contains(k)), "{}: seeds share a key", w.name());
        }
    }

    #[test]
    fn paper_cold_covers_every_circuit_and_flow_per_pass() {
        let plan = Plan::new(Workload::PaperCold, 3, BASE_SECONDS);
        assert_eq!(plan.jobs.len(), PAPER_JOBS);
        assert_eq!(plan.count(Class::Write), PAPER_JOBS);
        let flows: BTreeSet<String> =
            plan.jobs.iter().map(|j| j.request.flow.label().to_string()).collect();
        assert_eq!(flows.len(), 4);
    }

    #[test]
    fn gateway_plan_mixes_reads_and_writes_at_the_stated_rate() {
        let plan = small(Workload::GatewayOpen, 5);
        assert_eq!(plan.count(Class::Write), 6);
        assert_eq!(plan.count(Class::Read), 18);
        assert!(plan.due.windows(2).all(|w| w[0] <= w[1]), "arrivals are ordered");
        assert!(plan.jobs.iter().all(|j| j.class == Class::Write || j.pool.is_some()));
    }

    #[test]
    fn scaling_never_drops_below_the_p90_floor() {
        assert_eq!(scaled(160, 1.0), MIN_TIMED);
        assert_eq!(scaled(400, BASE_SECONDS), 400);
    }
}
