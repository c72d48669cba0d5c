//! Load generators and the per-report correctness check.

use crate::host;
use crate::plan::{Class, Job};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpi_net::{
    encode_frame_v2, ClientConfig, Connection, FrameAssembler, Verb, WireReport, DEFAULT_MAX_FRAME,
};
use tpi_serve::{CacheSource, JobStatus};

/// One timed request's outcome.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Position of the job in the plan (send order).
    pub index: usize,
    /// Read or write.
    pub class: Class,
    /// Client-side latency: submit (open loop: due time) to decoded
    /// report.
    pub latency: Duration,
    /// Server-side job wall from the report, dequeue to finish.
    pub server_wall: Duration,
    /// When the report arrived, from the start of the timed phase.
    pub done: Duration,
}

/// What one timed phase produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests sent.
    pub attempted: usize,
    /// Requests that passed their check, with timings.
    pub samples: Vec<Sample>,
    /// One line per failed request.
    pub failures: Vec<(Class, String)>,
    /// Wall time of the timed phase.
    pub wall: Duration,
    /// Process CPU time spent during the timed phase.
    pub cpu: Duration,
    /// Open loop only: how late the generator sent each request.
    pub send_lag: Vec<Duration>,
    /// Every payload received, by job index (for byte comparisons).
    pub payloads: Vec<Option<String>>,
}

/// Client settings for every session the benchmark opens.
pub fn client_config() -> ClientConfig {
    ClientConfig { io_timeout: Duration::from_secs(150), ..ClientConfig::default() }
}

/// Checks one report against what its job's class demands: a write
/// must have run cold, a read must be a hit carrying exactly the
/// reference payload. Both must be `Completed` and verified.
pub fn check(job: &Job, report: &WireReport, reference: Option<&str>) -> Result<(), String> {
    if report.status != JobStatus::Completed {
        return Err(format!("{}: status {:?}", job.name, report.status));
    }
    if !report.verified {
        return Err(format!("{}: report not verified", job.name));
    }
    let Some(payload) = report.payload.as_deref() else {
        return Err(format!("{}: completed report carries no payload", job.name));
    };
    if !payload.contains("\"verified\":true") {
        return Err(format!("{}: payload does not say verified", job.name));
    }
    match job.class {
        Class::Write if report.cache != CacheSource::Cold => {
            Err(format!("{}: cold request served from {}", job.name, report.cache.label()))
        }
        Class::Read if report.cache == CacheSource::Cold => {
            Err(format!("{}: warm request ran cold", job.name))
        }
        Class::Read if reference != Some(payload) => {
            Err(format!("{}: payload differs from the in-process reference", job.name))
        }
        _ => Ok(()),
    }
}

fn reference<'a>(job: &Job, references: &'a [Arc<str>]) -> Option<&'a str> {
    job.pool.and_then(|i| references.get(i)).map(|p| &**p)
}

/// Closed loop: keeps `in_flight` requests outstanding on one v2
/// session, sending the next job as soon as any completes.
pub fn closed_loop(addr: &str, jobs: &[Job], references: &[Arc<str>], in_flight: usize) -> Outcome {
    let mut out =
        Outcome { attempted: jobs.len(), payloads: vec![None; jobs.len()], ..Outcome::default() };
    let conn = match Connection::open_with(addr, client_config()) {
        Ok(c) => c,
        Err(e) => {
            out.failures
                .extend(jobs.iter().map(|j| (j.class, format!("{}: connect: {e}", j.name))));
            return out;
        }
    };
    let mut pending = Vec::new();
    let mut sent: HashMap<u32, (usize, Instant)> = HashMap::new();
    let mut next = 0;
    let cpu0 = host::process_cpu();
    let t0 = Instant::now();
    while next < jobs.len() || !pending.is_empty() {
        while pending.len() < in_flight && next < jobs.len() {
            let at = Instant::now();
            match conn.submit(&jobs[next].request) {
                Ok(ticket) => {
                    sent.insert(ticket.id(), (next, at));
                    pending.push(ticket);
                }
                Err(e) => out
                    .failures
                    .push((jobs[next].class, format!("{}: submit: {e}", jobs[next].name))),
            }
            next += 1;
        }
        if pending.is_empty() {
            continue;
        }
        match conn.wait_any(&mut pending) {
            Ok((ticket, report)) => {
                let (i, at) = sent.remove(&ticket.id()).expect("every ticket was recorded");
                let latency = at.elapsed();
                let job = &jobs[i];
                match check(job, &report, reference(job, references)) {
                    Ok(()) => out.samples.push(Sample {
                        index: i,
                        class: job.class,
                        latency,
                        server_wall: Duration::from_micros(report.wall_micros),
                        done: t0.elapsed(),
                    }),
                    Err(msg) => out.failures.push((job.class, msg)),
                }
                out.payloads[i] = report.payload;
            }
            Err(e) => {
                // The failed ticket left `pending`; whatever was sent
                // but is no longer pending is the casualty.
                let live: Vec<u32> = pending.iter().map(|t| t.id()).collect();
                let lost: Vec<u32> = sent.keys().copied().filter(|id| !live.contains(id)).collect();
                for id in lost {
                    let (i, _) = sent.remove(&id).expect("key just listed");
                    out.failures.push((jobs[i].class, format!("{}: {e}", jobs[i].name)));
                }
                if conn.is_dead() {
                    for (_, (i, _)) in sent.drain() {
                        out.failures
                            .push((jobs[i].class, format!("{}: connection lost", jobs[i].name)));
                    }
                    for j in &jobs[next..] {
                        out.failures.push((j.class, format!("{}: never sent", j.name)));
                    }
                    break;
                }
            }
        }
    }
    out.wall = t0.elapsed();
    out.cpu = host::process_cpu().saturating_sub(cpu0);
    out
}

/// Open loop: one thread sends each job at its due time on one
/// pipelined v2 connection, regardless of completions; another reads
/// reports as they arrive. Latency runs from the due time, so a stall
/// is charged to every request it delays.
pub fn open_loop(addr: &str, jobs: &[Job], due: &[Duration], references: &[Arc<str>]) -> Outcome {
    let mut out =
        Outcome { attempted: jobs.len(), payloads: vec![None; jobs.len()], ..Outcome::default() };
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            out.failures
                .extend(jobs.iter().map(|j| (j.class, format!("{}: connect: {e}", j.name))));
            return out;
        }
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    let reader = match stream.try_clone() {
        Ok(r) => r,
        Err(e) => {
            out.failures.extend(jobs.iter().map(|j| (j.class, format!("{}: clone: {e}", j.name))));
            return out;
        }
    };
    let cpu0 = host::process_cpu();
    let start = Instant::now() + Duration::from_millis(5);
    let (arrivals, lag) = std::thread::scope(|s| {
        let collector = s.spawn(move || collect(reader, jobs.len()));
        let lag = generate(stream, jobs, due, start);
        (collector.join().expect("collector thread does not panic"), lag)
    });
    out.send_lag = lag;
    let mut last = start;
    for (i, arrival) in arrivals.into_iter().enumerate() {
        let job = &jobs[i];
        let (at, verb, payload) = match arrival {
            Arrival::Frame { at, verb, payload } => (at, verb, payload),
            Arrival::Missing(why) => {
                out.failures.push((job.class, format!("{}: {why}", job.name)));
                continue;
            }
        };
        if verb != Verb::Report {
            out.failures.push((job.class, format!("{}: answered {verb:?}", job.name)));
            continue;
        }
        let report = match WireReport::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                out.failures.push((job.class, format!("{}: bad report: {e}", job.name)));
                continue;
            }
        };
        last = last.max(at);
        match check(job, &report, reference(job, references)) {
            Ok(()) => out.samples.push(Sample {
                index: i,
                class: job.class,
                latency: at.saturating_duration_since(start + due[i]),
                server_wall: Duration::from_micros(report.wall_micros),
                done: at.saturating_duration_since(start),
            }),
            Err(msg) => out.failures.push((job.class, msg)),
        }
        out.payloads[i] = report.payload;
    }
    out.wall = last.saturating_duration_since(start);
    out.cpu = host::process_cpu().saturating_sub(cpu0);
    out
}

/// The open-loop sender: request `i` goes out as `id = i + 1` at
/// `start + due[i]`. Returns each request's send lag.
fn generate(
    mut stream: TcpStream,
    jobs: &[Job],
    due: &[Duration],
    start: Instant,
) -> Vec<Duration> {
    let mut lag = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        let at = start + due[i];
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        lag.push(Instant::now().saturating_duration_since(at));
        let id = u32::try_from(i + 1).expect("a plan has fewer than 2^32 jobs");
        let frame = encode_frame_v2(Verb::Submit, id, &job.request.encode());
        if stream.write_all(&frame).is_err() {
            break;
        }
    }
    lag
}

enum Arrival {
    Frame { at: Instant, verb: Verb, payload: Vec<u8> },
    Missing(String),
}

/// The open-loop reader: timestamps every response frame the moment it
/// is whole.
fn collect(mut stream: TcpStream, n: usize) -> Vec<Arrival> {
    let mut arrivals: Vec<Arrival> = (0..n).map(|_| Arrival::Missing("no answer".into())).collect();
    let mut assembler = FrameAssembler::new();
    let mut buf = vec![0u8; 64 << 10];
    let mut got = 0;
    while got < n {
        let read = match stream.read(&mut buf) {
            Ok(0) => "connection closed".to_string(),
            Ok(k) => {
                assembler.feed(&buf[..k]);
                loop {
                    match assembler.next_frame(DEFAULT_MAX_FRAME) {
                        Ok(Some((verb, id, payload))) => {
                            let at = Instant::now();
                            if let Some(slot) =
                                (id as usize).checked_sub(1).and_then(|i| arrivals.get_mut(i))
                            {
                                if matches!(slot, Arrival::Missing(_)) {
                                    got += 1;
                                }
                                *slot = Arrival::Frame { at, verb, payload };
                            }
                        }
                        Ok(None) => break,
                        Err(e) => return fail_missing(arrivals, &format!("frame error: {e}")),
                    }
                }
                continue;
            }
            Err(e) => format!("read: {e}"),
        };
        return fail_missing(arrivals, &read);
    }
    arrivals
}

fn fail_missing(mut arrivals: Vec<Arrival>, why: &str) -> Vec<Arrival> {
    for a in &mut arrivals {
        if let Arrival::Missing(m) = a {
            *m = why.to_string();
        }
    }
    arrivals
}
