//! What the benchmark records about the machine and the process.

use std::path::Path;
use std::time::Duration;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The first `model name` in `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
pub fn git_revision() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l[..l.len().min(40)].to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A `VmXXX:` field of `/proc/self/status`, in MiB.
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with(field)).and_then(|l| {
                l[field.len()..].trim().trim_end_matches("kB").trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Peak resident set of this process (`VmHWM`), in MiB. The whole
/// cluster runs in this process, so this is the cluster's peak too.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU time of the whole process, every thread.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is a valid constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_advances_with_work() {
        let before = process_cpu();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu() > before, "{x}");
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mib() > 0.0);
    }
}
