//! Shared command-line handling for the workspace binaries.
//!
//! The binaries all speak the same dialect: `--flag VALUE` pairs read
//! through [`ArgCursor`], the network flags of [`NetCliOpts`], and, on
//! the binaries that run flows (the bench binaries and `tpi-netd`), a
//! `--threads N` knob plus an optional list of positional names that
//! restricts what runs ([`Cli`]). `tpi-cli` and `tpi-gatewayd` run no
//! flow, so they take no `--threads`: it is an unknown argument there.
//! This module holds that dialect in one place so the knobs spell —
//! and misparse — the same everywhere. It lives in `tpi-net` (the
//! lowest crate with binaries).

use crate::client::ClientConfig;
use std::process::exit;
use std::time::Duration;

/// The parsed common command line: the `--threads` knob plus whatever
/// arguments remain (positional selectors and binary-specific flags).
#[derive(Debug, Clone)]
pub struct Cli {
    /// Worker threads (`0` = all hardware threads, default 1).
    pub threads: usize,
    /// Everything that was not a `--threads` flag, in order.
    pub args: Vec<String>,
}

impl Cli {
    /// Parses the process arguments (skipping `argv[0]`).
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (testable entry point).
    pub fn from_args(args: impl Iterator<Item = String>) -> Self {
        let (threads, args) = parse_threads(args);
        Cli { threads, args }
    }

    /// Whether `name` is selected: an empty positional list selects
    /// everything, otherwise the name must be listed. Binaries use this
    /// for circuit/figure filtering.
    pub fn selects(&self, name: &str) -> bool {
        self.args.is_empty() || self.args.iter().any(|a| a == name)
    }
}

/// Extracts a `--threads N` (or `--threads=N`) flag from an argument
/// list, returning `(threads, remaining_args)`. `0` means all hardware
/// threads; the default is 1 (fully sequential).
pub fn parse_threads(args: impl Iterator<Item = String>) -> (usize, Vec<String>) {
    fn parse(v: &str) -> usize {
        v.parse().unwrap_or_else(|_| {
            eprintln!("--threads: expected a non-negative integer, got {v:?}");
            exit(2);
        })
    }
    let mut threads = 1usize;
    let mut rest = Vec::new();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if a == "--threads" {
            match args.next() {
                Some(v) => threads = parse(&v),
                None => {
                    eprintln!("--threads requires a value (0 = all hardware threads)");
                    exit(2);
                }
            }
        } else if let Some(v) = a.strip_prefix("--threads=") {
            threads = parse(v);
        } else {
            rest.push(a);
        }
    }
    (threads, rest)
}

/// A cursor over `--flag VALUE` style arguments with uniform error
/// handling: missing values exit with status 2 and a message naming the
/// flag, the convention every bench binary follows.
pub struct ArgCursor {
    it: std::vec::IntoIter<String>,
}

impl ArgCursor {
    /// Wraps an argument list (typically [`Cli::args`]).
    pub fn new(args: Vec<String>) -> Self {
        ArgCursor { it: args.into_iter() }
    }

    /// The next argument, if any.
    pub fn next_arg(&mut self) -> Option<String> {
        self.it.next()
    }

    /// The value following a `--flag`, or exit(2) naming the flag.
    pub fn value(&mut self, flag: &str) -> String {
        self.it.next().unwrap_or_else(|| {
            eprintln!("{flag} requires a value");
            exit(2);
        })
    }

    /// The value following a `--flag`, parsed, or exit(2) with a
    /// message naming the flag and the offending text.
    pub fn parsed_value<T: std::str::FromStr>(&mut self, flag: &str, expected: &str) -> T {
        let v = self.value(flag);
        v.parse().unwrap_or_else(|_| {
            eprintln!("{flag}: expected {expected}, got {v:?}");
            exit(2);
        })
    }
}

/// The network flags every client-facing binary shares, parsed once
/// here so `tpi-cli`, `tpi-batch` and `tpi-gatewayd` cannot drift:
///
/// | flag | meaning |
/// |------|---------|
/// | `--addr HOST:PORT` | server (or bind) address |
/// | `--addr-file PATH` | where a daemon writes its bound address |
/// | `--deadline-ms N` | per-job compute deadline |
/// | `--retry-budget-ms N` | wall-clock budget for connect/busy retries |
/// | `--retries N` | hard cap on retries (`0` = first refusal is final) |
///
/// Binaries keep their own `match` over [`ArgCursor`] for their
/// specific flags and call [`NetCliOpts::try_flag`] first; `false`
/// means "not one of mine, yours to handle".
#[derive(Debug, Clone, Default)]
pub struct NetCliOpts {
    /// `--addr`: the server address to dial (clients) or bind (daemons).
    pub addr: Option<String>,
    /// `--addr-file`: path a daemon writes its bound address to.
    pub addr_file: Option<String>,
    /// `--deadline-ms`: per-job compute deadline.
    pub deadline: Option<Duration>,
    /// `--retry-budget-ms`: wall-clock retry budget.
    pub retry_budget: Option<Duration>,
    /// `--retries`: hard retry cap.
    pub retries: Option<u32>,
}

impl NetCliOpts {
    /// Consumes `arg` if it is one of the shared flags (pulling its
    /// value off `args` with the usual exit-2-on-missing handling);
    /// returns `false` for anything binary-specific.
    pub fn try_flag(&mut self, arg: &str, args: &mut ArgCursor) -> bool {
        match arg {
            "--addr" => self.addr = Some(args.value("--addr")),
            "--addr-file" => self.addr_file = Some(args.value("--addr-file")),
            "--deadline-ms" => {
                self.deadline =
                    Some(Duration::from_millis(args.parsed_value("--deadline-ms", "milliseconds")));
            }
            "--retry-budget-ms" => {
                self.retry_budget = Some(Duration::from_millis(
                    args.parsed_value("--retry-budget-ms", "milliseconds"),
                ));
            }
            "--retries" => self.retries = Some(args.parsed_value("--retries", "a retry count")),
            _ => return false,
        }
        true
    }

    /// A [`ClientConfig`] with the parsed retry knobs folded in;
    /// untouched flags keep the defaults.
    pub fn client_config(&self) -> ClientConfig {
        let mut config = ClientConfig::default();
        if let Some(budget) = self.retry_budget {
            config.retry_budget = budget;
        }
        if let Some(cap) = self.retries {
            config.max_retries = Some(cap);
        }
        config
    }

    /// The `--addr` value, or exit(2) printing `hint`.
    pub fn require_addr(&self, hint: &str) -> String {
        self.addr.clone().unwrap_or_else(|| {
            eprintln!("--addr is required ({hint})");
            exit(2);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_args(s: &[&str]) -> std::vec::IntoIter<String> {
        s.iter().map(|x| x.to_string()).collect::<Vec<_>>().into_iter()
    }

    #[test]
    fn parse_threads_variants() {
        assert_eq!(parse_threads(to_args(&[])), (1, vec![]));
        assert_eq!(parse_threads(to_args(&["s5378"])), (1, vec!["s5378".to_string()]));
        assert_eq!(parse_threads(to_args(&["--threads", "4"])), (4, vec![]));
        assert_eq!(parse_threads(to_args(&["--threads=0", "dsip"])), (0, vec!["dsip".to_string()]));
    }

    #[test]
    fn empty_selection_selects_everything() {
        let cli = Cli::from_args(to_args(&["--threads", "2"]));
        assert_eq!(cli.threads, 2);
        assert!(cli.selects("s5378") && cli.selects("anything"));
        let cli = Cli::from_args(to_args(&["s5378", "dsip"]));
        assert!(cli.selects("dsip") && !cli.selects("mult32a"));
    }

    #[test]
    fn arg_cursor_walks_flags_and_positionals() {
        let mut c = ArgCursor::new(vec!["--out".into(), "dir".into(), "pos".into()]);
        assert_eq!(c.next_arg().as_deref(), Some("--out"));
        assert_eq!(c.value("--out"), "dir");
        assert_eq!(c.next_arg().as_deref(), Some("pos"));
        assert_eq!(c.next_arg(), None);
    }

    #[test]
    fn net_cli_opts_claims_shared_flags_and_leaves_the_rest() {
        let mut opts = NetCliOpts::default();
        let raw = ["--addr", "127.0.0.1:9", "--deadline-ms", "250", "--retries", "3", "--flow"];
        let mut c = ArgCursor::new(raw.iter().map(|s| s.to_string()).collect());
        let mut leftover = Vec::new();
        while let Some(a) = c.next_arg() {
            if !opts.try_flag(&a, &mut c) {
                leftover.push(a);
            }
        }
        assert_eq!(opts.addr.as_deref(), Some("127.0.0.1:9"));
        assert_eq!(opts.deadline, Some(Duration::from_millis(250)));
        assert_eq!(opts.retries, Some(3));
        assert_eq!(leftover, vec!["--flow".to_string()]);
        let config = opts.client_config();
        assert_eq!(config.max_retries, Some(3));
        assert_eq!(config.retry_budget, ClientConfig::default().retry_budget);
    }
}
