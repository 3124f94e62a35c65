//! # zerosum-cli
//!
//! The `zerosum` launcher wrapper — the reproduction of the paper's
//! `zerosum-mpi` wrapper script (`srun -n8 zerosum-mpi miniqmc`): spawn
//! the application as a child process and monitor it *from outside*
//! through `/proc/<pid>` — it and every process it starts — then print
//! the utilization report and contention summary of each, and the
//! configuration-evaluation findings, at exit. With
//! `--connect ADDR` it is also the node's agent on the wire: each
//! sample goes to `zerosum collect` as a heartbeat with per-LWP detail,
//! and the node's aggregate follows at exit.
//!
//! All the logic lives here in the library (unit-testable) — the
//! wrapper, and the flag table every subcommand's argv is read against
//! ([`flags`]); `main.rs` dispatches, prints and exits.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![warn(missing_docs)]

pub mod fdprobe;
pub mod flags;

use std::os::unix::process::ExitStatusExt as _;
use std::path::PathBuf;
use std::process::Command;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};
use zerosum_core::signal::{crash_header, AbnormalExit};
use zerosum_core::{
    analyze, evaluate, export, render_findings, render_process_report, NodeAggregate,
    ProgressTracker, SelfMonitor, ZeroSumConfig,
};
use zerosum_net::{NodeAgent, TcpLink};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// Sampling period, ms (`--period-ms`, default 1000 like the paper).
    pub period_ms: u64,
    /// Where to write the per-process log (`--log-dir`).
    pub logs_dir: Option<PathBuf>,
    /// MPI rank (`--rank`, else auto-detected from the launcher
    /// environment).
    pub rank: Option<u32>,
    /// Suppress the stdout report on non-zero ranks (`--quiet-ranks`,
    /// default true; rank 0 always prints).
    pub quiet_ranks: bool,
    /// Print a live heartbeat line each sample (`--heartbeat`) — the
    /// §3.3 "the application is viable" signal.
    pub heartbeat: bool,
    /// The `zerosum collect` to stream to (`--connect`).
    pub connect: Option<String>,
    /// The command to launch.
    pub command: Vec<String>,
}

/// Errors from CLI parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// No command given after the options / `--`.
    MissingCommand,
    /// Unknown or malformed flag.
    BadFlag(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let usage = flags::usage_line(&flags::WRAPPER);
        match self {
            CliError::MissingCommand => write!(f, "no command to launch; usage: {usage}"),
            CliError::BadFlag(fl) => write!(f, "bad flag {fl:?}; usage: {usage}"),
        }
    }
}

/// Detects the MPI rank from common launcher environment variables
/// (Slurm, Open MPI, MPICH/PMI, Flux).
pub fn rank_from_env(get: impl Fn(&str) -> Option<String>) -> Option<u32> {
    for var in [
        "SLURM_PROCID",
        "OMPI_COMM_WORLD_RANK",
        "PMI_RANK",
        "PMIX_RANK",
        "FLUX_TASK_RANK",
    ] {
        if let Some(v) = get(var) {
            if let Ok(r) = v.trim().parse() {
                return Some(r);
            }
        }
    }
    None
}

/// Parses argv (excluding the program name).
pub fn parse_args(args: &[String]) -> Result<CliOptions, CliError> {
    match flags::parse_flags(&flags::WRAPPER, args) {
        Ok(parsed) => wrapper_options(&parsed),
        Err(e) => Err(CliError::BadFlag(e.flag)),
    }
}

/// The wrapper's options from an argv already read against
/// [`flags::WRAPPER`].
pub fn wrapper_options(parsed: &flags::Parsed) -> Result<CliOptions, CliError> {
    let period_ms = parsed.number("--period-ms");
    if period_ms == 0 {
        return Err(CliError::BadFlag("--period-ms".into()));
    }
    if parsed.trailing.is_empty() {
        return Err(CliError::MissingCommand);
    }
    Ok(CliOptions {
        period_ms,
        logs_dir: parsed.text_of("--log-dir").map(PathBuf::from),
        rank: parsed.number_opt("--rank"),
        quiet_ranks: !parsed.given("--verbose-ranks"),
        heartbeat: parsed.given("--heartbeat"),
        connect: parsed.text_of("--connect").map(String::from),
        command: parsed.trailing.to_vec(),
    })
}

/// The wrapper's exit report.
#[derive(Debug)]
pub struct WrapOutcome {
    /// The child's exit code, or 128 + the signal number that ended it,
    /// as a shell reports it.
    pub exit_code: i32,
    /// The rendered report (printed on rank 0 / single-process runs).
    pub report: String,
    /// Paths of log files written, if a log dir was given.
    pub logs: Vec<PathBuf>,
    /// With `--connect`: whether the collector acknowledged the node's
    /// aggregate.
    pub delivered: Option<bool>,
}

/// What the wrapper's agent thread is handed: a sample's round — the
/// heartbeat's `(round, t_s)` and `(tid, busy %)` per live LWP — or,
/// once the session stopped, the node's aggregate.
enum ToAgent {
    Round(u64, f64, Vec<(u32, f64)>),
    Finish(NodeAggregate),
}

/// The agent thread: the one owner of the node's [`NodeAgent`] and its
/// socket. It opens a wire round per round it is handed and ticks the
/// agent every `tick`; handed the aggregate, it ticks until the
/// collector acks it or 10 s pass. True when acked.
fn agent_thread(mut agent: NodeAgent<TcpLink>, rx: Receiver<ToAgent>, tick: Duration) -> bool {
    let (mut last, mut due) = (0, Instant::now() + tick);
    let agg = loop {
        match rx.recv_timeout(due.saturating_duration_since(Instant::now())) {
            Ok(ToAgent::Round(round, t_s, lwps)) => {
                agent.begin_round(round, t_s);
                for (tid, busy_pct) in lwps {
                    agent.send_detail(round, tid, busy_pct);
                }
                last = round;
            }
            Ok(ToAgent::Finish(agg)) => break agg,
            Err(RecvTimeoutError::Timeout) => {
                agent.tick();
                due += tick;
            }
            Err(RecvTimeoutError::Disconnected) => return false,
        }
    };
    // Past the last heartbeat's round, and never 0: an ack of round 0
    // acks the Hello.
    agent.finish(last + 1, agg);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !agent.done() && Instant::now() < deadline {
        std::thread::sleep(tick);
        agent.tick();
    }
    agent.done()
}

/// Launches and monitors the command; blocks until it exits. The
/// monitor follows the command's descendants (`sh -c`, `mpirun`), and
/// the report holds a block for the command and one for each of them.
///
/// With `--connect` the collector is dialled before the child runs,
/// and the node is `<hostname>.<rank:05>` (else `.<child pid>`). The
/// monitor thread hands each sample to the agent thread by `try_send`:
/// a full channel drops the round, never stalls the monitor. A
/// heartbeat's round is its deadline's index `k`, `t_s ≈ k · period`.
///
/// A child that a signal ended is an abnormal exit (§3.1), reported by
/// the wrapper, which owns the monitor: the report closes with the
/// cause and the child's identity, and each log is written as a partial
/// one naming the cause.
pub fn run(opts: &CliOptions) -> Result<WrapOutcome, String> {
    let rank = opts
        .rank
        .or_else(|| rank_from_env(|k| std::env::var(k).ok()));
    let config = ZeroSumConfig::default().with_period_ms(opts.period_ms);
    let dial = |addr: &String| {
        TcpLink::dial(addr, zerosum_net::DEFAULT_WINDOW).map_err(|e| format!("dial {addr}: {e}"))
    };
    let link = opts.connect.as_ref().map(dial).transpose()?;
    let mut child = Command::new(&opts.command[0])
        .args(&opts.command[1..])
        .spawn()
        .map_err(|e| format!("failed to launch {:?}: {e}", opts.command[0]))?;
    let id = rank.map_or(child.id().to_string(), |r| format!("{r:05}"));
    let node = format!("{}.{id}", zerosum_core::attach::hostname());
    let period = Duration::from_millis(opts.period_ms);
    // The agent may fall 8 rounds behind before the monitor drops one.
    let (tx, rx) = sync_channel(8);
    let agent = link.map(|link| NodeAgent::new(link, node.clone()));
    let agent = agent.map(|a| std::thread::spawn(move || agent_thread(a, rx, period / 4)));
    let rounds = agent.is_some().then(|| tx.clone());
    // The heartbeat is written by the monitor thread, one line per
    // sample. Direct write: a closed stderr must not kill the wrapper
    // (`eprintln!` would panic).
    let heartbeat = opts.heartbeat.then(ProgressTracker::new);
    let session = SelfMonitor::start_for_pid(config, child.id(), rank, move |m| {
        if let Some(tracker) = &heartbeat {
            use std::io::Write as _;
            let line = tracker.heartbeat_line(m, m.last_t_s);
            let _ = writeln!(std::io::stderr(), "{line}");
        }
        if let Some(tx) = &rounds {
            let k = (m.last_t_s / period.as_secs_f64()).round() as u64;
            let live = m.processes().iter().flat_map(|w| w.lwps.tracks());
            let live = live.filter(|t| !t.exited && !t.retired);
            let lwps = live.map(|t| (t.tid, t.cpu_fraction() * 100.0)).collect();
            let _ = tx.try_send(ToAgent::Round(k, m.last_t_s, lwps));
        }
    })
    .map_err(|e| format!("failed to attach monitor: {e}"))?;
    let status = child.wait().map_err(|e| format!("wait failed: {e}"))?;
    let signal = status.signal();
    let (monitor, duration) = session.stop();
    let delivered = agent.map(|handle| {
        let agg = NodeAggregate::from_monitor(&node, &monitor);
        tx.send(ToAgent::Finish(agg)).is_ok() && handle.join().unwrap_or(false)
    });
    // The child first, then each descendant the rounds found, in the
    // order they were found.
    let mut report = String::new();
    for w in monitor.processes() {
        report.push_str(&render_process_report(&monitor, w.info.pid, duration, None));
        if let Some(c) = analyze(&monitor, w.info.pid) {
            report.push('\n');
            report.push_str(&c.render());
        }
        report.push('\n');
    }
    // Evaluate against the *discovered* topology of this machine.
    let topo = zerosum_topology::discover();
    report.push_str(&render_findings(&evaluate(&monitor, &topo)));
    // The five crash signals by name, any other by its number. No
    // backtrace: the wrapper's own stack says nothing about the child.
    let cause = signal.map(|s| {
        AbnormalExit::from_signal(s)
            .map_or_else(|| format!("signal {s}"), |c| c.signal_name().into())
    });
    if let Some(cause) = &cause {
        report.push('\n');
        report.push_str(&crash_header(cause, child.id(), rank));
    }
    let logs = match &opts.logs_dir {
        Some(dir) => {
            let report_for = |p| render_process_report(&monitor, p, duration, None);
            match &cause {
                Some(cause) => export::write_partial_logs(&monitor, dir, cause, report_for),
                None => export::write_logs(&monitor, dir, duration, report_for),
            }
            .map_err(|e| format!("failed to write logs: {e}"))?
        }
        None => Vec::new(),
    };
    Ok(WrapOutcome {
        exit_code: status.code().or(signal.map(|s| 128 + s)).unwrap_or(255),
        report,
        logs,
        delivered,
    })
}

/// Whether this rank should print the stdout report.
pub fn should_print(opts: &CliOptions, rank: Option<u32>) -> bool {
    !opts.quiet_ranks || rank.unwrap_or(0) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_full_flags() {
        let o = parse_args(&s(&[
            "--period-ms",
            "250",
            "--log-dir",
            "/tmp/zs",
            "--rank",
            "3",
            "--connect",
            "127.0.0.1:4000",
            "--",
            "miniqmc",
            "-g",
            "2 2 2",
        ]))
        .unwrap();
        assert_eq!(o.period_ms, 250);
        assert_eq!(o.logs_dir, Some(PathBuf::from("/tmp/zs")));
        assert_eq!(o.rank, Some(3));
        assert_eq!(o.connect.as_deref(), Some("127.0.0.1:4000"));
        assert_eq!(o.command, s(&["miniqmc", "-g", "2 2 2"]));
    }

    #[test]
    fn parse_bare_command_without_separator() {
        let o = parse_args(&s(&["sleep", "1"])).unwrap();
        assert_eq!(o.command, s(&["sleep", "1"]));
        assert_eq!(o.period_ms, 1_000); // the paper's default
        assert_eq!(o.connect, None);
    }

    #[test]
    fn command_flags_are_not_eaten() {
        // Flags after the command belong to the command.
        let o = parse_args(&s(&["stress", "--cpu", "4"])).unwrap();
        assert_eq!(o.command, s(&["stress", "--cpu", "4"]));
    }

    #[test]
    fn parse_errors() {
        assert_eq!(parse_args(&s(&[])), Err(CliError::MissingCommand));
        assert_eq!(parse_args(&s(&["--"])), Err(CliError::MissingCommand));
        assert_eq!(
            parse_args(&s(&["--period-ms", "x", "--", "a"])),
            Err(CliError::BadFlag("--period-ms".into()))
        );
        assert_eq!(
            parse_args(&s(&["--period-ms", "0", "--", "a"])),
            Err(CliError::BadFlag("--period-ms".into()))
        );
        assert_eq!(
            parse_args(&s(&["--bogus", "--", "a"])),
            Err(CliError::BadFlag("--bogus".into()))
        );
    }

    #[test]
    fn rank_detection_priority() {
        let r = rank_from_env(|k| match k {
            "SLURM_PROCID" => Some("5".into()),
            "PMI_RANK" => Some("9".into()),
            _ => None,
        });
        assert_eq!(r, Some(5));
        assert_eq!(rank_from_env(|_| None), None);
        let r = rank_from_env(|k| (k == "FLUX_TASK_RANK").then(|| "2".into()));
        assert_eq!(r, Some(2));
    }

    #[test]
    fn print_policy() {
        let mut o = parse_args(&s(&["true"])).unwrap();
        assert!(should_print(&o, None));
        assert!(should_print(&o, Some(0)));
        assert!(!should_print(&o, Some(3)));
        o.quiet_ranks = false;
        assert!(should_print(&o, Some(3)));
    }

    #[test]
    fn heartbeat_flag_parses_and_wraps() {
        let opts = parse_args(&s(&[
            "--heartbeat",
            "--period-ms",
            "60",
            "--",
            "/bin/sh",
            "-c",
            "i=0; while [ $i -lt 100000 ]; do i=$((i+1)); done",
        ]))
        .unwrap();
        assert!(opts.heartbeat);
        let out = run(&opts).expect("wrap run");
        assert_eq!(out.exit_code, 0);
    }

    #[test]
    fn wraps_a_real_child_process() {
        // Launch a real short-lived child and monitor it from outside.
        let opts = parse_args(&s(&[
            "--period-ms",
            "50",
            "--",
            "/bin/sh",
            "-c",
            "i=0; while [ $i -lt 200000 ]; do i=$((i+1)); done",
        ]))
        .unwrap();
        let out = run(&opts).expect("wrap run");
        assert_eq!(out.exit_code, 0);
        assert!(out.report.contains("Duration of execution:"));
        assert!(out.report.contains("LWP (thread) Summary:"));
        assert!(out.report.contains("Contention Summary:"));
        assert!(out.report.contains("Configuration Evaluation:"));
    }

    #[test]
    fn missing_binary_is_an_error() {
        let opts = parse_args(&s(&["/definitely/not/here"])).unwrap();
        let err = run(&opts).unwrap_err();
        assert!(err.contains("failed to launch"));
    }

    #[test]
    fn child_exit_code_propagates() {
        let opts = parse_args(&s(&["/bin/sh", "-c", "exit 7"])).unwrap();
        let out = run(&opts).expect("wrap run");
        assert_eq!(out.exit_code, 7);
    }

    #[test]
    fn logs_written_when_requested() {
        let dir = std::env::temp_dir().join(format!("zs-cli-{}", std::process::id()));
        let opts = parse_args(&s(&[
            "--period-ms",
            "50",
            "--log-dir",
            dir.to_str().unwrap(),
            "--rank",
            "2",
            "--",
            "/bin/sh",
            "-c",
            "exit 0",
        ]))
        .unwrap();
        let out = run(&opts).expect("wrap run");
        assert_eq!(out.logs.len(), 1);
        assert!(out.logs[0].ends_with("zerosum.00002.log"));
        let content = std::fs::read_to_string(&out.logs[0]).unwrap();
        assert!(content.contains("=== LWP time series (CSV) ==="));
        std::fs::remove_dir_all(&dir).ok();
    }
}
