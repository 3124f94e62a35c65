//! # zerosum-cli
//!
//! The `zerosum` launcher wrapper — the reproduction of the paper's
//! `zerosum-mpi` wrapper script (`srun -n8 zerosum-mpi miniqmc`): spawn
//! the application as a child process and monitor it *from outside*
//! through `/proc/<pid>`, then print the utilization report, contention
//! summary, and configuration-evaluation findings at exit.
//!
//! All the logic lives here in the library (unit-testable) — the
//! wrapper, and the flag table every subcommand's argv is read against
//! ([`flags`]); `main.rs` dispatches, prints and exits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fdprobe;
pub mod flags;

use std::path::PathBuf;
use std::process::Command;
use zerosum_core::{
    analyze, evaluate, export, render_findings, render_process_report, SelfMonitor, ZeroSumConfig,
};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// Sampling period, ms (`--period-ms`, default 1000 like the paper).
    pub period_ms: u64,
    /// Where to write the per-process log (`--log-dir`).
    pub log_dir: Option<PathBuf>,
    /// MPI rank (`--rank`, else auto-detected from the launcher
    /// environment).
    pub rank: Option<u32>,
    /// Pin the monitor thread to a hardware thread (`--monitor-hwt N`) —
    /// the paper's runtime-configurable monitor placement.
    pub monitor_hwt: Option<u32>,
    /// Suppress the stdout report on non-zero ranks (`--quiet-ranks`,
    /// default true; rank 0 always prints).
    pub quiet_ranks: bool,
    /// Print a live heartbeat line each period (`--heartbeat`) — the
    /// §3.3 "the application is viable" signal.
    pub heartbeat: bool,
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
        log_dir: parsed.text_of("--log-dir").map(PathBuf::from),
        rank: parsed.number_opt("--rank"),
        monitor_hwt: parsed.number_opt("--monitor-hwt"),
        quiet_ranks: !parsed.given("--verbose-ranks"),
        heartbeat: parsed.given("--heartbeat"),
        command: parsed.trailing.to_vec(),
    })
}

/// The wrapper's exit report.
#[derive(Debug)]
pub struct WrapOutcome {
    /// Child exit code (255 when terminated by a signal).
    pub exit_code: i32,
    /// The rendered report (printed on rank 0 / single-process runs).
    pub report: String,
    /// Paths of log files written, if a log dir was given.
    pub logs: Vec<PathBuf>,
}

/// Launches and monitors the command; blocks until it exits.
pub fn run(opts: &CliOptions) -> Result<WrapOutcome, String> {
    let rank = opts
        .rank
        .or_else(|| rank_from_env(|k| std::env::var(k).ok()));
    let mut config = ZeroSumConfig {
        period_us: opts.period_ms * 1_000,
        signal_handler: false, // the child owns its signal disposition
        ..Default::default()
    };
    if let Some(h) = opts.monitor_hwt {
        config.placement = zerosum_core::MonitorPlacement::Hwt(h);
    }
    let mut child = Command::new(&opts.command[0])
        .args(&opts.command[1..])
        .spawn()
        .map_err(|e| format!("failed to launch {:?}: {e}", opts.command[0]))?;
    let session = SelfMonitor::start_for_pid(config, child.id(), rank)
        .map_err(|e| format!("failed to attach monitor: {e}"))?;
    let status = if opts.heartbeat {
        // Poll so a heartbeat can be emitted every period while the
        // child runs.
        let period = std::time::Duration::from_millis(opts.period_ms);
        loop {
            match child.try_wait().map_err(|e| format!("wait failed: {e}"))? {
                Some(st) => break st,
                None => {
                    std::thread::sleep(period);
                    let line = session.with_monitor(|m| {
                        let threads: usize = m
                            .processes()
                            .iter()
                            .map(|w| w.lwps.tracks().filter(|t| !t.exited).count())
                            .sum();
                        format!(
                            "ZeroSum: t={:.0}s, {} live thread(s), sample {}",
                            session.elapsed_s(),
                            threads,
                            m.stats.rounds
                        )
                    });
                    // Direct write: a closed stderr must not kill the
                    // wrapper (`eprintln!` would panic).
                    use std::io::Write as _;
                    let _ = writeln!(std::io::stderr(), "{line}");
                }
            }
        }
    } else {
        child.wait().map_err(|e| format!("wait failed: {e}"))?
    };
    let (monitor, duration) = session.stop();
    let pid = monitor.processes()[0].info.pid;
    let mut report = render_process_report(&monitor, pid, duration, None);
    if let Some(c) = analyze(&monitor, pid) {
        report.push('\n');
        report.push_str(&c.render());
    }
    // Evaluate against the *discovered* topology of this machine.
    let topo = zerosum_topology::discover();
    report.push('\n');
    report.push_str(&render_findings(&evaluate(&monitor, &topo)));
    let logs = match &opts.log_dir {
        Some(dir) => export::write_logs(&monitor, dir, duration, |p| {
            render_process_report(&monitor, p, duration, None)
        })
        .map_err(|e| format!("failed to write logs: {e}"))?,
        None => Vec::new(),
    };
    Ok(WrapOutcome {
        exit_code: status.code().unwrap_or(255),
        report,
        logs,
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
            "--monitor-hwt",
            "71",
            "--",
            "miniqmc",
            "-g",
            "2 2 2",
        ]))
        .unwrap();
        assert_eq!(o.period_ms, 250);
        assert_eq!(o.log_dir, Some(PathBuf::from("/tmp/zs")));
        assert_eq!(o.rank, Some(3));
        assert_eq!(o.monitor_hwt, Some(71));
        assert_eq!(o.command, s(&["miniqmc", "-g", "2 2 2"]));
    }

    #[test]
    fn parse_bare_command_without_separator() {
        let o = parse_args(&s(&["sleep", "1"])).unwrap();
        assert_eq!(o.command, s(&["sleep", "1"]));
        assert_eq!(o.period_ms, 1_000); // the paper's default
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
