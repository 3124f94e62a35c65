//! Abnormal-exit reporting (§3.1).
//!
//! The paper's ZeroSum optionally installs a signal handler to report a
//! backtrace on segmentation violations, bus errors, and other abnormal
//! exits, and still leaves a complete log. Installing real signal
//! handlers requires `unsafe` libc interop, so the report comes from
//! whoever owns the [`Monitor`](crate::Monitor) when the process dies:
//!
//! * the `zerosum` wrapper watches its child from outside, learns the
//!   signal that ended it from the exit status, names it with
//!   [`AbnormalExit::from_signal`], prints [`crash_header`] and writes
//!   the partial logs ([`crate::export::write_partial_logs`]) from the
//!   monitor it holds after the session stopped;
//! * a self-attached application ([`crate::SelfMonitor::start`]) gets a
//!   Rust panic hook ([`install_panic_hook`]), the abnormal-exit path of
//!   a Rust program, which prints [`crash_report`] — cause, identity and
//!   backtrace — for a panic on any thread but the monitor's own.

use std::backtrace::Backtrace;
use std::fmt::Write as _;

/// The name of the monitor thread every session spawns.
pub(crate) const MONITOR_THREAD: &str = "ZeroSum";

/// The abnormal-exit causes ZeroSum reports on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbnormalExit {
    /// SIGSEGV — invalid memory reference.
    SegmentationViolation,
    /// SIGBUS — bus error.
    BusError,
    /// SIGFPE — arithmetic fault.
    FloatingPointException,
    /// SIGILL — illegal instruction.
    IllegalInstruction,
    /// SIGABRT / Rust panic.
    Abort,
}

impl AbnormalExit {
    /// The conventional signal name.
    pub fn signal_name(self) -> &'static str {
        match self {
            AbnormalExit::SegmentationViolation => "SIGSEGV",
            AbnormalExit::BusError => "SIGBUS",
            AbnormalExit::FloatingPointException => "SIGFPE",
            AbnormalExit::IllegalInstruction => "SIGILL",
            AbnormalExit::Abort => "SIGABRT",
        }
    }

    /// The cause a Linux signal number stands for, when it is one of the
    /// five crash signals; `None` for any other (`SIGKILL`, `SIGTERM`,
    /// `SIGINT`, …), which a report names by its number.
    pub fn from_signal(signal: i32) -> Option<Self> {
        match signal {
            11 => Some(AbnormalExit::SegmentationViolation),
            7 => Some(AbnormalExit::BusError),
            8 => Some(AbnormalExit::FloatingPointException),
            4 => Some(AbnormalExit::IllegalInstruction),
            6 => Some(AbnormalExit::Abort),
            _ => None,
        }
    }
}

/// The cause and identity lines an abnormal-exit report opens with.
pub fn crash_header(cause: &str, pid: u32, rank: Option<u32>) -> String {
    let mut out = String::new();
    writeln!(out, "ZeroSum: abnormal exit — {cause}").unwrap();
    match rank {
        Some(r) => writeln!(out, "ZeroSum: MPI {r:03} - PID {pid}").unwrap(),
        None => writeln!(out, "ZeroSum: PID {pid}").unwrap(),
    }
    out
}

/// Formats the crash report ZeroSum writes before the process dies:
/// cause, process identity, and a backtrace of the calling thread.
pub fn crash_report(cause: AbnormalExit, pid: u32, rank: Option<u32>) -> String {
    let bt = Backtrace::force_capture();
    let mut out = crash_header(cause.signal_name(), pid, rank);
    writeln!(out, "ZeroSum: backtrace follows").unwrap();
    writeln!(out, "{bt}").unwrap();
    out
}

/// The report a panic on the thread named `thread` prints: none on the
/// monitor thread, whose round panics the sampling supervisor contains
/// and whose callback panics resurface on the application's thread
/// through [`crate::SelfMonitor::stop`], where they are reported.
fn panic_report(thread: Option<&str>, rank: Option<u32>) -> Option<String> {
    (thread != Some(MONITOR_THREAD))
        .then(|| crash_report(AbnormalExit::Abort, std::process::id(), rank))
}

/// Installs, once per process, a Rust panic hook that prints a ZeroSum
/// crash report to stderr before delegating to the previous hook — the
/// Rust-native equivalent of the paper's signal handler. Later calls
/// leave the installed hook as it is.
pub fn install_panic_hook(rank: Option<u32>) {
    static INSTALLED: std::sync::Once = std::sync::Once::new();
    INSTALLED.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Some(report) = panic_report(std::thread::current().name(), rank) {
                // Write directly (not via `eprintln!`) so a closed
                // stderr cannot turn the report into a second panic.
                use std::io::Write as _;
                let _ = writeln!(std::io::stderr(), "{report}");
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_names() {
        assert_eq!(AbnormalExit::SegmentationViolation.signal_name(), "SIGSEGV");
        assert_eq!(AbnormalExit::BusError.signal_name(), "SIGBUS");
        assert_eq!(AbnormalExit::Abort.signal_name(), "SIGABRT");
    }

    #[test]
    fn the_five_crash_signals_map_and_others_do_not() {
        let named: Vec<_> = [11, 7, 8, 4, 6]
            .into_iter()
            .map(|s| AbnormalExit::from_signal(s).map(AbnormalExit::signal_name))
            .collect();
        let want = ["SIGSEGV", "SIGBUS", "SIGFPE", "SIGILL", "SIGABRT"];
        assert_eq!(named, want.map(Some));
        for other in [9, 15, 2, 0] {
            assert_eq!(AbnormalExit::from_signal(other), None, "signal {other}");
        }
    }

    #[test]
    fn crash_report_contains_identity_and_backtrace_header() {
        let rep = crash_report(AbnormalExit::SegmentationViolation, 4242, Some(3));
        assert!(
            rep.starts_with("ZeroSum: abnormal exit — SIGSEGV\n"),
            "{rep}"
        );
        assert!(rep.contains("MPI 003 - PID 4242"));
        assert!(rep.contains("backtrace follows"));
    }

    #[test]
    fn crash_report_without_rank() {
        let rep = crash_report(AbnormalExit::FloatingPointException, 7, None);
        assert!(rep.contains("PID 7"));
        assert!(!rep.contains("MPI"));
    }

    #[test]
    fn a_panic_on_the_monitor_thread_prints_no_report() {
        assert_eq!(panic_report(Some(MONITOR_THREAD), Some(0)), None);
        for thread in [Some("main"), Some("ZeroSum-worker"), None] {
            let rep = panic_report(thread, Some(0)).expect("an application thread reports");
            assert!(rep.contains("SIGABRT"), "{rep}");
        }
    }
}
