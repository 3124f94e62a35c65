//! Abnormal-exit reporting (§3.1).
//!
//! The paper's ZeroSum optionally installs a signal handler to report a
//! backtrace on segmentation violations, bus errors, and other abnormal
//! exits. Installing real signal handlers requires `unsafe` libc
//! interop; this reproduction provides the reporting half as a safe
//! library — capture a backtrace and format the crash report — plus a
//! Rust-native hook for panics, which are the analogous abnormal-exit
//! path in a Rust application.

use std::backtrace::Backtrace;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Registered abnormal-exit flush callbacks (e.g. partial-log writers).
/// The product's one lock: the panic path drains it from whichever
/// thread dies.
static CRASH_FLUSHES: Mutex<Vec<Box<dyn Fn() + Send>>> = Mutex::new(Vec::new());

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
}

/// Formats the crash report ZeroSum writes before the process dies:
/// cause, process identity, and a captured backtrace.
pub fn crash_report(cause: AbnormalExit, pid: u32, rank: Option<u32>) -> String {
    let bt = Backtrace::force_capture();
    let mut out = String::new();
    writeln!(
        out,
        "ZeroSum: abnormal exit — {} ({:?})",
        cause.signal_name(),
        cause
    )
    .unwrap();
    match rank {
        Some(r) => writeln!(out, "ZeroSum: MPI {r:03} - PID {pid}").unwrap(),
        None => writeln!(out, "ZeroSum: PID {pid}").unwrap(),
    }
    writeln!(out, "ZeroSum: backtrace follows").unwrap();
    writeln!(out, "{bt}").unwrap();
    out
}

/// Registers a callback to run on the abnormal-exit path — typically a
/// partial-log flush ([`crate::export::write_partial_logs`]) so a dying
/// application still leaves a complete, atomically-written log. Flushes
/// run in registration order from [`run_crash_flushes`] and from the
/// panic hook installed by [`install_panic_hook`].
pub fn register_crash_flush(f: impl Fn() + Send + 'static) {
    if let Ok(mut v) = CRASH_FLUSHES.lock() {
        v.push(Box::new(f));
    }
}

/// Runs every registered crash flush, isolating each in `catch_unwind`
/// so one failing flush cannot silence the rest. Returns the number of
/// callbacks that ran (panicking ones included). Uses `try_lock`: if the
/// registry is locked by the very code that is crashing, skipping the
/// flush beats deadlocking the exit path.
///
/// The registry lock is NOT held while callbacks run: flushes are
/// arbitrary closures that may acquire locks of their own or write
/// files, and either under the registry's guard is a finding of the
/// audit's blocking pass. The list is taken out, run unlocked, and put
/// back so callbacks stay registered for a later real crash.
pub fn run_crash_flushes() -> usize {
    let taken = {
        let Ok(mut flushes) = CRASH_FLUSHES.try_lock() else {
            return 0;
        };
        std::mem::take(&mut *flushes)
    };
    let mut ran = 0;
    for f in taken.iter() {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        ran += 1;
    }
    // Put the callbacks back, preserving registration order ahead of
    // anything registered while we were running.
    if let Ok(mut flushes) = CRASH_FLUSHES.lock() {
        let newer = std::mem::replace(&mut *flushes, taken);
        flushes.extend(newer);
    }
    ran
}

/// Empties the crash-flush registry (tests, or re-initialisation after
/// monitoring ends).
pub fn clear_crash_flushes() {
    if let Ok(mut v) = CRASH_FLUSHES.lock() {
        v.clear();
    }
}

/// The complete abnormal-exit path as a callable: run the registered
/// flushes, then produce the crash report. This is what a real signal
/// handler (or the panic hook below) executes before the process dies.
pub fn report_abnormal_exit(cause: AbnormalExit, pid: u32, rank: Option<u32>) -> String {
    run_crash_flushes();
    crash_report(cause, pid, rank)
}

/// Installs a Rust panic hook that runs the registered crash flushes and
/// prints a ZeroSum crash report to stderr before delegating to the
/// previous hook — the Rust-native equivalent of the paper's signal
/// handler. Returns nothing; safe to call once at startup.
pub fn install_panic_hook(rank: Option<u32>) {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let report = report_abnormal_exit(AbnormalExit::Abort, std::process::id(), rank);
        // Write directly (not via `eprintln!`) so a closed stderr cannot
        // turn the crash report itself into a second panic.
        use std::io::Write as _;
        let _ = writeln!(std::io::stderr(), "{report}");
        previous(info);
    }));
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
    fn crash_report_contains_identity_and_backtrace_header() {
        let rep = crash_report(AbnormalExit::SegmentationViolation, 4242, Some(3));
        assert!(rep.contains("SIGSEGV"));
        assert!(rep.contains("MPI 003 - PID 4242"));
        assert!(rep.contains("backtrace follows"));
    }

    #[test]
    fn crash_report_without_rank() {
        let rep = crash_report(AbnormalExit::FloatingPointException, 7, None);
        assert!(rep.contains("PID 7"));
        assert!(!rep.contains("MPI"));
    }

    // One test exercises the whole registry lifecycle: the registry is a
    // process-wide global, so splitting these into separate (parallel)
    // tests would race.
    #[test]
    fn crash_flush_registry_lifecycle() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        clear_crash_flushes();
        let hits = Arc::new(AtomicU32::new(0));
        let h1 = hits.clone();
        register_crash_flush(move || {
            h1.fetch_add(1, Ordering::SeqCst);
        });
        register_crash_flush(|| panic!("bad flush"));
        let h2 = hits.clone();
        register_crash_flush(move || {
            h2.fetch_add(10, Ordering::SeqCst);
        });
        // Silence the panic hook for the intentionally-bad flush.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let ran = run_crash_flushes();
        assert_eq!(ran, 3);
        assert_eq!(hits.load(Ordering::SeqCst), 11, "good flushes both ran");
        // The abnormal-exit path runs the flushes, then reports.
        let rep = report_abnormal_exit(AbnormalExit::BusError, 99, None);
        std::panic::set_hook(prev);
        assert_eq!(hits.load(Ordering::SeqCst) % 11, 0, "flushes ran again");
        assert!(rep.contains("SIGBUS"));
        clear_crash_flushes();
        assert_eq!(run_crash_flushes(), 0);
    }
}
