//! Live self-monitoring on a real Linux system.
//!
//! The paper's ZeroSum is injected via `LD_PRELOAD` and spawns an
//! asynchronous thread at startup. A Rust application links this crate
//! instead and calls [`SelfMonitor::start`]: a background thread samples
//! the *calling process* through the real `/proc` at the configured
//! period until [`SelfMonitor::stop`] collects the monitor and its data.
//! This is the "always-on monitoring library" usage mode.
//!
//! The monitor thread owns its [`Monitor`] and its source outright, as
//! the paper's thread does (§3.1): no other thread touches either while
//! the session runs, so neither sits behind a lock. A caller that wants
//! to see each sample — the wrapper's `--heartbeat` — hands
//! [`SelfMonitor::start_for_pid`] a callback the monitor thread runs
//! right after each one.

use crate::config::ZeroSumConfig;
use crate::monitor::{Monitor, ProcessInfo};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use zerosum_proc::{LinuxProc, ProcSource as _, SourceError};

/// A running self-monitoring session.
pub struct SelfMonitor {
    stop: Arc<AtomicBool>,
    /// The monitor thread; it hands the monitor and the session's source
    /// back when it ends, for the final sample.
    handle: Option<JoinHandle<(Monitor, LinuxProc)>>,
    started: Instant,
}

/// Reads the node hostname from `/proc` (no libc).
pub fn hostname() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "localhost".to_string())
}

/// The monitor thread's next deadline, as an offset from the session
/// start: the first `last + k·period` (`k ≥ 1`) after `now`. Deadlines
/// keep their phase, so a round's own cost does not stretch the period;
/// ticks a late round missed are skipped, not replayed in a burst; and
/// a changed `period` counts from the deadline just taken.
fn next_wake(now: Duration, last: Duration, period: Duration) -> Duration {
    let period = period.max(Duration::from_nanos(1));
    let missed = now.saturating_sub(last).as_nanos() / period.as_nanos();
    let k = u32::try_from(missed + 1).unwrap_or(u32::MAX);
    last + period.saturating_mul(k)
}

impl SelfMonitor {
    /// Starts monitoring the calling process, and installs the panic
    /// hook that reports its abnormal exit
    /// ([`crate::signal::install_panic_hook`]: once per process, tagged
    /// with the first session's rank).
    ///
    /// `rank` tags the process for the report (pass the MPI rank when
    /// running under a launcher).
    pub fn start(config: ZeroSumConfig, rank: Option<u32>) -> Result<Self, SourceError> {
        let src = LinuxProc::new();
        let pid = src.self_pid()?;
        crate::signal::install_panic_hook(rank);
        Self::start_with(src, config, pid, rank, |_| {})
    }

    /// Starts monitoring an arbitrary live process — the `zerosum`
    /// launcher-wrapper mode (§4's `srun -n8 zerosum-mpi miniqmc`): the
    /// wrapper spawns the application as a child and watches it from
    /// outside through `/proc/<pid>`. The monitor thread calls
    /// `on_sample` right after each periodic sample (live heartbeats or
    /// steering exports, §3.6); [`SelfMonitor::stop`]'s final sample is
    /// not one of them. No panic hook is installed: the watched process
    /// owns its own exit, and the caller reports it.
    pub fn start_for_pid(
        config: ZeroSumConfig,
        pid: zerosum_proc::Pid,
        rank: Option<u32>,
        on_sample: impl FnMut(&Monitor) + Send + 'static,
    ) -> Result<Self, SourceError> {
        Self::start_with(LinuxProc::new(), config, pid, rank, on_sample)
    }

    /// One source serves the whole session, and it is built by the
    /// caller's thread before the monitor thread exists: a wrapper and
    /// an early attach are single-threaded then, which is when
    /// `LinuxProc::new` can size the fd table for free.
    fn start_with(
        src: LinuxProc,
        config: ZeroSumConfig,
        pid: zerosum_proc::Pid,
        rank: Option<u32>,
        mut on_sample: impl FnMut(&Monitor) + Send + 'static,
    ) -> Result<Self, SourceError> {
        // Initial configuration detection: capture the process mask now,
        // before any runtime rebinding (the __libc_start_main moment).
        let cpus_allowed = src
            .process_status(pid)
            .map(|s| s.cpus_allowed)
            .unwrap_or_default();
        let mut monitor = Monitor::new(config.clone());
        monitor.watch_process(ProcessInfo {
            pid,
            rank,
            hostname: hostname(),
            gpus: vec![],
            cpus_allowed,
        });
        let stop = Arc::new(AtomicBool::new(false));
        let started = Instant::now();
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(crate::signal::MONITOR_THREAD.to_string())
                .spawn(move || {
                    // First sample immediately (initial configuration
                    // detection), then at every deadline.
                    let mut due = Duration::ZERO;
                    loop {
                        monitor.sample(started.elapsed().as_secs_f64(), &src);
                        on_sample(&monitor);
                        let period = Duration::from_micros(monitor.effective_period_us());
                        due = next_wake(started.elapsed(), due, period);
                        // `stop()` unparks: the flag is checked on
                        // every wake, spurious ones included.
                        loop {
                            if stop.load(Ordering::Relaxed) {
                                return (monitor, src);
                            }
                            let now = started.elapsed();
                            if now >= due {
                                break;
                            }
                            std::thread::park_timeout(due - now);
                        }
                    }
                })
                .expect("spawn ZeroSum monitor thread")
        };
        Ok(SelfMonitor {
            stop,
            handle: Some(handle),
            started,
        })
    }

    /// Stops the monitor thread and joins it: what it returns, or the
    /// panic that ended it. `None` once already halted.
    fn halt(&mut self) -> Option<std::thread::Result<(Monitor, LinuxProc)>> {
        self.stop.store(true, Ordering::Relaxed);
        let handle = self.handle.take()?;
        handle.thread().unpark();
        Some(handle.join())
    }

    /// Stops the background thread, takes a final sample, and returns the
    /// monitor plus the run duration in seconds.
    ///
    /// Resumes the panic of a monitor thread that died: only the
    /// `on_sample` callback can panic there, as `Monitor::sample`
    /// contains its own.
    pub fn stop(mut self) -> (Monitor, f64) {
        let joined = self.halt().expect("a session is stopped once");
        let (mut monitor, src) = joined.unwrap_or_else(|p| std::panic::resume_unwind(p));
        let duration = self.started.elapsed().as_secs_f64();
        monitor.sample(duration, &src);
        (monitor, duration)
    }
}

impl Drop for SelfMonitor {
    fn drop(&mut self) {
        let _ = self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn self_monitoring_observes_this_process() {
        let cfg = ZeroSumConfig {
            period_us: 50_000, // 20 Hz so the test is quick
            ..Default::default()
        };
        // This process, by pid: `start` would install the process-wide
        // panic hook in a test binary whose other tests panic on purpose.
        let sm =
            SelfMonitor::start_for_pid(cfg, std::process::id(), Some(0), |_| {}).expect("start");
        // Burn some CPU so utilization is visible.
        let mut acc = 0u64;
        let until = Instant::now() + Duration::from_millis(300);
        while Instant::now() < until {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        std::hint::black_box(acc);
        let (mon, dur) = sm.stop();
        assert!(dur >= 0.3);
        // The thread sampled on its own before the final sample.
        assert!(mon.stats.rounds >= 2, "{} rounds", mon.stats.rounds);
        let w = &mon.processes()[0];
        // At least the main thread and the ZeroSum thread were seen.
        assert!(w.lwps.len() >= 2, "saw {} threads", w.lwps.len());
        let zs = w
            .lwps
            .tracks()
            .find(|t| t.kind == crate::lwp::LwpKind::ZeroSum);
        assert!(zs.is_some(), "ZeroSum thread classified by name");
        // Report renders with real data.
        let rep = report::render_process_report(&mon, w.info.pid, dur, None);
        assert!(rep.contains("Process Summary:"));
        assert!(rep.contains("Hardware Summary:"));
        assert!(!w.cpus_allowed.is_empty());
    }

    #[test]
    fn the_callback_sees_every_sample_but_the_final_one() {
        let cfg = ZeroSumConfig {
            period_us: 20_000,
            ..Default::default()
        };
        let calls = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&calls);
        let sm = SelfMonitor::start_for_pid(cfg, std::process::id(), None, move |m| {
            // Each call sees the round it follows.
            assert_eq!(m.stats.rounds, seen.fetch_add(1, Ordering::SeqCst) + 1);
        })
        .expect("start");
        std::thread::sleep(Duration::from_millis(150));
        let (mon, _) = sm.stop();
        assert!(mon.stats.rounds >= 2, "{} rounds", mon.stats.rounds);
        assert_eq!(calls.load(Ordering::SeqCst), mon.stats.rounds - 1);
    }

    #[test]
    fn next_wake_keeps_the_phase_and_skips_missed_ticks() {
        let ms = Duration::from_millis;
        let (last, period) = (ms(1_000), ms(10));
        // On time: a round that ended inside its period wakes at the
        // next deadline, however long it ran.
        assert_eq!(next_wake(last + ms(3), last, period), ms(1_010));
        assert_eq!(next_wake(last, last, period), ms(1_010));
        // 2.5 periods late: the deadlines at 1 010 and 1 020 are
        // skipped, not replayed.
        assert_eq!(next_wake(last + ms(25), last, period), ms(1_030));
        // A widened period takes effect at the next deadline.
        assert_eq!(next_wake(last + ms(1), last, ms(20)), ms(1_020));
        assert_eq!(next_wake(ms(1_021), ms(1_020), ms(20)), ms(1_040));
    }

    #[test]
    fn hostname_is_nonempty() {
        assert!(!hostname().is_empty());
    }
}
