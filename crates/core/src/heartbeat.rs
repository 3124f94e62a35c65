//! Progress detection and heartbeats (§3.3).
//!
//! ZeroSum "has the ability to periodically write data to stdout
//! indicating that at a minimum, the application is viable", and the
//! paper sketches deadlock detection from the per-LWP idle/user/system
//! counters and states as future work. Both are implemented here: a
//! heartbeat line per sample, and a stall detector that flags windows in
//! which no application thread consumed CPU.

use crate::lwp::LwpKind;
use crate::monitor::Monitor;
use zerosum_proc::TaskState;

/// Consecutive no-progress windows before flagging a possible deadlock.
pub const DEADLOCK_WINDOWS: u32 = 5;

/// The liveness classification of the application at a sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Liveness {
    /// At least one application thread consumed CPU recently.
    Progressing,
    /// No CPU consumed for fewer windows than the deadlock threshold.
    Stalled {
        /// Consecutive no-progress windows so far.
        windows: u32,
    },
    /// No progress for at least [`DEADLOCK_WINDOWS`] windows while
    /// threads still exist — a possible deadlock.
    PossibleDeadlock {
        /// Consecutive no-progress windows.
        windows: u32,
        /// Number of threads blocked in sleep states.
        blocked_threads: usize,
    },
    /// Every application thread has exited.
    Finished,
}

/// Tracks progress across samples.
#[derive(Debug, Default)]
pub struct ProgressTracker {
    stall_windows: u32,
}

impl ProgressTracker {
    /// A fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Classifies liveness from the monitor's latest state and updates
    /// the stall counter. Call once per sample.
    pub fn assess(&mut self, monitor: &Monitor) -> Liveness {
        let mut any_live_thread = false;
        let mut any_progress = false;
        let mut blocked = 0usize;
        for w in monitor.processes() {
            // Main and OpenMP threads only, not the contention report's
            // busy set: a helper thread spinning in a runtime loop must
            // not read as progress while the team is stalled.
            for t in w.lwps.tracks() {
                if t.exited || t.kind == LwpKind::ZeroSum || t.kind == LwpKind::Other {
                    continue;
                }
                any_live_thread = true;
                if t.progressed_recently(1) {
                    any_progress = true;
                }
                if let Some(s) = t.last() {
                    if matches!(s.state, TaskState::Sleeping | TaskState::DiskSleep) {
                        blocked += 1;
                    }
                }
            }
        }
        if !any_live_thread {
            self.stall_windows = 0;
            return Liveness::Finished;
        }
        if any_progress {
            self.stall_windows = 0;
            return Liveness::Progressing;
        }
        self.stall_windows += 1;
        if self.stall_windows >= DEADLOCK_WINDOWS {
            Liveness::PossibleDeadlock {
                windows: self.stall_windows,
                blocked_threads: blocked,
            }
        } else {
            Liveness::Stalled {
                windows: self.stall_windows,
            }
        }
    }

    /// The heartbeat line written to stdout each period.
    pub fn heartbeat_line(&self, monitor: &Monitor, t_s: f64) -> String {
        let threads: usize = monitor
            .processes()
            .iter()
            .map(|w| w.lwps.tracks().filter(|t| !t.exited).count())
            .sum();
        format!(
            "ZeroSum: t={t_s:.0}s, {} process(es), {} live thread(s), sample {}",
            monitor.processes().len(),
            threads,
            monitor.stats.rounds
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ZeroSumConfig;
    use crate::monitor::ProcessInfo;
    use zerosum_proc::Pid;
    use zerosum_sched::{Behavior, NodeSim, SchedParams, SimProcSource};
    use zerosum_topology::{presets, CpuSet};

    fn setup(behavior: Behavior) -> (NodeSim, Monitor, Pid) {
        let mut sim = NodeSim::new(presets::laptop_i7_1165g7(), SchedParams::default());
        let pid = sim.spawn_process("app", CpuSet::single(0), 64, behavior);
        let mut mon = Monitor::new(ZeroSumConfig::default());
        mon.watch_process(ProcessInfo {
            pid,
            rank: None,
            hostname: "n".into(),
            gpus: vec![],
            cpus_allowed: Default::default(),
        });
        (sim, mon, pid)
    }

    #[test]
    fn busy_app_is_progressing() {
        let (mut sim, mut mon, _) = setup(Behavior::FiniteCompute {
            remaining_us: 10_000_000,
            chunk_us: 10_000,
        });
        let mut tracker = ProgressTracker::new();
        for i in 1..=3u64 {
            sim.run_for(1_000_000);
            mon.sample(i as f64, &SimProcSource::new(&sim));
        }
        assert_eq!(tracker.assess(&mon), Liveness::Progressing);
        let hb = tracker.heartbeat_line(&mon, 3.0);
        assert!(hb.contains("1 process(es)"));
        assert!(hb.contains("1 live thread(s)"));
    }

    #[test]
    fn sleeping_app_escalates_to_deadlock() {
        let (mut sim, mut mon, _) = setup(Behavior::Sleeper);
        let mut tracker = ProgressTracker::new();
        let mut last = Liveness::Progressing;
        for i in 1..=u64::from(DEADLOCK_WINDOWS) + 1 {
            sim.run_for(1_000_000);
            mon.sample(i as f64, &SimProcSource::new(&sim));
            last = tracker.assess(&mon);
        }
        match last {
            Liveness::PossibleDeadlock {
                windows,
                blocked_threads,
            } => {
                assert!(windows >= DEADLOCK_WINDOWS);
                assert_eq!(blocked_threads, 1);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn finished_app_reports_finished() {
        let (mut sim, mut mon, _) = setup(Behavior::FiniteCompute {
            remaining_us: 100_000,
            chunk_us: 10_000,
        });
        let mut tracker = ProgressTracker::new();
        sim.run_until_apps_done(60_000_000).unwrap();
        mon.sample(1.0, &SimProcSource::new(&sim));
        assert_eq!(tracker.assess(&mon), Liveness::Finished);
    }

    #[test]
    fn deadlock_fires_exactly_at_threshold_window() {
        // Windows 1 to DEADLOCK_WINDOWS - 1 are Stalled, window
        // DEADLOCK_WINDOWS — not one before, not one after — escalates,
        // and the count is carried verbatim.
        let (mut sim, mut mon, _) = setup(Behavior::Sleeper);
        let mut tracker = ProgressTracker::new();
        let mut seq = Vec::new();
        for i in 1..=u64::from(DEADLOCK_WINDOWS) + 2 {
            sim.run_for(1_000_000);
            mon.sample(i as f64, &SimProcSource::new(&sim));
            seq.push(tracker.assess(&mon));
        }
        // First observation of a new thread counts as progress; the
        // stall clock starts at the second sample.
        assert_eq!(seq[0], Liveness::Progressing);
        for windows in 1..DEADLOCK_WINDOWS {
            assert_eq!(seq[windows as usize], Liveness::Stalled { windows });
        }
        for windows in DEADLOCK_WINDOWS..=DEADLOCK_WINDOWS + 1 {
            assert_eq!(
                seq[windows as usize],
                Liveness::PossibleDeadlock {
                    windows,
                    blocked_threads: 1
                }
            );
        }
    }

    #[test]
    fn recovery_one_window_before_threshold_restarts_count() {
        // Stall right up to the edge (DEADLOCK_WINDOWS - 1 windows),
        // recover, then stall again: the counter restarts at 1 — a
        // recovered stall must not inherit the old window count.
        let (mut sim, mut mon, _) = setup(Behavior::FiniteCompute {
            remaining_us: 20_000_000,
            chunk_us: 10_000,
        });
        let mut tracker = ProgressTracker::new();
        sim.run_for(1_000_000);
        mon.sample(1.0, &SimProcSource::new(&sim));
        tracker.assess(&mon);
        let mut t_s = 1.0;
        for windows in 1..DEADLOCK_WINDOWS {
            t_s += 1.0;
            mon.sample(t_s, &SimProcSource::new(&sim));
            assert_eq!(tracker.assess(&mon), Liveness::Stalled { windows });
        }
        sim.run_for(1_000_000);
        mon.sample(t_s + 1.0, &SimProcSource::new(&sim));
        assert_eq!(tracker.assess(&mon), Liveness::Progressing);
        mon.sample(t_s + 2.0, &SimProcSource::new(&sim));
        assert_eq!(tracker.assess(&mon), Liveness::Stalled { windows: 1 });
    }

    #[test]
    fn finish_during_stalled_window_reports_finished_not_deadlock() {
        // The app stalls for two windows, then its last thread exits:
        // the next assessment is Finished (and stays Finished), never
        // passing through PossibleDeadlock.
        let (mut sim, mut mon, _) = setup(Behavior::FiniteCompute {
            remaining_us: 100_000,
            chunk_us: 10_000,
        });
        let mut tracker = ProgressTracker::new();
        sim.run_for(10_000);
        mon.sample(1.0, &SimProcSource::new(&sim));
        tracker.assess(&mon);
        mon.sample(2.0, &SimProcSource::new(&sim));
        assert_eq!(tracker.assess(&mon), Liveness::Stalled { windows: 1 });
        mon.sample(3.0, &SimProcSource::new(&sim));
        assert_eq!(tracker.assess(&mon), Liveness::Stalled { windows: 2 });
        sim.run_until_apps_done(60_000_000).unwrap();
        mon.sample(4.0, &SimProcSource::new(&sim));
        assert_eq!(tracker.assess(&mon), Liveness::Finished);
        mon.sample(5.0, &SimProcSource::new(&sim));
        assert_eq!(tracker.assess(&mon), Liveness::Finished);
    }

    #[test]
    fn stall_counter_resets_on_progress() {
        let (mut sim, mut mon, _) = setup(Behavior::FiniteCompute {
            remaining_us: 10_000_000,
            chunk_us: 10_000,
        });
        let mut tracker = ProgressTracker::new();
        sim.run_for(1_000_000);
        mon.sample(1.0, &SimProcSource::new(&sim));
        // Two samples with no intervening sim time: no progress.
        mon.sample(2.0, &SimProcSource::new(&sim));
        assert!(matches!(tracker.assess(&mon), Liveness::Stalled { .. }));
        sim.run_for(1_000_000);
        mon.sample(3.0, &SimProcSource::new(&sim));
        assert_eq!(tracker.assess(&mon), Liveness::Progressing);
    }
}
