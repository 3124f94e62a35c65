//! The virtual-time monitoring driver.
//!
//! Couples a [`NodeSim`] with a [`Monitor`]: ZeroSum's asynchronous
//! thread is spawned *into the simulation* as a real scheduled task (so
//! its CPU cost perturbs the application exactly as in §4.1's overhead
//! study), while the sampling itself executes at the same virtual
//! instants against the simulated `/proc`.

use crate::gpu_link::SimGpuLink;
use crate::heartbeat::{Liveness, ProgressTracker};
use crate::monitor::Monitor;
use zerosum_proc::fault::FaultInjector;
use zerosum_proc::Tid;
use zerosum_sched::{Behavior, NodeSim, SimProcSource};
use zerosum_topology::CpuSet;

/// Result of a monitored virtual run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Application duration in virtual seconds (exact completion time).
    pub duration_s: f64,
    /// False if the run hit `max_us` before the application finished.
    pub completed: bool,
    /// Number of monitor samples taken.
    pub samples: u64,
    /// Liveness classification per sample (§3.3).
    pub liveness: Vec<Liveness>,
}

/// Spawns the ZeroSum monitor thread into every watched process.
///
/// Each thread is pinned to the last hardware thread of the process
/// mask (the whole mask if it is empty) — the paper's default placement
/// — and modeled as a periodic task costing `config.cost` per sample:
/// the §3.1 asynchronous thread.
pub fn attach_monitor_threads(sim: &mut NodeSim, monitor: &Monitor) -> Vec<Tid> {
    let mut tids = Vec::new();
    for w in monitor.processes() {
        let pid = w.info.pid;
        let Some(p) = sim.process(pid) else { continue };
        let mask = &p.cpus_allowed;
        let affinity = mask.last().map_or_else(|| mask.clone(), CpuSet::single);
        let tid = sim.spawn_task(
            pid,
            "ZeroSum",
            Some(affinity),
            Behavior::Periodic {
                period_us: monitor.config.period_us,
                sys_us: monitor.config.cost.sys_us,
                user_us: monitor.config.cost.user_us,
            },
            true,
        );
        tids.push(tid);
    }
    tids
}

/// Runs the simulation to application completion (or `max_us`) while
/// sampling every `monitor.config.period_us`.
pub fn run_monitored(
    sim: &mut NodeSim,
    monitor: &mut Monitor,
    gpu: Option<&mut SimGpuLink>,
    max_us: u64,
) -> RunOutcome {
    run_monitored_impl(sim, monitor, gpu, max_us, None)
}

/// Like [`run_monitored`], but every `/proc` read passes through the
/// given fault injector — the chaos harness's entry point. Injected
/// latency and the monitor's retry backoff are charged to virtual time
/// after each sample, so slow or flaky reads perturb the application the
/// way they would on a real node.
pub fn run_monitored_faulty(
    sim: &mut NodeSim,
    monitor: &mut Monitor,
    gpu: Option<&mut SimGpuLink>,
    max_us: u64,
    injector: &FaultInjector,
) -> RunOutcome {
    run_monitored_impl(sim, monitor, gpu, max_us, Some(injector))
}

fn run_monitored_impl(
    sim: &mut NodeSim,
    monitor: &mut Monitor,
    mut gpu: Option<&mut SimGpuLink>,
    max_us: u64,
    injector: Option<&FaultInjector>,
) -> RunOutcome {
    let start_us = sim.now_us();
    let deadline = start_us + max_us;
    let mut tracker = ProgressTracker::new();
    let mut liveness = Vec::new();
    let mut completed = false;
    let sample_once = |sim: &mut NodeSim, monitor: &mut Monitor, t_s: f64| {
        {
            let src = SimProcSource::new(sim);
            match injector {
                Some(inj) => monitor.sample(t_s, &inj.wrap(&src)),
                None => monitor.sample(t_s, &src),
            }
        }
        // Charge injected read latency and retry backoff to the clock:
        // monitoring cost the application real time.
        let extra = monitor.take_backoff_us() + injector.map(|i| i.drain_latency_us()).unwrap_or(0);
        if extra > 0 {
            sim.run_for(extra);
        }
        // Overload control: report this round's full measured cost (cost
        // model + backoff + injected latency) so the governor can widen
        // the period and the watchdog can shed detail.
        monitor.note_round_cost(t_s, monitor.config.cost.total_us() + extra);
    };
    // Initial configuration detection (§3, phase 1): observe the process
    // and thread state immediately at startup.
    sample_once(sim, monitor, 0.0);
    while sim.now_us() < deadline {
        // Re-read each round: the overhead governor may have widened the
        // effective period since the last one.
        let period = monitor.effective_period_us().max(1_000);
        let budget = period.min(deadline - sim.now_us());
        // Advance up to one period, stopping exactly when the app exits.
        if sim.run_until_apps_done(budget).is_some() {
            completed = true;
        }
        let t_s = (sim.now_us() - start_us) as f64 / 1e6;
        sample_once(sim, monitor, t_s);
        if let Some(link) = gpu.as_deref_mut() {
            link.poll(sim, budget as f64 / 1e6);
        }
        liveness.push(tracker.assess(monitor));
        if completed {
            break;
        }
    }
    RunOutcome {
        duration_s: (sim.now_us() - start_us) as f64 / 1e6,
        completed,
        samples: monitor.stats.rounds,
        liveness,
    }
}

/// Runs the same application *without* any monitor — the §4.1 baseline.
/// Returns the duration in seconds, or `None` on timeout.
pub fn run_baseline(sim: &mut NodeSim, max_us: u64) -> Option<f64> {
    let start = sim.now_us();
    // Same exact-tick completion detection as the monitored path, so
    // overhead comparisons are unbiased.
    sim.run_until_apps_done(max_us)
        .map(|done| (done - start) as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MonitorCost, ZeroSumConfig};
    use crate::monitor::ProcessInfo;
    use zerosum_sched::SchedParams;
    use zerosum_topology::presets;

    fn app_sim(work_ms: u64) -> (NodeSim, u32) {
        let mut sim = NodeSim::new(presets::laptop_i7_1165g7(), SchedParams::default());
        let pid = sim.spawn_process(
            "app",
            CpuSet::from_indices([0u32, 1]),
            1_024,
            Behavior::FiniteCompute {
                remaining_us: work_ms * 1_000,
                chunk_us: 10_000,
            },
        );
        (sim, pid)
    }

    #[test]
    fn monitored_run_completes_and_samples() {
        let (mut sim, pid) = app_sim(3_500);
        let mut mon = Monitor::new(ZeroSumConfig::default().with_period_ms(1_000));
        mon.watch_process(ProcessInfo {
            pid,
            rank: Some(0),
            hostname: "n".into(),
            gpus: vec![],
            cpus_allowed: Default::default(),
        });
        let tids = attach_monitor_threads(&mut sim, &mon);
        assert_eq!(tids.len(), 1);
        // Monitor pinned to the last HWT of the mask (CPU 1).
        assert_eq!(
            sim.task_by_tid(tids[0]).unwrap().affinity.to_list_string(),
            "1"
        );
        let out = run_monitored(&mut sim, &mut mon, None, 60_000_000);
        assert!(out.completed);
        assert!((3.4..4.2).contains(&out.duration_s), "{}", out.duration_s);
        assert!(out.samples >= 3);
        // The monitor thread shows up in the LWP registry as ZeroSum.
        let w = mon.process(pid).unwrap();
        assert!(w
            .lwps
            .tracks()
            .any(|t| t.kind == crate::lwp::LwpKind::ZeroSum));
        assert!(out
            .liveness
            .iter()
            .all(|l| matches!(l, Liveness::Progressing | Liveness::Finished)));
    }

    #[test]
    fn timeout_reports_incomplete() {
        let (mut sim, pid) = app_sim(50_000);
        let mut mon = Monitor::new(ZeroSumConfig::default());
        mon.watch_process(ProcessInfo {
            pid,
            rank: None,
            hostname: "n".into(),
            gpus: vec![],
            cpus_allowed: Default::default(),
        });
        let out = run_monitored(&mut sim, &mut mon, None, 2_000_000);
        assert!(!out.completed);
        assert!((1.9..2.1).contains(&out.duration_s));
    }

    #[test]
    fn heartbeat_line_describes_a_monitored_run() {
        let (mut sim, pid) = app_sim(2_500);
        let mut mon = Monitor::new(ZeroSumConfig::default());
        mon.watch_process(ProcessInfo {
            pid,
            rank: None,
            hostname: "n".into(),
            gpus: vec![],
            cpus_allowed: Default::default(),
        });
        let out = run_monitored(&mut sim, &mut mon, None, 60_000_000);
        let line = ProgressTracker::new().heartbeat_line(&mon, out.duration_s);
        assert!(line.starts_with("ZeroSum: t="), "{line}");
        assert!(line.contains("s, 1 process(es), "), "{line}");
        assert!(line.ends_with(&format!("sample {}", out.samples)), "{line}");
    }

    #[test]
    fn governor_widens_period_during_run_and_records_changes() {
        let (mut sim, pid) = app_sim(10_000);
        // 50 ms/round: 5x the 1% budget at 1 Hz. The governor must walk
        // the period out to 8 s (budget 80 ms > cost) within 5 rounds.
        let mut mon = Monitor::new(ZeroSumConfig {
            cost: MonitorCost {
                sys_us: 35_000,
                user_us: 15_000,
            },
            ..ZeroSumConfig::default()
        });
        mon.watch_process(ProcessInfo {
            pid,
            rank: None,
            hostname: "n".into(),
            gpus: vec![],
            cpus_allowed: Default::default(),
        });
        let out = run_monitored(&mut sim, &mut mon, None, 60_000_000);
        assert!(out.completed);
        assert_eq!(mon.effective_period_us(), 8_000_000);
        let c = &mon.governor.changes;
        assert_eq!(c.len(), 3, "1s -> 2s -> 4s -> 8s, each recorded");
        assert!(c.windows(2).all(|w| w[0].to_us == w[1].from_us));
        assert!(c.iter().all(|ch| ch.cost_us > ch.budget_us));
        // Widening really throttled sampling: ~10 s of app in few rounds.
        assert!(out.samples <= 6, "sampled {} times", out.samples);
    }

    #[test]
    fn baseline_matches_unperturbed_runtime() {
        let (mut sim, _) = app_sim(2_000);
        let d = run_baseline(&mut sim, 60_000_000).unwrap();
        assert!((1.9..2.3).contains(&d), "{d}");
    }

    #[test]
    fn monitor_cost_perturbs_saturated_core() {
        // Two busy threads on one core + monitor on the same core: the
        // monitored run must be measurably slower than baseline — the
        // Figure 8 two-threads-per-core mechanism.
        let mk = || {
            let mut sim = NodeSim::new(presets::laptop_i7_1165g7(), SchedParams::default());
            let pid = sim.spawn_process(
                "app",
                CpuSet::single(0),
                64,
                Behavior::FiniteCompute {
                    remaining_us: 5_000_000,
                    chunk_us: 10_000,
                },
            );
            sim.spawn_task(
                pid,
                "w2",
                None,
                Behavior::FiniteCompute {
                    remaining_us: 5_000_000,
                    chunk_us: 10_000,
                },
                false,
            );
            (sim, pid)
        };
        let (mut base_sim, _) = mk();
        let base = run_baseline(&mut base_sim, 120_000_000).unwrap();
        let (mut mon_sim, pid) = mk();
        // The process mask is one HWT: the monitor thread shares it.
        let mut mon = Monitor::new(ZeroSumConfig {
            cost: MonitorCost {
                sys_us: 35_000,
                user_us: 15_000,
            },
            ..ZeroSumConfig::default()
        });
        mon.watch_process(ProcessInfo {
            pid,
            rank: None,
            hostname: "n".into(),
            gpus: vec![],
            cpus_allowed: Default::default(),
        });
        attach_monitor_threads(&mut mon_sim, &mon);
        let out = run_monitored(&mut mon_sim, &mut mon, None, 120_000_000);
        assert!(out.completed);
        // 50 ms of monitor CPU per second stolen from the saturated core.
        assert!(
            out.duration_s > base * 1.02,
            "base {base}, monitored {}",
            out.duration_s
        );
    }
}
