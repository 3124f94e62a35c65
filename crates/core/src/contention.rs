//! The contention report (§3.5).
//!
//! Quantifies the contention signals the paper identifies: non-voluntary
//! context switches (time-slicing pressure), system-call share (limited
//! resources), affinity overlaps between busy LWPs (over-subscription of
//! hardware threads), and memory pressure with attribution.

use crate::memory::MemPressureSource;
use crate::monitor::{Monitor, ProcessWatch};
use std::fmt::Write as _;
use zerosum_proc::{Pid, Tid};

/// A busy LWP is one on CPU for at least this fraction of wall time
/// between its first and last samples: filters idle helper threads out
/// of over-subscription analysis.
pub const BUSY_CPU_FRACTION: f64 = 0.10;

/// Contention metrics for one LWP.
#[derive(Debug, Clone)]
pub struct LwpContention {
    /// Thread id.
    pub tid: Tid,
    /// Total non-voluntary context switches.
    pub nvcsw: u64,
    /// Total voluntary context switches.
    pub vcsw: u64,
    /// Share of CPU time spent in system calls, percent.
    pub sys_share_pct: f64,
    /// Busy LWPs whose affinity overlaps this one's.
    pub overlaps_with: Vec<Tid>,
    /// Whether this LWP counts as busy: the one busy flag every rule
    /// reads.
    pub busy: bool,
    /// Runqueue wait observed via `schedstat`, seconds (when exposed).
    pub wait_s: Option<f64>,
}

/// The contention analysis of one process.
#[derive(Debug, Clone)]
pub struct ContentionReport {
    /// Per-LWP rows (busy and idle alike).
    pub lwps: Vec<LwpContention>,
    /// Hardware threads that two or more busy LWPs are bound to alone,
    /// with those LWPs.
    pub contended_hwts: Vec<(u32, Vec<Tid>)>,
    /// Busy LWPs per hardware thread of the process mask.
    pub oversubscription: f64,
    /// Memory-pressure diagnosis at the end of the run.
    pub memory: MemPressureSource,
}

/// Analyzes one monitored process.
pub fn analyze(monitor: &Monitor, pid: Pid) -> Option<ContentionReport> {
    let watch = monitor.process(pid)?;
    Some(analyze_watch(watch, monitor))
}

/// The contention analysis of one watch, its rows in
/// `watch.lwps.tracks()` order. The one place an LWP is judged busy:
/// the evaluator's rules read these rows' `busy` flags.
pub(crate) fn analyze_watch(watch: &ProcessWatch, monitor: &Monitor) -> ContentionReport {
    let tracks: Vec<_> = watch.lwps.tracks().collect();
    let busy: Vec<bool> = tracks
        .iter()
        .map(|t| t.cpu_fraction() >= BUSY_CPU_FRACTION)
        .collect();
    // An HWT is contended when two or more busy LWPs are bound to it
    // alone (the Table 1 case). Wider masks that overlap show in the
    // over-subscription ratio and the overlaps.
    let mut contended: Vec<(u32, Vec<Tid>)> = Vec::new();
    for (t, _) in tracks.iter().zip(&busy).filter(|(_, &b)| b) {
        let (1, Some(hwt)) = (t.affinity.count(), t.affinity.first()) else {
            continue;
        };
        match contended.iter_mut().find(|(h, _)| *h == hwt) {
            Some((_, v)) => v.push(t.tid),
            None => contended.push((hwt, vec![t.tid])),
        }
    }
    contended.retain(|(_, tids)| tids.len() >= 2);
    contended.sort_by_key(|(h, _)| *h);
    // Oversubscription ratio: busy LWPs / process-mask HWTs.
    let busy_count = busy.iter().filter(|&&b| b).count();
    let mask_width = watch.cpus_allowed.count().max(1);
    let oversubscription = busy_count as f64 / mask_width as f64;
    // Pairwise overlaps among busy LWPs.
    let lwps = tracks
        .iter()
        .zip(&busy)
        .map(|(t, &is_busy)| {
            let overlaps_with = if is_busy {
                tracks
                    .iter()
                    .zip(&busy)
                    .filter(|(o, &ob)| ob && o.tid != t.tid && o.affinity.intersects(&t.affinity))
                    .map(|(o, _)| o.tid)
                    .collect()
            } else {
                Vec::new()
            };
            let (u, s) = (t.avg_utime_per_period(), t.avg_stime_per_period());
            LwpContention {
                tid: t.tid,
                nvcsw: t.total_nvcsw(),
                vcsw: t.total_vcsw(),
                sys_share_pct: if u + s > 0.0 {
                    s * 100.0 / (u + s)
                } else {
                    0.0
                },
                overlaps_with,
                busy: is_busy,
                wait_s: t.total_wait_s(),
            }
        })
        .collect();
    ContentionReport {
        lwps,
        contended_hwts: contended,
        oversubscription,
        memory: monitor.mem.pressure(),
    }
}

impl ContentionReport {
    /// True if the watch has more busy LWPs than allowed hardware
    /// threads: the one over-subscription test.
    pub fn oversubscribed(&self) -> bool {
        self.oversubscription > 1.0
    }

    /// The tids of the busy rows, in row order.
    pub fn busy_tids(&self) -> Vec<Tid> {
        self.lwps.iter().filter(|l| l.busy).map(|l| l.tid).collect()
    }

    /// True if any hardware thread is over-subscribed by bound busy LWPs.
    pub fn has_hwt_contention(&self) -> bool {
        !self.contended_hwts.is_empty()
    }

    /// Total non-voluntary switches across all LWPs.
    pub fn total_nvcsw(&self) -> u64 {
        self.lwps.iter().map(|l| l.nvcsw).sum()
    }

    /// Renders the human-readable contention section.
    pub fn render(&self) -> String {
        let mut out = String::from("Contention Summary:\n");
        writeln!(
            out,
            "  busy LWPs per allowed HWT: {:.2}{}",
            self.oversubscription,
            if self.oversubscribed() {
                "  (OVER-SUBSCRIBED)"
            } else {
                ""
            }
        )
        .unwrap();
        for (hwt, tids) in &self.contended_hwts {
            writeln!(out, "  HWT {hwt} shared by busy LWPs: {}", tid_list(tids)).unwrap();
        }
        for l in &self.lwps {
            if l.nvcsw > 0 || l.busy {
                writeln!(
                    out,
                    "  LWP {}: nv_ctx {}, ctx {}, system share {:.1}%{}{}",
                    l.tid,
                    l.nvcsw,
                    l.vcsw,
                    l.sys_share_pct,
                    l.wait_s
                        .map(|w| format!(", runqueue wait {w:.2}s"))
                        .unwrap_or_default(),
                    if l.overlaps_with.is_empty() {
                        String::new()
                    } else {
                        format!(
                            ", affinity overlaps {}",
                            l.overlaps_with
                                .iter()
                                .map(|t| t.to_string())
                                .collect::<Vec<_>>()
                                .join(",")
                        )
                    }
                )
                .unwrap();
            }
        }
        match self.memory {
            MemPressureSource::None => {}
            MemPressureSource::Application => {
                out.push_str("  MEMORY: application near node memory limit\n")
            }
            MemPressureSource::External => {
                out.push_str("  MEMORY: node memory exhausted by processes outside this job\n")
            }
        }
        out
    }
}

/// `tids` as the Contention Summary lists them: `1, 2, 3`.
pub(crate) fn tid_list(tids: &[Tid]) -> String {
    let list: Vec<String> = tids.iter().map(|t| t.to_string()).collect();
    list.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ZeroSumConfig;
    use crate::monitor::ProcessInfo;
    use zerosum_sched::{Behavior, NodeSim, SchedParams, SimProcSource};
    use zerosum_topology::presets;
    use zerosum_topology::CpuSet;

    fn run_case(shared_core: bool) -> (Monitor, Pid) {
        let mut sim = NodeSim::new(presets::laptop_i7_1165g7(), SchedParams::default());
        let mask = if shared_core {
            CpuSet::single(0)
        } else {
            CpuSet::from_indices([0u32, 1])
        };
        let pid = sim.spawn_process(
            "app",
            mask,
            1_024,
            Behavior::FiniteCompute {
                remaining_us: 4_000_000,
                chunk_us: 10_000,
            },
        );
        let worker_mask = if shared_core {
            CpuSet::single(0)
        } else {
            CpuSet::single(1)
        };
        sim.spawn_task(
            pid,
            "OpenMP",
            Some(worker_mask),
            Behavior::FiniteCompute {
                remaining_us: 4_000_000,
                chunk_us: 10_000,
            },
            false,
        );
        let mut mon = Monitor::new(ZeroSumConfig::default());
        mon.watch_process(ProcessInfo {
            pid,
            rank: Some(0),
            hostname: "n".into(),
            gpus: vec![],
            cpus_allowed: Default::default(),
        });
        for i in 1..=4u64 {
            sim.run_for(1_000_000);
            mon.sample(i as f64, &SimProcSource::new(&sim));
        }
        (mon, pid)
    }

    #[test]
    fn shared_core_is_flagged() {
        let (mon, pid) = run_case(true);
        let rep = analyze(&mon, pid).unwrap();
        assert!(rep.has_hwt_contention());
        assert_eq!(rep.contended_hwts[0].0, 0);
        assert_eq!(rep.contended_hwts[0].1.len(), 2);
        assert!(rep.oversubscription > 1.5);
        assert!(rep.total_nvcsw() > 0);
        let text = rep.render();
        assert!(text.contains("OVER-SUBSCRIBED"));
        assert!(text.contains("HWT 0 shared by busy LWPs"));
    }

    #[test]
    fn separate_cores_are_clean() {
        let (mon, pid) = run_case(false);
        let rep = analyze(&mon, pid).unwrap();
        assert!(!rep.has_hwt_contention());
        assert!(!rep.oversubscribed());
        // Bound to different cores: low nvcsw.
        assert!(rep.total_nvcsw() < 10, "nvcsw {}", rep.total_nvcsw());
    }

    #[test]
    fn overlap_listing_for_shared_masks() {
        let (mon, pid) = run_case(true);
        let rep = analyze(&mon, pid).unwrap();
        let busy: Vec<_> = rep.lwps.iter().filter(|l| l.busy).collect();
        assert_eq!(busy.len(), 2);
        assert!(busy.iter().all(|l| l.overlaps_with.len() == 1));
    }

    #[test]
    fn unknown_pid_is_none() {
        let (mon, _) = run_case(false);
        assert!(analyze(&mon, 31337).is_none());
    }
}
