//! Configuration evaluation: the "warning lights and useful gauges (with
//! explanation)" of §3.
//!
//! The paper's prototype stops short of §3.2 ("ZeroSum does not yet have
//! any capability to detect and report a misconfiguration … there are
//! some easy benefits available in automatically detecting when one or
//! more LWPs are assigned to the same set of HWTs"). This module
//! implements that natural next step as a rules engine over the monitor's
//! observations plus the node topology.

use crate::contention::{self, tid_list, ContentionReport};
use crate::lwp::{LwpKind, LwpTrack};
use crate::memory::MemPressureSource;
use crate::monitor::{Monitor, ProcessWatch};
use std::fmt::Write as _;
use zerosum_proc::{Pid, Tid};
use zerosum_topology::distance;
use zerosum_topology::{CpuSet, Topology};

/// Severity of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: a tuning opportunity.
    Info,
    /// Likely performance loss.
    Warning,
    /// Severe misconfiguration (wasted allocation / large slowdown).
    Critical,
}

/// A configuration finding.
#[derive(Debug, Clone, PartialEq)]
pub enum Finding {
    /// Multiple busy LWPs are pinned to the same hardware thread(s) —
    /// the Table 1 default-`srun` disaster.
    OversubscribedHwts {
        /// The process.
        pid: Pid,
        /// Busy LWPs per allowed hardware thread.
        ratio: f64,
        /// Example contended hardware thread.
        example_hwt: Option<u32>,
        /// The busy LWPs the ratio counted.
        tids: Vec<Tid>,
    },
    /// Cores inside the process mask stayed essentially idle.
    UnderutilizedCpus {
        /// The process.
        pid: Pid,
        /// The idle hardware threads.
        cpus: CpuSet,
    },
    /// Busy threads share the full process mask (unbound) — works, but
    /// binding would avoid migrations (Table 2 → Table 3 advice).
    UnboundThreads {
        /// The process.
        pid: Pid,
        /// The busy threads whose mask is the whole process mask.
        tids: Vec<Tid>,
        /// Observed thread migrations.
        migrations: usize,
    },
    /// ZeroSum's own monitor thread shares a hardware thread with a busy
    /// application thread (the Table 3 LWP-18997 note).
    MonitorSharesHwt {
        /// The process.
        pid: Pid,
        /// The application thread being perturbed.
        app_tid: Tid,
        /// The shared hardware thread.
        hwt: u32,
    },
    /// The process uses a GPU that is not attached to its NUMA domain.
    GpuNumaMismatch {
        /// The process.
        pid: Pid,
        /// The GPU physical index.
        gpu: u32,
        /// NUMA domain of the GPU.
        gpu_numa: u32,
        /// NUMA domains of the process mask.
        proc_numas: Vec<u32>,
    },
    /// Node memory pressure, with attribution.
    MemoryPressure {
        /// Who is responsible.
        source: MemPressureSource,
    },
    /// A thread's affinity mask changed mid-run — something (runtime,
    /// tool, operator) re-bound it after launch.
    AffinityChanged {
        /// The process.
        pid: Pid,
        /// Threads whose mask changed between samples.
        tids: Vec<Tid>,
    },
    /// A GPU is close to exhausting its device memory (§3.5's periodic
    /// used/free check).
    GpuMemoryPressure {
        /// GPU physical index.
        gpu: u32,
        /// Peak used bytes observed.
        used_peak: u64,
        /// Device capacity, bytes.
        capacity: u64,
    },
}

impl Finding {
    /// The finding's severity.
    pub fn severity(&self) -> Severity {
        match self {
            Finding::OversubscribedHwts { .. } => Severity::Critical,
            Finding::MemoryPressure { .. } => Severity::Critical,
            Finding::UnderutilizedCpus { .. } => Severity::Warning,
            Finding::GpuNumaMismatch { .. } => Severity::Warning,
            Finding::GpuMemoryPressure { .. } => Severity::Warning,
            Finding::UnboundThreads { .. } => Severity::Info,
            Finding::MonitorSharesHwt { .. } => Severity::Info,
            Finding::AffinityChanged { .. } => Severity::Info,
        }
    }

    /// The explanation shown to the user.
    pub fn explain(&self) -> String {
        match self {
            Finding::OversubscribedHwts {
                pid,
                ratio,
                example_hwt,
                tids,
            } => {
                let mut s = format!(
                    "process {pid}: {ratio:.1} busy threads per allowed hardware thread \
                     (LWPs {}) — the OS is time-slicing threads",
                    tid_list(tids)
                );
                if let Some(h) = example_hwt {
                    write!(s, " (e.g. HWT {h})").unwrap();
                }
                s.push_str("; request more cores per task (srun -c N) or reduce OMP_NUM_THREADS");
                s
            }
            Finding::UnderutilizedCpus { pid, cpus } => format!(
                "process {pid}: hardware threads [{}] in the affinity mask stayed idle — \
                 allocation time is being wasted; increase concurrency or request fewer cores",
                cpus.to_list_string()
            ),
            Finding::UnboundThreads {
                pid,
                tids,
                migrations,
            } => format!(
                "process {pid}: busy LWPs {} are not bound to cores \
                 ({migrations} migrations observed); consider OMP_PROC_BIND=spread \
                 OMP_PLACES=cores for stable placement",
                tid_list(tids)
            ),
            Finding::MonitorSharesHwt { pid, app_tid, hwt } => format!(
                "process {pid}: the ZeroSum monitor thread shares HWT {hwt} with busy \
                 application thread {app_tid}; if the core is saturated, request one \
                 more core per task (srun -c N) and keep the team off HWT {hwt}"
            ),
            Finding::GpuNumaMismatch {
                pid,
                gpu,
                gpu_numa,
                proc_numas,
            } => format!(
                "process {pid}: GPU {gpu} is attached to NUMA domain {gpu_numa} but the \
                 process runs on domain(s) {proc_numas:?}; use --gpu-bind=closest or fix \
                 the visible-devices mapping"
            ),
            Finding::AffinityChanged { pid, tids } => format!(
                "process {pid}: thread(s) {tids:?} changed affinity after launch — \
                 verify the runtime's binding matches what the job script requested"
            ),
            Finding::GpuMemoryPressure {
                gpu,
                used_peak,
                capacity,
            } => format!(
                "GPU {gpu}: peak device memory {:.2} GiB of {:.2} GiB ({:.0}%) — \
                 approaching exhaustion; reduce walkers/batch per rank",
                *used_peak as f64 / (1u64 << 30) as f64,
                *capacity as f64 / (1u64 << 30) as f64,
                *used_peak as f64 * 100.0 / *capacity as f64
            ),
            Finding::MemoryPressure { source } => match source {
                MemPressureSource::Application => {
                    "node memory nearly exhausted by this job — reduce per-rank working \
                     set or use fewer ranks per node"
                        .to_string()
                }
                MemPressureSource::External => {
                    "node memory nearly exhausted by processes OUTSIDE this job — \
                     evidence for reporting a system issue"
                        .to_string()
                }
                MemPressureSource::None => "memory ok".to_string(),
            },
        }
    }
}

/// The tracks of `w` that its contention report judged busy (the rows
/// come in track order).
fn busy_tracks<'a>(
    w: &'a ProcessWatch,
    rep: &'a ContentionReport,
) -> impl Iterator<Item = &'a LwpTrack> {
    w.lwps
        .tracks()
        .zip(&rep.lwps)
        .filter(|(_, l)| l.busy)
        .map(|(t, _)| t)
}

/// Evaluates every monitored process against the rules. Busy and
/// over-subscribed are the contention report's verdicts: no rule
/// judges them again.
pub fn evaluate(monitor: &Monitor, topo: &Topology) -> Vec<Finding> {
    let mut findings = Vec::new();
    let watches: Vec<(&ProcessWatch, ContentionReport)> = monitor
        .processes()
        .iter()
        .map(|w| (w, contention::analyze_watch(w, monitor)))
        .collect();
    // Every CPU some busy LWP may run on. A watch with no busy LWP (the
    // shell of `sh -c "app; true"`) leaves those CPUs to the watch whose
    // threads had them, so one job gets one idle-CPU warning.
    let mut busy_masks = CpuSet::new();
    for t in watches.iter().flat_map(|(w, rep)| busy_tracks(w, rep)) {
        busy_masks.union_with(&t.affinity);
    }
    for (w, rep) in &watches {
        let pid = w.info.pid;
        // Rule 1: oversubscription. Every contended HWT holds two or
        // more busy LWPs, so it alone is enough.
        if rep.oversubscribed() || rep.has_hwt_contention() {
            findings.push(Finding::OversubscribedHwts {
                pid,
                ratio: rep.oversubscription,
                example_hwt: rep.contended_hwts.first().map(|(h, _)| *h),
                tids: rep.busy_tids(),
            });
        }
        // Rule 2: underutilized CPUs (≥95% idle over the run).
        let mut idle_cpus = CpuSet::new();
        for cpu in w.cpus_allowed.iter() {
            if let Some((idle, _, _)) = monitor.hwt.overall(cpu) {
                if idle >= 95.0 {
                    idle_cpus.set(cpu);
                }
            }
        }
        if !rep.lwps.iter().any(|l| l.busy) {
            idle_cpus.subtract(&busy_masks);
        }
        if !idle_cpus.is_empty() && !rep.oversubscribed() {
            findings.push(Finding::UnderutilizedCpus {
                pid,
                cpus: idle_cpus,
            });
        }
        // The application's busy threads: every busy LWP but ZeroSum's.
        let busy_app = || busy_tracks(w, rep).filter(|t| t.kind != LwpKind::ZeroSum);
        // Rule 3: unbound busy threads.
        let unbound: Vec<&LwpTrack> = busy_app()
            .filter(|t| t.affinity == w.cpus_allowed && w.cpus_allowed.count() > 1)
            .collect();
        if !unbound.is_empty() {
            findings.push(Finding::UnboundThreads {
                pid,
                tids: unbound.iter().map(|t| t.tid).collect(),
                migrations: unbound.iter().map(|t| t.observed_migrations()).sum(),
            });
        }
        // Rule 4: monitor sharing an HWT with a busy app thread.
        for t in w.lwps.tracks().filter(|t| t.kind == LwpKind::ZeroSum) {
            let (1, Some(hwt)) = (t.affinity.count(), t.affinity.first()) else {
                continue;
            };
            if let Some(app) =
                busy_app().find(|t| t.affinity.contains(hwt) && t.affinity.count() <= 2)
            {
                findings.push(Finding::MonitorSharesHwt {
                    pid,
                    app_tid: app.tid,
                    hwt,
                });
            }
        }
        // Rule 5: affinity changed mid-run.
        let changed: Vec<Tid> = w
            .lwps
            .tracks()
            .filter(|t| t.affinity_changed && t.kind != LwpKind::ZeroSum)
            .map(|t| t.tid)
            .collect();
        if !changed.is_empty() {
            findings.push(Finding::AffinityChanged { pid, tids: changed });
        }
        // Rule 6: GPU-NUMA locality.
        let proc_numas = distance::numas_of_cpuset(topo, &w.cpus_allowed);
        for &gpu in &w.info.gpus {
            let gpu_numa = topo.gpus().iter().find_map(|&g| {
                let a = topo.object(g).attrs.gpu.as_ref()?;
                (a.physical_index == gpu).then_some(a.local_numa)
            });
            if let Some(gn) = gpu_numa {
                if !proc_numas.is_empty() && !proc_numas.contains(&gn) {
                    findings.push(Finding::GpuNumaMismatch {
                        pid,
                        gpu,
                        gpu_numa: gn,
                        proc_numas: proc_numas.clone(),
                    });
                }
            }
        }
    }
    // Rule 7: memory pressure (node-wide, once).
    let pressure = monitor.mem.pressure();
    if pressure != MemPressureSource::None {
        findings.push(Finding::MemoryPressure { source: pressure });
    }
    findings.sort_by_key(|f| std::cmp::Reverse(f.severity()));
    findings
}

/// Evaluates GPU device-memory headroom (§3.5): flags devices whose
/// peak used VRAM exceeded `warn_frac` of capacity. `devices` pairs each
/// monitored slot with its physical index and capacity in bytes.
pub fn evaluate_gpu_memory(
    monitor: &zerosum_gpu::GpuMonitor,
    devices: &[(u32, u32, u64)],
    warn_frac: f64,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for &(slot, phys, capacity) in devices {
        let (_, _, peak) = monitor.summary(slot, zerosum_gpu::GpuMetricKind::UsedVramBytes);
        if capacity > 0 && peak >= warn_frac * capacity as f64 {
            out.push(Finding::GpuMemoryPressure {
                gpu: phys,
                used_peak: peak as u64,
                capacity,
            });
        }
    }
    out
}

/// Renders findings as the report's "warning lights" section.
pub fn render_findings(findings: &[Finding]) -> String {
    if findings.is_empty() {
        return "Configuration Evaluation: no issues detected\n".to_string();
    }
    let mut out = String::from("Configuration Evaluation:\n");
    for f in findings {
        let tag = match f.severity() {
            Severity::Critical => "CRITICAL",
            Severity::Warning => "WARNING",
            Severity::Info => "INFO",
        };
        writeln!(out, "  [{tag}] {}", f.explain()).unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ZeroSumConfig;
    use crate::monitor::ProcessInfo;
    use zerosum_sched::{Behavior, NodeSim, SchedParams, SimProcSource};
    use zerosum_topology::presets;

    fn monitor_over(
        mask: CpuSet,
        worker_masks: &[CpuSet],
        gpus: Vec<u32>,
    ) -> (Monitor, Topology, Pid) {
        monitor_named(mask, "OpenMP", worker_masks, gpus)
    }

    /// A busy main thread on `mask` and one busy worker named `worker`
    /// per entry of `worker_masks`, sampled for four seconds.
    fn monitor_named(
        mask: CpuSet,
        worker: &str,
        worker_masks: &[CpuSet],
        gpus: Vec<u32>,
    ) -> (Monitor, Topology, Pid) {
        let topo = presets::frontier();
        let mut sim = NodeSim::new(topo.clone(), SchedParams::default());
        let pid = sim.spawn_process(
            "app",
            mask,
            1_024,
            Behavior::FiniteCompute {
                remaining_us: 5_000_000,
                chunk_us: 10_000,
            },
        );
        for wm in worker_masks {
            sim.spawn_task(
                pid,
                worker,
                Some(wm.clone()),
                Behavior::FiniteCompute {
                    remaining_us: 5_000_000,
                    chunk_us: 10_000,
                },
                false,
            );
        }
        let mut mon = Monitor::new(ZeroSumConfig::default());
        mon.watch_process(ProcessInfo {
            pid,
            rank: Some(0),
            hostname: "n".into(),
            gpus,
            cpus_allowed: Default::default(),
        });
        for i in 1..=4u64 {
            sim.run_for(1_000_000);
            mon.sample(i as f64, &SimProcSource::new(&sim));
        }
        (mon, topo, pid)
    }

    #[test]
    fn table1_config_is_critical_oversubscription() {
        let one = CpuSet::single(1);
        let (mon, topo, _) = monitor_over(one.clone(), &[one.clone(), one.clone()], vec![]);
        let findings = evaluate(&mon, &topo);
        assert!(
            matches!(findings.first(), Some(Finding::OversubscribedHwts { ratio, .. }) if *ratio > 1.0),
            "findings: {findings:?}"
        );
        let text = render_findings(&findings);
        assert!(text.contains("CRITICAL"));
        assert!(text.contains("srun -c"));
    }

    #[test]
    fn idle_cores_trigger_underutilization() {
        // Mask 1-7 but only one busy thread.
        let mask = CpuSet::parse_list("1-7").unwrap();
        let (mon, topo, _) = monitor_over(mask, &[], vec![]);
        let findings = evaluate(&mon, &topo);
        assert!(
            findings.iter().any(|f| matches!(
                f,
                Finding::UnderutilizedCpus { cpus, .. } if cpus.count() >= 5
            )),
            "findings: {findings:?}"
        );
    }

    #[test]
    fn a_watch_without_busy_threads_leaves_shared_idle_cpus_to_the_busy_one() {
        // `sh -c "app; true"`: the shell sleeps, the app computes on one
        // of the two CPUs both masks allow, and the other stays idle.
        let topo = presets::frontier();
        let mut sim = NodeSim::new(topo.clone(), SchedParams::default());
        let mask = CpuSet::parse_list("1-2").unwrap();
        let shell = sim.spawn_process("sh", mask.clone(), 1_024, Behavior::Sleeper);
        let compute = Behavior::FiniteCompute {
            remaining_us: 5_000_000,
            chunk_us: 10_000,
        };
        let app = sim.spawn_process("app", mask, 1_024, compute);
        let mut mon = Monitor::new(ZeroSumConfig::default());
        for pid in [shell, app] {
            mon.watch_process(ProcessInfo {
                pid,
                rank: None,
                hostname: "n".into(),
                gpus: vec![],
                cpus_allowed: Default::default(),
            });
        }
        for i in 1..=4u64 {
            sim.run_for(1_000_000);
            mon.sample(i as f64, &SimProcSource::new(&sim));
        }
        let idle: Vec<Pid> = evaluate(&mon, &topo)
            .into_iter()
            .filter_map(|f| match f {
                Finding::UnderutilizedCpus { pid, .. } => Some(pid),
                _ => None,
            })
            .collect();
        assert_eq!(idle, [app]);
    }

    #[test]
    fn unbound_busy_threads_are_informational() {
        let mask = CpuSet::parse_list("1-3").unwrap();
        let (mon, topo, _) = monitor_over(mask.clone(), &[mask.clone(), mask.clone()], vec![]);
        let findings = evaluate(&mon, &topo);
        assert!(findings
            .iter()
            .any(|f| matches!(f, Finding::UnboundThreads { tids, .. } if tids.len() >= 2)));
    }

    /// Rule 3 counts every busy LWP but ZeroSum's: two unnamed workers
    /// (kind `Other`) beside the main thread are three unbound threads,
    /// the same three the contention report marks busy.
    #[test]
    fn unbound_threads_name_every_busy_lwp_whatever_its_kind() {
        let mask = CpuSet::parse_list("1-3").unwrap();
        let (mon, topo, pid) = monitor_named(mask.clone(), "worker", &[mask.clone(), mask], vec![]);
        let w = mon.process(pid).unwrap();
        let kinds: Vec<LwpKind> = w.lwps.tracks().map(|t| t.kind).collect();
        assert_eq!(kinds, [LwpKind::Main, LwpKind::Other, LwpKind::Other]);
        let all: Vec<Tid> = w.lwps.tracks().map(|t| t.tid).collect();
        assert_eq!(contention::analyze(&mon, pid).unwrap().busy_tids(), all);
        let unbound: Vec<Vec<Tid>> = evaluate(&mon, &topo)
            .into_iter()
            .filter_map(|f| match f {
                Finding::UnboundThreads { tids, .. } => Some(tids),
                _ => None,
            })
            .collect();
        assert_eq!(unbound, [all]);
    }

    #[test]
    fn gpu_numa_mismatch_detected() {
        // Process on NUMA 0 (cores 1-7) with GPU 0 — which lives on
        // NUMA 3 per Figure 2. The classic Frontier trap.
        let mask = CpuSet::parse_list("1-7").unwrap();
        let (mon, topo, _) = monitor_over(mask, &[], vec![0]);
        let findings = evaluate(&mon, &topo);
        let hit = findings.iter().find_map(|f| match f {
            Finding::GpuNumaMismatch { gpu, gpu_numa, .. } => Some((*gpu, *gpu_numa)),
            _ => None,
        });
        assert_eq!(hit, Some((0, 3)), "findings: {findings:?}");
    }

    #[test]
    fn matched_gpu_is_clean() {
        // GPU 4 *is* local to NUMA 0.
        let mask = CpuSet::parse_list("1-7").unwrap();
        let (mon, topo, _) = monitor_over(mask, &[], vec![4]);
        let findings = evaluate(&mon, &topo);
        assert!(!findings
            .iter()
            .any(|f| matches!(f, Finding::GpuNumaMismatch { .. })));
    }

    #[test]
    fn affinity_change_is_flagged() {
        let topo = presets::frontier();
        let mut sim = NodeSim::new(topo.clone(), SchedParams::default());
        let pid = sim.spawn_process(
            "app",
            CpuSet::parse_list("1-7").unwrap(),
            64,
            Behavior::FiniteCompute {
                remaining_us: 5_000_000,
                chunk_us: 10_000,
            },
        );
        let mut mon = Monitor::new(ZeroSumConfig::default());
        mon.watch_process(ProcessInfo {
            pid,
            rank: None,
            hostname: "n".into(),
            gpus: vec![],
            cpus_allowed: Default::default(),
        });
        sim.run_for(1_000_000);
        mon.sample(1.0, &SimProcSource::new(&sim));
        // Someone re-binds the thread mid-run.
        sim.set_task_affinity(pid, CpuSet::single(3));
        sim.run_for(1_000_000);
        mon.sample(2.0, &SimProcSource::new(&sim));
        let findings = evaluate(&mon, &topo);
        assert!(
            findings
                .iter()
                .any(|f| matches!(f, Finding::AffinityChanged { tids, .. } if tids.contains(&pid))),
            "{findings:?}"
        );
    }

    #[test]
    fn gpu_memory_pressure_detection() {
        use zerosum_gpu::{GpuBackend, GpuMonitor, SmiSim, SyntheticFeed};
        // A device whose feed reports 60 of 64 GiB in use.
        let mut backend =
            SmiSim::rocm_mi250x(1, Box::new(SyntheticFeed::uniform(1, 0.5, 60 << 30)));
        let mut gm = GpuMonitor::new(1);
        for _ in 0..3 {
            gm.poll(&mut backend, 1.0);
        }
        let cap = 64u64 << 30;
        let findings = evaluate_gpu_memory(&gm, &[(0, 4, cap)], 0.9);
        match findings.as_slice() {
            [Finding::GpuMemoryPressure {
                gpu: 4,
                used_peak,
                capacity,
            }] => {
                assert_eq!(*capacity, cap);
                assert!(*used_peak >= 60 << 30);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(findings[0].explain().contains("approaching exhaustion"));
        // Plenty of headroom → no finding.
        assert!(evaluate_gpu_memory(&gm, &[(0, 4, 1 << 52)], 0.9).is_empty());
        let _ = backend.library_name();
    }

    #[test]
    fn severity_ordering_and_rendering() {
        assert!(Severity::Critical > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        assert!(render_findings(&[]).contains("no issues"));
    }
}
