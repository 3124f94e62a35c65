//! The end-of-execution utilization report (§3.4, Listing 2).
//!
//! One report per watched process: the wrapper prints each, and the log
//! writer puts each rank's in its log file. The format reproduces the
//! paper's Listing 2: run
//! duration, process summary, the LWP table, the HWT table (restricted to
//! the process affinity list), and the per-GPU min/avg/max metric block.

use crate::monitor::{Monitor, ProcessWatch};
use std::fmt::Write as _;
use zerosum_gpu::GpuMonitor;
use zerosum_proc::Pid;

/// GPU context for the report: the monitor holding device statistics plus
/// `(slot, physical, visible)` index mappings per monitored device.
pub struct GpuReportContext<'a> {
    /// The accumulated statistics.
    pub monitor: &'a GpuMonitor,
    /// `(slot in monitor, physical index, visible index)` rows to print.
    pub devices: Vec<(u32, u32, u32)>,
}

/// Renders the complete report for one process (the per-rank log
/// content).
pub fn render_process_report(
    monitor: &Monitor,
    pid: Pid,
    duration_s: f64,
    gpu: Option<&GpuReportContext<'_>>,
) -> String {
    let mut out = String::new();
    let Some(watch) = monitor.process(pid) else {
        return format!("ZeroSum: process {pid} was never observed\n");
    };
    writeln!(out, "Duration of execution: {duration_s:.3}s").unwrap();
    writeln!(out).unwrap();
    render_process_summary(&mut out, watch);
    writeln!(out).unwrap();
    render_lwp_summary(&mut out, watch);
    writeln!(out).unwrap();
    render_hardware_summary(&mut out, monitor, watch);
    writeln!(out).unwrap();
    render_health_summary(&mut out, monitor, watch);
    if let Some(g) = gpu {
        writeln!(out).unwrap();
        for &(slot, _phys, visible) in &g.devices {
            out.push_str(&g.monitor.render_report(slot, visible));
        }
    }
    out
}

fn render_process_summary(out: &mut String, w: &ProcessWatch) {
    writeln!(out, "Process Summary:").unwrap();
    match w.info.rank {
        Some(r) => writeln!(
            out,
            "MPI {:03} - PID {} - Node {} - CPUs allowed: [{}]",
            r,
            w.info.pid,
            w.info.hostname,
            w.cpus_allowed.to_list_string()
        )
        .unwrap(),
        None => writeln!(
            out,
            "PID {} - Node {} - CPUs allowed: [{}]",
            w.info.pid,
            w.info.hostname,
            w.cpus_allowed.to_list_string()
        )
        .unwrap(),
    }
}

fn render_lwp_summary(out: &mut String, w: &ProcessWatch) {
    writeln!(out, "LWP (thread) Summary:").unwrap();
    let mut tracks: Vec<_> = w.lwps.tracks().collect();
    tracks.sort_by_key(|t| t.tid);
    for t in tracks {
        writeln!(
            out,
            "LWP {}: {} - stime: {:>6.2}, utime: {:>6.2}, nv_ctx: {}, ctx: {}, CPUs: [{}]",
            t.tid,
            t.kind.label(t.is_openmp),
            t.avg_stime_per_period(),
            t.avg_utime_per_period(),
            t.total_nvcsw(),
            t.total_vcsw(),
            t.affinity.to_list_string()
        )
        .unwrap();
    }
}

fn render_health_summary(out: &mut String, monitor: &Monitor, w: &ProcessWatch) {
    let l = &w.health.ledger;
    writeln!(out, "Sampling Health:").unwrap();
    writeln!(
        out,
        "samples ok: {}, retried: {}, degraded: {}, dropped: {}, quarantined: {}",
        l.ok,
        l.retried,
        l.degraded,
        l.dropped,
        w.health.quarantined_now()
    )
    .unwrap();
    let mut errs = String::new();
    for kind in zerosum_proc::SourceErrorKind::ALL {
        if !errs.is_empty() {
            errs.push_str(", ");
        }
        let total = l.errors_of(kind) + monitor.node_health.errors_of(kind);
        write!(errs, "{}: {}", kind.label(), total).unwrap();
    }
    writeln!(out, "errors (incl. node records): {errs}").unwrap();
    if let Some(e) = &monitor.unfollowed {
        writeln!(out, "descendants: not followed ({e})").unwrap();
    }
    if monitor.supervisor.restarts > 0 {
        let gaps: Vec<String> = monitor
            .supervisor
            .gap_times_s
            .iter()
            .map(|t| format!("{t:.3}s"))
            .collect();
        writeln!(
            out,
            "supervisor restarts: {} (gaps at: {})",
            monitor.supervisor.restarts,
            gaps.join(", ")
        )
        .unwrap();
    }
    // Overload control: every governor period change, plus the deadline
    // watchdog's shedding record. Silent when nothing happened, so the
    // healthy-node report is unchanged.
    for c in &monitor.governor.changes {
        writeln!(
            out,
            "governor: period {} -> {} ms at t={:.3}s (round cost {} us > budget {} us)",
            c.from_us / 1_000,
            c.to_us / 1_000,
            c.t_s,
            c.cost_us,
            c.budget_us
        )
        .unwrap();
    }
    if monitor.governor.overruns > 0 {
        writeln!(
            out,
            "watchdog: {} deadline overrun(s), {} round(s) shed per-LWP detail",
            monitor.governor.overruns, monitor.governor.shed_rounds
        )
        .unwrap();
    }
}

fn render_hardware_summary(out: &mut String, monitor: &Monitor, w: &ProcessWatch) {
    writeln!(out, "Hardware Summary:").unwrap();
    for cpu in w.cpus_allowed.iter() {
        if let Some((idle, system, user)) = monitor.hwt.overall(cpu) {
            writeln!(
                out,
                "CPU {cpu:03} - idle: {idle:>6.2}, system: {system:>6.2}, user: {user:>6.2}"
            )
            .unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ZeroSumConfig;
    use crate::monitor::ProcessInfo;
    use zerosum_sched::{Behavior, NodeSim, SchedParams, SimProcSource};
    use zerosum_topology::{presets, CpuSet};

    fn monitored_run() -> (Monitor, Pid, f64) {
        let mut sim = NodeSim::new(presets::laptop_i7_1165g7(), SchedParams::default());
        let pid = sim.spawn_process(
            "miniqmc",
            CpuSet::from_indices([0u32, 1]),
            4_096,
            Behavior::FiniteCompute {
                remaining_us: 2_500_000,
                chunk_us: 10_000,
            },
        );
        sim.spawn_task(
            pid,
            "OpenMP",
            Some(CpuSet::single(1)),
            Behavior::FiniteCompute {
                remaining_us: 2_500_000,
                chunk_us: 10_000,
            },
            false,
        );
        let mut mon = Monitor::new(ZeroSumConfig::default());
        mon.watch_process(ProcessInfo {
            pid,
            rank: Some(0),
            hostname: "simnode0001".into(),
            gpus: vec![],
            cpus_allowed: Default::default(),
        });
        for i in 1..=4u64 {
            sim.run_for(1_000_000);
            mon.sample(i as f64, &SimProcSource::new(&sim));
        }
        (mon, pid, 4.0)
    }

    #[test]
    fn report_has_all_sections_in_listing2_shape() {
        let (mon, pid, dur) = monitored_run();
        let rep = render_process_report(&mon, pid, dur, None);
        assert!(rep.starts_with("Duration of execution: 4.000s"));
        assert!(rep.contains("Process Summary:"));
        assert!(rep.contains(&format!(
            "MPI 000 - PID {pid} - Node simnode0001 - CPUs allowed: [0-1]"
        )));
        assert!(rep.contains("LWP (thread) Summary:"));
        assert!(rep.contains(&format!("LWP {pid}: Main - ")));
        assert!(rep.contains("OpenMP - "));
        assert!(rep.contains("Hardware Summary:"));
        assert!(rep.contains("CPU 000 - idle:"));
        assert!(rep.contains("CPU 001 - idle:"));
        // The HWT table is limited to the process mask.
        assert!(!rep.contains("CPU 002"));
    }

    #[test]
    fn busy_threads_show_high_utime() {
        let (mon, pid, dur) = monitored_run();
        let rep = render_process_report(&mon, pid, dur, None);
        // Both threads are CPU-bound on dedicated CPUs: utime ≈ 100
        // jiffies/period.
        let lwp_line = rep
            .lines()
            .find(|l| l.starts_with(&format!("LWP {pid}:")))
            .unwrap();
        let utime: f64 = lwp_line
            .split("utime:")
            .nth(1)
            .unwrap()
            .split(',')
            .next()
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!(utime > 80.0, "utime {utime} in {lwp_line}");
    }

    #[test]
    fn governor_changes_and_shed_rounds_appear_in_health_section() {
        let (mut mon, pid, dur) = monitored_run();
        let rep = render_process_report(&mon, pid, dur, None);
        assert!(!rep.contains("governor:"), "healthy run is silent");
        assert!(!rep.contains("watchdog:"));
        // A cost spike over both the budget and the deadline leaves a
        // period change and an overrun on record.
        mon.note_round_cost(3.0, 600_000);
        let rep = render_process_report(&mon, pid, dur, None);
        assert!(
            rep.contains("governor: period 1000 -> 2000 ms at t=3.000s"),
            "{rep}"
        );
        assert!(rep.contains("(round cost 600000 us > budget 10000 us)"));
        assert!(rep.contains("watchdog: 1 deadline overrun(s)"), "{rep}");
    }

    #[test]
    fn unknown_pid_report() {
        let (mon, _, _) = monitored_run();
        let rep = render_process_report(&mon, 424242, 1.0, None);
        assert!(rep.contains("never observed"));
    }
}
