//! Allocation-scale chaos checking: node supervision under seeded
//! node-fault plans.
//!
//! The procfs chaos suite ([`crate::chaos`]) perturbs individual reads
//! on one node. This module judges the layer above: the
//! [`ClusterMonitor`](zerosum_core::ClusterMonitor)'s supervision of a
//! whole allocation while nodes are killed, stalled, rejoined late, and
//! clock-skewed by an [`AllocationFaultPlan`]. Per seeded plan it
//! asserts four properties:
//!
//! 1. **No panics** — the supervision layer survives every plan.
//! 2. **A report every round** — the allocation summary keeps rendering
//!    no matter how many nodes are down.
//! 3. **Honest degradation** — the `DEGRADED (k/n nodes)` marker
//!    appears exactly when the quorum shrank, with the right counts.
//! 4. **Exact survivors** — aggregates restricted to nodes that never
//!    went down match the fault-free run bit for bit (the differential
//!    property the independent per-node seeding guarantees).
//!
//! A separate [`bounded_memory_drill`] proves the monitor's series
//! memory stays constant over arbitrarily long runs: every time series
//! is a fixed-capacity ring that downsamples on wrap, so a million
//! sampling rounds hold the same storage as a few thousand.

use crate::verdict::{check_quorum_markers, seeded_suite, Verdict};
use zerosum_core::{Monitor, NodeState, ProcessInfo, ZeroSumConfig};
use zerosum_experiments::cluster_chaos::{
    run_cluster_chaos, run_cluster_chaos_with_plan, ClusterChaosOutcome,
};
use zerosum_proc::{
    CpuTimes, MemInfo, Pid, ProcSource, SchedStat, SourceResult, SystemStat, TaskStat, TaskStatus,
    Tid,
};
use zerosum_sched::AllocationFaultPlan;
use zerosum_topology::CpuSet;

/// Runs the verdict's seeded allocation fault plan and judges the
/// supervision layer's behaviour against the four properties above.
pub fn judge_cluster_run(v: &mut Verdict, node_count: usize, rounds: u32) {
    let outcome = run_cluster_chaos(node_count, rounds, v.seed);
    let faulted = outcome.plan.nodes.iter().filter(|p| p.is_faulty()).count();
    v.set_tally("faulted_nodes", faulted as u64);
    // Properties 2 and 3: a summary after every round, honestly marked.
    check_quorum_markers(
        v,
        &outcome.round_summaries,
        &outcome.round_quorums,
        node_count,
        rounds,
        "TOTAL:",
    );
    let dead_at_end = (0..node_count)
        .filter(|&i| {
            outcome
                .cluster
                .node_state(&ClusterChaosOutcome::hostname(i))
                == NodeState::Dead
        })
        .count();
    v.set_tally("dead_at_end", dead_at_end as u64);
    // Property 4: the differential check. Nodes that never went down
    // must aggregate identically to the fault-free run of the same seed.
    let clean = run_cluster_chaos_with_plan(
        node_count,
        rounds,
        v.seed,
        &AllocationFaultPlan::clean(node_count),
    );
    let clean_aggs = clean.cluster.aggregates();
    let faulted_aggs = outcome.cluster.aggregates();
    for i in outcome.plan.survivors(rounds) {
        let host = ClusterChaosOutcome::hostname(i);
        let f = faulted_aggs.iter().find(|a| a.hostname == host);
        let c = clean_aggs.iter().find(|a| a.hostname == host);
        match (f, c) {
            (Some(f), Some(c)) if f == c => {}
            (Some(_), Some(_)) => v
                .problems
                .push(format!("survivor {host} diverged from the fault-free run")),
            _ => v
                .problems
                .push(format!("survivor {host} missing from aggregates")),
        }
    }
    v.cells = format!(
        "{node_count} node(s)  {faulted} faulted  {dead_at_end} dead  \
         {:>3}/{rounds} degraded round(s)",
        v.tally("degraded_rounds"),
    );
}

/// Runs the allocation-scale soak: `schedules` seeded fault plans over
/// `node_count`-node allocations, each judged by [`judge_cluster_run`].
pub fn run_cluster_suite(
    node_count: usize,
    rounds: u32,
    schedules: usize,
    base_seed: u64,
) -> Vec<Verdict> {
    seeded_suite(
        |i| format!("alloc-f{i:02}"),
        10,
        schedules,
        base_seed,
        |_, v| judge_cluster_run(v, node_count, rounds),
    )
}

/// A synthetic two-thread node whose counters are pure functions of the
/// round number — the cheapest possible `ProcSource`, so the drill can
/// push a million sampling rounds through the full monitor stack in
/// seconds.
struct SyntheticNode {
    round: u64,
    pid: Pid,
}

impl SyntheticNode {
    fn times(&self, cpu: u64) -> CpuTimes {
        CpuTimes {
            user: self.round * 60 + cpu * 13,
            nice: 0,
            system: self.round * 10,
            idle: self.round * 30,
            iowait: 0,
            irq: 0,
            softirq: 0,
            steal: 0,
        }
    }
}

impl ProcSource for SyntheticNode {
    fn system_stat(&self) -> SourceResult<SystemStat> {
        let mut sys = SystemStat::default();
        for cpu in 0..2u64 {
            let t = self.times(cpu);
            sys.total.user += t.user;
            sys.total.system += t.system;
            sys.total.idle += t.idle;
            sys.cpus.push((cpu as u32, t));
        }
        sys.ctxt = self.round * 1_000;
        sys.processes = 100;
        Ok(sys)
    }

    fn meminfo(&self) -> SourceResult<MemInfo> {
        Ok(MemInfo {
            mem_total_kib: 16_000_000,
            mem_free_kib: 8_000_000,
            mem_available_kib: 12_000_000,
            ..Default::default()
        })
    }

    fn list_tasks(&self, pid: Pid) -> SourceResult<Vec<Tid>> {
        Ok(vec![pid, pid + 1])
    }

    fn task_stat(&self, _pid: Pid, tid: Tid) -> SourceResult<TaskStat> {
        Ok(TaskStat {
            tid,
            comm: "drill".to_string(),
            utime: self.round * 80,
            stime: self.round * 5,
            num_threads: 2,
            processor: tid % 2,
            starttime: 1_234,
            ..Default::default()
        })
    }

    fn task_status(&self, _pid: Pid, tid: Tid) -> SourceResult<TaskStatus> {
        Ok(TaskStatus {
            name: "drill".to_string(),
            tid,
            tgid: self.pid,
            vm_rss_kib: 100_000 + self.round % 1_000,
            vm_size_kib: 200_000,
            vm_hwm_kib: 101_000,
            cpus_allowed: CpuSet::from_indices([0u32, 1]),
            voluntary_ctxt_switches: self.round,
            nonvoluntary_ctxt_switches: self.round / 10,
            ..Default::default()
        })
    }

    fn task_schedstat(&self, _pid: Pid, _tid: Tid) -> SourceResult<SchedStat> {
        Ok(SchedStat {
            run_ns: self.round * 1_000_000,
            wait_ns: self.round * 10_000,
            timeslices: self.round,
        })
    }
}

/// Drives `rounds` sampling rounds through a monitor whose series
/// capacity is `capacity` and checks the bounded-memory invariant:
/// every time series (per-LWP, per-HWT, memory, process RSS) holds at
/// most `capacity` points, no round was lost from the running totals,
/// the rings actually wrapped when `rounds > capacity`, and the latest
/// point is always the current round. Returns every violated invariant
/// (empty = pass).
pub fn bounded_memory_drill(rounds: u64, capacity: usize) -> Vec<String> {
    let mut problems = Vec::new();
    let pid: Pid = 4_242;
    let mut mon = Monitor::new(ZeroSumConfig::default().with_series_capacity(capacity));
    mon.watch_process(ProcessInfo {
        pid,
        rank: Some(0),
        hostname: "drill".into(),
        gpus: vec![],
        cpus_allowed: CpuSet::from_indices([0u32, 1]),
    });
    for round in 1..=rounds {
        let src = SyntheticNode { round, pid };
        mon.sample(round as f64, &src);
    }
    let last_t = rounds as f64;
    let must_wrap = rounds as usize > capacity;
    if mon.stats.rounds != rounds {
        problems.push(format!(
            "monitor completed {}/{rounds} rounds",
            mon.stats.rounds
        ));
    }
    let Some(w) = mon.process(pid) else {
        problems.push("watched process vanished from the monitor".to_string());
        return problems;
    };
    // Every series, whatever it samples: within capacity, and still
    // ending at the current round.
    let mut bounded = |what: String, len: usize, latest: Option<f64>| {
        if len > capacity {
            problems.push(format!(
                "{what} series holds {len} points (capacity {capacity})"
            ));
        }
        if latest != Some(last_t) {
            problems.push(format!("{what} series lost the latest round"));
        }
    };
    let rss = &w.rss_series;
    bounded("rss".into(), rss.len(), rss.last().map(|p| p.0));
    for t in w.lwps.tracks() {
        let latest = t.samples.last().map(|s| s.t_s);
        bounded(format!("LWP {}", t.tid), t.samples.len(), latest);
    }
    for (cpu, s) in mon.hwt.series() {
        bounded(format!("CPU {cpu}"), s.len(), s.last().map(|x| x.t_s));
    }
    let mem = mon.mem.samples();
    bounded("memory".into(), mem.len(), mem.last().map(|s| s.t_s));
    if rss.total_pushed() != rounds {
        problems.push(format!(
            "rss series recorded {}/{rounds} rounds",
            rss.total_pushed()
        ));
    }
    if must_wrap && rss.wraps() == 0 {
        problems.push("rss series never wrapped despite overflow".to_string());
    }
    for t in w.lwps.tracks() {
        if must_wrap && t.samples.wraps() == 0 {
            problems.push(format!("LWP {} series never wrapped", t.tid));
        }
        // Downsampling must preserve both ends of the series.
        if t.samples.first().map(|s| s.t_s) != Some(1.0) {
            problems.push(format!("LWP {} series lost its first sample", t.tid));
        }
    }
    // The report must still render from downsampled series.
    let report = zerosum_core::render_process_report(&mon, pid, last_t, None);
    if !report.contains("Sampling Health:") {
        problems.push("report no longer renders after ring wrap".to_string());
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ISSUE acceptance soak: 20 seeded node-fault plans, zero
    /// panics, a report with honest DEGRADED markers every round, and
    /// survivor aggregates exactly matching the fault-free run.
    #[test]
    fn cluster_soak_twenty_plans_all_pass() {
        let reports = run_cluster_suite(4, 20, 20, 0xA110);
        assert_eq!(reports.len(), 20);
        let failed: Vec<&Verdict> = reports.iter().filter(|r| !r.passed()).collect();
        assert!(
            failed.is_empty(),
            "failed plans:\n{}",
            failed.iter().map(|r| r.render()).collect::<String>()
        );
        // The soak must exercise the machinery: every generated plan is
        // chaotic, and across 20 plans some nodes die and degrade the
        // quorum.
        assert!(reports.iter().all(|r| r.tally("faulted_nodes") > 0));
        let degraded: u64 = reports.iter().map(|r| r.tally("degraded_rounds")).sum();
        assert!(degraded > 0, "no plan ever degraded the quorum");
        assert!(
            reports.iter().any(|r| r.tally("dead_at_end") > 0),
            "no plan left a node dead"
        );
    }

    #[test]
    fn bounded_memory_drill_wraps_and_stays_constant() {
        // 20k rounds into capacity-64 rings: >300 wraps per series.
        let problems = bounded_memory_drill(20_000, 64);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn bounded_memory_drill_without_overflow_also_passes() {
        let problems = bounded_memory_drill(50, 4_096);
        assert!(problems.is_empty(), "{problems:?}");
    }
}
