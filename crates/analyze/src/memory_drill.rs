//! The bounded-memory drill: the monitor's series memory stays
//! constant over arbitrarily long runs. Every time series is a
//! fixed-capacity ring that downsamples on wrap, so a million sampling
//! rounds hold the same storage as a few thousand. `zerosum
//! cluster-chaos` runs it after the allocation chaos suite.

use zerosum_core::{Monitor, ProcessInfo, ZeroSumConfig};
use zerosum_proc::{
    CpuTimes, MemInfo, Pid, ProcSource, SchedStat, SourceResult, SystemStat, TaskStat, TaskStatus,
    Tid,
};
use zerosum_topology::CpuSet;

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
