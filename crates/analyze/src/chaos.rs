//! The chaos harness: Tables 1–3 under seeded procfs fault schedules.
//!
//! ZeroSum's §3.1.1 observation surface is hostile — tasks vanish
//! mid-read, `/proc` files go momentarily unreadable, reads stall. This
//! module drives the full table experiments through
//! [`run_table_chaos`], with every `/proc` read routed through a seeded
//! [`FaultInjector`](zerosum_proc::FaultInjector), and asserts three
//! properties per schedule:
//!
//! 1. **No panics** — the application completes and the sampling-loop
//!    supervisor never had to catch anything.
//! 2. **Exact accounting** — the merged `HealthLedger`s reconcile
//!    one-for-one against the injector's ground-truth fault log.
//! 3. **Bounded distortion** — duration and per-thread utilization stay
//!    within tolerance of the fault-free run at realistic fault rates.
//!
//! A separate [`abnormal_exit_drill`] rehearses the crash path: it
//! registers a partial-log flush, fires a simulated SIGSEGV, and checks
//! that every emitted log is marked `PARTIAL`, terminated by the `END`
//! marker, and that no torn `.tmp` files remain.

use std::sync::Arc;

use crate::verdict::{seeded_suite, Verdict};
use zerosum_core::export::{write_partial_logs, LOG_END_MARKER, LOG_PARTIAL_MARKER};
use zerosum_core::signal::{
    clear_crash_flushes, register_crash_flush, report_abnormal_exit, AbnormalExit,
};
use zerosum_core::{render_process_report, Monitor, ProcessInfo, Tracked, ZeroSumConfig};
use zerosum_experiments::tables::{run_table, run_table_chaos, ChaosAudit, TableConfig, TableRun};
use zerosum_proc::fault::{FaultKind, FaultPlan, FaultRates, Op, ScriptedFault};
use zerosum_sched::{Behavior, NodeSim, SchedParams, SimProcSource};
use zerosum_topology::{presets, CpuSet};

/// The three table configurations the soak cycles through, each with
/// its schedule-name prefix and the seed its simulations run on.
const TABLES: [(TableConfig, &str, u64); 3] = [
    (TableConfig::Table1, "t1", 11),
    (TableConfig::Table2, "t2", 12),
    (TableConfig::Table3, "t3", 13),
];

/// Duration-distortion tolerance vs. the fault-free run. Injected read
/// latency and retry backoff are charged to virtual time, so faulted
/// runs may only be slightly slower, never faster.
pub const DURATION_TOL: (f64, f64) = (0.95, 1.25);

/// Mean per-thread utime distortion tolerance vs. the fault-free run.
/// Interpolated and dropped samples shift per-period averages a little;
/// more than this means degradation is corrupting the measurement.
pub const UTIME_TOL: (f64, f64) = (0.70, 1.40);

/// A fault schedule at rates representative of a busy production node:
/// ~1% transient I/O failures and stale reads on every op, ~2% of reads
/// slowed by 100 µs, plus exit races (`NotFound`) and torn writes
/// (`Malformed`) on the per-task files where they occur in practice.
///
/// Deliberately no permanent faults on the node-level ops: a permanent
/// `Denied` on `(SystemStat, 0, 0)` would blind hardware-thread
/// observation for the whole run, which is a different experiment.
pub fn realistic_plan(fault_seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::quiet(fault_seed);
    plan.default_rates = FaultRates {
        io_transient: 0.01,
        stale: 0.01,
        latency_prob: 0.02,
        latency_us: 100,
        ..FaultRates::default()
    };
    let task_rates = FaultRates {
        not_found: 0.005,
        malformed: 0.005,
        ..plan.default_rates
    };
    plan.per_op = vec![(Op::TaskStat, task_rates), (Op::TaskStatus, task_rates)];
    plan
}

/// A schedule whose only fault is one scripted panic inside the first
/// sampling round — exercises the `catch_unwind` supervisor end-to-end.
pub fn panic_plan(fault_seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::quiet(fault_seed);
    // Call 3 is the first per-task read of round one (the `schedstat`
    // that leads each task slot, after `system_stat` and `list_tasks`).
    plan.scripted = vec![ScriptedFault {
        call: 3,
        kind: FaultKind::Panic,
    }];
    plan
}

fn mean_utime(run: &TableRun) -> f64 {
    if run.rows.is_empty() {
        return 0.0;
    }
    run.rows.iter().map(|r| r.utime).sum::<f64>() / run.rows.len() as f64
}

/// Judges one faulted run against its fault-free baseline.
pub fn judge(v: &mut Verdict, run: &TableRun, audit: &ChaosAudit, baseline: &TableRun) {
    let duration_ratio = run.duration_s / baseline.duration_s.max(1e-9);
    let base_utime = mean_utime(baseline);
    let utime_ratio = if base_utime > 0.0 {
        mean_utime(run) / base_utime
    } else {
        1.0
    };
    if !audit.completed {
        v.problems
            .push("application did not complete under fault load".to_string());
    }
    if !audit.reconciles() {
        v.problems.push(format!(
            "ledger/fault-log mismatch: accounted {:?} vs injected {:?}",
            audit.ledger_errors, audit.injected_errors
        ));
    }
    if audit.supervisor_restarts > 0 {
        v.problems.push(format!(
            "sampling loop panicked {} time(s)",
            audit.supervisor_restarts
        ));
    }
    if !(DURATION_TOL.0..=DURATION_TOL.1).contains(&duration_ratio) {
        v.problems.push(format!(
            "duration ratio {duration_ratio:.3} outside {DURATION_TOL:?}"
        ));
    }
    if !(UTIME_TOL.0..=UTIME_TOL.1).contains(&utime_ratio) {
        v.problems.push(format!(
            "utime ratio {utime_ratio:.3} outside {UTIME_TOL:?}"
        ));
    }
    v.set_tally("fault_events", audit.fault_events as u64);
    v.set_tally("errors_accounted", audit.ledger.errors_total());
    v.cells = format!(
        "{:>5} faults  {:>4} errors  {:>3} degraded  {:>3} retried  dur x{:.3}  utime x{:.3}",
        audit.fault_events,
        audit.ledger.errors_total(),
        audit.ledger.degraded,
        audit.ledger.retried,
        duration_ratio,
        utime_ratio,
    );
}

/// Runs the chaos soak: one fault-free baseline per table configuration,
/// then `schedules` seeded fault schedules distributed round-robin over
/// the three configurations, each judged against its baseline.
pub fn run_suite(scale: u32, schedules: usize, base_fault_seed: u64) -> Vec<Verdict> {
    // Baselines and fault schedules are independent simulations; both
    // stages fan out on the experiment engine. Results come back in
    // submission order, so reports are identical to a sequential run.
    let baselines: Vec<TableRun> = zerosum_experiments::parallel::run_jobs(
        TABLES
            .iter()
            .map(|&(config, _, sim_seed)| move || run_table(config, scale, sim_seed))
            .collect(),
        0,
    );
    seeded_suite(
        |i| format!("{}-f{i:02}", TABLES[i % TABLES.len()].1),
        8,
        schedules,
        base_fault_seed,
        |i, v| {
            let (config, _, sim_seed) = TABLES[i % TABLES.len()];
            let (run, audit) = run_table_chaos(config, scale, sim_seed, realistic_plan(v.seed));
            judge(v, &run, &audit, &baselines[i % TABLES.len()]);
        },
    )
}

/// Rehearses the crash-safe export path and returns every problem found
/// (empty = pass): builds a small monitored run, registers a
/// partial-log flush, fires a simulated SIGSEGV through
/// [`report_abnormal_exit`], then checks that each log it wrote (into a
/// scratch directory of this process, removed afterwards) opens with
/// the `PARTIAL` marker, closes with the `END` marker, and that no torn
/// `.tmp` files were left behind.
///
/// Uses the process-global crash-flush registry; callers must not run
/// two drills concurrently.
pub fn abnormal_exit_drill() -> Vec<String> {
    let dir = std::env::temp_dir().join(format!("zerosum-chaos-drill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut problems = Vec::new();
    let mut sim = NodeSim::new(presets::laptop_i7_1165g7(), SchedParams::default());
    let pid = sim.spawn_process(
        "app",
        CpuSet::from_indices([0u32, 1]),
        1_024,
        Behavior::FiniteCompute {
            remaining_us: 800_000,
            chunk_us: 10_000,
        },
    );
    let mut mon = Monitor::new(ZeroSumConfig::default().with_period_ms(100));
    mon.watch_process(ProcessInfo {
        pid,
        rank: Some(0),
        hostname: "chaos-node".into(),
        gpus: vec![],
        cpus_allowed: Default::default(),
    });
    for round in 0..4u64 {
        sim.run_for(100_000);
        let src = SimProcSource::new(&sim);
        mon.sample(round as f64 * 0.1, &src);
    }
    clear_crash_flushes();
    let shared = Arc::new(Tracked::new("analyze.chaos.flush_monitor", mon));
    let flush_mon = Arc::clone(&shared);
    let flush_dir = dir.clone();
    register_crash_flush(move || {
        if let Ok(m) = flush_mon.lock() {
            let _ = write_partial_logs(&m, &flush_dir, "SIGSEGV", |p| {
                render_process_report(&m, p, m.last_t_s, None)
            });
        }
    });
    let report = report_abnormal_exit(AbnormalExit::SegmentationViolation, pid, Some(0));
    clear_crash_flushes();
    if !report.contains("SIGSEGV") {
        problems.push("crash report does not name the signal".to_string());
    }
    let mut logs = 0usize;
    match std::fs::read_dir(&dir) {
        Ok(entries) => {
            for entry in entries.flatten() {
                let path = entry.path();
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.ends_with(".tmp") {
                    problems.push(format!("torn temp file left behind: {name}"));
                    continue;
                }
                if !name.ends_with(".log") {
                    continue;
                }
                logs += 1;
                let content = std::fs::read_to_string(&path).unwrap_or_default();
                if !content.starts_with(LOG_PARTIAL_MARKER) {
                    problems.push(format!("{name}: missing PARTIAL marker"));
                }
                if !content.trim_end().ends_with(LOG_END_MARKER) {
                    problems.push(format!("{name}: missing END marker (torn write?)"));
                }
                if !content.contains("Sampling health (CSV)") {
                    problems.push(format!("{name}: health ledger section missing"));
                }
            }
        }
        Err(e) => problems.push(format!("cannot read drill dir: {e}")),
    }
    if logs == 0 {
        problems.push("crash flush produced no partial logs".to_string());
    }
    let _ = std::fs::remove_dir_all(&dir);
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ISSUE acceptance soak: ≥ 20 seeded schedules across Tables
    /// 1–3, zero panics, exact reconciliation, bounded distortion.
    #[test]
    fn chaos_soak_twenty_one_schedules_all_pass() {
        let reports = run_suite(150, 21, 0xC4A0);
        assert_eq!(reports.len(), 21);
        let failed: Vec<&Verdict> = reports.iter().filter(|r| !r.passed()).collect();
        assert!(
            failed.is_empty(),
            "failed schedules:\n{}",
            failed.iter().map(|r| r.render()).collect::<String>()
        );
        // The soak must actually exercise the machinery: faults were
        // injected and some were hard errors the ledger accounted for.
        let total_faults: u64 = reports.iter().map(|r| r.tally("fault_events")).sum();
        let total_errors: u64 = reports.iter().map(|r| r.tally("errors_accounted")).sum();
        assert!(total_faults > 100, "only {total_faults} faults injected");
        assert!(total_errors > 20, "only {total_errors} errors accounted");
    }

    #[test]
    fn scripted_panic_is_caught_and_still_reconciles() {
        // Silence the default panic printer around the injected panic.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (run, audit) = run_table_chaos(TableConfig::Table1, 200, 7, panic_plan(7));
        std::panic::set_hook(prev);
        assert!(audit.completed, "app must survive a monitor panic");
        assert_eq!(audit.supervisor_restarts, 1);
        // A panic is not a read error: the ledgers still reconcile.
        assert!(audit.reconciles(), "{audit:?}");
        assert!(run.duration_s > 0.0);
    }

    #[test]
    fn abnormal_exit_drill_leaves_no_torn_files() {
        let problems = abnormal_exit_drill();
        assert!(problems.is_empty(), "drill problems: {problems:?}");
    }
}
