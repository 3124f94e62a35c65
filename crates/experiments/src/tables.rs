//! Tables 1–3: the three Frontier launch configurations of §4.
//!
//! All three run the same CPU-only miniQMC-sim (8 ranks, 7 OpenMP
//! threads); they differ only in the `srun` arguments and OpenMP binding
//! environment, exactly as in the paper:
//!
//! * **Table 1** — `srun -n8` (default: one core per process; every
//!   thread lands on the rank's single core).
//! * **Table 2** — `srun -n8 -c7` (7 cores per rank, threads unbound).
//! * **Table 3** — `srun -n8 -c7` + `OMP_PROC_BIND=spread
//!   OMP_PLACES=cores` (one thread pinned per core).

use std::sync::{Arc, Mutex};
use zerosum_apps::{launch_miniqmc, MiniQmcConfig, MiniQmcJob};
use zerosum_core::{
    attach_monitor_threads, evaluate, render_process_report, run_monitored, run_monitored_faulty,
    Finding, HealthLedger, Monitor, ProcessInfo, ZeroSumConfig,
};
use zerosum_omp::{OmpEnv, OmptRegistry};
use zerosum_proc::fault::{FaultInjector, FaultPlan, Op};
use zerosum_sched::{NodeSim, SchedParams, SimAudit, SrunConfig, TraceRecord};
use zerosum_topology::presets;

/// Which table's configuration to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableConfig {
    /// Default `srun -n8`.
    Table1,
    /// `srun -n8 -c7`, unbound threads.
    Table2,
    /// `srun -n8 -c7`, `spread`/`cores`.
    Table3,
}

impl TableConfig {
    /// Human label.
    pub fn label(self) -> &'static str {
        match self {
            TableConfig::Table1 => "Table 1: srun -n8 (default, 1 core/process)",
            TableConfig::Table2 => "Table 2: srun -n8 -c7 (unbound threads)",
            TableConfig::Table3 => "Table 3: srun -n8 -c7 + OMP_PROC_BIND=spread OMP_PLACES=cores",
        }
    }
}

/// One row of the paper's LWP table.
#[derive(Debug, Clone, PartialEq)]
pub struct LwpRow {
    /// Thread id.
    pub tid: u32,
    /// Type label (`Main, OpenMP`, `ZeroSum`, `OpenMP`, `Other`).
    pub label: String,
    /// Average system jiffies per period.
    pub stime: f64,
    /// Average user jiffies per period.
    pub utime: f64,
    /// Non-voluntary context switches.
    pub nvctx: u64,
    /// Voluntary context switches.
    pub ctx: u64,
    /// Affinity list.
    pub cpus: String,
    /// Migrations observed through the `processor` field.
    pub migrations: usize,
}

/// The result of one table run.
#[derive(Debug)]
pub struct TableRun {
    /// Which configuration ran.
    pub config: TableConfig,
    /// Application duration, virtual seconds.
    pub duration_s: f64,
    /// Rank 0's LWP rows, tid-ascending.
    pub rows: Vec<LwpRow>,
    /// The full rank-0 report (Listing 2 format).
    pub report: String,
    /// Configuration-evaluator findings.
    pub findings: Vec<Finding>,
    /// Total migrations across rank 0's OpenMP team.
    pub team_migrations: usize,
}

fn miniqmc_for(config: TableConfig, scale: u32) -> MiniQmcConfig {
    let mut cfg = MiniQmcConfig::frontier_cpu().scaled_down(scale);
    match config {
        TableConfig::Table1 => {
            cfg.srun = SrunConfig {
                ntasks: 8,
                cpus_per_task: None,
                threads_per_core: 1,
                reserve_first_core_per_l3: true,
                gpu_bind_closest: false,
            };
            cfg.omp = OmpEnv::from_pairs([("OMP_NUM_THREADS", "7")]).unwrap();
        }
        TableConfig::Table2 => {
            cfg.omp = OmpEnv::from_pairs([("OMP_NUM_THREADS", "7")]).unwrap();
        }
        TableConfig::Table3 => {
            cfg.omp = OmpEnv::from_pairs([
                ("OMP_NUM_THREADS", "7"),
                ("OMP_PROC_BIND", "spread"),
                ("OMP_PLACES", "cores"),
            ])
            .unwrap();
        }
    }
    cfg
}

/// Runs one table configuration. `scale` divides the block count
/// (1 = the full paper-calibrated workload; tests use 50–100).
pub fn run_table(config: TableConfig, scale: u32, seed: u64) -> TableRun {
    run_table_impl(config, scale, seed, false, ZeroSumConfig::scaled(scale)).0
}

/// Like [`run_table`] but with an explicit monitor configuration —
/// used by the differential suites (e.g. delta sampling on vs off must
/// produce identical tables).
pub fn run_table_configured(
    config: TableConfig,
    scale: u32,
    seed: u64,
    zs: ZeroSumConfig,
) -> TableRun {
    run_table_impl(config, scale, seed, false, zs).0
}

/// Like [`run_table`] but with scheduler event tracing enabled: also
/// returns the full decision trace and the final-counter audit that
/// `zerosum-analyze` replays it against.
pub fn run_table_traced(
    config: TableConfig,
    scale: u32,
    seed: u64,
) -> (TableRun, Vec<TraceRecord>, SimAudit) {
    let (run, traced) = run_table_impl(config, scale, seed, true, ZeroSumConfig::scaled(scale));
    let (trace, audit) = traced.expect("tracing was enabled");
    (run, trace, audit)
}

/// A launched-and-watched table scenario, ready to drive: the simulated
/// node with miniQMC running on it, and a monitor already watching every
/// rank with its monitor threads attached.
struct PreparedTable {
    topo: zerosum_topology::Topology,
    sim: NodeSim,
    job: MiniQmcJob,
    monitor: Monitor,
}

/// Builds the simulation, launches miniQMC per the table's `srun`/OMP
/// configuration, wires OMPT discovery into a fresh monitor, and attaches
/// the monitor threads — everything up to (but excluding) the run itself,
/// shared by the plain, traced, and chaos drivers.
fn prepare_table(
    config: TableConfig,
    scale: u32,
    seed: u64,
    trace: bool,
    zs: ZeroSumConfig,
) -> PreparedTable {
    let topo = presets::frontier();
    let mut sim = NodeSim::new(
        topo.clone(),
        SchedParams {
            seed,
            ..SchedParams::default()
        },
    );
    sim.set_tracing(trace);
    let qmc = miniqmc_for(config, scale);
    // OMPT: collect thread-begin events the way the real tool does.
    let omp_tids: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    let mut ompt = OmptRegistry::new();
    {
        let omp_tids = Arc::clone(&omp_tids);
        ompt.on_thread_begin(move |ev| omp_tids.lock().unwrap().push(ev.tid));
    }
    let job = launch_miniqmc(&mut sim, &topo, &qmc, &mut ompt).expect("launch");
    let mut monitor = Monitor::new(zs);
    for team in &job.teams {
        let rank = sim.process(team.pid).and_then(|p| p.rank);
        monitor.watch_process(ProcessInfo {
            pid: team.pid,
            rank,
            hostname: sim.hostname().to_string(),
            gpus: vec![],
            cpus_allowed: sim
                .process(team.pid)
                .map(|p| p.cpus_allowed.clone())
                .unwrap_or_default(),
        });
    }
    // Feed the OMPT-discovered tids to the monitor.
    for &tid in omp_tids.lock().unwrap().iter() {
        if let Some(task) = sim.task_by_tid(tid) {
            let pid = task.pid;
            monitor.register_omp_thread(pid, tid);
        }
    }
    attach_monitor_threads(&mut sim, &monitor);
    PreparedTable {
        topo,
        sim,
        job,
        monitor,
    }
}

/// Digests a finished run into the paper-table rows and findings.
fn finish_table(config: TableConfig, duration_s: f64, prep: &PreparedTable) -> TableRun {
    let monitor = &prep.monitor;
    let rank0 = prep.job.teams[0].pid;
    let report = render_process_report(monitor, rank0, duration_s, None);
    let findings = evaluate(monitor, &prep.topo);
    let watch = monitor.process(rank0).expect("rank 0 watched");
    let mut rows: Vec<LwpRow> = watch
        .lwps
        .tracks()
        .map(|t| LwpRow {
            tid: t.tid,
            label: t.kind.label(t.is_openmp),
            stime: t.avg_stime_per_period(),
            utime: t.avg_utime_per_period(),
            nvctx: t.total_nvcsw(),
            ctx: t.total_vcsw(),
            cpus: t.affinity.to_list_string(),
            migrations: t.observed_migrations(),
        })
        .collect();
    rows.sort_by_key(|r| r.tid);
    let team_migrations = watch
        .lwps
        .tracks()
        .filter(|t| t.is_openmp || t.kind == zerosum_core::LwpKind::Main)
        .map(|t| t.observed_migrations())
        .sum();
    TableRun {
        config,
        duration_s,
        rows,
        report,
        findings,
        team_migrations,
    }
}

fn run_table_impl(
    config: TableConfig,
    scale: u32,
    seed: u64,
    trace: bool,
    zs: ZeroSumConfig,
) -> (TableRun, Option<(Vec<TraceRecord>, SimAudit)>) {
    let mut prep = prepare_table(config, scale, seed, trace, zs);
    let out = run_monitored(&mut prep.sim, &mut prep.monitor, None, 3_600_000_000);
    assert!(out.completed, "table run timed out");
    let traced = trace.then(|| {
        let audit = prep.sim.audit();
        (prep.sim.take_trace(), audit)
    });
    (finish_table(config, out.duration_s, &prep), traced)
}

/// The chaos harness's view of one faulted table run: the monitor's
/// health accounting side-by-side with the injector's ground truth.
#[derive(Debug)]
pub struct ChaosAudit {
    /// The node ledger merged with every process ledger.
    pub ledger: HealthLedger,
    /// Errors the monitor accounted for, by `SourceErrorKind` index.
    pub ledger_errors: [u64; 4],
    /// Errors the injector delivered (injected + passed through),
    /// excluding `schedstat` reads — the monitor treats a missing
    /// schedstat as an absent kernel feature, not an error.
    pub injected_errors: [u64; 4],
    /// Sampling-loop panics caught by the supervisor.
    pub supervisor_restarts: u64,
    /// Tids still quarantined at run end, across all ranks.
    pub quarantined: usize,
    /// Stale (cached) reads the injector served.
    pub stale_serves: u64,
    /// Read latency injected, µs.
    pub injected_latency_us: u64,
    /// Total fault-log entries.
    pub fault_events: usize,
    /// Whether the application ran to completion under fault load.
    pub completed: bool,
}

impl ChaosAudit {
    /// Exact reconciliation: every error the injector delivered is
    /// accounted for in the ledgers, and nothing more.
    pub fn reconciles(&self) -> bool {
        self.ledger_errors == self.injected_errors
    }
}

/// Runs one table configuration with every `/proc` read routed through a
/// seeded fault injector, and audits the monitor's health accounting
/// against the injected fault log.
pub fn run_table_chaos(
    config: TableConfig,
    scale: u32,
    seed: u64,
    plan: FaultPlan,
) -> (TableRun, ChaosAudit) {
    let mut prep = prepare_table(config, scale, seed, false, ZeroSumConfig::scaled(scale));
    let injector = FaultInjector::new(plan);
    let out = run_monitored_faulty(
        &mut prep.sim,
        &mut prep.monitor,
        None,
        3_600_000_000,
        &injector,
    );
    let ledger = prep.monitor.health_total();
    let audit = ChaosAudit {
        ledger_errors: ledger.errors_by_kind,
        injected_errors: injector.error_counts_excluding(&[Op::SchedStat]),
        supervisor_restarts: prep.monitor.supervisor.restarts,
        quarantined: prep
            .monitor
            .processes()
            .iter()
            .map(|w| w.health.quarantined_now())
            .sum(),
        stale_serves: injector.stale_count(),
        injected_latency_us: injector.injected_latency_us(),
        fault_events: injector.log().len(),
        completed: out.completed,
        ledger,
    };
    (finish_table(config, out.duration_s, &prep), audit)
}

/// Formats the rows like the paper's tables.
pub fn render_rows(run: &TableRun) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "{}", run.config.label()).unwrap();
    writeln!(out, "Application runtime: {:.2} s", run.duration_s).unwrap();
    writeln!(
        out,
        "{:>6}  {:<12} {:>7} {:>7} {:>9} {:>7}  CPUs",
        "LWP", "Type", "stime", "utime", "nvctx", "ctx"
    )
    .unwrap();
    for r in &run.rows {
        writeln!(
            out,
            "{:>6}  {:<12} {:>7.2} {:>7.2} {:>9} {:>7}  {}",
            r.tid, r.label, r.stime, r.utime, r.nvctx, r.ctx, r.cpus
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn openmp_rows(run: &TableRun) -> Vec<&LwpRow> {
        run.rows
            .iter()
            .filter(|r| r.label.contains("OpenMP"))
            .collect()
    }

    #[test]
    fn table1_oversubscribes_single_core() {
        let run = run_table(TableConfig::Table1, 100, 1);
        // Every team thread bound to core 1 (the paper's observation).
        for r in openmp_rows(&run) {
            assert_eq!(r.cpus, "1", "row {r:?}");
        }
        // Massive involuntary churn, little voluntary.
        let nv: u64 = openmp_rows(&run).iter().map(|r| r.nvctx).sum();
        let v: u64 = openmp_rows(&run).iter().map(|r| r.ctx).sum();
        assert!(nv > 500, "nvctx total {nv}");
        assert!(v < nv / 5, "ctx {v} vs nvctx {nv}");
        // Evaluator screams.
        assert!(run
            .findings
            .iter()
            .any(|f| matches!(f, Finding::OversubscribedHwts { .. })));
    }

    #[test]
    fn table2_spreads_and_migrates() {
        let run = run_table(TableConfig::Table2, 100, 2);
        for r in openmp_rows(&run) {
            assert_eq!(r.cpus, "1-7", "unbound mask, row {r:?}");
        }
        let nv: u64 = openmp_rows(&run).iter().map(|r| r.nvctx).sum();
        assert!(nv < 200, "nvctx total {nv}");
        // Unbound threads flagged as an Info finding.
        assert!(run
            .findings
            .iter()
            .any(|f| matches!(f, Finding::UnboundThreads { .. })));
    }

    #[test]
    fn table3_binds_and_eliminates_migrations() {
        let run = run_table(TableConfig::Table3, 100, 3);
        let rows = openmp_rows(&run);
        // One thread per core: single-CPU masks.
        for r in &rows {
            assert_eq!(r.cpus.split(',').count(), 1);
            assert!(!r.cpus.contains('-'), "row {r:?}");
        }
        assert_eq!(run.team_migrations, 0, "bound threads never migrate");
    }

    #[test]
    fn delta_sampling_is_table_equivalent_over_twenty_seeds() {
        // Delta sampling replays a thread's last good records when its
        // schedstat is unchanged; those records are identical to what a
        // fresh read would return, so the published tables must match
        // the delta-off run bit for bit. Twenty seeds across all three
        // configurations, fanned out on the experiment engine.
        let seeds: Vec<u64> = (0..20u64).map(|i| 101 + i * 37).collect();
        let scale = 300;
        let job = |seed: u64| {
            let config = match seed % 3 {
                0 => TableConfig::Table1,
                1 => TableConfig::Table2,
                _ => TableConfig::Table3,
            };
            let on = run_table_configured(config, scale, seed, ZeroSumConfig::scaled(scale));
            let off = run_table_configured(
                config,
                scale,
                seed,
                ZeroSumConfig::scaled(scale).with_delta_sampling(false),
            );
            (seed, on, off)
        };
        let jobs = seeds.iter().map(|&seed| move || job(seed)).collect();
        for (seed, on, off) in crate::parallel::run_jobs(jobs, 0) {
            assert_eq!(on.rows, off.rows, "rows diverged at seed {seed}");
            assert_eq!(
                on.duration_s, off.duration_s,
                "virtual runtime diverged at seed {seed}"
            );
            assert_eq!(
                on.team_migrations, off.team_migrations,
                "migrations diverged at seed {seed}"
            );
            // The health ledger counts fresh reads, and delta hits
            // replace fresh reads by design — compare everything above
            // the Sampling Health section (the published report body).
            let body = |r: &str| r.split("\nSampling Health:").next().unwrap().to_string();
            assert_eq!(
                body(&on.report),
                body(&off.report),
                "report body diverged at seed {seed}"
            );
        }
    }

    #[test]
    fn runtime_ordering_matches_paper() {
        let t1 = run_table(TableConfig::Table1, 100, 4);
        let t2 = run_table(TableConfig::Table2, 100, 4);
        let t3 = run_table(TableConfig::Table3, 100, 4);
        assert!(
            t1.duration_s > 2.0 * t2.duration_s,
            "oversubscribed run must be much slower: t1 {} vs t2 {}",
            t1.duration_s,
            t2.duration_s
        );
        let ratio = t3.duration_s / t2.duration_s;
        assert!(
            (0.8..1.25).contains(&ratio),
            "t2 {} and t3 {} should be comparable",
            t2.duration_s,
            t3.duration_s
        );
    }

    #[test]
    fn reports_render_in_paper_format() {
        let run = run_table(TableConfig::Table3, 200, 5);
        assert!(run.report.contains("Duration of execution:"));
        assert!(run.report.contains("MPI 000"));
        assert!(run.report.contains("CPUs allowed: [1-7]"));
        let rows = render_rows(&run);
        assert!(rows.contains("Table 3"));
        assert!(rows.contains("ZeroSum"));
    }
}
