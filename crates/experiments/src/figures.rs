//! Figures 5–8: heatmap, time series, and the overhead study.

use crate::launch::launch_monitored;
use crate::tables::{prepare_table, PreparedTable, TableConfig};
use zerosum_apps::{run_pic, PicConfig};
use zerosum_mpi::{heatmap, CommMatrix};
use zerosum_sched::{SimAudit, TraceRecord};
use zerosum_stats::{welch_t_test, Summary, TTest};

// ---------------------------------------------------------------------
// Figure 5
// ---------------------------------------------------------------------

/// Result of the Figure 5 reproduction.
#[derive(Debug)]
pub struct Fig5Run {
    /// The accumulated point-to-point matrix.
    pub matrix: CommMatrix,
    /// Fraction of traffic within 2 ranks of the diagonal.
    pub diagonal_fraction: f64,
    /// Peak pair bytes (the paper's color scale tops at ~1.75e10).
    pub max_pair_bytes: u64,
}

/// Runs the PIC communication proxy and summarizes the heatmap.
pub fn fig5(cfg: &PicConfig) -> Fig5Run {
    let matrix = run_pic(cfg);
    Fig5Run {
        diagonal_fraction: matrix.diagonal_fraction(cfg.halo_width),
        max_pair_bytes: matrix.max_bytes(),
        matrix,
    }
}

/// ASCII rendering of the Figure 5 heatmap.
pub fn fig5_ascii(run: &Fig5Run, cells: usize) -> String {
    heatmap::render_ascii(&run.matrix, cells)
}

// ---------------------------------------------------------------------
// Figures 6 & 7
// ---------------------------------------------------------------------

/// Result of the Figures 6/7 time-series reproduction: the Table 3 run's
/// per-LWP and per-HWT CSV series, plus render-ready stacked bundles.
#[derive(Debug)]
pub struct Fig67Run {
    /// Per-LWP cumulative-counter CSV (Figure 6's source data).
    pub lwp_csv: String,
    /// Per-HWT utilization CSV (Figure 7's data).
    pub hwt_csv: String,
    /// Number of samples taken.
    pub samples: usize,
    /// Figure 6: per-interval user-jiffy series of rank 0's team threads.
    pub lwp_bundle: zerosum_stats::SeriesBundle,
    /// Figure 7: idle/system/user series of rank 0's core 1.
    pub hwt_bundle: zerosum_stats::SeriesBundle,
}

/// Runs the Table 3 configuration and exports the periodic series.
pub fn fig67(scale: u32, seed: u64) -> Fig67Run {
    fig67_impl(scale, seed, false).0
}

/// Like [`fig67`] but with scheduler event tracing enabled.
pub fn fig67_traced(scale: u32, seed: u64) -> (Fig67Run, Vec<TraceRecord>, SimAudit) {
    let (run, traced) = fig67_impl(scale, seed, true);
    let (trace, audit) = traced.expect("tracing was enabled");
    (run, trace, audit)
}

fn fig67_impl(
    scale: u32,
    seed: u64,
    trace: bool,
) -> (Fig67Run, Option<(Vec<TraceRecord>, SimAudit)>) {
    let zs = zerosum_core::ZeroSumConfig::scaled(scale);
    let PreparedTable {
        mut sim,
        job,
        mut monitor,
        ..
    } = prepare_table(TableConfig::Table3, scale, seed, trace, zs);
    let out = zerosum_core::run_monitored(&mut sim, &mut monitor, None, 3_600_000_000);
    assert!(out.completed);
    let traced = trace.then(|| {
        let audit = sim.audit();
        (sim.take_trace(), audit)
    });
    let watch = monitor.process(job.teams[0].pid).unwrap();
    // Figure 6 bundle: user-jiffy deltas per team LWP.
    let mut lwp_bundle = zerosum_stats::SeriesBundle::new();
    for t in watch.lwps.tracks() {
        if !(t.is_openmp || t.kind == zerosum_core::LwpKind::Main) {
            continue;
        }
        let mut cum = zerosum_stats::TimeSeries::new(&format!("LWP {}", t.tid));
        for s in &t.samples {
            cum.push(s.t_s, s.utime as f64);
        }
        lwp_bundle.push(cum.deltas());
    }
    // Figure 7 bundle: core 1's utilization components.
    let mut hwt_bundle = zerosum_stats::SeriesBundle::new();
    if let Some(samples) = monitor.hwt.samples(1) {
        for (name, get) in [("user%", 0usize), ("system%", 1), ("idle%", 2)] {
            let mut series = zerosum_stats::TimeSeries::new(name);
            for s in samples {
                let v = match get {
                    0 => s.user_pct,
                    1 => s.system_pct,
                    _ => s.idle_pct,
                };
                series.push(s.t_s, v);
            }
            hwt_bundle.push(series);
        }
    }
    (
        Fig67Run {
            lwp_csv: zerosum_core::export::lwp_csv(watch),
            hwt_csv: zerosum_core::export::hwt_csv(&monitor),
            samples: out.samples as usize,
            lwp_bundle,
            hwt_bundle,
        },
        traced,
    )
}

// ---------------------------------------------------------------------
// Figure 8
// ---------------------------------------------------------------------

/// Result of the §4.1 overhead study for one threads-per-core setting.
#[derive(Debug)]
pub struct Fig8Run {
    /// Self-reported runtimes of the 10 baseline executions, seconds.
    pub baseline: Vec<f64>,
    /// Runtimes with ZeroSum attached, seconds.
    pub with_zerosum: Vec<f64>,
    /// Welch's t-test over the two distributions.
    pub ttest: Option<TTest>,
    /// Mean overhead, seconds (may be negative in the noise).
    pub mean_overhead_s: f64,
    /// Mean overhead as a fraction of the baseline mean.
    pub overhead_frac: f64,
}

/// Runs the overhead experiment: `runs` baseline + `runs` monitored
/// executions of the best configuration, with one or two OpenMP threads
/// per core.
pub fn fig8(two_threads_per_core: bool, runs: usize, scale: u32, seed: u64) -> Fig8Run {
    use zerosum_omp::OmptRegistry;
    let topo = zerosum_topology::presets::frontier();
    let mk_cfg = || fig8_qmc_config(two_threads_per_core, scale);
    let mut baseline = Vec::with_capacity(runs);
    let mut with_zerosum = Vec::with_capacity(runs);
    for i in 0..runs as u64 {
        // Baseline.
        let mut sim = zerosum_sched::NodeSim::new(
            topo.clone(),
            zerosum_sched::SchedParams {
                seed: seed + 1000 + i,
                ..Default::default()
            },
        );
        let mut ompt = OmptRegistry::new();
        zerosum_apps::launch_miniqmc(&mut sim, &topo, &mk_cfg(), &mut ompt).expect("launch");
        baseline
            .push(zerosum_core::run_baseline(&mut sim, 3_600_000_000).expect("baseline finishes"));
        // With ZeroSum.
        let (duration_s, _) = fig8_monitored_run(&topo, &mk_cfg(), scale, seed + 2000 + i, false);
        with_zerosum.push(duration_s);
    }
    let b = Summary::from_slice(&baseline);
    let z = Summary::from_slice(&with_zerosum);
    let mean_overhead_s = z.mean() - b.mean();
    Fig8Run {
        ttest: welch_t_test(&baseline, &with_zerosum),
        mean_overhead_s,
        overhead_frac: mean_overhead_s / b.mean(),
        baseline,
        with_zerosum,
    }
}

/// The miniQMC configuration of the §4.1 overhead study.
fn fig8_qmc_config(two_threads_per_core: bool, scale: u32) -> zerosum_apps::MiniQmcConfig {
    let mut qmc = zerosum_apps::MiniQmcConfig::frontier_cpu().scaled_down(scale);
    // Both HWTs of each core are schedulable; binding is per-core.
    qmc.srun.threads_per_core = 2;
    // Walker noise averages out over the full 700-block run; a
    // scaled-down run must shrink per-block noise by √scale to keep
    // the same relative runtime variance as the paper's executions.
    qmc.noise_frac = 0.04 / (scale as f64).sqrt();
    // Symmetric work: fold the leader's serial section into every
    // thread's block so the critical path is a worker, not the
    // leader — overhead (a worker-displacement effect) is otherwise
    // masked by leader slack.
    qmc.walker_work_us += qmc.leader_serial_us;
    qmc.leader_serial_us = 0;
    let threads = if two_threads_per_core { "14" } else { "7" };
    // Per-hardware-thread pinning: with OMP_PLACES=threads, spread
    // puts the 7-thread case on one HWT per core (the monitor's
    // sibling HWT stays idle) and the 14-thread case on every HWT
    // (the monitor displaces a pinned worker) — the two regimes of
    // Figure 8.
    qmc.omp = zerosum_omp::OmpEnv::from_pairs([
        ("OMP_NUM_THREADS", threads),
        ("OMP_PROC_BIND", "spread"),
        ("OMP_PLACES", "threads"),
    ])
    .unwrap();
    qmc
}

/// One monitored execution of the Figure 8 workload.
fn fig8_monitored_run(
    topo: &zerosum_topology::Topology,
    qmc: &zerosum_apps::MiniQmcConfig,
    scale: u32,
    seed: u64,
    trace: bool,
) -> (f64, Option<(Vec<TraceRecord>, SimAudit)>) {
    let mut sim = zerosum_sched::NodeSim::new(
        topo.clone(),
        zerosum_sched::SchedParams {
            seed,
            ..Default::default()
        },
    );
    sim.set_tracing(trace);
    let zs = zerosum_core::ZeroSumConfig::scaled(scale);
    let (_, mut monitor) = launch_monitored(&mut sim, topo, qmc, zs);
    let out = zerosum_core::run_monitored(&mut sim, &mut monitor, None, 3_600_000_000);
    assert!(out.completed, "monitored fig8 run timed out");
    let traced = trace.then(|| {
        let audit = sim.audit();
        (sim.take_trace(), audit)
    });
    (out.duration_s, traced)
}

/// One traced, monitored execution of the Figure 8 workload — the
/// overhead scenario `zerosum-analyze` checks.
pub fn fig8_traced_run(
    two_threads_per_core: bool,
    scale: u32,
    seed: u64,
) -> (f64, Vec<TraceRecord>, SimAudit) {
    let topo = zerosum_topology::presets::frontier();
    let qmc = fig8_qmc_config(two_threads_per_core, scale);
    let (duration_s, traced) = fig8_monitored_run(&topo, &qmc, scale, seed, true);
    let (trace, audit) = traced.expect("tracing was enabled");
    (duration_s, trace, audit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_small_is_diagonal() {
        let run = fig5(&PicConfig::small());
        assert!(run.diagonal_fraction > 0.9, "{}", run.diagonal_fraction);
        assert!(run.max_pair_bytes > 0);
        let art = fig5_ascii(&run, 16);
        assert_eq!(art.lines().count(), 16);
    }

    #[test]
    fn fig67_series_exported() {
        let run = fig67(150, 11);
        assert!(run.samples >= 2);
        assert!(run.lwp_csv.lines().count() > run.samples); // rows per LWP
        assert!(run.hwt_csv.starts_with("time,cpu,idle_pct"));
        // Figure 7's shape: bound cores show high user% on average (some
        // individual intervals quantize to zero — the Figure 6
        // noisiness).
        let rows: Vec<f64> = run
            .hwt_csv
            .lines()
            .filter(|l| l.split(',').nth(1) == Some("1"))
            .map(|l| l.split(',').nth(4).unwrap().parse().unwrap())
            .collect();
        assert!(!rows.is_empty());
        let avg = rows.iter().sum::<f64>() / rows.len() as f64;
        assert!(avg > 40.0, "cpu1 mean user {avg}");
    }

    #[test]
    fn fig8_one_thread_per_core_no_significant_overhead() {
        let run = fig8(false, 6, 60, 21);
        let t = run.ttest.expect("t-test");
        // The monitor sits on an idle second hardware thread: overhead
        // hides in the noise (Figure 8 left).
        assert!(
            !t.significant(0.01),
            "unexpected significance: p={} overhead={}s",
            t.p_value,
            run.mean_overhead_s
        );
        assert!(run.overhead_frac.abs() < 0.02, "{}", run.overhead_frac);
    }

    #[test]
    fn fig8_two_threads_per_core_small_but_significant_overhead() {
        let run = fig8(true, 6, 60, 22);
        let t = run.ttest.expect("t-test");
        assert!(
            t.significant(0.05),
            "expected significance: p={} overhead={}s",
            t.p_value,
            run.mean_overhead_s
        );
        // Sub-1% overhead, positive (Figure 8 right: ≈0.5%).
        assert!(run.overhead_frac > 0.0, "{}", run.overhead_frac);
        assert!(run.overhead_frac < 0.02, "{}", run.overhead_frac);
    }
}
