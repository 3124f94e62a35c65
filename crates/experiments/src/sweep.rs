//! The configuration-optimization sweep: the generalization of
//! Tables 1→2.
//!
//! §1 of the paper defines *configuration optimization* — improving
//! runtime "without modifying the software" — and Tables 1/2 show its
//! extremes (1 vs 7 cores per task). This sweep fills in the curve:
//! runtime, context switches, and the evaluator verdict as a function of
//! `srun -c N`, quantifying how much allocation each misconfiguration
//! level wastes.

use crate::launch::launch_monitored;
use std::fmt::Write as _;
use zerosum_core::{evaluate, run_monitored, Finding, Severity, ZeroSumConfig};
use zerosum_omp::OmpEnv;
use zerosum_sched::{NodeSim, SchedParams, SrunConfig};
use zerosum_topology::presets;

/// One point of the sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// `-c` value (cores per task).
    pub cpus_per_task: usize,
    /// Application runtime, virtual seconds.
    pub duration_s: f64,
    /// Total team non-voluntary context switches (rank 0).
    pub nvctx: u64,
    /// Worst evaluator severity.
    pub verdict: Option<Severity>,
}

/// Runs the Tables-1/2 workload at each `-c` value.
pub fn sweep_cpus_per_task(values: &[usize], scale: u32, seed: u64) -> Vec<SweepPoint> {
    let topo = presets::frontier();
    values
        .iter()
        .map(|&c| {
            let mut sim = NodeSim::new(
                topo.clone(),
                SchedParams {
                    seed,
                    ..Default::default()
                },
            );
            let mut qmc = zerosum_apps::MiniQmcConfig::frontier_cpu().scaled_down(scale);
            qmc.srun = SrunConfig {
                ntasks: 8,
                cpus_per_task: Some(c),
                threads_per_core: 1,
                reserve_first_core_per_l3: true,
                gpu_bind_closest: false,
            };
            qmc.omp = OmpEnv::from_pairs([("OMP_NUM_THREADS", "7")]).unwrap();
            let zs = ZeroSumConfig::scaled(scale);
            let (job, mut monitor) = launch_monitored(&mut sim, &topo, &qmc, zs);
            let out = run_monitored(&mut sim, &mut monitor, None, 3_600_000_000);
            assert!(out.completed, "sweep point c={c} timed out");
            let watch = monitor.process(job.teams[0].pid).unwrap();
            let nvctx = watch
                .lwps
                .tracks()
                .filter(|t| t.is_openmp || t.kind == zerosum_core::LwpKind::Main)
                .map(|t| t.total_nvcsw())
                .sum();
            let verdict = evaluate(&monitor, &topo)
                .iter()
                .map(Finding::severity)
                .max();
            SweepPoint {
                cpus_per_task: c,
                duration_s: out.duration_s,
                nvctx,
                verdict,
            }
        })
        .collect()
}

/// Renders the sweep as a table.
pub fn render_sweep(points: &[SweepPoint]) -> String {
    let best = points
        .iter()
        .map(|p| p.duration_s)
        .fold(f64::INFINITY, f64::min);
    let mut out = String::from("-c  runtime(s)  vs-best  team-nvctx  evaluator\n");
    for p in points {
        writeln!(
            out,
            "{:>2}  {:>9.2}  {:>6.2}x  {:>10}  {}",
            p.cpus_per_task,
            p.duration_s,
            p.duration_s / best,
            p.nvctx,
            match p.verdict {
                Some(Severity::Critical) => "CRITICAL",
                Some(Severity::Warning) => "warning",
                Some(Severity::Info) => "info",
                None => "clean",
            }
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_is_monotone_in_cores() {
        let pts = sweep_cpus_per_task(&[1, 2, 4, 7], 175, 5);
        for w in pts.windows(2) {
            assert!(
                w[1].duration_s <= w[0].duration_s * 1.05,
                "more cores should not be slower: {w:?}"
            );
        }
        // The extremes differ by a large factor.
        assert!(pts[0].duration_s > 3.0 * pts[3].duration_s);
    }

    #[test]
    fn contention_and_verdict_clear_with_enough_cores() {
        let pts = sweep_cpus_per_task(&[1, 7], 175, 6);
        assert!(pts[0].nvctx > 20 * pts[1].nvctx.max(1), "{pts:?}");
        assert_eq!(pts[0].verdict, Some(Severity::Critical));
        // With 7 cores, at most informational findings remain.
        assert!(pts[1].verdict.is_none() || pts[1].verdict < Some(Severity::Critical));
    }

    #[test]
    fn render_lists_all_points() {
        let pts = sweep_cpus_per_task(&[1, 7], 350, 7);
        let table = render_sweep(&pts);
        assert!(table.contains("CRITICAL"));
        assert_eq!(table.lines().count(), 3);
    }
}
