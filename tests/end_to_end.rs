//! Cross-crate integration: the full monitoring pipeline over the
//! simulated Frontier node, exercised through the public facade.

use zerosum::prelude::*;
use zerosum_apps::{launch_miniqmc, MiniQmcConfig};
use zerosum_core::export;
use zerosum_omp::OmptRegistry;

fn full_pipeline(scale: u32, seed: u64) -> (Monitor, f64, Vec<u32>) {
    let topo = presets::frontier();
    let mut sim = NodeSim::new(
        topo.clone(),
        SchedParams {
            seed,
            ..Default::default()
        },
    );
    let mut qmc = MiniQmcConfig::frontier_cpu().scaled_down(scale);
    qmc.omp = zerosum_omp::OmpEnv::from_pairs([
        ("OMP_NUM_THREADS", "7"),
        ("OMP_PROC_BIND", "spread"),
        ("OMP_PLACES", "cores"),
    ])
    .unwrap();
    let mut ompt = OmptRegistry::new();
    let job = launch_miniqmc(&mut sim, &topo, &qmc, &mut ompt).expect("launch");
    let mut monitor = Monitor::new(ZeroSumConfig::scaled(scale));
    for team in &job.teams {
        monitor.watch_process(ProcessInfo {
            pid: team.pid,
            rank: sim.process(team.pid).and_then(|p| p.rank),
            hostname: sim.hostname().to_string(),
            gpus: vec![],
            cpus_allowed: sim
                .process(team.pid)
                .map(|p| p.cpus_allowed.clone())
                .unwrap_or_default(),
        });
        for &tid in &team.tids {
            monitor.register_omp_thread(team.pid, tid);
        }
    }
    attach_monitor_threads(&mut sim, &monitor);
    let out = run_monitored(&mut sim, &mut monitor, None, 3_600_000_000);
    assert!(out.completed, "pipeline run timed out");
    let pids = job.teams.iter().map(|t| t.pid).collect();
    (monitor, out.duration_s, pids)
}

#[test]
fn all_ranks_monitored_with_full_reports() {
    let (monitor, duration, pids) = full_pipeline(100, 1);
    assert_eq!(monitor.processes().len(), 8);
    for (rank, &pid) in pids.iter().enumerate() {
        let rep = render_process_report(&monitor, pid, duration, None);
        assert!(rep.contains(&format!("MPI {rank:03}")), "rank {rank}");
        assert!(rep.contains("Main, OpenMP"));
        assert!(rep.contains("ZeroSum"));
        // 9 LWPs per rank: main + 6 workers + helper + monitor.
        let lwp_lines = rep
            .lines()
            .filter(|l| l.starts_with("LWP ") && l.contains(" - stime:"))
            .count();
        assert_eq!(lwp_lines, 9, "rank {rank}:\n{rep}");
    }
}

#[test]
fn disjoint_rank_masks_and_utilization_accounting() {
    let (monitor, _, pids) = full_pipeline(100, 2);
    // Rank masks are disjoint L3 regions.
    let masks: Vec<CpuSet> = pids
        .iter()
        .map(|&p| monitor.process(p).unwrap().cpus_allowed.clone())
        .collect();
    for i in 0..masks.len() {
        for j in (i + 1)..masks.len() {
            assert!(!masks[i].intersects(&masks[j]), "ranks {i} and {j} overlap");
        }
    }
    // Every bound core shows high utilization over the run.
    let watch = monitor.process(pids[0]).unwrap();
    for cpu in watch.cpus_allowed.iter() {
        let (idle, _sys, user) = monitor.hwt.overall(cpu).unwrap();
        assert!(user > 60.0, "cpu {cpu} user {user}");
        assert!(idle < 40.0, "cpu {cpu} idle {idle}");
    }
    // A thread's per-period columns are its CPU time over the time
    // between its first and last samples, in periods: the same figure
    // as its CPU fraction, however many rounds the window holds.
    for t in watch.lwps.tracks().filter(|t| t.samples.len() >= 2) {
        let per_period = t.avg_utime_per_period() + t.avg_stime_per_period();
        let expected = t.cpu_fraction() * zerosum_proc::USER_HZ as f64 * t.period_s;
        let tid = t.tid;
        assert!(
            (per_period - expected).abs() <= 1e-9 * expected.max(1.0),
            "tid {tid}: {per_period} jiffies/period, {expected} from its CPU fraction"
        );
    }
}

#[test]
fn csv_exports_are_consistent_with_tracks() {
    let (monitor, duration, pids) = full_pipeline(150, 3);
    let watch = monitor.process(pids[0]).unwrap();
    let csv = export::lwp_csv(watch);
    let header = csv.lines().next().unwrap();
    assert_eq!(
        header,
        "time,tid,type,state,utime,stime,minflt,majflt,nswap,processor,vcsw,nvcsw,wait_ns"
    );
    // Row count = sum of per-track sample counts.
    let expected: usize = watch.lwps.tracks().map(|t| t.samples.len()).sum();
    assert_eq!(csv.lines().count() - 1, expected);
    // Cumulative utime column is non-decreasing per tid.
    let mut last: std::collections::HashMap<&str, u64> = Default::default();
    for line in csv.lines().skip(1) {
        let cols: Vec<&str> = line.split(',').collect();
        let tid = cols[1];
        let utime: u64 = cols[4].parse().unwrap();
        if let Some(prev) = last.get(tid) {
            assert!(utime >= *prev, "utime regressed for tid {tid}");
        }
        last.insert(Box::leak(tid.to_string().into_boxed_str()), utime);
    }
    // Log files include report + CSVs.
    let dir = std::env::temp_dir().join(format!("zs-e2e-{}", std::process::id()));
    let paths = export::write_logs(&monitor, &dir, duration, |p| {
        render_process_report(&monitor, p, duration, None)
    })
    .unwrap();
    assert_eq!(paths.len(), 8);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn evaluator_is_quiet_on_a_well_configured_job() {
    let (monitor, _, _) = full_pipeline(100, 4);
    let topo = presets::frontier();
    let findings = evaluate(&monitor, &topo);
    // A clean spread/cores run must not produce Critical findings.
    assert!(
        !findings.iter().any(|f| f.severity() == Severity::Critical),
        "unexpected critical findings: {findings:?}"
    );
}
