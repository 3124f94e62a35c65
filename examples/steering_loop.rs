//! Adaptation / computational steering (§2 "Adaptation" and §3.6):
//! read the monitor after every sampling round and make a decision from it.
//!
//! Here the "steering controller" watches per-thread utilization and
//! detects, mid-run, that the team lost half of its parallelism (threads
//! finished early while stragglers keep running) — the kind of signal a
//! real controller would use to rebalance walkers.
//!
//! ```text
//! cargo run --release --example steering_loop
//! ```

use zerosum::prelude::*;
use zerosum::procfs::Tid;
use zerosum_core::LwpKind;

fn main() {
    let topo = presets::frontier();
    let mut sim = NodeSim::new(topo, SchedParams::default());
    let mask = CpuSet::parse_list("1-7").unwrap();
    // An imbalanced team: three threads carry 3× the work of the others.
    let pid = sim.spawn_process(
        "imbalanced",
        mask.clone(),
        1 << 20,
        Behavior::worker(WorkerSpec::cpu_bound(40, 30_000)),
    );
    for i in 0..6 {
        let work = if i < 2 { 30_000 } else { 10_000 };
        sim.spawn_task(
            pid,
            "OpenMP",
            Some(CpuSet::single(2 + i)),
            Behavior::worker(WorkerSpec::cpu_bound(40, work)),
            false,
        );
    }
    sim.set_task_affinity(pid, CpuSet::single(1));

    let mut monitor = Monitor::new(ZeroSumConfig {
        period_us: 100_000,
        ..Default::default()
    });
    monitor.watch_process(ProcessInfo {
        pid,
        rank: Some(0),
        hostname: sim.hostname().to_string(),
        gpus: vec![],
        cpus_allowed: mask,
    });
    attach_monitor_threads(&mut sim, &monitor);

    // A sampling loop of its own in place of `run_monitored`: the
    // controller reads the monitor between rounds, as a live session's
    // `on_sample` callback does.
    let start_us = sim.now_us();
    let mut prev: Option<Vec<(Tid, u64)>> = None;
    let mut team_size = 0usize;
    let mut done = false;
    while !done && sim.now_us() - start_us < 120_000_000 {
        done = sim.run_until_apps_done(monitor.config.period_us).is_some();
        let t_s = (sim.now_us() - start_us) as f64 / 1e6;
        monitor.sample(t_s, &SimProcSource::new(&sim));

        // The steering controller: how many team threads are still
        // burning CPU?
        let team = team_cpu(&monitor);
        team_size = team_size.max(team.len());
        if let Some(prev) = &prev {
            // A thread is active if it is still present and burned CPU
            // since the previous round; exited threads left the team.
            let active = team
                .iter()
                .filter(|(tid, cpu)| {
                    prev.iter()
                        .find(|(ptid, _)| ptid == tid)
                        .is_none_or(|(_, pcpu)| cpu > pcpu)
                })
                .count();
            println!(
                "t={t_s:>5.1}s  team threads still active: {active}/{team_size}{}",
                if active * 2 <= team_size && active > 0 {
                    "   <-- steering signal: rebalance walkers"
                } else {
                    ""
                }
            );
        }
        prev = Some(team);
    }
    println!(
        "\nrun finished in {:.2}s (virtual), {} rounds sampled",
        (sim.now_us() - start_us) as f64 / 1e6,
        monitor.stats.rounds
    );
}

/// Cumulative CPU jiffies of every live main/OpenMP thread of the first
/// watch, from the latest sample of its track.
fn team_cpu(monitor: &Monitor) -> Vec<(Tid, u64)> {
    let tracks = monitor.processes()[0].lwps.tracks();
    let team = tracks.filter(|t| !t.exited && matches!(t.kind, LwpKind::Main | LwpKind::OpenMp));
    team.filter_map(|t| t.last().map(|s| (t.tid, s.utime + s.stime)))
        .collect()
}
