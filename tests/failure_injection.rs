//! Failure-injection integration tests: the §2 scenarios ZeroSum exists
//! to catch — deadlocks, memory exhaustion (own vs foreign), vanishing
//! processes — must surface through the monitoring pipeline.

use zerosum::prelude::*;
use zerosum_apps::{spawn_synthetic, Role, SyntheticProcess};
use zerosum_core::memory::MemPressureSource;

fn watch(sim: &NodeSim, monitor: &mut Monitor, pid: u32) {
    monitor.watch_process(ProcessInfo {
        pid,
        rank: None,
        hostname: sim.hostname().to_string(),
        gpus: vec![],
        cpus_allowed: sim
            .process(pid)
            .map(|p| p.cpus_allowed.clone())
            .unwrap_or_default(),
    });
}

#[test]
fn deadlocked_team_is_flagged_then_finished_apps_are_not() {
    let topo = presets::laptop_i7_1165g7();
    let mut sim = NodeSim::new(
        topo,
        SchedParams {
            barrier_spin_us: 2_000,
            ..Default::default()
        },
    );
    let worker = || {
        Behavior::worker(WorkerSpec {
            barrier: Some(1),
            ..WorkerSpec::cpu_bound(100, 5_000)
        })
    };
    let pid = sim.spawn_process("dl", CpuSet::range(0, 3), 1024, worker());
    sim.spawn_task(pid, "OpenMP", None, worker(), false);
    sim.register_barrier_member(pid, 1); // the member that never comes
    let mut monitor = Monitor::new(ZeroSumConfig {
        period_us: 100_000,
        ..Default::default()
    });
    watch(&sim, &mut monitor, pid);
    attach_monitor_threads(&mut sim, &monitor);
    let out = run_monitored(&mut sim, &mut monitor, None, 5_000_000);
    assert!(!out.completed);
    assert!(
        matches!(out.liveness.last(), Some(Liveness::PossibleDeadlock { .. })),
        "liveness tail: {:?}",
        &out.liveness[out.liveness.len().saturating_sub(3)..]
    );
    // The deadlock verdict must come only after the stall threshold:
    // the DEADLOCK_WINDOWS-th stalled assessment is the earliest legal
    // verdict.
    let first_deadlock = out
        .liveness
        .iter()
        .position(|l| matches!(l, Liveness::PossibleDeadlock { .. }))
        .unwrap();
    let earliest = zerosum_core::heartbeat::DEADLOCK_WINDOWS as usize - 1;
    assert!(
        first_deadlock >= earliest,
        "deadlock at sample {first_deadlock}"
    );
}

#[test]
fn external_memory_pressure_is_attributed_to_the_system() {
    let topo = presets::laptop_i7_1165g7(); // 16 GiB node
    let mut sim = NodeSim::new(topo, SchedParams::default());
    let (pid, _) = spawn_synthetic(
        &mut sim,
        &SyntheticProcess {
            name: "modest".into(),
            mask: CpuSet::single(0),
            rss_kib: 100 * 1024, // 100 MiB — clearly not the culprit
            extra_threads: vec![],
            main: Role::Hog {
                total_us: 10_000_000,
            },
        },
    );
    // A noisy neighbour eats almost all memory.
    sim.memory.external_kib = 15 * 1024 * 1024;
    let mut monitor = Monitor::new(ZeroSumConfig {
        period_us: 200_000,
        ..Default::default()
    });
    watch(&sim, &mut monitor, pid);
    let out = run_monitored(&mut sim, &mut monitor, None, 3_000_000);
    assert!(!out.completed);
    assert_eq!(monitor.mem.pressure(), MemPressureSource::External);
    let findings = evaluate(&monitor, &presets::laptop_i7_1165g7());
    let mem = findings
        .iter()
        .find(|f| matches!(f, Finding::MemoryPressure { .. }))
        .expect("memory finding");
    assert!(mem.explain().contains("OUTSIDE this job"));
}

#[test]
fn application_memory_pressure_is_attributed_to_the_app() {
    let topo = presets::laptop_i7_1165g7();
    let mut sim = NodeSim::new(topo, SchedParams::default());
    let (pid, _) = spawn_synthetic(
        &mut sim,
        &SyntheticProcess {
            name: "fat".into(),
            mask: CpuSet::single(0),
            rss_kib: 15 * 1024 * 1024, // 15 GiB of 16
            extra_threads: vec![],
            main: Role::Hog {
                total_us: 10_000_000,
            },
        },
    );
    let mut monitor = Monitor::new(ZeroSumConfig {
        period_us: 200_000,
        ..Default::default()
    });
    watch(&sim, &mut monitor, pid);
    let _ = run_monitored(&mut sim, &mut monitor, None, 3_000_000);
    assert_eq!(monitor.mem.pressure(), MemPressureSource::Application);
}

#[test]
fn monitor_survives_watching_nonexistent_and_mixed_processes() {
    let topo = presets::laptop_i7_1165g7();
    let mut sim = NodeSim::new(topo, SchedParams::default());
    let (alive, _) = spawn_synthetic(
        &mut sim,
        &SyntheticProcess {
            name: "ok".into(),
            mask: CpuSet::single(1),
            rss_kib: 512,
            extra_threads: vec![],
            main: Role::Hog { total_us: 800_000 },
        },
    );
    let mut monitor = Monitor::new(ZeroSumConfig {
        period_us: 100_000,
        ..Default::default()
    });
    watch(&sim, &mut monitor, alive);
    monitor.watch_process(ProcessInfo {
        pid: 55_555,
        rank: None,
        hostname: "ghost".into(),
        gpus: vec![],
        cpus_allowed: Default::default(),
    });
    let out = run_monitored(&mut sim, &mut monitor, None, 5_000_000);
    assert!(out.completed);
    assert!(monitor.process(55_555).unwrap().gone);
    assert_eq!(monitor.stats.errors, 0, "ghost pid must not count as error");
    // The live process was fully tracked regardless.
    let w = monitor.process(alive).unwrap();
    assert!(!w.lwps.is_empty());
    assert!(w.lwps.track(alive).unwrap().cpu_fraction() > 0.5);
}

#[test]
fn crash_reporting_formats_for_mpi_ranks() {
    use zerosum_core::signal::{crash_report, AbnormalExit};
    let rep = crash_report(AbnormalExit::SegmentationViolation, 777, Some(12));
    assert!(rep.contains("SIGSEGV"));
    assert!(rep.contains("MPI 012 - PID 777"));
}
