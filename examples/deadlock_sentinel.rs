//! Progress detection (§3.3): ZeroSum as a deadlock sentinel.
//!
//! A worker team where one member never reaches the barrier stalls the
//! whole team. The paper proposes using the periodic LWP state and time
//! counters to detect this and stop wasting allocation; this example
//! shows the detector firing.
//!
//! ```text
//! cargo run --example deadlock_sentinel
//! ```

use zerosum::prelude::*;

fn main() {
    let topo = presets::laptop_i7_1165g7();
    let mut sim = NodeSim::new(topo, SchedParams::default());
    let mask = CpuSet::range(0, 3);
    // Three workers that barrier every block — and one thread that grabs
    // a "lock" and sleeps forever (it never arrives at the barrier).
    let worker = || {
        Behavior::worker(WorkerSpec {
            barrier: Some(1),
            ..WorkerSpec::cpu_bound(1_000, 5_000)
        })
    };
    let pid = sim.spawn_process("stuck-app", mask, 4096, worker());
    sim.spawn_task(pid, "OpenMP", None, worker(), false);
    sim.spawn_task(pid, "OpenMP", None, worker(), false);
    // The stuck thread holds a "lock" forever and is counted into the
    // barrier team — the other three will wait for it eternally.
    sim.spawn_task(pid, "stuck", None, Behavior::Sleeper, false);
    sim.register_barrier_member(pid, 1);

    let mut monitor = Monitor::new(ZeroSumConfig {
        period_us: 250_000,
        ..Default::default()
    });
    monitor.watch_process(ProcessInfo {
        pid,
        rank: None,
        hostname: sim.hostname().to_string(),
        gpus: vec![],
        cpus_allowed: Default::default(),
    });
    attach_monitor_threads(&mut sim, &monitor);
    // Cap the run: the app would never finish on its own.
    let out = run_monitored(&mut sim, &mut monitor, None, 20_000_000);
    println!(
        "{}\n",
        ProgressTracker::new().heartbeat_line(&monitor, out.duration_s)
    );
    for (i, l) in out.liveness.iter().enumerate() {
        println!("sample {i}: {l:?}");
    }
    let verdict = out.liveness.last().unwrap();
    match verdict {
        Liveness::PossibleDeadlock {
            windows,
            blocked_threads,
        } => println!(
            "\nZeroSum verdict: possible deadlock — no progress for {windows} windows, \
             {blocked_threads} thread(s) blocked. Terminate the job and keep your \
             allocation hours."
        ),
        other => println!("\nZeroSum verdict: {other:?}"),
    }
}
