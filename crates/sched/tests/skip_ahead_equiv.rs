//! Differential equivalence: the untraced engine vs the naive stepper.
//!
//! Untraced, `NodeSim` steps only the CPUs that decide and catches the
//! others up lazily; traced, every busy CPU executes every tick in
//! ascending position order (one `JiffyCharge` each). The two must agree
//! byte for byte. This suite runs varied workloads — oversubscribed
//! barrier teams, SMT sharing, sleepers, GPU offloads, runtime affinity
//! changes, a two-threads-per-core Frontier team beside a monitor, a
//! churn storm with pid reuse — across seeds 1..=20 and asserts that the
//! full [`SimAudit`] (every task counter, every per-CPU time account, the
//! context-switch total, and the clock) and the completion times match.
//! One small scenario per same-tick rule (SMT sibling, runqueue, barrier
//! release, each on both sides of the deciding CPU) pins the position
//! order the lazy engine must keep.

use zerosum_sched::{Behavior, NodeSim, SchedParams, SimAudit, TraceEvent, WorkerSpec};
use zerosum_topology::{presets, CpuSet};

/// Builds a seed-varied workload exercising every scheduler mechanism.
fn build_sim(seed: u64) -> NodeSim {
    let mut sim = NodeSim::new(
        presets::laptop_i7_1165g7(),
        SchedParams {
            seed,
            barrier_spin_us: 1_000 + (seed % 5) * 700,
            ..SchedParams::default()
        },
    );

    // Oversubscribed barrier team: 4 workers on 2 CPUs → spin-yield churn.
    let team_mask = CpuSet::from_indices([0u32, 1]);
    let mk_worker = |lead: bool| {
        Behavior::worker(WorkerSpec {
            iterations: 4 + (seed % 3) as u32,
            work_per_iter_us: 3_000 + (seed % 7) * 500,
            noise_frac: 0.1,
            sys_per_iter_us: 200,
            leader_extra_us: if lead { 1_500 } else { 0 },
            checkpoint_every: 2,
            checkpoint_extra_us: 400,
            is_leader: lead,
            barrier: Some(1),
            offload: None,
        })
    };
    let team = sim.spawn_process("team", team_mask, 4_096, mk_worker(true));
    for _ in 0..3 {
        sim.spawn_task(team, "worker", None, mk_worker(false), false);
    }

    // SMT pair: two computes on sibling hardware threads (0 and 4).
    sim.spawn_process(
        "smt_a",
        CpuSet::single(4),
        128,
        Behavior::FiniteCompute {
            remaining_us: 20_000 + (seed % 4) * 5_000,
            chunk_us: 7_000,
        },
    );

    // A sleeper that wakes periodically (timer events inside the run).
    sim.spawn_process("poller", CpuSet::single(2), 64, Behavior::Sleeper);

    // GPU offload worker: block/wake cycles through the device queue.
    sim.spawn_process(
        "gpu",
        CpuSet::single(3),
        1_024,
        Behavior::worker(WorkerSpec {
            iterations: 3,
            work_per_iter_us: 1_000,
            noise_frac: 0.0,
            sys_per_iter_us: 0,
            leader_extra_us: 0,
            checkpoint_every: 0,
            checkpoint_extra_us: 0,
            is_leader: false,
            barrier: None,
            offload: Some(zerosum_sched::OffloadSpec {
                device: 0,
                launch_us: 100,
                kernel_us: 2_000 + (seed % 3) * 800,
                sync_us: 50,
                bytes: 1 << 20,
            }),
        }),
    );
    sim
}

/// Drives the sim the way the monitored runner does (chunked stepping with
/// an affinity change partway through) and returns the final audit.
fn drive(sim: &mut NodeSim) -> (Option<u64>, SimAudit) {
    sim.run_for(7_300); // odd offset: exercise non-aligned windows
                        // Runtime affinity change of the team leader, like zerosum-omp pinning.
    sim.set_task_affinity(sim.pids()[0], CpuSet::single(1));
    let done = sim.run_until_apps_done(30_000_000);
    // Keep stepping past completion: service/sleeper tasks stay live.
    sim.run_for(50_000);
    (done, sim.audit())
}

/// Runs `build` twice, naive (traced) and lazy (untraced), through
/// `drive`, and asserts both return the same thing.
fn assert_naive_eq<T: PartialEq + std::fmt::Debug>(
    what: &str,
    build: impl Fn() -> NodeSim,
    drive: impl Fn(&mut NodeSim) -> T,
) {
    let mut naive = build();
    naive.set_tracing(true);
    let expect = drive(&mut naive);
    let got = drive(&mut build());
    assert_eq!(
        got, expect,
        "{what}: lazy engine diverged from the naive stepper"
    );
}

#[test]
fn lazy_engine_matches_naive_across_seeds() {
    for seed in 1..=20u64 {
        assert_naive_eq(&format!("mixed seed {seed}"), || build_sim(seed), drive);
    }
}

#[test]
fn lazy_engine_advances_like_naive_on_pure_idle() {
    assert_naive_eq(
        "pure idle",
        || {
            let mut sim = NodeSim::new(presets::laptop_i7_1165g7(), SchedParams::default());
            sim.spawn_process("idle", CpuSet::single(0), 64, Behavior::Sleeper);
            sim
        },
        |sim| {
            sim.run_for(5_000_000);
            (sim.now_us(), sim.audit())
        },
    );
}

#[test]
fn tracing_switched_on_mid_run_traces_every_tick_from_then() {
    // Turning tracing on between `run_for` calls makes the very next
    // tick naive: the trace from the switch on equals that of a run
    // traced from the start, and switching it off again changes nothing.
    // (Less the `GpuComplete` of a kernel launched before the switch:
    // launches are attributed only while tracing.)
    for seed in [3u64, 8, 13] {
        let switch_us = 7_300;
        let mut from_start = build_sim(seed);
        from_start.set_tracing(true);
        from_start.run_for(20_000);
        let expect: Vec<_> = from_start
            .take_trace()
            .into_iter()
            .filter(|r| r.t_us >= switch_us && !matches!(r.ev, TraceEvent::GpuComplete { .. }))
            .collect();
        let mut switched = build_sim(seed);
        switched.run_for(switch_us);
        switched.set_tracing(true);
        switched.run_for(20_000 - switch_us);
        let mut got = switched.take_trace();
        got.retain(|r| !matches!(r.ev, TraceEvent::GpuComplete { .. }));
        assert_eq!(got, expect, "trace diverged at seed {seed}");
        switched.set_tracing(false);
        let (done, audit) = drive(&mut switched);
        let (done_ref, audit_ref) = drive(&mut from_start);
        assert_eq!(
            (done, audit),
            (done_ref, audit_ref),
            "audit diverged at seed {seed}"
        );
    }
}

fn team_worker(seed: u64, lead: bool) -> Behavior {
    Behavior::worker(WorkerSpec {
        iterations: 6 + (seed % 4) as u32,
        work_per_iter_us: 4_000 + (seed % 5) * 350,
        noise_frac: 0.04,
        sys_per_iter_us: 120,
        leader_extra_us: if lead { 600 } else { 0 },
        checkpoint_every: 3,
        checkpoint_extra_us: 2_500 + (seed % 3) * 1_000,
        is_leader: lead,
        barrier: Some(1),
        offload: None,
    })
}

/// Fig. 8's two-threads-per-core regime on a Frontier node: two ranks,
/// each a barrier team pinned one thread per hardware thread over four
/// cores (both SMT siblings busy), the first with a monitor service task
/// on its last hardware thread and an MPI-style helper on a wide mask.
fn build_frontier_team(seed: u64) -> NodeSim {
    let mut sim = NodeSim::new(
        presets::frontier(),
        SchedParams {
            seed,
            barrier_spin_us: 3_000 + (seed % 4) * 1_500,
            ..SchedParams::default()
        },
    );
    for rank in 0..2u32 {
        let cores = (1 + rank * 8)..(5 + rank * 8);
        let hwts: Vec<u32> = cores.clone().chain(cores.map(|c| c + 64)).collect();
        let mask = CpuSet::from_indices(hwts.iter().copied());
        let pid = sim.spawn_process("miniqmc", mask.clone(), 4_096, team_worker(seed, true));
        sim.set_task_affinity(pid, CpuSet::single(hwts[0]));
        for &hwt in &hwts[1..] {
            let w = team_worker(seed + u64::from(hwt), false);
            sim.spawn_task(pid, "OpenMP", Some(CpuSet::single(hwt)), w, false);
        }
        if rank == 0 {
            let monitor = Behavior::Periodic {
                period_us: 2_000 + (seed % 3) * 700,
                sys_us: 150,
                user_us: 90,
            };
            let last = CpuSet::single(*hwts.last().expect("hwts"));
            sim.spawn_task(pid, "ZeroSum", Some(last), monitor, true);
            let helper = Behavior::helper_poll(1_500, 60);
            sim.spawn_task(pid, "helper", Some(mask), helper, true);
        }
    }
    sim
}

#[test]
fn frontier_smt_team_with_monitor_matches_naive_across_seeds() {
    for seed in 1..=20u64 {
        assert_naive_eq(
            &format!("frontier seed {seed}"),
            || build_frontier_team(seed),
            |sim| {
                sim.run_for(3_333);
                let done = sim.run_until_apps_done(60_000_000);
                sim.run_for(10_000);
                (done, sim.audit())
            },
        );
    }
}

/// A churn storm: short-lived `finite_task` threads spawned between
/// `run_for` calls of seed-varied length, and pids recycled once their
/// process exited. The audit is compared at every pause, not only at
/// the end: `SimProcSource` reads the node there.
fn churn_storm(seed: u64, sim: &mut NodeSim) -> Vec<SimAudit> {
    let mask = CpuSet::range(0, 7);
    let slot = sim.spawn_process("slot", mask.clone(), 512, Behavior::Sleeper);
    let mut reuse: Vec<u32> = (0..3)
        .map(|i| {
            let life = 1_000 + i * 700;
            let b = Behavior::finite_task(life, 300, 900);
            sim.spawn_process("reuse", mask.clone(), 256, b)
        })
        .collect();
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move |m: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % m
    };
    let mut audits = Vec::new();
    for round in 0..60u64 {
        sim.run_for(150 + next(4_000));
        for _ in 0..1 + next(4) {
            let life = 500 + next(20_000);
            let spin = (life / 16).clamp(200, 2_000);
            sim.spawn_task(
                slot,
                "churn",
                None,
                Behavior::finite_task(life, spin, spin * 7),
                true,
            );
        }
        if round % 3 == 0 {
            reuse.rotate_left(1);
            let pid = reuse[0];
            if sim.process_exited(pid) {
                let b = Behavior::finite_task(800 + next(6_000), 250, 1_750);
                sim.respawn_process_with_pid(pid, "reuse", mask.clone(), 256, b);
            }
        }
        audits.push(sim.audit());
    }
    audits
}

#[test]
fn churn_storm_with_pid_reuse_matches_naive_across_seeds() {
    for seed in 1..=20u64 {
        assert_naive_eq(
            &format!("churn seed {seed}"),
            || {
                NodeSim::new(
                    presets::laptop_i7_1165g7(),
                    SchedParams {
                        seed,
                        ..SchedParams::default()
                    },
                )
            },
            |sim| churn_storm(seed, sim),
        );
    }
}

fn compute(us: u64, chunk_us: u64) -> Behavior {
    Behavior::FiniteCompute {
        remaining_us: us,
        chunk_us,
    }
}

/// A long compute on one SMT sibling while the other blocks and wakes on
/// a duty cycle: every block and dispatch changes the compute's speed,
/// in the tick the naive order says. An `smt_efficiency` of 1.1 makes
/// the shared speed's progress a value whose per-tick subtractions round
/// (off the engine's exact grid), 1.05 one whose do not.
fn smt_sibling_blocks(long_cpu: u32, cycler_cpu: u32) {
    let cases = [
        (150u64, 350u64, 1.05),
        (400, 250, 1.05),
        (1_050, 600, 1.05),
        (400, 250, 1.1),
    ];
    for (spin, sleep, smt_efficiency) in cases {
        assert_naive_eq(
            &format!(
                "compute on {long_cpu}, sibling on {cycler_cpu} ({spin}/{sleep}, {smt_efficiency})"
            ),
            || {
                let params = SchedParams {
                    smt_efficiency,
                    ..SchedParams::default()
                };
                let mut sim = NodeSim::new(presets::laptop_i7_1165g7(), params);
                sim.spawn_process("long", CpuSet::single(long_cpu), 64, compute(40_000, 9_000));
                let cycler = Behavior::finite_task(60_000, spin, sleep);
                sim.spawn_process("cycler", CpuSet::single(cycler_cpu), 64, cycler);
                sim
            },
            |sim| (sim.run_until_apps_done(10_000_000), sim.audit()),
        );
    }
}

#[test]
fn a_sibling_at_a_lower_position_blocking_changes_this_ticks_speed() {
    // PUs 0 and 4 are SMT siblings on the laptop preset.
    smt_sibling_blocks(4, 0);
}

#[test]
fn a_sibling_at_a_higher_position_blocking_changes_the_next_ticks_speed() {
    smt_sibling_blocks(0, 4);
}

#[test]
fn a_barrier_release_reaches_spinners_on_both_sides_in_naive_order() {
    // Three pinned team members on CPUs 0, 1, 2; the one on CPU 1 has
    // the most work, so it arrives last and releases spinners below and
    // above it. Varying the leader's extra work moves the release tick.
    for extra in [0u64, 30, 55, 80, 120, 260] {
        assert_naive_eq(
            &format!("release with leader extra {extra}"),
            || {
                let mut sim = NodeSim::new(presets::laptop_i7_1165g7(), SchedParams::default());
                let member = |lead: bool| {
                    Behavior::worker(WorkerSpec {
                        iterations: 5,
                        work_per_iter_us: 2_000,
                        noise_frac: 0.0,
                        sys_per_iter_us: 0,
                        leader_extra_us: if lead { 700 + extra } else { 0 },
                        checkpoint_every: 0,
                        checkpoint_extra_us: 0,
                        is_leader: lead,
                        barrier: Some(3),
                        offload: None,
                    })
                };
                let pid = sim.spawn_process("team", CpuSet::single(1), 64, member(true));
                for cpu in [0u32, 2] {
                    sim.spawn_task(
                        pid,
                        "OpenMP",
                        Some(CpuSet::single(cpu)),
                        member(false),
                        false,
                    );
                }
                sim
            },
            |sim| (sim.run_until_apps_done(10_000_000), sim.audit()),
        );
    }
}

#[test]
fn a_task_stolen_from_a_higher_donor_changes_its_slice_this_tick() {
    // CPU 3 runs one of three computes allowed on {0, 3} and queues the
    // other two; the task pinned to CPU 0 sleeps, its CPU goes idle in
    // the middle of a tick and steals from CPU 3, which then preempts
    // on the longer slice of one waiter fewer.
    for sleep in [300u64, 1_150, 2_600] {
        assert_naive_eq(
            &format!("steal after sleep {sleep}"),
            || {
                let mut sim = NodeSim::new(presets::laptop_i7_1165g7(), SchedParams::default());
                let sleeper = Behavior::finite_task(30_000, 700, sleep);
                let pid = sim.spawn_process("thief", CpuSet::single(0), 64, sleeper);
                for name in ["a", "b", "c"] {
                    let tid = sim.spawn_task(
                        pid,
                        name,
                        Some(CpuSet::single(3)),
                        compute(25_000, 25_000),
                        false,
                    );
                    sim.set_task_affinity(tid, CpuSet::from_indices([0u32, 3]));
                }
                sim
            },
            |sim| (sim.run_until_apps_done(10_000_000), sim.audit()),
        );
    }
}
