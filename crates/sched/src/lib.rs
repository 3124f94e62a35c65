//! # zerosum-sched
//!
//! The operating-system scheduler substrate for ZeroSum-rs.
//!
//! The paper's evaluation observes Linux CFS behaviour — context switches,
//! thread migrations, per-CPU utilization, memory growth, GPU queueing —
//! through `/proc`. Reproducing those experiments without a Frontier
//! allocation requires a scheduler whose *mechanics* produce the same
//! phenomena. [`node::NodeSim`] is that substrate: a deterministic,
//! discrete-time, per-CPU-runqueue scheduler with timeslice preemption,
//! spin-yield barriers, CPU-metered spin-before-block, SMT throughput
//! sharing, new-idle stealing, a process memory model, and serialized GPU
//! kernel queues.
//!
//! The monitor observes the simulation exclusively through
//! [`proc_source::SimProcSource`], which renders kernel-format text and
//! re-parses it with the real `zerosum-proc` parsers.
//!
//! [`launch`] computes Slurm-style placements (`srun -n8 -c7 …`), and
//! [`behavior`] provides the workload models (compute workers, GPU
//! offload, MPI helper, the ZeroSum monitor thread itself).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behavior;
pub mod cpu;
pub mod devices;
pub mod launch;
pub mod memory;
pub mod node;
pub mod nodefault;
pub mod params;
pub mod proc_source;
pub mod task;
pub mod trace;

pub use behavior::{Behavior, OffloadSpec, Op, WorkerSpec};
pub use launch::{plan_launch, RankPlacement, SrunConfig};
pub use node::{DeviceSnapshot, NodeSim, SimProcess};
pub use nodefault::{AllocationFaultPlan, NodeFaultPlan};
pub use params::SchedParams;
pub use proc_source::{SimProcSource, SimScratch};
pub use task::{RunState, SimTask, TaskCounters, TaskId};
pub use trace::{ChargeKind, SimAudit, TaskAudit, TraceEvent, TraceRecord};

#[cfg(test)]
#[path = "../../../tests/seeded/mod.rs"]
mod seeded;

/// Conservation, affinity and liveness over seeded workloads.
#[cfg(test)]
mod properties {
    use crate::behavior::{Behavior, WorkerSpec};
    use crate::node::NodeSim;
    use crate::params::SchedParams;
    use crate::seeded::Seeded;
    use zerosum_topology::{presets, CpuSet};

    fn compute(remaining_us: u64, chunk_us: u64) -> Behavior {
        Behavior::FiniteCompute {
            remaining_us,
            chunk_us,
        }
    }

    /// The sum of all tasks' CPU time equals the sum of all CPUs' busy
    /// time, and every CPU accounts exactly the time that has elapsed.
    #[test]
    fn cpu_time_is_conserved() {
        let mut g = Seeded::new(0x5c4e_0001);
        for case in 0..24 {
            let (ntasks, work_us) = (g.in_range(1, 6), g.in_range(1, 40) * 1_000);
            let mut sim = NodeSim::new(presets::laptop_i7_1165g7(), SchedParams::default());
            let mask = CpuSet::range(0, g.in_range(0, 3) as u32);
            let pid = sim.spawn_process("p", mask, 64, compute(work_us, 2_000));
            for _ in 1..ntasks {
                sim.spawn_task(pid, "w", None, compute(work_us, 2_000), false);
            }
            sim.run_for(500_000);
            let task_cpu: u64 = sim
                .process_task_counters(pid)
                .iter()
                .map(|(_, _, c)| c.utime_us + c.stime_us)
                .sum();
            let cpu_busy: u64 = sim.cpu_times_us().iter().map(|(_, u, s, _)| u + s).sum();
            assert_eq!(task_cpu, cpu_busy, "case {case}");
            for (os, u, s, i) in sim.cpu_times_us() {
                assert_eq!(u + s + i, sim.now_us(), "case {case}: cpu {os}");
            }
        }
    }

    /// Tasks never run outside their affinity mask.
    #[test]
    fn affinity_is_respected() {
        let mut g = Seeded::new(0x5c4e_0002);
        for case in 0..24 {
            let mask = CpuSet::from_indices([g.in_range(0, 8) as u32, g.in_range(0, 8) as u32]);
            let work_us = g.in_range(1, 30) * 1_000;
            let mut sim = NodeSim::new(presets::laptop_i7_1165g7(), SchedParams::default());
            let pid = sim.spawn_process("p", mask.clone(), 64, compute(work_us, 1_000));
            sim.spawn_task(pid, "w", None, compute(work_us, 1_000), false);
            sim.run_until_apps_done(5_000, 10_000_000)
                .expect("finishes");
            for (tid, _, _) in sim.process_task_counters(pid) {
                let t = sim.task_by_tid(tid).unwrap();
                assert!(
                    mask.contains(t.last_cpu),
                    "case {case}: task {tid} ran on {} outside {mask:?}",
                    t.last_cpu
                );
            }
        }
    }

    /// Any team of workers sharing a barrier on any CPU subset always
    /// finishes (no lost wakeups, no stuck spins).
    #[test]
    fn barrier_teams_always_finish() {
        let mut g = Seeded::new(0x5c4e_0003);
        for case in 0..24 {
            let (team, blocks) = (g.in_range(2, 6), g.in_range(1, 5) as u32);
            let (work_us, ncpus) = (g.in_range(1, 8) * 1_000, g.in_range(1, 8) as u32);
            let spin_us = [100, 2_000, 200_000][g.in_range(0, 3) as usize];
            let mut sim = NodeSim::new(
                presets::laptop_i7_1165g7(),
                SchedParams {
                    barrier_spin_us: spin_us,
                    ..Default::default()
                },
            );
            let worker = || {
                Behavior::worker(WorkerSpec {
                    barrier: Some(1),
                    ..WorkerSpec::cpu_bound(blocks, work_us)
                })
            };
            let pid = sim.spawn_process("team", CpuSet::range(0, ncpus - 1), 64, worker());
            for _ in 1..team {
                sim.spawn_task(pid, "w", None, worker(), false);
            }
            let bound = 10 * team * u64::from(blocks) * work_us + 10_000_000;
            assert!(
                sim.run_until_apps_done(10_000, bound).is_some(),
                "case {case}: team {team} blocks {blocks} work {work_us}us cpus {ncpus} \
                 spin {spin_us} did not finish"
            );
        }
    }

    /// `n` equal tasks on one CPU take `n` times the single-task
    /// runtime, within the scheduling slack, and the work completes.
    #[test]
    fn serialization_scales_runtime() {
        for n in 1..5u64 {
            let mut sim = NodeSim::new(presets::laptop_i7_1165g7(), SchedParams::default());
            let pid = sim.spawn_process("p", CpuSet::single(0), 64, compute(20_000, 20_000));
            for _ in 1..n {
                sim.spawn_task(pid, "w", None, compute(20_000, 20_000), false);
            }
            let done = sim
                .run_until_apps_done(5_000, 60_000_000)
                .expect("finishes");
            assert!(
                (n * 20_000..=n * 20_000 + 50_000).contains(&done),
                "n {n}: {done}"
            );
        }
    }
}
