//! `sim_sharded_wide`: `ShardedMonitor::run_rounds`, 4 inline shards
//! over 8 ranks × 32 threads = 256 tasks.
//!
//! The plan/dispatch/fold engine, `ReadArena` batching and the fast
//! stat parser do the work here and none of it on the serial workloads.
//! During the warm-up a serial `Monitor` samples the same simulated
//! node in lockstep; the two node aggregates must be equal.

use super::{
    check_logs, check_monitor, frontier_scenario, monitor_counters, node_config, node_replays,
    rounds_until_ring_full, sim_time_s, AllocBlock, Check, FinishCtx, Finished, SegmentCount,
    Workload, ALLOC_BLOCK_ROUNDS, SIM_STEP_US, WARMUP_ROUNDS,
};
use crate::alloc_count;
use crate::estimate::median;
use crate::replay::Corpus;
use crate::trace::{Kind, TimedShardSource, Tracer};
use std::sync::{Arc, PoisonError};
use std::time::Instant;
use zerosum_core::{
    Monitor, NodeAggregate, ShardMode, ShardSource, ShardedMonitor, SimShardSource, TrackedRw,
};
use zerosum_proc::Pid;
use zerosum_sched::{NodeSim, SimProcSource};

const PROCS: u32 = 8;
const THREADS: u32 = 32;
const SHARDS: usize = 4;
/// Rounds per segment (~3 ms of rounds on the reference host).
const SEGMENT_ROUNDS: u64 = 8;
/// Rounds of the informative `ShardMode::Threads` comparison.
const THREADS_MODE_ROUNDS: u64 = 300;

type SharedSim = Arc<TrackedRw<NodeSim>>;

/// The workload state.
pub struct SimSharded {
    sim: SharedSim,
    sharded: ShardedMonitor,
    rounds: u64,
    seed: u64,
    pids: Vec<Pid>,
    oracle: Check,
    tracer: Option<Tracer>,
}

/// Per-call extras of [`drive`].
#[derive(Default)]
struct Hooks<'a> {
    tracer: Option<&'a Tracer>,
    round_ns: Option<&'a mut Vec<u32>>,
    oracle: Option<&'a mut Monitor>,
    allocs: Option<&'a mut AllocBlock>,
}

/// Runs `n` rounds through `sharded`, advancing `sim` between rounds
/// under the write lock (outside each round's timed window, as
/// `zerosum bench` does).
fn drive<S: ShardSource>(
    sharded: &mut ShardedMonitor,
    sim: &SharedSim,
    base: u64,
    n: u64,
    make: impl FnMut(usize) -> S,
    mut hooks: Hooks<'_>,
) {
    // `pre[r]` ends round r-1's window, `post[r]` starts round r's.
    let mut pre: Vec<Instant> = Vec::with_capacity(n as usize);
    let mut post: Vec<Instant> = Vec::with_capacity(n as usize);
    let mut mark = alloc_count::snapshot();
    sharded.run_rounds(make, n, |r| {
        pre.push(Instant::now());
        let now = alloc_count::snapshot();
        if r > 0 {
            if let Some(t) = hooks.tracer {
                t.close();
                t.close();
                t.next_round();
            }
            if let Some(a) = hooks.allocs.as_deref_mut() {
                a.allocs += now.0 - mark.0;
                a.bytes += now.1 - mark.1;
            }
        }
        {
            let mut guard = sim.write().unwrap_or_else(PoisonError::into_inner);
            if r > 0 {
                if let Some(o) = hooks.oracle.as_deref_mut() {
                    o.sample(sim_time_s(base + r - 1), &SimProcSource::new(&guard));
                }
            }
            match hooks.tracer {
                None => guard.run_for(SIM_STEP_US),
                Some(t) => t.span(Kind::SimAdvance, || guard.run_for(SIM_STEP_US)),
            }
        }
        if let Some(t) = hooks.tracer {
            t.open(Kind::Round);
            t.open(Kind::ShardRound);
        }
        mark = alloc_count::snapshot();
        post.push(Instant::now());
        sim_time_s(base + r)
    });
    let end = Instant::now();
    let now = alloc_count::snapshot();
    if n > 0 {
        if let Some(t) = hooks.tracer {
            t.close();
            t.close();
            t.next_round();
        }
        if let Some(a) = hooks.allocs.as_deref_mut() {
            a.allocs += now.0 - mark.0;
            a.bytes += now.1 - mark.1;
        }
        if let Some(o) = hooks.oracle.as_deref_mut() {
            let guard = sim.read().unwrap_or_else(PoisonError::into_inner);
            o.sample(sim_time_s(base + n - 1), &SimProcSource::new(&guard));
        }
    }
    if let Some(out) = hooks.round_ns {
        for (i, start) in post.iter().enumerate() {
            let stop = pre.get(i + 1).copied().unwrap_or(end);
            out.push(stop.duration_since(*start).as_nanos() as u32);
        }
    }
}

impl SimSharded {
    /// Builds the scenario and runs the warm-up rounds with the serial
    /// oracle in lockstep.
    pub fn setup(seed: u64, tracer: Option<Tracer>) -> Result<Self, String> {
        let (sim, monitor, pids) = frontier_scenario(PROCS, THREADS, seed, node_config(true));
        let (_, mut serial, _) = frontier_scenario(PROCS, THREADS, seed, node_config(true));
        let sim: SharedSim = Arc::new(TrackedRw::new("zsbench.shard_sim", sim));
        let mut sharded = ShardedMonitor::new(monitor, SHARDS, ShardMode::Inline);
        let for_shards = Arc::clone(&sim);
        drive(
            &mut sharded,
            &sim,
            0,
            WARMUP_ROUNDS,
            move |_| SimShardSource::new(Arc::clone(&for_shards)),
            Hooks {
                oracle: Some(&mut serial),
                ..Hooks::default()
            },
        );
        let got = NodeAggregate::from_monitor("bench", sharded.monitor());
        let want = NodeAggregate::from_monitor("bench", &serial);
        let oracle = Check::new(
            "sharded node aggregate equals the serial monitor's over the same rounds",
            got == want && serial.stats.rounds == WARMUP_ROUNDS,
            format!("sharded {got:?} serial {want:?}"),
        );
        Ok(SimSharded {
            sim,
            sharded,
            rounds: WARMUP_ROUNDS,
            seed,
            pids,
            oracle,
            tracer,
        })
    }

    fn run(&mut self, n: u64, hooks: Hooks<'_>) {
        let for_shards = Arc::clone(&self.sim);
        let make = move |_| SimShardSource::new(Arc::clone(&for_shards));
        match hooks.tracer.cloned() {
            None => drive(&mut self.sharded, &self.sim, self.rounds, n, make, hooks),
            Some(t) => {
                let timed = move |i| TimedShardSource::new(make(i), t.clone());
                drive(&mut self.sharded, &self.sim, self.rounds, n, timed, hooks);
            }
        }
        self.rounds += n;
    }

    /// Median round µs of the same scenario under `ShardMode::Threads`
    /// with `max(1, nproc - 1)` shards. Informative only: on two shared
    /// cores this measures the scheduler as much as the engine.
    fn threads_mode_round_us(&self) -> f64 {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (sim, monitor, _) = frontier_scenario(PROCS, THREADS, self.seed, node_config(true));
        let sim: SharedSim = Arc::new(TrackedRw::new("zsbench.shard_sim_threads", sim));
        let mut sharded = ShardedMonitor::new(monitor, (nproc - 1).max(1), ShardMode::Threads);
        let for_shards = Arc::clone(&sim);
        let mut round_ns = Vec::new();
        drive(
            &mut sharded,
            &sim,
            0,
            THREADS_MODE_ROUNDS,
            move |_| SimShardSource::new(Arc::clone(&for_shards)),
            Hooks {
                round_ns: Some(&mut round_ns),
                ..Hooks::default()
            },
        );
        let mut round_us: Vec<f64> = round_ns.iter().map(|&ns| f64::from(ns) / 1e3).collect();
        median(&mut round_us).unwrap_or(0.0)
    }
}

impl Workload for SimSharded {
    fn source_layer(&self) -> &'static str {
        "sched.proc_source"
    }

    fn segment(&mut self, round_ns: &mut Vec<u32>) -> Result<SegmentCount, String> {
        let tracer = self.tracer.clone();
        let first = round_ns.len();
        self.run(
            SEGMENT_ROUNDS,
            Hooks {
                tracer: tracer.as_ref(),
                round_ns: Some(round_ns),
                ..Hooks::default()
            },
        );
        let busy_ns = round_ns
            .get(first..)
            .unwrap_or(&[])
            .iter()
            .map(|&ns| u64::from(ns))
            .sum();
        Ok(SegmentCount {
            rounds: SEGMENT_ROUNDS,
            work: SEGMENT_ROUNDS * u64::from(PROCS * THREADS),
            busy_ns,
            class: 0,
        })
    }

    fn top_up(&mut self) -> Result<(), String> {
        let cap = self.sharded.monitor().config.series_capacity as u64;
        self.run(rounds_until_ring_full(self.rounds, cap), Hooks::default());
        Ok(())
    }

    fn exit_monitors(&self) -> Option<Vec<&Monitor>> {
        let monitor = self.sharded.monitor();
        let cap = monitor.config.series_capacity as u64;
        (rounds_until_ring_full(self.rounds, cap) == 0).then(|| vec![monitor])
    }

    fn alloc_block(&mut self) -> Result<AllocBlock, String> {
        let mut block = AllocBlock {
            rounds: ALLOC_BLOCK_ROUNDS,
            work: ALLOC_BLOCK_ROUNDS * u64::from(PROCS * THREADS),
            ..AllocBlock::default()
        };
        self.run(
            ALLOC_BLOCK_ROUNDS,
            Hooks {
                allocs: Some(&mut block),
                ..Hooks::default()
            },
        );
        Ok(block)
    }

    fn finish(self: Box<Self>, ctx: &FinishCtx) -> Result<Finished, String> {
        let threads_round_us = if ctx.traced {
            self.threads_mode_round_us()
        } else {
            0.0
        };
        let monitor = self.sharded.monitor();
        let (mut checks, attempted, failed) = check_monitor(monitor, self.rounds, THREADS as usize);
        checks.push(self.oracle.clone());
        checks.push(check_logs(&[monitor], &ctx.scratch)?);
        let mut layer = monitor_counters(monitor);
        layer.push(("core.shard.threads_round_us", threads_round_us));
        let mut text_bytes = [0.0; 4];
        if ctx.traced {
            let guard = self.sim.read().unwrap_or_else(PoisonError::into_inner);
            let corpus = Corpus::from_source(&SimProcSource::new(&guard), &self.pids)?;
            let (replays, bytes) = node_replays(&corpus, true);
            layer.extend(replays);
            text_bytes = bytes;
        }
        Ok(Finished {
            attempted,
            failed,
            checks,
            work_per_round: u64::from(PROCS * THREADS),
            layer,
            text_bytes,
        })
    }
}
