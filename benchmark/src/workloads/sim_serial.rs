//! `sim_serial_busy`: `Monitor::sample` over `SimProcSource`, 4 ranks ×
//! 8 always-dispatched threads on the Frontier preset.
//!
//! No syscalls: the simulated source's render, the procfs parsers and
//! the monitor's fold are all of the time. The 10 ms virtual advance
//! between rounds is outside the timed window.

use super::{
    check_logs, check_monitor, frontier_scenario, monitor_counters, node_config, node_replays,
    rounds_until_ring_full, sim_time_s, AllocBlock, FinishCtx, Finished, SegmentCount, Workload,
    ALLOC_BLOCK_ROUNDS, SIM_STEP_US, WARMUP_ROUNDS,
};
use crate::alloc_count;
use crate::replay::Corpus;
use crate::trace::{Kind, TimedSource, Tracer};
use std::time::Instant;
use zerosum_core::Monitor;
use zerosum_proc::Pid;
use zerosum_sched::{NodeSim, SimProcSource};

const PROCS: u32 = 4;
const THREADS: u32 = 8;
/// Rounds per segment (~3 ms of rounds on the reference host).
const SEGMENT_ROUNDS: u64 = 32;

/// The workload state.
pub struct SimSerial {
    sim: NodeSim,
    monitor: Monitor,
    rounds: u64,
    pids: Vec<Pid>,
    tracer: Option<Tracer>,
}

impl SimSerial {
    /// Builds the scenario and runs the warm-up rounds.
    pub fn setup(seed: u64, tracer: Option<Tracer>) -> Result<Self, String> {
        let (sim, monitor, pids) = frontier_scenario(PROCS, THREADS, seed, node_config(true));
        let mut w = SimSerial {
            sim,
            monitor,
            rounds: 0,
            pids,
            tracer,
        };
        for _ in 0..WARMUP_ROUNDS {
            w.round(false);
        }
        Ok(w)
    }

    /// One round, traced if asked and built with a tracer; returns the
    /// wall ns inside `Monitor::sample`.
    fn round(&mut self, traced: bool) -> u64 {
        let tracer = self.tracer.as_ref().filter(|_| traced);
        match tracer {
            None => self.sim.run_for(SIM_STEP_US),
            Some(t) => t.span(Kind::SimAdvance, || self.sim.run_for(SIM_STEP_US)),
        }
        let t_s = sim_time_s(self.rounds);
        self.rounds += 1;
        let src = SimProcSource::new(&self.sim);
        match tracer {
            None => {
                let t0 = Instant::now();
                self.monitor.sample(t_s, &src);
                t0.elapsed().as_nanos() as u64
            }
            Some(t) => {
                let timed = TimedSource::new(&src, t);
                let t0 = Instant::now();
                {
                    let _round = t.enter(Kind::Round);
                    let _sample = t.enter(Kind::MonitorSample);
                    self.monitor.sample(t_s, &timed);
                }
                let ns = t0.elapsed().as_nanos() as u64;
                t.next_round();
                ns
            }
        }
    }
}

impl Workload for SimSerial {
    fn source_layer(&self) -> &'static str {
        "sched.proc_source"
    }

    fn segment(&mut self, round_ns: &mut Vec<u32>) -> Result<SegmentCount, String> {
        let mut busy_ns = 0;
        for _ in 0..SEGMENT_ROUNDS {
            let ns = self.round(true);
            busy_ns += ns;
            round_ns.push(ns as u32);
        }
        Ok(SegmentCount {
            rounds: SEGMENT_ROUNDS,
            work: SEGMENT_ROUNDS * u64::from(PROCS * THREADS),
            busy_ns,
            class: 0,
        })
    }

    fn top_up(&mut self) -> Result<(), String> {
        let cap = self.monitor.config.series_capacity as u64;
        for _ in 0..rounds_until_ring_full(self.rounds, cap) {
            self.round(false);
        }
        Ok(())
    }

    fn exit_monitors(&self) -> Option<Vec<&Monitor>> {
        let cap = self.monitor.config.series_capacity as u64;
        (rounds_until_ring_full(self.rounds, cap) == 0).then(|| vec![&self.monitor])
    }

    fn alloc_block(&mut self) -> Result<AllocBlock, String> {
        let mut block = AllocBlock {
            rounds: ALLOC_BLOCK_ROUNDS,
            work: ALLOC_BLOCK_ROUNDS * u64::from(PROCS * THREADS),
            ..AllocBlock::default()
        };
        for _ in 0..ALLOC_BLOCK_ROUNDS {
            self.sim.run_for(SIM_STEP_US);
            let t_s = sim_time_s(self.rounds);
            self.rounds += 1;
            let src = SimProcSource::new(&self.sim);
            let (a0, b0) = alloc_count::snapshot();
            self.monitor.sample(t_s, &src);
            let (a1, b1) = alloc_count::snapshot();
            block.allocs += a1 - a0;
            block.bytes += b1 - b0;
        }
        Ok(block)
    }

    fn finish(self: Box<Self>, ctx: &FinishCtx) -> Result<Finished, String> {
        let (mut checks, attempted, failed) =
            check_monitor(&self.monitor, self.rounds, THREADS as usize);
        checks.push(check_logs(&[&self.monitor], &ctx.scratch)?);
        let mut layer = monitor_counters(&self.monitor);
        let mut text_bytes = [0.0; 4];
        if ctx.traced {
            let corpus = Corpus::from_source(&SimProcSource::new(&self.sim), &self.pids)?;
            let (replays, bytes) = node_replays(&corpus, false);
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
