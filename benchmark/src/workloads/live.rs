//! `live_procfs_busy` / `live_procfs_idle`: `Monitor::sample` over
//! `LinuxProc` on the live `/proc`, watching this very process: the
//! main thread plus 64 named, parked threads.
//!
//! *busy* turns delta sampling off, so every task pays `schedstat` +
//! `stat` + `status` every round, as a rank whose threads are all being
//! dispatched would (64 truly busy threads cannot be generated on two
//! cores without measuring the scheduler instead). *idle* keeps the
//! default configuration: parked threads' `schedstat` never moves, so
//! nearly every task read is a gate hit — one file read, no parse,
//! last-good reuse. Same layers, used the other way round.

use super::{
    check_logs, check_monitor, monitor_counters, node_config, node_replays, rounds_until_ring_full,
    AllocBlock, Check, FinishCtx, Finished, SegmentCount, Workload, ALLOC_BLOCK_ROUNDS,
    SERIES_CAPACITY, WARMUP_ROUNDS,
};
use crate::alloc_count;
use crate::replay::Corpus;
use crate::trace::{Kind, TimedSource, Tracer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;
use zerosum_core::{Monitor, ProcessInfo};
use zerosum_proc::{LinuxProc, Pid, ProcSource};
use zerosum_topology::CpuSet;

/// Parked worker threads beside the main thread.
pub const WORKERS: usize = 64;
const TASKS: u64 = WORKERS as u64 + 1;
/// Rounds per segment: 4-5 ms either way on the reference host.
const SEGMENT_ROUNDS_BUSY: u64 = 4;
const SEGMENT_ROUNDS_IDLE: u64 = 16;

/// The workload state.
pub struct Live {
    src: LinuxProc,
    pid: Pid,
    monitor: Monitor,
    rounds: u64,
    started: Instant,
    idle: bool,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
    tracer: Option<Tracer>,
}

impl Live {
    /// Spawns the parked population, checks `/proc` offers what the
    /// workload needs, and runs the warm-up rounds.
    pub fn setup(idle: bool, tracer: Option<Tracer>) -> Result<Self, String> {
        let src = LinuxProc::new();
        let pid = src
            .self_pid()
            .map_err(|e| format!("live /proc is not readable: {e}"))?;
        src.task_schedstat(pid, pid).map_err(|e| {
            format!("/proc/{pid}/task/{pid}/schedstat is not readable ({e}): the live workloads cannot run")
        })?;
        let stop = Arc::new(AtomicBool::new(false));
        // The barrier forces "all 64 are running" before the first round.
        let started = Arc::new(Barrier::new(WORKERS + 1));
        let mut workers = Vec::with_capacity(WORKERS);
        for i in 0..WORKERS {
            let (stop, started) = (Arc::clone(&stop), Arc::clone(&started));
            let handle = std::thread::Builder::new()
                .name(format!("zsb-park{i:02}"))
                .stack_size(64 * 1024)
                .spawn(move || {
                    started.wait();
                    // Acquire pairs with the Release store in `Drop`.
                    while !stop.load(Ordering::Acquire) {
                        std::thread::park();
                    }
                })
                .map_err(|e| format!("cannot spawn worker {i}: {e}"))?;
            workers.push(handle);
        }
        started.wait();
        let mut monitor = Monitor::new(node_config(idle));
        monitor.watch_process(ProcessInfo {
            pid,
            rank: Some(0),
            hostname: "bench".into(),
            gpus: vec![],
            cpus_allowed: CpuSet::new(),
        });
        let mut w = Live {
            src,
            pid,
            monitor,
            rounds: 0,
            started: Instant::now(),
            idle,
            stop,
            workers,
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
        let t_s = self.started.elapsed().as_secs_f64();
        self.rounds += 1;
        match tracer {
            None => {
                let t0 = Instant::now();
                self.monitor.sample(t_s, &self.src);
                t0.elapsed().as_nanos() as u64
            }
            Some(t) => {
                let timed = TimedSource::new(&self.src, t);
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

    fn segment_rounds(&self) -> u64 {
        if self.idle {
            SEGMENT_ROUNDS_IDLE
        } else {
            SEGMENT_ROUNDS_BUSY
        }
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        for h in self.workers.drain(..) {
            h.thread().unpark();
            // A worker only parks; it has nothing to panic about.
            let _ = h.join();
        }
    }
}

impl Workload for Live {
    fn source_layer(&self) -> &'static str {
        "procfs.linux"
    }

    fn segment(&mut self, round_ns: &mut Vec<u32>) -> Result<SegmentCount, String> {
        let n = self.segment_rounds();
        let mut busy_ns = 0;
        for _ in 0..n {
            let ns = self.round(true);
            busy_ns += ns;
            round_ns.push(ns as u32);
        }
        Ok(SegmentCount {
            rounds: n,
            work: n * TASKS,
            busy_ns,
            class: 0,
        })
    }

    fn top_up(&mut self) -> Result<(), String> {
        for _ in 0..rounds_until_ring_full(self.rounds, SERIES_CAPACITY as u64) {
            self.round(false);
        }
        Ok(())
    }

    fn exit_monitors(&self) -> Option<Vec<&Monitor>> {
        (rounds_until_ring_full(self.rounds, SERIES_CAPACITY as u64) == 0)
            .then(|| vec![&self.monitor])
    }

    fn alloc_block(&mut self) -> Result<AllocBlock, String> {
        let mut block = AllocBlock {
            rounds: ALLOC_BLOCK_ROUNDS,
            work: ALLOC_BLOCK_ROUNDS * TASKS,
            ..AllocBlock::default()
        };
        for _ in 0..ALLOC_BLOCK_ROUNDS {
            let t_s = self.started.elapsed().as_secs_f64();
            self.rounds += 1;
            let (a0, b0) = alloc_count::snapshot();
            self.monitor.sample(t_s, &self.src);
            let (a1, b1) = alloc_count::snapshot();
            block.allocs += a1 - a0;
            block.bytes += b1 - b0;
        }
        Ok(block)
    }

    fn finish(self: Box<Self>, ctx: &FinishCtx) -> Result<Finished, String> {
        let (mut checks, attempted, failed) =
            check_monitor(&self.monitor, self.rounds, TASKS as usize);
        let listed = self
            .src
            .list_tasks(self.pid)
            .map_err(|e| format!("list own tasks: {e}"))?;
        let named = self
            .monitor
            .process(self.pid)
            .map(|w| {
                w.lwps
                    .tracks()
                    .filter(|t| t.name.starts_with("zsb-park"))
                    .count()
            })
            .unwrap_or(0);
        checks.push(Check::new(
            "the watch holds the main thread and the 64 named workers",
            listed.len() as u64 == TASKS && named == WORKERS,
            format!("{} tids listed, {named} named zsb-park*", listed.len()),
        ));
        let hit_pct = self.monitor.stats.delta_hits as f64 / attempted.max(1) as f64 * 100.0;
        checks.push(Check::new(
            "the schedstat gate hits on parked threads only when delta sampling is on",
            if self.idle {
                hit_pct > 90.0
            } else {
                hit_pct == 0.0
            },
            format!("delta hits {hit_pct:.2}% of task reads"),
        ));
        checks.push(check_logs(&[&self.monitor], &ctx.scratch)?);
        let mut layer = monitor_counters(&self.monitor);
        let mut text_bytes = [0.0; 4];
        if ctx.traced {
            let corpus = Corpus::from_live(self.pid, &listed)?;
            let (replays, bytes) = node_replays(&corpus, false);
            layer.extend(replays);
            text_bytes = bytes;
        }
        Ok(Finished {
            attempted,
            failed,
            checks,
            work_per_round: TASKS,
            layer,
            text_bytes,
        })
    }
}
