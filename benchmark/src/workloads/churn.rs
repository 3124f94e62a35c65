//! `churn_open`: `experiments::churn::run_sim_churn` at 100 Hz arrivals
//! against the 20 Hz sampling period — Poisson arrivals, Zipf thread
//! counts, 15 % pid reuse — over a fixed set of soaks, one per seed.
//!
//! The LWP registry's insert/retire/compaction, the health ledger's
//! forget and the simulated node's spawn/exit run every round here and
//! never on the steady workloads. A soak is one opaque call, so a
//! *round* is observed as soak wall time ÷ the soak's rounds, and the
//! virtual-time advance stays inside the timed window (as in
//! `zerosum bench`'s `churn_samples_per_sec_r100`).
//!
//! Soaks differ in cost by tens of percent (thread counts are Zipf), so
//! a run cycles through [`SOAKS`] of them, seeds derived from `--seed`,
//! and each is its own segment class: a soak is only ever compared with
//! its own repetitions, every one of which must reproduce the first's
//! outcome bit for bit.

use super::sim_serial::SimSerial;
use super::{mix, AllocBlock, Check, FinishCtx, Finished, SegmentCount, Workload};
use crate::alloc_count;
use crate::replay;
use crate::trace::{Kind, Tracer};
use std::time::Instant;
use zerosum_apps::churn::ChurnConfig;
use zerosum_core::Monitor;
use zerosum_experiments::churn::{run_sim_churn, SimChurnOutcome, SimChurnParams};

/// Distinct soaks a run cycles through: enough that their mean cost
/// differs by ~2 % between seeds, few enough that a 12 s window repeats
/// each ~50 times and so meets it in a quiet gap of the host.
const SOAKS: u64 = 32;
/// Soaks in the allocation block.
const ALLOC_SOAKS: u64 = 4;

/// Parameters of soak `index` of the run seeded `seed`.
pub fn soak_params(seed: u64, index: u64) -> SimChurnParams {
    SimChurnParams {
        churn: ChurnConfig {
            seed: mix(seed, index),
            arrival_rate_hz: 100.0,
            ..ChurnConfig::default()
        },
        ..SimChurnParams::default()
    }
}

/// The workload state.
pub struct Churn {
    seed: u64,
    /// Soaks run so far; soak `next % SOAKS` is next.
    next: u64,
    /// Each soak's first outcome.
    first: Vec<SimChurnOutcome>,
    /// Repetitions that did not reproduce their soak's first outcome.
    diverged: u64,
    task_samples: u64,
    vanished: u64,
    failed: u64,
    /// Stands in for the exit path: a soak keeps its monitor to itself.
    reference: Box<SimSerial>,
    tracer: Option<Tracer>,
}

impl Churn {
    /// Runs one warm-up soak and builds the reference monitor.
    pub fn setup(seed: u64, tracer: Option<Tracer>) -> Result<Self, String> {
        let mut w = Churn {
            seed,
            next: 0,
            first: Vec::with_capacity(SOAKS as usize),
            diverged: 0,
            task_samples: 0,
            vanished: 0,
            failed: 0,
            reference: Box::new(SimSerial::setup(seed, None)?),
            tracer,
        };
        w.soak(false);
        Ok(w)
    }

    /// One soak, traced if asked and built with a tracer; returns its
    /// outcome, class and wall ns.
    fn soak(&mut self, traced: bool) -> (SimChurnOutcome, u32, u64) {
        let tracer = self.tracer.as_ref().filter(|_| traced);
        let class = self.next % SOAKS;
        let p = soak_params(self.seed, class);
        self.next += 1;
        let t0 = Instant::now();
        let out = match tracer {
            None => run_sim_churn(&p),
            Some(t) => {
                let _round = t.enter(Kind::Round);
                t.span(Kind::ChurnSoak, || run_sim_churn(&p))
            }
        };
        let ns = t0.elapsed().as_nanos() as u64;
        if let Some(t) = tracer {
            t.next_round();
        }
        match self.first.get(class as usize) {
            Some(first) => self.diverged += u64::from(*first != out),
            None => self.first.push(out.clone()),
        }
        self.task_samples += out.task_samples;
        self.vanished += out.vanished;
        self.failed += out.errors + out.supervisor_restarts + out.quarantine_events;
        (out, class as u32, ns)
    }
}

impl Workload for Churn {
    fn source_layer(&self) -> &'static str {
        "sched.proc_source"
    }

    fn segment(&mut self, round_ns: &mut Vec<u32>) -> Result<SegmentCount, String> {
        let (out, class, ns) = self.soak(true);
        if out.rounds == 0 {
            return Err("a churn soak completed no rounds".into());
        }
        round_ns.push((ns / out.rounds) as u32);
        Ok(SegmentCount {
            rounds: out.rounds,
            work: out.task_samples,
            busy_ns: ns,
            class,
        })
    }

    fn top_up(&mut self) -> Result<(), String> {
        self.reference.top_up()
    }

    fn exit_monitors(&self) -> Option<Vec<&Monitor>> {
        self.reference.exit_monitors()
    }

    fn alloc_block(&mut self) -> Result<AllocBlock, String> {
        let mut block = AllocBlock::default();
        for index in 0..ALLOC_SOAKS {
            let p = soak_params(self.seed, index);
            let (a0, b0) = alloc_count::snapshot();
            let out = run_sim_churn(&p);
            let (a1, b1) = alloc_count::snapshot();
            block.rounds += out.rounds;
            block.work += out.task_samples;
            block.allocs += a1 - a0;
            block.bytes += b1 - b0;
        }
        Ok(block)
    }

    fn finish(self: Box<Self>, ctx: &FinishCtx) -> Result<Finished, String> {
        let first = self.first.first().cloned().unwrap_or_default();
        let again = run_sim_churn(&soak_params(self.seed, 0));
        let mut checks = vec![
            Check::new(
                "re-running a seed reproduces its outcome, fingerprint included, bit for bit",
                again == first && first.rounds > 0 && self.diverged == 0,
                format!(
                    "{} soaks of {} seeds, {} diverged; first fingerprint {:#x} then {:#x}",
                    self.next,
                    self.first.len(),
                    self.diverged,
                    first.fingerprint,
                    again.fingerprint
                ),
            ),
            Check::new(
                "no sampling error, supervisor restart or quarantine in any soak",
                self.failed == 0,
                format!(
                    "{} soaks, {} departures folded, failed={}",
                    self.next, self.vanished, self.failed
                ),
            ),
        ];
        let soak_mean_work = self.task_samples / self.next.max(1) / first.rounds.max(1);
        // The reference monitor's own finish supplies the exit path's
        // checks; its sampling counts are not this workload's.
        let reference = self.reference.finish(ctx)?;
        checks.extend(reference.checks);
        let mut layer = if ctx.traced {
            let mut v = replay::churn_schedule(&soak_params(self.seed, 0).churn);
            v.extend(replay::stats_containers());
            v
        } else {
            Vec::new()
        };
        layer.extend([
            ("core.health.errors", first.errors as f64),
            (
                "core.monitor.supervisor_restarts",
                first.supervisor_restarts as f64,
            ),
            ("core.monitor.vanished", first.vanished as f64),
            ("core.monitor.shed_rounds", first.shed_rounds as f64),
            (
                "core.monitor.governor_changes",
                first.governor_changes as f64,
            ),
            ("core.lwp.tracks_retained", first.tracks_retained as f64),
            ("core.lwp.tracks_departed", first.tracks_departed as f64),
        ]);
        Ok(Finished {
            attempted: self.task_samples + self.vanished,
            failed: self.failed,
            checks,
            work_per_round: soak_mean_work,
            layer,
            text_bytes: [0.0; 4],
        })
    }
}
