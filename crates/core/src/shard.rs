//! A pass-through to [`Monitor::sample`] under the names the
//! benchmark's `sim_sharded_wide` workload compiles against.
//!
//! The monitor is one round on one thread (`core::round`).
//! [`ShardedMonitor`] ignores its shard count and [`ShardMode`], and
//! runs every round through one source handle. This module goes when
//! `sim_sharded_wide` becomes a plain `Monitor::sample` workload.
#![expect(
    clippy::disallowed_types,
    reason = "the frozen benchmark's `sim_sharded_wide` hands its source a `TrackedRw`"
)]

use crate::monitor::Monitor;
use crate::sync::TrackedRw;
use std::sync::{Arc, PoisonError};
use zerosum_proc::ProcSource;
use zerosum_sched::{NodeSim, SimProcSource, SimScratch};

/// Accepted by [`ShardedMonitor::new`] and ignored: both variants run
/// [`Monitor::sample`] on the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMode {
    /// The calling thread.
    Inline,
    /// The calling thread as well.
    Threads,
}

/// A sampling substrate a round can borrow a [`ProcSource`] view of:
/// `with_source` scopes each round's reads to one borrow.
pub trait ShardSource: Send {
    /// Runs `f` against a `ProcSource` view of the substrate.
    fn with_source<R>(&mut self, f: impl FnOnce(&dyn ProcSource) -> R) -> R;
}

/// A handle onto a shared [`NodeSim`]: every round samples under a
/// read guard; the driver advances the simulation under a write guard
/// strictly between rounds (inside the `advance_time` callback of
/// [`ShardedMonitor::run_rounds`]).
#[derive(Clone)]
pub struct SimShardSource {
    sim: Arc<TrackedRw<NodeSim>>,
    /// The render scratch of the round views, kept across rounds.
    scratch: SimScratch,
}

impl std::fmt::Debug for SimShardSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimShardSource")
            .field("lock", &self.sim.name())
            .finish()
    }
}

impl SimShardSource {
    /// A handle on `sim`.
    pub fn new(sim: Arc<TrackedRw<NodeSim>>) -> Self {
        SimShardSource {
            sim,
            scratch: SimScratch::default(),
        }
    }
}

impl ShardSource for SimShardSource {
    fn with_source<R>(&mut self, f: impl FnOnce(&dyn ProcSource) -> R) -> R {
        // Poison recovery: the sim holds plain counters; a panicking
        // reader cannot leave it inconsistent.
        let guard = self.sim.read().unwrap_or_else(PoisonError::into_inner);
        let src = SimProcSource::with_scratch(&guard, std::mem::take(&mut self.scratch));
        let out = f(&src);
        self.scratch = src.into_scratch();
        out
    }
}

/// A [`Monitor`] driven round by round from a [`ShardSource`].
#[derive(Debug)]
pub struct ShardedMonitor {
    monitor: Monitor,
}

impl ShardedMonitor {
    /// Wraps `monitor`. `nshards` and `mode` change nothing.
    pub fn new(monitor: Monitor, _nshards: usize, _mode: ShardMode) -> Self {
        ShardedMonitor { monitor }
    }

    /// The wrapped monitor.
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// Runs `rounds` sampling rounds through the one handle
    /// `make_source(0)`. `advance_time(r)` is called before round `r`,
    /// outside any borrow of the source, and returns its observation
    /// time: it is the only place the substrate may be advanced (e.g.
    /// under the sim lock's write guard).
    pub fn run_rounds<S: ShardSource>(
        &mut self,
        mut make_source: impl FnMut(usize) -> S,
        rounds: u64,
        mut advance_time: impl FnMut(u64) -> f64,
    ) {
        let mut source = make_source(0);
        for r in 0..rounds {
            let t_s = advance_time(r);
            source.with_source(|src| self.monitor.sample(t_s, src));
        }
    }
}
