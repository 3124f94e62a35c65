//! The ZeroSum monitor: periodic observation of processes, threads,
//! hardware threads, and memory through a [`ProcSource`].
//!
//! This is the paper's asynchronous monitor thread (§3.1) as a library:
//! each call to [`Monitor::sample`] performs one periodic observation —
//! discover LWPs from the task list, read each one's `stat`/`status`,
//! snapshot `/proc/stat` and `/proc/meminfo` — tolerating races with
//! exiting threads exactly as a live `/proc` consumer must. The same
//! code drives the live-Linux backend and the node simulation.
//!
//! This module holds the monitor's state, its supervisor and its
//! overload control. The observation itself is the sampling engine's
//! round ([`crate::shard`]), which [`Monitor::sample`] runs as one
//! inline shard.

use crate::config::{ResilienceConfig, ZeroSumConfig};
use crate::health::{HealthLedger, ProcessHealth, TaskRow};
use crate::hwt::HwtTracker;
use crate::lwp::LwpRegistry;
use crate::memory::MemoryTracker;
use zerosum_proc::{Pid, ProcSource, SourceErrorKind, SourceResult, SystemStat, Tid};
use zerosum_stats::Ring;
use zerosum_topology::CpuSet;

/// Static identity of a monitored process.
#[derive(Debug, Clone)]
pub struct ProcessInfo {
    /// Process id.
    pub pid: Pid,
    /// MPI rank, if the process is part of a parallel job.
    pub rank: Option<u32>,
    /// Hostname of the node the process runs on.
    pub hostname: String,
    /// GPU physical indices assigned to this process (via
    /// `--gpu-bind=closest` or visible-devices).
    pub gpus: Vec<u32>,
    /// The process affinity mask captured at initialization — ZeroSum
    /// reads it while wrapping `main()`, *before* any runtime rebinding.
    /// When empty, the monitor falls back to the main thread's mask at
    /// the first sample.
    pub cpus_allowed: CpuSet,
}

/// Monitoring state for one process.
#[derive(Debug)]
pub struct ProcessWatch {
    /// Identity.
    pub info: ProcessInfo,
    /// Per-thread registry.
    pub lwps: LwpRegistry,
    /// The process affinity mask (from the first status read).
    pub cpus_allowed: CpuSet,
    /// RSS history `(t_s, kib)` — a bounded ring (2:1 downsample on
    /// wrap).
    pub rss_series: Ring<(f64, u64)>,
    /// True once the process has disappeared.
    pub gone: bool,
    /// Sampling-health ledger and live table (a row per listed tid).
    pub health: ProcessHealth,
}

impl ProcessWatch {
    /// Latest RSS, KiB.
    pub fn rss_kib(&self) -> u64 {
        self.rss_series.last().map(|&(_, r)| r).unwrap_or(0)
    }

    /// Number of per-tid delta-gate entries currently held (exposed so
    /// churn soaks can assert the footprint tracks concurrent tasks).
    pub fn delta_gate_len(&self) -> usize {
        self.health.gates_held()
    }

    /// Joins this round's task listing with the live table in one pass
    /// (both ascend by tid): a tid only in the table has left — its
    /// track is marked exited and its row dropped, failure state,
    /// last-good sample and gate with it; a tid only in the listing gets
    /// a row; `each` sees every listed tid's row, in listing order. Only
    /// a tid arriving below one held (ids wrapped) costs a sort.
    pub(crate) fn join_listing(
        &mut self,
        listing: &[Tid],
        mut each: impl FnMut(&mut TaskRow, &mut HealthLedger),
    ) {
        let ProcessHealth { ledger, rows } = &mut self.health;
        let held = rows.len();
        // Rows before `next` are dealt with; the first `kept` stay.
        let (mut next, mut kept) = (0usize, 0usize);
        for &tid in listing {
            while let Some(row) = rows.get(next).filter(|r| next < held && r.tid < tid) {
                self.lwps.depart(row.track);
                next += 1;
            }
            let at = if rows.get(next).is_some_and(|r| next < held && r.tid == tid) {
                if kept != next {
                    rows.swap(kept, next);
                }
                (next, kept) = (next + 1, kept + 1);
                kept - 1
            } else {
                rows.push(TaskRow::arrival(tid, self.lwps.link(tid)));
                rows.len() - 1
            };
            if let Some(row) = rows.get_mut(at) {
                each(row, ledger);
            }
        }
        for row in rows.iter().take(held).skip(next) {
            self.lwps.depart(row.track);
        }
        rows.drain(kept..held);
        if rows.len() > kept && !rows.is_sorted_by_key(|r| r.tid) {
            rows.sort_unstable_by_key(|r| r.tid);
        }
    }
}

/// Counters describing how sampling went (exposed for overhead studies
/// and error-tolerance tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SampleStats {
    /// Completed sampling rounds.
    pub rounds: u64,
    /// Individual record reads that failed with `NotFound` (normal
    /// thread-exit races).
    pub vanished: u64,
    /// Other read errors (counted once per failed record slot; the
    /// per-attempt tally lives in the [`HealthLedger`]s).
    pub errors: u64,
    /// Task slots filled from the last good sample because the thread's
    /// `schedstat` was unchanged (delta sampling) — two record reads
    /// saved each.
    pub delta_hits: u64,
}

/// The sampling supervisor's record of caught panics (§3.1: the monitor
/// must never take the application down with it).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SupervisorStats {
    /// Panics caught by the sampling supervisor; each one cost (at
    /// most) the remainder of one round, after which sampling resumed.
    pub restarts: u64,
    /// The observation times (seconds) of the interrupted rounds — the
    /// gaps in the record (bounded ring).
    pub gap_times_s: Ring<f64>,
}

/// One period change made by the overhead governor, recorded for the
/// report: when and why the sampling period was widened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodChange {
    /// Observation time of the round whose cost triggered the change.
    pub t_s: f64,
    /// Period before the change, µs.
    pub from_us: u64,
    /// Period after the change, µs.
    pub to_us: u64,
    /// The measured round cost that exceeded the budget, µs.
    pub cost_us: u64,
    /// The budget the cost was compared against, µs.
    pub budget_us: u64,
}

/// Overload-control state: the overhead governor's effective period and
/// change log, plus the deadline watchdog's shedding record.
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorState {
    /// The sampling period currently in effect, µs. Starts at the
    /// configured period; the governor doubles it (up to the configured
    /// ceiling) whenever a round's measured cost exceeds its budget.
    period_us: u64,
    /// Every period change, in order. Bounded by construction: each
    /// change at least doubles the period toward a fixed ceiling, so the
    /// log holds at most `log2(max_period/period)` entries per excursion.
    pub changes: Vec<PeriodChange>,
    /// Rounds whose cost exceeded the sampling deadline.
    pub overruns: u64,
    /// Rounds that dropped per-LWP detail after a deadline overrun.
    pub shed_rounds: u64,
    /// Set by the watchdog when the last round overran its deadline; the
    /// next round sheds worker-LWP reads (per-HWT totals, the main
    /// thread, and memory are always kept).
    pub(crate) shed_next: bool,
}

impl GovernorState {
    fn new(period_us: u64) -> Self {
        GovernorState {
            period_us,
            changes: Vec::new(),
            overruns: 0,
            shed_rounds: 0,
            shed_next: false,
        }
    }
}

/// The ZeroSum monitor.
#[derive(Debug)]
pub struct Monitor {
    /// Configuration.
    pub config: ZeroSumConfig,
    pub(crate) processes: Vec<ProcessWatch>,
    /// Node-wide hardware-thread utilization.
    pub hwt: HwtTracker,
    /// Node-wide memory tracking.
    pub mem: MemoryTracker,
    /// Sampling health counters.
    pub stats: SampleStats,
    /// Health ledger for node-level records (`/proc/stat`,
    /// `/proc/meminfo`) and per-process `list_tasks` scans.
    pub node_health: HealthLedger,
    /// Caught-panic record of the sampling supervisor.
    pub supervisor: SupervisorStats,
    /// Overload-control state (overhead governor + deadline watchdog).
    pub governor: GovernorState,
    /// Retry-backoff µs accrued since the last [`Monitor::take_backoff_us`]
    /// drain (charged to the monitor's CPU cost by the runner).
    pub(crate) pending_backoff_us: u64,
    /// Time of the last sample, seconds.
    pub last_t_s: f64,
    /// Live snapshot feed (§3.6): subscribers receive a
    /// [`crate::feed::SampleSnapshot`] after every sample.
    pub feed: crate::feed::SampleFeed,
    /// Reusable node-scope records of a round — the sampling hot path
    /// allocates nothing in the steady state.
    pub(crate) scratch: SampleScratch,
    /// The sampling engine's per-round state (batches, arenas, fold
    /// cursors): one shard's worth, unless a
    /// [`crate::shard::ShardedMonitor`] resized it.
    pub(crate) engine: crate::shard::Engine,
}

/// The node-scope record and vector a round's fold reuses.
#[derive(Debug, Default)]
pub(crate) struct SampleScratch {
    pub(crate) sys: SystemStat,
    pub(crate) watched_rss: Vec<(Pid, u64)>,
}

impl Monitor {
    /// Creates a monitor with the given configuration.
    pub fn new(config: ZeroSumConfig) -> Self {
        let capacity = config.series_capacity;
        let period_us = config.period_us;
        Monitor {
            config,
            processes: Vec::new(),
            hwt: HwtTracker::with_capacity(capacity),
            mem: MemoryTracker::with_capacity(capacity),
            stats: SampleStats::default(),
            node_health: HealthLedger::default(),
            supervisor: SupervisorStats::default(),
            governor: GovernorState::new(period_us),
            pending_backoff_us: 0,
            last_t_s: 0.0,
            feed: crate::feed::SampleFeed::new(),
            scratch: SampleScratch::default(),
            engine: crate::shard::Engine::new(1),
        }
    }

    /// Registers a process to monitor.
    pub fn watch_process(&mut self, info: ProcessInfo) {
        let cpus_allowed = info.cpus_allowed.clone();
        self.processes.push(ProcessWatch {
            info,
            lwps: LwpRegistry::with_capacity_and_period(
                self.config.series_capacity,
                self.config.period_us as f64 / 1e6,
            ),
            cpus_allowed,
            rss_series: Ring::with_capacity(self.config.series_capacity),
            gone: false,
            health: ProcessHealth::default(),
        });
    }

    /// Marks `tid` of process `pid` as an OpenMP thread (OMPT callback
    /// path).
    pub fn register_omp_thread(&mut self, pid: Pid, tid: Tid) {
        if let Some(w) = self.processes.iter_mut().find(|w| w.info.pid == pid) {
            w.lwps.register_omp_thread(tid);
        }
    }

    /// The monitored processes.
    pub fn processes(&self) -> &[ProcessWatch] {
        &self.processes
    }

    /// Finds a watch by pid.
    pub fn process(&self, pid: Pid) -> Option<&ProcessWatch> {
        self.processes.iter().find(|w| w.info.pid == pid)
    }

    /// Union of all monitored processes' affinity masks — the CPU set the
    /// HWT report covers.
    pub fn watched_cpuset(&self) -> CpuSet {
        let mut out = CpuSet::new();
        for w in &self.processes {
            out.union_with(&w.cpus_allowed);
        }
        out
    }

    /// Performs one periodic observation at time `t_s` (seconds since
    /// monitoring began): one round of the sampling engine, every shard
    /// pumped inline on this thread through `src`.
    ///
    /// The observation body runs under a supervisor: a panic anywhere in
    /// the sampling path is caught, recorded as a gap in
    /// [`Monitor::supervisor`], and sampling resumes at the next period —
    /// the monitor never takes the application down with it (§3.1).
    pub fn sample(&mut self, t_s: f64, src: &dyn ProcSource) {
        self.supervised(t_s, |mon| crate::shard::round_inline(mon, t_s, src));
    }

    /// The sampling supervisor: runs one round's `body` and records a
    /// panic out of it as a gap at `t_s`.
    pub(crate) fn supervised(&mut self, t_s: f64, body: impl FnOnce(&mut Self)) {
        let body = std::panic::AssertUnwindSafe(|| body(self));
        if std::panic::catch_unwind(body).is_err() {
            // `self` may hold a partially-updated round; every tracker
            // tolerates that (observations are append-only), so restart
            // amounts to recording the gap and carrying on.
            self.supervisor.restarts += 1;
            self.supervisor.gap_times_s.push(t_s);
        }
    }

    /// Drains the retry-backoff µs accrued since the last drain. The
    /// runner charges this to the monitor's simulated CPU cost, so a
    /// retry storm shows up as monitor overhead exactly as it would on a
    /// live node.
    pub fn take_backoff_us(&mut self) -> u64 {
        std::mem::take(&mut self.pending_backoff_us)
    }

    /// The sampling period currently in effect, µs: the configured
    /// period, as widened by the overhead governor. The runner re-reads
    /// this every round.
    pub fn effective_period_us(&self) -> u64 {
        self.governor.period_us
    }

    /// Reports the measured CPU cost of the round observed at `t_s` to
    /// the overload controller. The runner calls this after each sample
    /// with the full round cost (cost model + retry backoff + injected
    /// procfs latency).
    ///
    /// Two independent responses:
    /// - **Watchdog**: cost above the per-round deadline counts an
    ///   overrun and sheds per-LWP detail next round (worker
    ///   `stat`/`status` reads are skipped; per-HWT totals, the main
    ///   thread, and memory are always kept).
    /// - **Governor**: cost above the period budget doubles the period
    ///   (up to the ceiling), recording a [`PeriodChange`] for the
    ///   report. Doubling the period doubles the budget, so a bounded
    ///   cost spike converges in `log2(spike)` rounds.
    pub fn note_round_cost(&mut self, t_s: f64, cost_us: u64) {
        let oh = self.config.overhead;
        let period = self.governor.period_us;
        if oh.shed {
            if cost_us > oh.deadline_us(period) {
                self.governor.overruns += 1;
                self.governor.shed_next = true;
            } else {
                self.governor.shed_next = false;
            }
        }
        if oh.governor && cost_us > oh.budget_us(period) && period < oh.max_period_us {
            let to = period.saturating_mul(2).min(oh.max_period_us);
            self.governor.changes.push(PeriodChange {
                t_s,
                from_us: period,
                to_us: to,
                cost_us,
                budget_us: oh.budget_us(period),
            });
            self.governor.period_us = to;
        }
    }

    /// The node ledger merged with every process ledger — the totals the
    /// chaos harness reconciles against an injected fault log.
    pub fn health_total(&self) -> HealthLedger {
        let mut total = self.node_health.clone();
        for w in &self.processes {
            total.merge(&w.health.ledger);
        }
        total
    }
}

/// Runs a source read with bounded retry on transient `Io` failures.
///
/// Every error received — including each failed retry attempt — is
/// tallied in `ledger.errors_by_kind`, so ledger totals reconcile 1:1
/// against a fault injector's log. Retry backoff doubles per attempt and
/// is accrued into `backoff_acc` as virtual-time monitor cost rather
/// than sleeping (sampling stays deterministic).
pub(crate) fn with_retry<T>(
    cfg: &ResilienceConfig,
    ledger: &mut HealthLedger,
    backoff_acc: &mut u64,
    mut call: impl FnMut() -> SourceResult<T>,
) -> SourceResult<T> {
    let mut attempts = 0u32;
    loop {
        match call() {
            Ok(v) => {
                if attempts > 0 {
                    ledger.retried += 1;
                }
                return Ok(v);
            }
            Err(e) => {
                ledger.note_error(e.kind());
                if e.kind() == SourceErrorKind::Io && attempts < cfg.retry_limit {
                    let backoff = cfg.backoff_us << attempts.min(16);
                    ledger.backoff_us += backoff;
                    *backoff_acc += backoff;
                    attempts += 1;
                    continue;
                }
                return Err(e);
            }
        }
    }
}

#[cfg(test)]
/// The serial sampling loop as it stood before the engine's round became
/// the only one: `sample_inner`, statement for statement, over the
/// bookkeeping it had then — a failure-state map, a last-good map and a
/// gate map per watch, each swept against the listing at the end of the
/// round, and a registry that scans for a tid's track. Tests hold
/// [`Monitor::sample`] and the sharded rounds bit-identical to it.
///
/// Between rounds the maps rest in the watch's live table (`load` /
/// `store` below convert), so an oracle-driven monitor answers
/// `footprint()`, `delta_gate_len()` and row-for-row comparison like a
/// sampled one; the product's join never runs on it.
pub(crate) mod oracle {
    use super::*;
    use crate::health::TaskFailState;
    use std::collections::HashMap;
    use zerosum_proc::{IntHash, SchedStat, SourceError, TaskStat, TaskStatus};

    /// What the monitor should do with a task slot whose reads failed this
    /// round.
    #[derive(Debug)]
    pub(crate) enum FailureAction {
        /// Fill the slot from the last good `(stat, status)` pair, flagged
        /// degraded in the ledger.
        Interpolate(Box<(TaskStat, TaskStatus)>),
        /// No fallback available (or interpolation disabled): drop the slot.
        Drop,
    }

    /// The per-process health state as it was before the live table: the
    /// ledger plus a failure-state map and a last-good-sample map, each
    /// with its own departure sweep.
    #[derive(Debug, Default)]
    pub(crate) struct MapHealth {
        /// The public tallies.
        pub(crate) ledger: HealthLedger,
        states: HashMap<Tid, TaskFailState, IntHash>,
        last_good: HashMap<Tid, (TaskStat, TaskStatus), IntHash>,
    }

    impl MapHealth {
        /// Called once per round per listed tid, *before* reading it.
        /// Returns `true` if the tid is quarantined and not yet due for a
        /// re-probe — the caller must skip it this round. Returns `false`
        /// when the tid is healthy or due for a re-probe (which is tallied).
        pub(crate) fn should_skip(&mut self, tid: Tid) -> bool {
            let st = self.states.entry(tid).or_default();
            if !st.quarantined {
                return false;
            }
            if st.rounds_until_reprobe > 0 {
                st.rounds_until_reprobe -= 1;
                return true;
            }
            self.ledger.reprobes += 1;
            false
        }

        /// Records a clean observation: clears any failure state (ending a
        /// quarantine if the re-probe succeeded) and stores the records as
        /// the new last-good sample.
        pub(crate) fn record_success(&mut self, tid: Tid, stat: &TaskStat, status: &TaskStatus) {
            self.ledger.ok += 1;
            self.states.insert(tid, TaskFailState::default());
            // `clone_from` into the existing pair reuses its string and
            // cpuset buffers — this runs once per tid per round.
            match self.last_good.entry(tid) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let (s, st) = e.get_mut();
                    s.clone_from(stat);
                    st.clone_from(status);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert((stat.clone(), status.clone()));
                }
            }
        }

        /// The last cleanly observed `(stat, status)` pair for a tid, if any.
        /// Delta sampling re-uses it for threads that provably have not run.
        pub(crate) fn last_good(&self, tid: Tid) -> Option<&(TaskStat, TaskStatus)> {
            self.last_good.get(&tid)
        }

        /// Records a failed slot (reads exhausted retries or failed
        /// unretryably). Advances the quarantine state machine and decides
        /// between interpolation and dropping.
        pub(crate) fn record_failure(&mut self, tid: Tid, cfg: &ResilienceConfig) -> FailureAction {
            let st = self.states.entry(tid).or_default();
            st.consecutive = st.consecutive.saturating_add(1);
            if st.quarantined {
                // A failed re-probe: back to sleep for a longer window —
                // exponential backoff, capped so the tid is still re-probed
                // on a bounded cadence (never starved, never overflowed).
                st.failed_reprobes = st.failed_reprobes.saturating_add(1);
                st.rounds_until_reprobe = TaskFailState::reprobe_window(st.failed_reprobes, cfg);
            } else if st.consecutive >= cfg.quarantine_after {
                st.quarantined = true;
                st.rounds_until_reprobe = cfg.reprobe_after;
                self.ledger.quarantine_events += 1;
            }
            match self.last_good.get(&tid) {
                Some(pair) if cfg.interpolate => {
                    self.ledger.degraded += 1;
                    FailureAction::Interpolate(Box::new(pair.clone()))
                }
                _ => {
                    self.ledger.dropped += 1;
                    FailureAction::Drop
                }
            }
        }

        /// Forgets a tid that exited normally (`NotFound` on a per-task
        /// read): its failure state and last-good sample are irrelevant now.
        pub(crate) fn forget(&mut self, tid: Tid) {
            self.states.remove(&tid);
            self.last_good.remove(&tid);
        }

        /// End-of-round departure sweep: drops failure state and last-good
        /// samples for every tid no longer in the task listing. A departed
        /// tid that raced past the per-read `NotFound` path (it simply
        /// stopped being listed) would otherwise pin its entry forever —
        /// under open-system churn that is an unbounded leak, since
        /// `should_skip` inserts a state entry for every tid ever listed.
        /// Quarantined-but-still-listed tids survive the sweep untouched.
        /// `live` must be sorted ascending (the task listing already is).
        pub(crate) fn sweep_departed(&mut self, live: &[Tid]) {
            // Hot path (called from the sharded fold): retain + binary
            // search, no allocation.
            self.states.retain(|tid, _| live.binary_search(tid).is_ok());
            self.last_good
                .retain(|tid, _| live.binary_search(tid).is_ok());
        }
    }

    /// What the serial loop kept per watch between rounds.
    #[derive(Default)]
    struct WatchState {
        health: MapHealth,
        last_schedstat: HashMap<Tid, SchedStat, IntHash>,
    }

    impl WatchState {
        /// The maps, as the watch's rows hold them.
        fn load(w: &mut ProcessWatch) -> Self {
            let mut st = WatchState::default();
            st.health.ledger = std::mem::take(&mut w.health.ledger);
            for row in &w.health.rows {
                let (fail, gate, good) = row.parts();
                if let Some(fail) = fail {
                    st.health.states.insert(row.tid, fail);
                }
                if let Some(gate) = gate {
                    st.last_schedstat.insert(row.tid, gate);
                }
                if let Some(good) = good {
                    st.health.last_good.insert(row.tid, good.clone());
                }
            }
            st
        }

        /// The end-of-round lifecycle sweep of the serial loop.
        fn finish_round(&mut self, lwps: &mut LwpRegistry, live: &[Tid], max_exited: usize) {
            lwps.mark_exited(live);
            self.health.sweep_departed(live);
            self.last_schedstat
                .retain(|tid, _| live.binary_search(tid).is_ok());
            lwps.compact_exited(live, max_exited);
        }

        /// Back into rows: one per tid of the listing the round folded
        /// (the sweep left no entry for any other); a watch whose
        /// listing failed folded nothing and keeps the rows it had.
        fn store(mut self, w: &mut ProcessWatch, folded: Option<&[Tid]>) {
            w.health.ledger = self.health.ledger;
            let Some(listing) = folded else { return };
            w.health.rows = listing
                .iter()
                .map(|&tid| {
                    TaskRow::from_parts(
                        tid,
                        w.lwps.tracks().position(|t| t.tid == tid && !t.retired),
                        self.health.states.get(&tid).copied(),
                        self.last_schedstat.get(&tid).copied(),
                        self.health.last_good.remove(&tid),
                    )
                })
                .collect();
        }
    }

    /// The per-task records the serial loop kept in `SampleScratch`.
    #[derive(Default)]
    struct Scratch {
        tids: Vec<Tid>,
        stat: TaskStat,
        status: TaskStatus,
    }

    /// One serial round under the supervisor `Monitor::sample` had.
    pub(crate) fn sample(mon: &mut Monitor, t_s: f64, src: &dyn ProcSource) {
        let body = std::panic::AssertUnwindSafe(|| sample_inner(mon, t_s, src));
        if std::panic::catch_unwind(body).is_err() {
            mon.supervisor.restarts += 1;
            mon.supervisor.gap_times_s.push(t_s);
        }
    }

    fn sample_inner(mon: &mut Monitor, t_s: f64, src: &dyn ProcSource) {
        let mut scratch = Scratch::default();
        mon.stats.rounds += 1;
        mon.last_t_s = t_s;
        let res = mon.config.resilience;
        let delta_on = mon.config.delta_sampling;
        let max_exited = mon.config.max_exited_tracks;
        // Deadline watchdog: after an overrun, this round sheds per-LWP
        // detail (worker stat/status reads) to get back under budget.
        let shed = std::mem::take(&mut mon.governor.shed_next);
        if shed {
            mon.governor.shed_rounds += 1;
        }
        match with_retry(
            &res,
            &mut mon.node_health,
            &mut mon.pending_backoff_us,
            || src.system_stat_into(&mut mon.scratch.sys),
        ) {
            Ok(()) => mon.hwt.observe(t_s, &mon.scratch.sys),
            Err(_) => mon.stats.errors += 1,
        }
        mon.scratch.watched_rss.clear();
        for w in &mut mon.processes {
            if w.gone {
                continue;
            }
            let pid = w.info.pid;
            let mut state = WatchState::load(w);
            let folded = 'watch: {
                match with_retry(
                    &res,
                    &mut mon.node_health,
                    &mut mon.pending_backoff_us,
                    || src.list_tasks_into(pid, &mut scratch.tids),
                ) {
                    Ok(()) => {}
                    Err(SourceError::NotFound) => {
                        w.gone = true;
                        mon.stats.vanished += 1;
                        break 'watch false;
                    }
                    Err(_) => {
                        mon.stats.errors += 1;
                        break 'watch false;
                    }
                }
                for &tid in &scratch.tids {
                    if shed && tid != pid {
                        // Shed round: drop per-LWP detail, keep per-HWT
                        // totals (system stat), the main thread (RSS), and
                        // memory.
                        continue;
                    }
                    if state.health.should_skip(tid) {
                        // Quarantined after persistent failures; re-probed
                        // once per `reprobe_after` rounds.
                        continue;
                    }
                    // schedstat first: it is both the wait-time source and
                    // the delta gate. Optional (CONFIG_SCHED_INFO); absence
                    // is not an error and is never retried.
                    let schedstat = src.task_schedstat(pid, tid).ok();
                    if delta_on && tid != pid {
                        // Unchanged schedstat ⇒ the thread was never
                        // dispatched since the last fresh read ⇒ its `stat`
                        // and `status` are bytewise unchanged; reuse the
                        // last good pair. The main thread is exempt: it
                        // carries the process-wide RSS, which moves without
                        // the thread running.
                        if let (Some(ss), Some(prev)) = (schedstat, state.last_schedstat.get(&tid))
                        {
                            if ss == *prev {
                                if let Some((stat, status)) = state.health.last_good(tid) {
                                    mon.stats.delta_hits += 1;
                                    w.lwps
                                        .observe_with_schedstat(pid, t_s, stat, status, Some(ss));
                                    continue;
                                }
                            }
                        }
                    }
                    let read = match with_retry(
                        &res,
                        &mut state.health.ledger,
                        &mut mon.pending_backoff_us,
                        || src.task_stat_into(pid, tid, &mut scratch.stat),
                    ) {
                        Ok(()) => with_retry(
                            &res,
                            &mut state.health.ledger,
                            &mut mon.pending_backoff_us,
                            || src.task_status_into(pid, tid, &mut scratch.status),
                        ),
                        Err(e) => Err(e),
                    };
                    let fresh = match read {
                        Ok(()) => {
                            state
                                .health
                                .record_success(tid, &scratch.stat, &scratch.status);
                            if let Some(ss) = schedstat {
                                state.last_schedstat.insert(tid, ss);
                            }
                            true
                        }
                        Err(SourceError::NotFound) => {
                            // Thread exited between the directory listing and
                            // the read: the normal race of §3.1.1.
                            mon.stats.vanished += 1;
                            state.health.forget(tid);
                            state.last_schedstat.remove(&tid);
                            continue;
                        }
                        Err(_) => {
                            mon.stats.errors += 1;
                            match state.health.record_failure(tid, &res) {
                                FailureAction::Interpolate(pair) => {
                                    // Degraded: repeat the last good sample so
                                    // the time series stays continuous; the
                                    // ledger flags the substitution.
                                    scratch.stat.clone_from(&pair.0);
                                    scratch.status.clone_from(&pair.1);
                                    false
                                }
                                FailureAction::Drop => continue,
                            }
                        }
                    };
                    if tid == pid {
                        if w.cpus_allowed.is_empty() {
                            w.cpus_allowed.copy_from(&scratch.status.cpus_allowed);
                        }
                        w.rss_series.push((t_s, scratch.status.vm_rss_kib));
                        mon.scratch
                            .watched_rss
                            .push((pid, scratch.status.vm_rss_kib));
                    }
                    // Interpolated rounds report no schedstat — a fresh
                    // schedstat against a stale stat would skew wait deltas.
                    let ss = if fresh { schedstat } else { None };
                    w.lwps
                        .observe_with_schedstat(pid, t_s, &scratch.stat, &scratch.status, ss);
                }
                state.finish_round(&mut w.lwps, &scratch.tids, max_exited);
                true
            };
            state.store(w, folded.then_some(&scratch.tids));
        }
        match with_retry(
            &res,
            &mut mon.node_health,
            &mut mon.pending_backoff_us,
            || src.meminfo(),
        ) {
            Ok(mi) => mon.mem.observe(t_s, &mi, &mon.scratch.watched_rss),
            Err(_) => mon.stats.errors += 1,
        }
        if mon.feed.subscriber_count() > 0 {
            let snap = crate::feed::snapshot_of(mon);
            mon.feed.publish(snap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerosum_sched::{Behavior, NodeSim, SchedParams, SimProcSource};
    use zerosum_topology::presets;

    fn sim_and_monitor() -> (NodeSim, Monitor, Pid) {
        let mut sim = NodeSim::new(presets::laptop_i7_1165g7(), SchedParams::default());
        let pid = sim.spawn_process(
            "app",
            CpuSet::from_indices([0u32, 1]),
            8_192,
            Behavior::FiniteCompute {
                remaining_us: 7_000_000,
                chunk_us: 10_000,
            },
        );
        sim.spawn_task(
            pid,
            "OpenMP",
            None,
            Behavior::FiniteCompute {
                remaining_us: 7_000_000,
                chunk_us: 10_000,
            },
            false,
        );
        let mut mon = Monitor::new(ZeroSumConfig::default());
        mon.watch_process(ProcessInfo {
            pid,
            rank: Some(0),
            hostname: "simnode0001".into(),
            gpus: vec![],
            cpus_allowed: Default::default(),
        });
        (sim, mon, pid)
    }

    #[test]
    fn periodic_sampling_builds_history() {
        let (mut sim, mut mon, pid) = sim_and_monitor();
        for i in 1..=5u64 {
            sim.run_for(1_000_000);
            mon.sample(i as f64, &SimProcSource::new(&sim));
        }
        assert_eq!(mon.stats.rounds, 5);
        assert_eq!(mon.stats.errors, 0);
        let w = mon.process(pid).unwrap();
        assert_eq!(w.cpus_allowed.to_list_string(), "0-1");
        assert_eq!(w.lwps.len(), 2);
        let main = w.lwps.track(pid).unwrap();
        assert_eq!(main.samples.len(), 5);
        // Both CPU-bound threads on two CPUs: ~100 jiffies/period each.
        assert!(main.avg_utime_per_period() > 50.0);
        assert!(w.rss_kib() > 0);
        assert_eq!(mon.watched_cpuset().to_list_string(), "0-1");
    }

    #[test]
    fn omp_registration_reclassifies() {
        let (mut sim, mut mon, pid) = sim_and_monitor();
        sim.run_for(1_000_000);
        mon.sample(1.0, &SimProcSource::new(&sim));
        let w = mon.process(pid).unwrap();
        let worker_tid = w
            .lwps
            .tracks()
            .find(|t| t.tid != pid)
            .map(|t| t.tid)
            .unwrap();
        // Named "OpenMP" ⇒ classified by name already.
        assert_eq!(
            w.lwps.track(worker_tid).unwrap().kind,
            crate::lwp::LwpKind::OpenMp
        );
        // Registering the main thread as OpenMP makes it Main, OpenMP.
        mon.register_omp_thread(pid, pid);
        sim.run_for(1_000_000);
        mon.sample(2.0, &SimProcSource::new(&sim));
        let w = mon.process(pid).unwrap();
        assert!(w.lwps.track(pid).unwrap().is_openmp);
    }

    #[test]
    fn exited_threads_marked_not_errors() {
        let (mut sim, mut mon, pid) = sim_and_monitor();
        sim.run_for(1_000_000);
        mon.sample(1.0, &SimProcSource::new(&sim));
        // Let the app finish; its threads leave /proc/<pid>/task.
        sim.run_until_apps_done(100_000, 60_000_000).unwrap();
        mon.sample(10.0, &SimProcSource::new(&sim));
        let w = mon.process(pid).unwrap();
        assert!(w.lwps.tracks().all(|t| t.exited));
        assert_eq!(mon.stats.errors, 0);
    }

    #[test]
    fn unknown_process_is_tolerated() {
        let (mut sim, mut mon, _) = sim_and_monitor();
        mon.watch_process(ProcessInfo {
            pid: 99_999,
            rank: None,
            hostname: "simnode0001".into(),
            gpus: vec![],
            cpus_allowed: Default::default(),
        });
        sim.run_for(1_000_000);
        mon.sample(1.0, &SimProcSource::new(&sim));
        assert!(mon.process(99_999).unwrap().gone);
        assert!(mon.stats.vanished >= 1);
    }

    #[test]
    fn transient_io_recovers_by_retry() {
        use zerosum_proc::fault::{FaultInjector, FaultKind, FaultPlan, ScriptedFault};
        let (mut sim, mut mon, pid) = sim_and_monitor();
        // Call order per round: system_stat, list_tasks, then per tid
        // schedstat/stat/status. Call 4 is the first task_stat.
        let inj = FaultInjector::new(FaultPlan {
            seed: 5,
            scripted: vec![ScriptedFault {
                call: 4,
                kind: FaultKind::IoTransient,
            }],
            ..Default::default()
        });
        sim.run_for(1_000_000);
        let src = SimProcSource::new(&sim);
        mon.sample(1.0, &inj.wrap(&src));
        let ledger = mon.process(pid).unwrap().health.ledger.clone();
        assert_eq!(ledger.retried, 1);
        assert_eq!(ledger.degraded, 0);
        assert!(ledger.backoff_us > 0);
        assert_eq!(mon.take_backoff_us(), ledger.backoff_us);
        assert_eq!(mon.take_backoff_us(), 0, "drain empties the accrual");
        // The slot completed: both threads observed this round.
        assert_eq!(ledger.ok, 2);
        assert_eq!(mon.stats.errors, 0, "recovered reads are not errors");
    }

    #[test]
    fn persistent_failure_interpolates_then_quarantines() {
        use zerosum_proc::fault::{FaultInjector, FaultPlan, FaultRates, Op};
        let (mut sim, mut mon, pid) = sim_and_monitor();
        mon.config.resilience.retry_limit = 0;
        mon.config.resilience.quarantine_after = 2;
        mon.config.resilience.reprobe_after = 3;
        // The main thread's stat reads fail permanently from round 2 on.
        let inj = FaultInjector::new(FaultPlan {
            seed: 9,
            ..Default::default()
        });
        sim.run_for(1_000_000);
        let src = SimProcSource::new(&sim);
        mon.sample(1.0, &inj.wrap(&src));
        let rss_after_good = mon.process(pid).unwrap().rss_kib();
        assert!(rss_after_good > 0);
        let inj_bad = FaultInjector::new(FaultPlan {
            seed: 9,
            per_op: vec![(
                Op::TaskStat,
                FaultRates {
                    io_transient: 1.0,
                    ..Default::default()
                },
            )],
            ..Default::default()
        });
        for round in 2..=6u64 {
            sim.run_for(1_000_000);
            let src = SimProcSource::new(&sim);
            mon.sample(round as f64, &inj_bad.wrap(&src));
        }
        let w = mon.process(pid).unwrap();
        // Rounds 2 and 3 fail and interpolate; the quarantine then
        // silences rounds 4-6 for both tids.
        assert_eq!(w.health.ledger.degraded, 4, "2 rounds x 2 tids");
        assert_eq!(w.health.ledger.quarantine_events, 2);
        assert_eq!(w.health.quarantined_now(), 2);
        // Interpolation kept the main thread's series continuous.
        let main = w.lwps.track(pid).unwrap();
        assert_eq!(main.samples.len(), 3);
        assert_eq!(w.rss_series.len(), 3);
        assert_eq!(w.rss_kib(), rss_after_good, "stale RSS repeated");
        // Ledger error totals reconcile exactly against the fault log.
        let totals = mon.health_total();
        let injected = inj_bad.error_counts_excluding(&[Op::SchedStat]);
        assert_eq!(totals.errors_by_kind, injected);
    }

    #[test]
    fn quarantined_tid_reprobes_and_recovers() {
        use zerosum_proc::fault::{FaultInjector, FaultPlan, FaultRates, Op};
        let (mut sim, mut mon, pid) = sim_and_monitor();
        mon.config.resilience.retry_limit = 0;
        mon.config.resilience.quarantine_after = 1;
        mon.config.resilience.reprobe_after = 1;
        let inj_bad = FaultInjector::new(FaultPlan {
            seed: 3,
            per_op: vec![(
                Op::TaskStat,
                FaultRates {
                    io_transient: 1.0,
                    ..Default::default()
                },
            )],
            ..Default::default()
        });
        sim.run_for(1_000_000);
        let src = SimProcSource::new(&sim);
        mon.sample(1.0, &inj_bad.wrap(&src));
        assert_eq!(mon.process(pid).unwrap().health.quarantined_now(), 2);
        // Round 2: skipped (no reads). Round 3: re-probe against a healthy
        // source succeeds and lifts the quarantine.
        for round in 2..=3u64 {
            sim.run_for(1_000_000);
            let src = SimProcSource::new(&sim);
            mon.sample(round as f64, &src);
        }
        let w = mon.process(pid).unwrap();
        assert_eq!(w.health.quarantined_now(), 0);
        assert_eq!(w.health.ledger.reprobes, 2);
        assert_eq!(w.health.ledger.ok, 2, "re-probed round observed both tids");
    }

    #[test]
    fn supervisor_catches_injected_panic_and_sampling_resumes() {
        use zerosum_proc::fault::{FaultInjector, FaultKind, FaultPlan, ScriptedFault};
        let (mut sim, mut mon, pid) = sim_and_monitor();
        let inj = FaultInjector::new(FaultPlan {
            seed: 1,
            scripted: vec![ScriptedFault {
                call: 1,
                kind: FaultKind::Panic,
            }],
            ..Default::default()
        });
        // Keep the default hook from spamming test output.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        sim.run_for(1_000_000);
        let src = SimProcSource::new(&sim);
        mon.sample(1.0, &inj.wrap(&src));
        std::panic::set_hook(prev);
        assert_eq!(mon.supervisor.restarts, 1);
        assert_eq!(mon.supervisor.gap_times_s.as_slice(), [1.0]);
        // The next (clean) round proceeds normally.
        sim.run_for(1_000_000);
        let src = SimProcSource::new(&sim);
        mon.sample(2.0, &src);
        assert_eq!(mon.stats.rounds, 2);
        let w = mon.process(pid).unwrap();
        assert_eq!(w.lwps.track(pid).unwrap().samples.len(), 1);
    }

    #[test]
    fn governor_converges_after_cost_spike_and_records_changes() {
        let mut mon = Monitor::new(ZeroSumConfig::default());
        assert_eq!(mon.effective_period_us(), 1_000_000);
        // Steady state: the paper's ~5 ms round cost is under the 10 ms
        // budget; nothing changes.
        for round in 1..=3u64 {
            mon.note_round_cost(round as f64, 5_000);
        }
        assert!(mon.governor.changes.is_empty());
        assert_eq!(mon.effective_period_us(), 1_000_000);
        // A 4x cost spike (20 ms) exceeds the 10 ms budget: the governor
        // must converge to a wider period within 5 rounds.
        for round in 4..=8u64 {
            mon.note_round_cost(round as f64, 20_000);
        }
        assert_eq!(
            mon.effective_period_us(),
            2_000_000,
            "one doubling suffices"
        );
        assert_eq!(mon.governor.changes.len(), 1, "each change recorded once");
        let ch = mon.governor.changes[0];
        assert_eq!((ch.from_us, ch.to_us), (1_000_000, 2_000_000));
        assert_eq!(ch.cost_us, 20_000);
        assert_eq!(ch.budget_us, 10_000);
        assert!(
            (ch.t_s - 4.0).abs() < 1e-9,
            "changed on the first bad round"
        );
        // 20 ms is well under the widened 1 s deadline: no shedding.
        assert_eq!(mon.governor.overruns, 0);
    }

    #[test]
    fn governor_respects_ceiling_and_disable() {
        let mut mon = Monitor::new(ZeroSumConfig::default());
        // An absurd sustained cost walks the period up to the ceiling and
        // stops; the change log stays bounded (log2 of the excursion).
        for round in 1..=20u64 {
            mon.note_round_cost(round as f64, u64::MAX / 4);
        }
        assert_eq!(mon.effective_period_us(), 16_000_000);
        assert_eq!(mon.governor.changes.len(), 4, "1s -> 2 -> 4 -> 8 -> 16");
        // Disabled governor never moves the period.
        let cfg = ZeroSumConfig::default().with_overhead(crate::config::OverheadConfig {
            governor: false,
            ..Default::default()
        });
        let mut mon = Monitor::new(cfg);
        mon.note_round_cost(1.0, u64::MAX / 4);
        assert_eq!(mon.effective_period_us(), 1_000_000);
        assert!(mon.governor.changes.is_empty());
    }

    #[test]
    fn deadline_overrun_sheds_lwp_detail_but_keeps_totals() {
        let (mut sim, mut mon, pid) = sim_and_monitor();
        sim.run_for(1_000_000);
        mon.sample(1.0, &SimProcSource::new(&sim));
        // Round 1 blows the 500 ms deadline: the watchdog arms shedding.
        mon.note_round_cost(1.0, 600_000);
        assert_eq!(mon.governor.overruns, 1);
        sim.run_for(1_000_000);
        mon.sample(2.0, &SimProcSource::new(&sim));
        mon.note_round_cost(2.0, 5_000);
        let w = mon.process(pid).unwrap();
        let worker = w.lwps.tracks().find(|t| t.tid != pid).unwrap();
        assert_eq!(worker.samples.len(), 1, "worker detail shed in round 2");
        assert_eq!(w.lwps.track(pid).unwrap().samples.len(), 2, "main kept");
        assert_eq!(w.rss_series.len(), 2, "RSS kept");
        assert_eq!(mon.hwt.sample_count(), 1, "per-HWT totals kept");
        assert_eq!(mon.mem.samples().len(), 2, "memory kept");
        assert_eq!(mon.governor.shed_rounds, 1);
        // The cheap round disarmed the watchdog: round 3 is full detail.
        sim.run_for(1_000_000);
        mon.sample(3.0, &SimProcSource::new(&sim));
        let w = mon.process(pid).unwrap();
        assert_eq!(
            w.lwps
                .tracks()
                .find(|t| t.tid != pid)
                .unwrap()
                .samples
                .len(),
            2
        );
    }

    #[test]
    fn recycled_pid_reopens_series_at_monitor_level() {
        let mut sim = NodeSim::new(presets::laptop_i7_1165g7(), SchedParams::default());
        let pid = sim.spawn_process(
            "app",
            CpuSet::from_indices([0u32, 1]),
            4_096,
            Behavior::FiniteCompute {
                remaining_us: 1_500_000,
                chunk_us: 10_000,
            },
        );
        let mut mon = Monitor::new(ZeroSumConfig::default());
        mon.watch_process(ProcessInfo {
            pid,
            rank: Some(0),
            hostname: "simnode0001".into(),
            gpus: vec![],
            cpus_allowed: Default::default(),
        });
        sim.run_for(1_000_000);
        mon.sample(1.0, &SimProcSource::new(&sim));
        // Let the first incarnation exit, then recycle its pid for an
        // unrelated process (the OS reuse race of §3.1.1).
        sim.run_until_apps_done(10_000, 30_000_000).unwrap();
        sim.respawn_process_with_pid(
            pid,
            "imposter",
            CpuSet::from_indices([2u32, 3]),
            2_048,
            Behavior::FiniteCompute {
                remaining_us: 5_000_000,
                chunk_us: 10_000,
            },
        );
        sim.run_for(1_000_000);
        mon.sample(2.0, &SimProcSource::new(&sim));
        let w = mon.process(pid).unwrap();
        // The starttime mismatch retired the old series and opened a new
        // one instead of splicing two processes into one history.
        let tracks: Vec<_> = w.lwps.tracks().filter(|t| t.tid == pid).collect();
        assert_eq!(tracks.len(), 2, "old series closed, new series opened");
        let retired = tracks.iter().find(|t| t.retired).unwrap();
        let live = tracks.iter().find(|t| !t.retired).unwrap();
        assert!(retired.exited);
        assert_eq!(retired.samples.len(), 1);
        assert_eq!(live.samples.len(), 1);
        assert_eq!(live.name, "imposter");
        assert!(live.starttime > retired.starttime);
        assert_eq!(w.lwps.track(pid).unwrap().name, "imposter", "live wins");
    }

    #[test]
    fn memory_tracking_follows_rss() {
        let (mut sim, mut mon, pid) = sim_and_monitor();
        for i in 1..=3u64 {
            sim.run_for(1_000_000);
            mon.sample(i as f64, &SimProcSource::new(&sim));
        }
        let samples = mon.mem.samples();
        assert_eq!(samples.len(), 3);
        assert!(samples[2].watched_rss_kib >= 8_192 - 64);
        assert!(mon.mem.peak_rss_kib(pid).unwrap() >= 8_000);
    }
}
