//! The sampling engine: one round, run as one shard or as N.
//!
//! Every observation the monitor makes — [`Monitor::sample`] on the
//! thread that owns the monitor, or [`ShardedMonitor`] over per-HWT-group
//! shards — is one pass through the round functions in this module:
//!
//! 1. **Begin**: counters, the shed decision, node `/proc/stat`.
//! 2. **List trip**: each shard reads `/proc/<pid>/task` for its watches.
//! 3. The driver joins each list with the watch's live table (arrivals
//!    get a row, departures lose theirs) and *plans* the per-tid reads
//!    from the rows — quarantine skips, shed rounds, the delta gate.
//! 4. **Read trip**: each shard executes its plan — `schedstat`, the
//!    delta compare, then raw-text `stat`/`status` into its
//!    [`ReadArena`], parsed in place and recycled task by task —
//!    recording outcomes into per-task slots with a zeroed local health
//!    ledger.
//! 5. The driver folds the slots in canonical watch order, table cursor
//!    beside them: series, health accounting, the failure policy, RSS.
//! 6. **End**: `/proc/meminfo` and the snapshot feed.
//!
//! [`Monitor::sample`] runs the round with one shard, pumped inline
//! through the source it was lent. What N shards add is confined to
//! [`ShardedMonitor`]:
//!
//! * Watched processes are partitioned into per-HWT-group slices —
//!   contiguous runs of the watch list ordered by first allowed CPU —
//!   so each shard samples processes whose threads share hardware
//!   threads (cache- and NUMA-friendly on a live node).
//! * Each shard is a single-writer sampling pump with a private arena;
//!   in [`ShardMode::Threads`] it runs on its own thread and exchanges
//!   batches with the driver over a bounded SPSC swap ring
//!   ([`zerosum_stats::ShardRing`]). Buffers recycle through the ring;
//!   the steady state allocates nothing.
//! * Parse (shard side) and fold (driver side) never touch the same
//!   lock: the only shared state is the ring slots themselves and, for
//!   the simulated substrate, a reader-writer lock the shards only
//!   ever read while the driver only writes strictly between rounds.
//!
//! Every per-round counter is a sum and every fold is applied in watch
//! order, so a round over N shards is *bit-identical* to a round over
//! one (this module's tests assert it at 1–4 shards in both modes, with
//! mid-round departures, against `Monitor::sample`, which they hold to
//! the serial oracle). A panic inside a shard batch is caught at the
//! batch boundary: the affected shard's watches lose one round
//! (recorded as a supervisor gap), other shards' results fold normally,
//! as they do when one shard's reads fail at a rate.

use crate::health::HealthLedger;
use crate::monitor::{with_retry, Monitor, ProcessWatch};
use crate::sync::TrackedRw;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError};
use zerosum_proc::{
    parse, Pid, ProcSource, ReadArena, SchedStat, SourceError, SourceResult, TaskStat, TaskStatus,
    Tid,
};
use zerosum_sched::{NodeSim, SimProcSource, SimScratch};
use zerosum_stats::{MutexSlot, ShardReader, ShardRing, ShardWriter};

/// How shard pumps execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMode {
    /// Run every shard's pump on the driver thread. Same batch code,
    /// same rings-free data flow, no thread overhead — the right choice
    /// on oversubscribed or single-CPU hosts.
    Inline,
    /// One OS thread per shard, jobs and results exchanged over SPSC
    /// swap rings with park/unpark signalling.
    Threads,
}

/// A sampling substrate a shard can borrow a [`ProcSource`] view of.
///
/// Shards own their source *handle* but may share a substrate (the node
/// simulation, a fault injector's state). `with_source` scopes each
/// batch's reads to one borrow so sharing stays explicit: the simulated
/// implementation holds a read lock exactly for the duration of one
/// batch, and the engine never touches a ring inside that scope.
pub trait ShardSource: Send {
    /// Runs `f` against a `ProcSource` view of the substrate.
    fn with_source<R>(&mut self, f: impl FnOnce(&dyn ProcSource) -> R) -> R;
}

/// Shard handle onto a shared [`NodeSim`]: every batch samples under a
/// read guard; the driver advances the simulation under a write guard
/// strictly between rounds (inside the `advance_time` callback of
/// [`ShardedMonitor::run_rounds`]).
#[derive(Clone)]
pub struct SimShardSource {
    sim: Arc<TrackedRw<NodeSim>>,
    /// The render scratch of the batch views, kept across batches.
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
    /// A shard handle on `sim`.
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

/// What a round borrows its [`ProcSource`] from: a shard handle scopes
/// the borrow per batch ([`ShardSource::with_source`]);
/// [`Monitor::sample`] passes on the source it was itself lent.
trait Lend {
    fn lend<R>(&mut self, f: impl FnOnce(&dyn ProcSource) -> R) -> R;
}

impl<S: ShardSource> Lend for S {
    fn lend<R>(&mut self, f: impl FnOnce(&dyn ProcSource) -> R) -> R {
        self.with_source(f)
    }
}

impl Lend for &dyn ProcSource {
    fn lend<R>(&mut self, f: impl FnOnce(&dyn ProcSource) -> R) -> R {
        f(*self)
    }
}

/// Which trip of the round a batch carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Phase {
    /// Nothing to do (fresh or between rounds).
    #[default]
    Idle,
    /// Trip 1: task-list reads.
    List,
    /// Trip 2: planned per-tid reads.
    Read,
}

/// One watch's task-list job/result.
#[derive(Debug)]
struct ListSlot {
    /// Index of the watch in `Monitor::processes`.
    watch: usize,
    pid: Pid,
    /// The listed tids (valid when `outcome` is `Ok`).
    tids: Vec<Tid>,
    outcome: SourceResult<()>,
}

impl Default for ListSlot {
    fn default() -> Self {
        ListSlot {
            watch: usize::MAX,
            pid: 0,
            tids: Vec::new(),
            outcome: Ok(()),
        }
    }
}

/// Outcome class of one per-tid read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum ReadKind {
    /// `stat`+`status` read and parsed; buffers hold fresh records.
    #[default]
    Fresh,
    /// Unchanged `schedstat`: reuse the last good sample driver-side.
    DeltaHit,
    /// `NotFound` — the §3.1.1 exit race.
    Vanished,
    /// Any other failure; the driver runs the failure policy.
    Failed,
}

/// One planned per-tid read and its result: the driver decided this
/// tid must be sampled; `delta_prev` carries the delta-sampling
/// reference when the gate is armed (delta sampling on, worker thread,
/// a last-good sample exists).
#[derive(Debug, Default)]
struct TaskReadSlot {
    tid: Tid,
    delta_prev: Option<SchedStat>,
    kind: ReadKind,
    ss: Option<SchedStat>,
    stat: TaskStat,
    status: TaskStatus,
}

/// One watch's planned reads and their results.
#[derive(Debug, Default)]
struct WatchReadSlot {
    /// Index of the watch in `Monitor::processes`.
    watch: usize,
    pid: Pid,
    /// Shard-local health ledger for this watch's reads: starts zeroed
    /// every round and is *added* into the watch's real ledger at fold
    /// (every field is a sum, so the merge is exact).
    ledger: HealthLedger,
    /// The first `slots_used` are this round's plan; the rest keep
    /// their buffers for a busier one.
    slots: Vec<TaskReadSlot>,
    slots_used: usize,
}

/// Everything one shard needs for one trip: jobs out, results back, in
/// the same allocation. Batches recycle through the rings (threads
/// mode) or sit in place (inline mode); after warm-up no trip
/// allocates.
#[derive(Debug, Default)]
struct ShardBatch {
    phase: Phase,
    /// Shard-local ledger for node-scope reads (task lists), merged
    /// into `Monitor::node_health` at fold.
    node_ledger: HealthLedger,
    /// Retry backoff accrued by this shard's reads this trip, µs.
    backoff_us: u64,
    /// Set when the batch body panicked; the driver records a
    /// supervisor gap for this shard and skips its stale results.
    panicked: bool,
    lists: Vec<ListSlot>,
    lists_used: usize,
    reads: Vec<WatchReadSlot>,
    reads_used: usize,
    /// The fold's place in `lists`, then in `reads`: watches fold in
    /// canonical order, and so were their slots handed out.
    cursor: usize,
}

/// Ring type used between the driver and one shard thread: two slots,
/// at most one batch in flight each way.
type BatchRing = ShardRing<ShardBatch, MutexSlot<ShardBatch>>;

fn batch_ring() -> BatchRing {
    ShardRing::with_capacity(2, ShardBatch::default)
}

/// The engine's per-round state, reused across rounds and owned by the
/// [`Monitor`] it samples for: one batch and one arena per shard, the
/// watch → shard assignment.
#[derive(Debug)]
pub(crate) struct Engine {
    batches: Vec<ShardBatch>,
    arenas: Vec<ReadArena>,
    /// Watch index -> shard, rebuilt every round (see `build_assignment`).
    assign: Vec<usize>,
    order: Vec<usize>,
}

impl Engine {
    /// Engine state for `nshards` shards (clamped to ≥1).
    pub(crate) fn new(nshards: usize) -> Self {
        let nshards = nshards.max(1);
        Engine {
            batches: (0..nshards).map(|_| ShardBatch::default()).collect(),
            arenas: (0..nshards).map(|_| ReadArena::new()).collect(),
            assign: Vec::new(),
            order: Vec::new(),
        }
    }
}

/// A [`Monitor`] whose rounds are executed by per-HWT-group shards.
///
/// The monitor inside is untouched state-wise — reports, exports, the
/// governor, and the feed all read it exactly as they would one sampled
/// through [`Monitor::sample`], and a round over N shards folds to
/// bit-identical state.
#[derive(Debug)]
pub struct ShardedMonitor {
    monitor: Monitor,
    mode: ShardMode,
}

impl ShardedMonitor {
    /// Wraps `monitor` for sharded sampling with `nshards` shards
    /// (clamped to ≥1).
    pub fn new(mut monitor: Monitor, nshards: usize, mode: ShardMode) -> Self {
        monitor.engine = Engine::new(nshards);
        ShardedMonitor { monitor, mode }
    }

    /// The wrapped monitor.
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// Unwraps the monitor (for reports after sampling ends).
    pub fn into_monitor(self) -> Monitor {
        self.monitor
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.monitor.engine.batches.len()
    }

    /// Runs `rounds` sampling rounds.
    ///
    /// `make_source(i)` builds shard `i`'s source handle for
    /// `i < shard_count()`, and the driver's own handle (node-scope
    /// `stat`/`meminfo` reads) for `i == shard_count()`.
    /// `advance_time(r)` is called before round `r` and returns its
    /// observation time — it is
    /// the only place the substrate may be advanced (e.g. under the sim
    /// lock's write guard), because no shard holds a read borrow
    /// between rounds.
    pub fn run_rounds<S: ShardSource>(
        &mut self,
        mut make_source: impl FnMut(usize) -> S,
        rounds: u64,
        mut advance_time: impl FnMut(u64) -> f64,
    ) {
        match self.mode {
            ShardMode::Threads => self.run_threads(&mut make_source, rounds, &mut advance_time),
            ShardMode::Inline => self.run_inline(&mut make_source, rounds, &mut advance_time),
        }
    }

    fn run_inline<S: ShardSource>(
        &mut self,
        make_source: &mut impl FnMut(usize) -> S,
        rounds: u64,
        advance_time: &mut impl FnMut(u64) -> f64,
    ) {
        let nshards = self.shard_count();
        let mut sources: Vec<S> = (0..nshards).map(&mut *make_source).collect();
        let mut driver_src = make_source(nshards);
        for r in 0..rounds {
            let t_s = advance_time(r);
            self.monitor.supervised(t_s, |mon| {
                round(mon, t_s, &mut driver_src, |batches, arenas| {
                    for ((batch, arena), source) in batches
                        .iter_mut()
                        .zip(arenas.iter_mut())
                        .zip(sources.iter_mut())
                    {
                        process_batch(batch, source, arena);
                    }
                })
            });
        }
    }

    fn run_threads<S: ShardSource>(
        &mut self,
        make_source: &mut impl FnMut(usize) -> S,
        rounds: u64,
        advance_time: &mut impl FnMut(u64) -> f64,
    ) {
        let nshards = self.shard_count();
        let stop = AtomicBool::new(false);
        let mut rings: Vec<(BatchRing, BatchRing)> =
            (0..nshards).map(|_| (batch_ring(), batch_ring())).collect();
        let mut jobs_w = Vec::with_capacity(nshards);
        let mut outs_r = Vec::with_capacity(nshards);
        let mut ends = Vec::with_capacity(nshards);
        for (job, out) in rings.iter_mut() {
            let (jw, jr) = job.split();
            let (ow, or) = out.split();
            jobs_w.push(jw);
            outs_r.push(or);
            ends.push((jr, ow));
        }
        let sources: Vec<S> = (0..nshards).map(&mut *make_source).collect();
        let mut driver_src = make_source(nshards);
        let mut done_flags = vec![false; nshards];
        std::thread::scope(|scope| {
            let stop_ref = &stop;
            let driver_thread = std::thread::current();
            let mut workers = Vec::with_capacity(nshards);
            for ((jr, ow), source) in ends.into_iter().zip(sources) {
                let driver_thread = driver_thread.clone();
                workers
                    .push(scope.spawn(move || shard_loop(jr, ow, source, stop_ref, driver_thread)));
            }
            for r in 0..rounds {
                let t_s = advance_time(r);
                let trip = |batches: &mut [ShardBatch], _arenas: &mut [ReadArena]| {
                    // Dispatch: swap each shard's batch into its job
                    // ring (the swap leaves a recycled batch behind as
                    // the staging buffer for the result) and wake the
                    // pump.
                    let mut remaining = 0usize;
                    for (((batch, jw), worker), flag) in batches
                        .iter_mut()
                        .zip(jobs_w.iter_mut())
                        .zip(workers.iter())
                        .zip(done_flags.iter_mut())
                    {
                        // Capacity 2 with at most one job in flight:
                        // the push cannot fail; treat failure as
                        // "nothing to wait for" so the driver can
                        // never deadlock on its own invariant.
                        *flag = !jw.try_push_swap(batch);
                        if !*flag {
                            worker.thread().unpark();
                            remaining += 1;
                        }
                    }
                    // Collect: pop each result back into the staging
                    // slot. Parking is race-free — pumps unpark the
                    // driver after every push, and a stored token makes
                    // a park after a missed wake return immediately.
                    while remaining > 0 {
                        let mut progressed = false;
                        for ((batch, or), flag) in batches
                            .iter_mut()
                            .zip(outs_r.iter_mut())
                            .zip(done_flags.iter_mut())
                        {
                            if !*flag && or.try_pop_swap(batch) {
                                *flag = true;
                                remaining -= 1;
                                progressed = true;
                            }
                        }
                        if remaining > 0 && !progressed {
                            std::thread::park();
                        }
                    }
                };
                self.monitor
                    .supervised(t_s, |mon| round(mon, t_s, &mut driver_src, trip));
            }
            stop.store(true, Ordering::Release);
            for w in workers.iter() {
                w.thread().unpark();
            }
        });
    }
}

/// One round of `mon` with every shard pumped on the calling thread
/// through the one borrowed `src`: the body of [`Monitor::sample`].
pub(crate) fn round_inline(mon: &mut Monitor, t_s: f64, mut src: &dyn ProcSource) {
    let mut node_src = src;
    round(mon, t_s, &mut node_src, |batches, arenas| {
        for (batch, arena) in batches.iter_mut().zip(arenas.iter_mut()) {
            process_batch(batch, &mut src, arena);
        }
    });
}

/// The round protocol. `trip` runs one trip: every shard's batch
/// through its pump, wherever that pump lives. The caller wraps this in
/// [`Monitor::supervised`]: a driver-side panic is a recorded gap.
/// (Shard-side panics never reach here — they are caught per batch and
/// recorded per shard at fold.)
fn round<L: Lend>(
    mon: &mut Monitor,
    t_s: f64,
    node_src: &mut L,
    mut trip: impl FnMut(&mut [ShardBatch], &mut [ReadArena]),
) {
    let shed = node_src.lend(|src| round_begin(mon, t_s, src));
    stage_lists(mon);
    trip(&mut mon.engine.batches, &mut mon.engine.arenas);
    fold_lists_and_plan(mon, shed, t_s);
    trip(&mut mon.engine.batches, &mut mon.engine.arenas);
    fold_reads(mon, t_s);
    node_src.lend(|src| round_end(mon, t_s, src));
}

/// Shard thread body: drain jobs, pump each batch, hand the result
/// back, wake the driver. Parks when idle; the driver unparks it on
/// every dispatch and once more at shutdown.
fn shard_loop<S: ShardSource>(
    mut jobs: ShardReader<'_, ShardBatch, MutexSlot<ShardBatch>>,
    mut results: ShardWriter<'_, ShardBatch, MutexSlot<ShardBatch>>,
    mut source: S,
    stop: &AtomicBool,
    driver: std::thread::Thread,
) {
    let mut local = ShardBatch::default();
    let mut arena = ReadArena::new();
    loop {
        let mut worked = false;
        while jobs.try_pop_swap(&mut local) {
            worked = true;
            process_batch(&mut local, &mut source, &mut arena);
            while !results.try_push_swap(&mut local) {
                // Unreachable under the ≤1-in-flight invariant; yield
                // rather than assume it.
                std::thread::yield_now();
            }
            driver.unpark();
        }
        if stop.load(Ordering::Acquire) {
            return;
        }
        if !worked {
            std::thread::park();
        }
    }
}

/// Executes one batch under a panic boundary: the shard pump. A panic
/// anywhere in the batch body (a poisoned substrate, an injected
/// `FaultKind::Panic`) marks the batch instead of unwinding the pump —
/// the driver records the gap and other shards are unaffected.
fn process_batch<L: Lend>(batch: &mut ShardBatch, source: &mut L, arena: &mut ReadArena) {
    let body = AssertUnwindSafe(|| source.lend(|src| run_batch(batch, src, arena)));
    if std::panic::catch_unwind(body).is_err() {
        batch.panicked = true;
    }
}

/// The batch body: one trip's reads for one shard.
fn run_batch(batch: &mut ShardBatch, src: &dyn ProcSource, arena: &mut ReadArena) {
    match batch.phase {
        Phase::Idle => {}
        Phase::List => {
            let ShardBatch {
                lists,
                lists_used,
                node_ledger,
                backoff_us,
                ..
            } = batch;
            for ls in lists.iter_mut().take(*lists_used) {
                let pid = ls.pid;
                let tids = &mut ls.tids;
                ls.outcome = with_retry(node_ledger, backoff_us, || src.list_tasks_into(pid, tids));
            }
        }
        Phase::Read => {
            let ShardBatch {
                reads,
                reads_used,
                backoff_us,
                ..
            } = batch;
            for ws in reads.iter_mut().take(*reads_used) {
                let pid = ws.pid;
                let ledger = &mut ws.ledger;
                for slot in ws.slots.iter_mut().take(ws.slots_used) {
                    let tid = slot.tid;
                    // A task's texts are parsed into its slot as they
                    // are read: nothing outlives the task, so the arena
                    // stays a few hundred bytes and hot.
                    arena.reset();
                    // schedstat first: it is both the wait-time source
                    // and the delta gate. Optional (CONFIG_SCHED_INFO);
                    // absence is not an error and is never retried.
                    slot.ss = src.task_schedstat(pid, tid).ok();
                    if let (Some(prev), Some(ss)) = (slot.delta_prev, slot.ss) {
                        if prev == ss {
                            slot.kind = ReadKind::DeltaHit;
                            continue;
                        }
                    }
                    let stat_slot = &mut slot.stat;
                    let stat_read = with_retry(ledger, backoff_us, || {
                        let span = src.task_stat_text(pid, tid, arena)?;
                        let Some(line) = arena.get(span) else {
                            return Err(SourceError::Malformed("stat span out of range".into()));
                        };
                        match parse::parse_task_stat_view(line) {
                            Ok(view) => {
                                view.assign_to(stat_slot);
                                Ok(())
                            }
                            Err(e) => Err(SourceError::Malformed(e.to_string())),
                        }
                    });
                    let read = match stat_read {
                        Ok(()) => {
                            let status_slot = &mut slot.status;
                            with_retry(ledger, backoff_us, || {
                                let span = src.task_status_text(pid, tid, arena)?;
                                let Some(text) = arena.get(span) else {
                                    return Err(SourceError::Malformed(
                                        "status span out of range".into(),
                                    ));
                                };
                                parse::parse_task_status_into(text, status_slot)
                                    .map_err(|e| SourceError::Malformed(e.to_string()))
                            })
                        }
                        Err(e) => Err(e),
                    };
                    slot.kind = match read {
                        Ok(()) => ReadKind::Fresh,
                        // Thread exited between the directory listing
                        // and the read: the normal race of §3.1.1.
                        Err(SourceError::NotFound) => ReadKind::Vanished,
                        Err(_) => ReadKind::Failed,
                    };
                }
            }
        }
    }
}

/// Round prologue: counters, the shed decision, node `stat`.
fn round_begin(mon: &mut Monitor, t_s: f64, src: &dyn ProcSource) -> bool {
    mon.stats.rounds += 1;
    mon.last_t_s = t_s;
    // Deadline watchdog: after an overrun, this round sheds per-LWP
    // detail (worker stat/status reads) to get back under budget.
    let shed = std::mem::take(&mut mon.governor.shed_next);
    if shed {
        mon.governor.shed_rounds += 1;
    }
    match with_retry(&mut mon.node_health, &mut mon.pending_backoff_us, || {
        src.system_stat_into(&mut mon.scratch.sys)
    }) {
        Ok(()) => mon.hwt.observe(t_s, &mon.scratch.sys),
        Err(_) => mon.stats.errors += 1,
    }
    mon.scratch.watched_rss.clear();
    shed
}

/// Round epilogue: `meminfo` and the snapshot feed.
fn round_end(mon: &mut Monitor, t_s: f64, src: &dyn ProcSource) {
    match with_retry(&mut mon.node_health, &mut mon.pending_backoff_us, || {
        src.meminfo()
    }) {
        Ok(mi) => mon.mem.observe(t_s, &mi, &mon.scratch.watched_rss),
        Err(_) => mon.stats.errors += 1,
    }
    if mon.feed.subscriber_count() > 0 {
        let snap = crate::feed::snapshot_of(mon);
        mon.feed.publish(snap);
    }
}

/// Partitions watches into per-HWT-group shards: watches ordered by
/// first allowed CPU (the watch's observed mask, falling back to the
/// registered one), then chunked contiguously — processes sharing a
/// hardware-thread neighborhood land in the same shard. Deterministic:
/// ties break by pid, and the chunking depends only on the order. One
/// shard owns every watch, whatever the order.
fn build_assignment(
    processes: &[ProcessWatch],
    assign: &mut Vec<usize>,
    order: &mut Vec<usize>,
    nshards: usize,
) {
    let n = processes.len();
    assign.clear();
    assign.resize(n, 0);
    if nshards <= 1 {
        return;
    }
    order.clear();
    order.extend(0..n);
    order.sort_unstable_by_key(|&i| {
        processes.get(i).map_or((u32::MAX, u32::MAX), |w| {
            let cpu = w
                .cpus_allowed
                .first()
                .or_else(|| w.info.cpus_allowed.first())
                .unwrap_or(u32::MAX);
            (cpu, w.info.pid)
        })
    });
    for (pos, &widx) in order.iter().enumerate() {
        let shard = (pos.saturating_mul(nshards) / n.max(1)).min(nshards.saturating_sub(1));
        if let Some(a) = assign.get_mut(widx) {
            *a = shard;
        }
    }
}

/// Stages trip 1: assigns watches to shards, then one list job per live
/// watch, routed by the assignment.
fn stage_lists(mon: &mut Monitor) {
    let Engine {
        batches,
        assign,
        order,
        ..
    } = &mut mon.engine;
    build_assignment(&mon.processes, assign, order, batches.len());
    for batch in batches.iter_mut() {
        (batch.lists_used, batch.cursor) = (0, 0);
        batch.phase = Phase::List;
        batch.panicked = false;
    }
    for (i, w) in mon.processes.iter().enumerate() {
        if w.gone {
            continue;
        }
        let Some(&shard) = assign.get(i) else {
            continue;
        };
        let Some(batch) = batches.get_mut(shard) else {
            continue;
        };
        if batch.lists_used == batch.lists.len() {
            batch.lists.push(ListSlot::default());
        }
        let used = batch.lists_used;
        let Some(slot) = batch.lists.get_mut(used) else {
            continue;
        };
        batch.lists_used += 1;
        slot.watch = i;
        slot.pid = w.info.pid;
        slot.tids.clear();
        slot.outcome = Ok(());
    }
}

/// Folds trip 1 and plans trip 2. Runs the list-outcome statements per
/// watch in canonical order, then joins listing and live table and
/// decides from each row — driver-side, where the health state lives —
/// which tids each shard must read: shed rounds keep only the main
/// thread, quarantined tids are skipped (spending their re-probe
/// counters), and the delta gate's reference `schedstat` is attached
/// where armed.
fn fold_lists_and_plan(mon: &mut Monitor, shed: bool, t_s: f64) {
    let delta_on = mon.config.delta_sampling;
    let Monitor {
        processes,
        stats,
        node_health,
        pending_backoff_us,
        supervisor,
        engine,
        ..
    } = mon;
    let (batches, assign) = (&mut engine.batches, &engine.assign);
    for batch in batches.iter_mut() {
        node_health.merge(&batch.node_ledger);
        *pending_backoff_us += batch.backoff_us;
        batch.node_ledger = HealthLedger::default();
        batch.backoff_us = 0;
        batch.reads_used = 0;
        batch.phase = Phase::Read;
    }
    for (i, w) in processes.iter_mut().enumerate() {
        if w.gone {
            continue;
        }
        let Some(&shard) = assign.get(i) else {
            continue;
        };
        let Some(batch) = batches.get_mut(shard) else {
            continue;
        };
        let ShardBatch {
            lists,
            lists_used,
            reads,
            reads_used,
            panicked,
            cursor,
            ..
        } = batch;
        let mine = |s: &&ListSlot| *cursor < *lists_used && s.watch == i;
        let Some(slot) = lists.get(*cursor).filter(mine) else {
            continue;
        };
        *cursor += 1;
        if *panicked {
            // Stale results: this shard's round is a recorded gap.
            continue;
        }
        match &slot.outcome {
            Ok(()) => {}
            Err(SourceError::NotFound) => {
                w.gone = true;
                stats.vanished += 1;
                continue;
            }
            Err(_) => {
                stats.errors += 1;
                continue;
            }
        }
        if *reads_used == reads.len() {
            reads.push(WatchReadSlot::default());
        }
        let used = *reads_used;
        let Some(ws) = reads.get_mut(used) else {
            continue;
        };
        *reads_used += 1;
        let pid = w.info.pid;
        ws.watch = i;
        ws.pid = pid;
        ws.ledger = HealthLedger::default();
        ws.slots_used = 0;
        w.join_listing(&slot.tids, |row, ledger| {
            let tid = row.tid;
            if shed && tid != pid {
                // Shed round: drop per-LWP detail, keep per-HWT totals
                // (system stat), the main thread (RSS), and memory.
                return;
            }
            if row.should_skip(ledger) {
                // Quarantined after persistent failures; re-probed
                // after `REPROBE_AFTER` rounds.
                return;
            }
            // Unchanged schedstat ⇒ the thread was never dispatched
            // since the last fresh read ⇒ its `stat` and `status` are
            // bytewise unchanged; the fold reuses the last good pair.
            // The main thread is exempt: it carries the process-wide
            // RSS, which moves without the thread running.
            let armed = delta_on && tid != pid;
            let delta_prev = row.delta_reference().filter(|_| armed);
            if ws.slots_used == ws.slots.len() {
                ws.slots.push(TaskReadSlot::default());
            }
            if let Some(slot) = ws.slots.get_mut(ws.slots_used) {
                (slot.tid, slot.delta_prev) = (tid, delta_prev);
                ws.slots_used += 1;
            }
        });
    }
    for batch in batches.iter_mut() {
        batch.cursor = 0;
        if batch.panicked {
            supervisor.restarts += 1;
            supervisor.gap_times_s.push(t_s);
            batch.panicked = false;
            // Nothing was planned for its watches; trip 2 is a no-op
            // for this shard.
            batch.reads_used = 0;
        }
    }
}

/// Folds trip 2 in canonical watch order: the drain. Per task slot, on
/// the row the table cursor is on: health accounting, the failure
/// policy, series observation, the main-thread RSS tail; then the
/// dead-track bound per watch. All counters fold by addition, so totals
/// reconcile exactly against fault-injector logs, shard count
/// notwithstanding.
fn fold_reads(mon: &mut Monitor, t_s: f64) {
    let max_exited = mon.config.max_exited_tracks;
    let Monitor {
        processes,
        stats,
        scratch,
        pending_backoff_us,
        supervisor,
        engine,
        ..
    } = mon;
    let (batches, assign) = (&mut engine.batches, &engine.assign);
    for (i, w) in processes.iter_mut().enumerate() {
        let Some(&shard) = assign.get(i) else {
            continue;
        };
        let Some(batch) = batches.get_mut(shard) else {
            continue;
        };
        let ShardBatch {
            reads,
            reads_used,
            panicked,
            cursor: c,
            ..
        } = batch;
        // This watch's read slot, if it has one — a watch whose list
        // errored (or whose shard panicked) folds nothing. Slots at or
        // past `reads_used` are an earlier round's and match no watch.
        let mine = |s: &&mut WatchReadSlot| *c < *reads_used && s.watch == i;
        let Some(ws) = reads.get_mut(*c).filter(mine) else {
            continue;
        };
        *c += 1;
        if *panicked {
            continue;
        }
        let pid = ws.pid;
        w.health.ledger.merge(&ws.ledger);
        let ledger = &mut w.health.ledger;
        // Slots and rows are both in listing order: a slot's row is
        // ahead of the cursor, never behind it.
        let mut rows = w.health.rows.iter_mut();
        for slot in ws.slots.iter_mut().take(ws.slots_used) {
            let tid = slot.tid;
            let Some(row) = rows.find(|r| r.tid == tid) else {
                continue;
            };
            let at = row.track;
            let (stat, status, ss) = match slot.kind {
                // Workers only: the plan never arms the gate for the
                // main thread, so the RSS tail below is not reached.
                ReadKind::DeltaHit => {
                    if let (Some(ss), Some((stat, status))) = (slot.ss, row.last_good()) {
                        stats.delta_hits += 1;
                        if w.lwps.repeat_last(at, t_s, ss).is_none() {
                            let ss = Some(ss);
                            row.track = w.lwps.observe_at(at, pid, t_s, stat, status, ss);
                        }
                    }
                    continue;
                }
                ReadKind::Vanished => {
                    stats.vanished += 1;
                    row.forget();
                    continue;
                }
                ReadKind::Fresh => {
                    let (stat, status) =
                        row.record_success(ledger, &mut slot.stat, &mut slot.status, slot.ss);
                    (stat, status, slot.ss)
                }
                ReadKind::Failed => {
                    stats.errors += 1;
                    // Degraded: repeat the last good sample so the time
                    // series stays continuous; the ledger flags the
                    // substitution. It reports no schedstat — a fresh
                    // schedstat against a stale stat would skew wait
                    // deltas.
                    match row.record_failure(ledger) {
                        Some((stat, status)) => (stat, status, None),
                        None => continue,
                    }
                }
            };
            if tid == pid {
                if w.cpus_allowed.is_empty() {
                    w.cpus_allowed.copy_from(&status.cpus_allowed);
                }
                w.rss_series.push((t_s, status.vm_rss_kib));
                scratch.watched_rss.push((pid, status.vm_rss_kib));
            }
            row.track = w.lwps.observe_at(at, pid, t_s, stat, status, ss);
        }
        w.lwps.evict_dead(max_exited, &mut w.health.rows);
    }
    for batch in batches.iter_mut() {
        if batch.panicked {
            supervisor.restarts += 1;
            supervisor.gap_times_s.push(t_s);
            batch.panicked = false;
        }
        *pending_backoff_us += batch.backoff_us;
        batch.backoff_us = 0;
        batch.phase = Phase::Idle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ZeroSumConfig;
    use crate::monitor::ProcessInfo;
    use zerosum_proc::fault::{FaultInjector, FaultKind, FaultPlan, FaultRates, Op, ScriptedFault};
    use zerosum_proc::ExitRace;
    use zerosum_sched::{Behavior, SchedParams};
    use zerosum_topology::{presets, CpuSet};

    /// A 3-process node: mixed thread counts, distinct HWT groups, one
    /// process that finishes mid-run (exercising the vanish path).
    fn build_sim() -> (NodeSim, Vec<Pid>) {
        build_sim_with(1_200_000)
    }

    fn build_sim_with(rank1_us: u64) -> (NodeSim, Vec<Pid>) {
        let mut sim = NodeSim::new(presets::laptop_i7_1165g7(), SchedParams::default());
        let mut pids = Vec::new();
        let specs: [(&str, [u32; 2], usize, u64); 3] = [
            ("rank0", [0, 1], 2, 9_000_000),
            ("rank1", [2, 3], 1, rank1_us),
            ("rank2", [4, 5], 3, 9_000_000),
        ];
        for (name, cpus, workers, remaining_us) in specs {
            let pid = sim.spawn_process(
                name,
                CpuSet::from_indices(cpus),
                4_096,
                Behavior::FiniteCompute {
                    remaining_us,
                    chunk_us: 10_000,
                },
            );
            for _ in 0..workers {
                sim.spawn_task(
                    pid,
                    "OpenMP",
                    None,
                    Behavior::FiniteCompute {
                        remaining_us,
                        chunk_us: 10_000,
                    },
                    false,
                );
            }
            pids.push(pid);
        }
        (sim, pids)
    }

    fn monitor_for(pids: &[Pid]) -> Monitor {
        let mut mon = Monitor::new(ZeroSumConfig::default());
        for &pid in pids {
            mon.watch_process(ProcessInfo {
                pid,
                rank: Some(pid),
                hostname: "simnode0001".into(),
                gpus: vec![],
                cpus_allowed: Default::default(),
            });
        }
        mon
    }

    /// A [`ShardSource`] with a per-shard fault injector layered on
    /// top: faults hit only this shard's reads.
    struct FaultyShardSource<S> {
        inner: S,
        injector: FaultInjector,
    }

    impl<S: ShardSource> ShardSource for FaultyShardSource<S> {
        fn with_source<R>(&mut self, f: impl FnOnce(&dyn ProcSource) -> R) -> R {
            let FaultyShardSource { inner, injector } = self;
            inner.with_source(|src| f(&injector.wrap(src)))
        }
    }

    /// A [`ShardSource`] whose worker tids in one residue class vanish
    /// (`NotFound`) on every read while staying listed, through
    /// [`zerosum_proc::ExitRace`]: stateless and call-order independent,
    /// so one shard and N meet the identical races. Modulus 0 is none.
    struct VanishShardSource<S> {
        inner: S,
        modulus: u64,
    }

    impl<S: ShardSource> ShardSource for VanishShardSource<S> {
        fn with_source<R>(&mut self, f: impl FnOnce(&dyn ProcSource) -> R) -> R {
            let m = self.modulus;
            self.inner
                .with_source(|src| f(&ExitRace::new(src, m, VANISH_RESIDUE)))
        }
    }

    /// The residue class of worker tids that vanish on read.
    const VANISH_RESIDUE: u64 = 0;

    /// Rounds of the one-shard-vs-N runs, 400 ms of node time apart.
    const ROUNDS: u64 = 8;

    type Run = (Monitor, Vec<crate::feed::SampleSnapshot>);

    /// [`build_sim`]'s node and a monitor watching its ranks in CPU
    /// order, or `reversed`: against it, so that a shard's watches are
    /// not a run of the watch list in its order.
    fn watched_sim(reversed: bool) -> (NodeSim, Monitor) {
        let (sim, mut pids) = build_sim();
        if reversed {
            pids.reverse();
        }
        (sim, monitor_for(&pids))
    }

    /// The reference: `Monitor::sample`, the round at one inline shard,
    /// through the exit race of `modulus`. Its monitor and every
    /// round's snapshot.
    fn run_sampled(reversed: bool, modulus: u64) -> Run {
        let (mut sim, mut mon) = watched_sim(reversed);
        let rx = mon.feed.subscribe(ROUNDS as usize + 1);
        for r in 0..ROUNDS {
            sim.run_for(400_000);
            let src = SimProcSource::new(&sim);
            mon.sample(
                (r + 1) as f64,
                &ExitRace::new(&src, modulus, VANISH_RESIDUE),
            );
        }
        let snaps = rx.try_iter().map(|s| (*s).clone()).collect();
        (mon, snaps)
    }

    /// The same rounds over `nshards` shards in `mode`.
    fn run_sharded(reversed: bool, modulus: u64, nshards: usize, mode: ShardMode) -> Run {
        let (sim, mut mon) = watched_sim(reversed);
        let sim = Arc::new(TrackedRw::new("core.shard.source", sim));
        let rx = mon.feed.subscribe(ROUNDS as usize + 1);
        let mut sharded = ShardedMonitor::new(mon, nshards, mode);
        let sim_for_sources = Arc::clone(&sim);
        sharded.run_rounds(
            move |_| VanishShardSource {
                inner: SimShardSource::new(Arc::clone(&sim_for_sources)),
                modulus,
            },
            ROUNDS,
            |r| {
                let mut g = sim.write().unwrap_or_else(PoisonError::into_inner);
                g.run_for(400_000);
                (r + 1) as f64
            },
        );
        let snaps = rx.try_iter().map(|s| (*s).clone()).collect();
        (sharded.into_monitor(), snaps)
    }

    fn assert_identical(serial: &Monitor, sharded: &Monitor) {
        assert_eq!(serial.stats, sharded.stats);
        assert_eq!(
            format!("{:?}", serial.health_total()),
            format!("{:?}", sharded.health_total())
        );
        assert_eq!(serial.hwt.sample_count(), sharded.hwt.sample_count());
        assert_eq!(serial.mem.samples(), sharded.mem.samples());
        for (a, b) in serial.processes().iter().zip(sharded.processes().iter()) {
            assert_eq!(a.gone, b.gone, "pid {}", a.info.pid);
            assert_eq!(a.rss_series.as_slice(), b.rss_series.as_slice());
            assert_eq!(
                a.cpus_allowed.to_list_string(),
                b.cpus_allowed.to_list_string()
            );
            // The live table, row for row: failure state, last-good
            // pair, gate and track position — the oracle's maps against
            // the join's rows.
            assert_eq!(a.health.rows, b.health.rows, "pid {}", a.info.pid);
            assert_eq!(a.health.footprint(), b.health.footprint());
            assert_eq!(a.delta_gate_len(), b.delta_gate_len());
            // Every series held, in `tracks()` order, flags included.
            let series = |w: &crate::monitor::ProcessWatch| -> Vec<_> {
                w.lwps
                    .tracks()
                    .map(|t| {
                        let mut cpus: Vec<u32> = t.cpus_seen.iter().copied().collect();
                        cpus.sort_unstable();
                        let flags = (t.exited, t.retired, t.is_openmp, t.affinity_changed);
                        let affinity = t.affinity.to_list_string();
                        let id = (t.tid, t.name.clone(), t.kind, t.starttime);
                        (id, flags, affinity, cpus, t.samples.as_slice().to_vec())
                    })
                    .collect()
            };
            assert_eq!(series(a), series(b), "pid {}", a.info.pid);
            assert_eq!(a.lwps.departed(), b.lwps.departed());
        }
    }

    /// N shards against one, every way the engine runs them: 1–4
    /// shards, inline and on threads, with a residue class of workers
    /// vanishing between listing and read (mid-round departures) or
    /// not, the watches registered in CPU order or against it. Every
    /// round's snapshot and the whole end state equal what
    /// `Monitor::sample` arrives at; rank1 exits mid-run throughout.
    #[test]
    fn sharded_rounds_are_bit_identical_to_monitor_sample() {
        for reversed in [false, true] {
            let mut vanished_without_races = 0;
            for modulus in [0, 3] {
                let (want, want_snaps) = run_sampled(reversed, modulus);
                assert_eq!(want_snaps.len(), ROUNDS as usize);
                assert_eq!(want.stats.errors, 0, "a departure is never an error");
                if modulus == 0 {
                    vanished_without_races = want.stats.vanished;
                } else {
                    assert!(
                        want.stats.vanished > vanished_without_races,
                        "no worker tid in the race class"
                    );
                }
                for nshards in 1..=4 {
                    for mode in [ShardMode::Inline, ShardMode::Threads] {
                        let what = format!(
                            "reversed {reversed}, vanish %{modulus}, {nshards} shard(s) {mode:?}"
                        );
                        let (got, got_snaps) = run_sharded(reversed, modulus, nshards, mode);
                        assert_eq!(got_snaps.len(), want_snaps.len(), "{what}");
                        for (round, (g, w)) in got_snaps.iter().zip(&want_snaps).enumerate() {
                            assert_eq!(g, w, "{what}: round {round} snapshot diverged");
                        }
                        assert_identical(&want, &got);
                        assert_eq!(want.governor, got.governor, "{what}");
                        assert_eq!(want.supervisor, got.supervisor, "{what}");
                    }
                }
            }
        }
    }

    /// `Monitor::sample` against the serial oracle, round for round,
    /// through everything a round can meet: a rank that exits mid-run
    /// and whose pid is then recycled, a residue class of workers that
    /// vanish between listing and read, a parked worker (delta hits), a
    /// shed round, with the delta gate on and off.
    #[test]
    fn monitor_sample_is_bit_identical_to_serial_oracle() {
        for delta_on in [true, false] {
            let (mut sim, pids) = build_sim();
            let parked = sim.spawn_task(pids[0], "parked", None, Behavior::Sleeper, false);
            // The race class: every third worker tid, the parked one not
            // among them.
            let residue = u64::from(parked + 1) % 3;
            let mut sampled = monitor_for(&pids);
            let mut serial = monitor_for(&pids);
            for mon in [&mut sampled, &mut serial] {
                mon.config.delta_sampling = delta_on;
            }
            let rx_sampled = sampled.feed.subscribe(16);
            let rx_serial = serial.feed.subscribe(16);
            let mut recycled = false;
            for r in 0..12u64 {
                sim.run_for(400_000);
                let rank1_done = SimProcSource::new(&sim)
                    .list_tasks(pids[1])
                    .is_ok_and(|tids| tids.is_empty());
                if r >= 7 && rank1_done && !recycled {
                    sim.respawn_process_with_pid(
                        pids[1],
                        "imposter",
                        CpuSet::from_indices([2u32, 3]),
                        2_048,
                        Behavior::FiniteCompute {
                            remaining_us: 9_000_000,
                            chunk_us: 10_000,
                        },
                    );
                    recycled = true;
                    sim.run_for(10_000);
                }
                let t_s = (r + 1) as f64;
                let src = SimProcSource::new(&sim);
                let raced = ExitRace::new(&src, 3, residue);
                sampled.sample(t_s, &raced);
                crate::monitor::oracle::sample(&mut serial, t_s, &raced);
                // Round 4 blows the deadline, round 5 is shed, and its
                // cheap cost disarms the watchdog again.
                let cost_us = if r == 3 { 600_000 } else { 5_000 };
                sampled.note_round_cost(t_s, cost_us);
                serial.note_round_cost(t_s, cost_us);
            }
            let snaps = |rx: &std::sync::mpsc::Receiver<_>| -> Vec<crate::feed::SampleSnapshot> {
                rx.try_iter()
                    .map(|s: std::sync::Arc<crate::feed::SampleSnapshot>| (*s).clone())
                    .collect()
            };
            let (got, want) = (snaps(&rx_sampled), snaps(&rx_serial));
            assert_eq!(want.len(), 12);
            for (round, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g, w, "delta {delta_on}: round {round} snapshot diverged");
            }
            assert_identical(&serial, &sampled);
            assert_eq!(serial.governor, sampled.governor);
            assert_eq!(serial.supervisor, sampled.supervisor);
            // The scenario met what it set out to meet.
            assert!(recycled, "rank1 never finished");
            assert_eq!(sampled.governor.shed_rounds, 1);
            assert!(
                sampled.stats.vanished > 0,
                "no worker tid in the race class"
            );
            assert_eq!(sampled.stats.delta_hits > 0, delta_on);
            assert_eq!(sampled.stats.errors, 0);
            let reopened = sampled.process(pids[1]).unwrap();
            assert!(reopened.lwps.tracks().any(|t| t.retired));
            assert_eq!(reopened.lwps.track(pids[1]).unwrap().name, "imposter");
        }
    }

    /// Fails the task listing of one pid with whatever `fail` holds;
    /// everything else passes through.
    struct ListFails<'a> {
        inner: &'a dyn ProcSource,
        pid: Pid,
        fail: Option<SourceError>,
    }

    impl ProcSource for ListFails<'_> {
        fn system_stat(&self) -> SourceResult<zerosum_proc::SystemStat> {
            self.inner.system_stat()
        }
        fn meminfo(&self) -> SourceResult<zerosum_proc::MemInfo> {
            self.inner.meminfo()
        }
        fn list_tasks(&self, pid: Pid) -> SourceResult<Vec<Tid>> {
            match &self.fail {
                Some(e) if pid == self.pid => Err(e.clone()),
                _ => self.inner.list_tasks(pid),
            }
        }
        fn task_stat(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStat> {
            self.inner.task_stat(pid, tid)
        }
        fn task_status(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStatus> {
            self.inner.task_status(pid, tid)
        }
        fn task_schedstat(&self, pid: Pid, tid: Tid) -> SourceResult<SchedStat> {
            self.inner.task_schedstat(pid, tid)
        }
    }

    /// A watch that was read last round and whose listing fails this
    /// round folds nothing: its read slot of the round before is still
    /// in the batch (nothing overwrites it when the watch is the last
    /// live one of its shard) and must not be folded again. `Io` for two
    /// rounds, a recovery, then `NotFound` — the process exited — and a
    /// few rounds more; on the last of three watches and on an only one.
    #[test]
    fn failed_listing_does_not_replay_last_rounds_reads() {
        for only_watch in [false, true] {
            let (mut sim, mut pids) = build_sim_with(9_000_000);
            if only_watch {
                pids.drain(..2);
            }
            let victim = *pids.last().unwrap();
            let mut sampled = monitor_for(&pids);
            let mut serial = monitor_for(&pids);
            let rx_sampled = sampled.feed.subscribe(16);
            let rx_serial = serial.feed.subscribe(16);
            for r in 0..10u64 {
                sim.run_for(400_000);
                let src = SimProcSource::new(&sim);
                let fail = match r {
                    2 | 3 => Some(SourceError::Io("listing".into())),
                    6.. => Some(SourceError::NotFound),
                    _ => None,
                };
                let failing = ListFails {
                    inner: &src,
                    pid: victim,
                    fail,
                };
                let t_s = (r + 1) as f64;
                sampled.sample(t_s, &failing);
                crate::monitor::oracle::sample(&mut serial, t_s, &failing);
            }
            let got: Vec<_> = rx_sampled.try_iter().collect();
            let want: Vec<_> = rx_serial.try_iter().collect();
            assert_eq!(want.len(), 10);
            for (round, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g, w, "only {only_watch}: round {round} snapshot diverged");
            }
            assert_identical(&serial, &sampled);
            let w = sampled.process(victim).unwrap();
            assert!(w.gone);
            // Rounds 1, 2, 5 and 6 listed; the other six read nothing.
            assert_eq!(w.rss_series.len(), 4);
            assert_eq!(w.lwps.track(victim).unwrap().samples.len(), 4);
            assert_eq!(sampled.stats.errors, 2);
            assert_eq!(sampled.stats.vanished, 1);
        }
    }

    /// A `/proc` of one process whose listing is whatever the test sets
    /// and whose every record is a pure function of `(round, tid)` —
    /// the same answers to the engine's two trips and to the serial
    /// loop, whatever order they ask in. A third of the workers are
    /// parked (constant `schedstat`: delta hits), one tid in eleven has
    /// no `schedstat`, and spells of four rounds make a worker's reads
    /// fail (`Io`, on to quarantine) or race its exit (`NotFound` while
    /// still listed).
    struct Scripted {
        pid: Pid,
        /// `None`: the process is gone.
        listing: Option<Vec<Tid>>,
        /// `starttime` of the incarnation each tid is listed with.
        born: std::collections::HashMap<Tid, u64>,
        round: u64,
        seed: u64,
        /// Of 64 spells, how many fail and how many vanish.
        io_spells: u64,
        vanish_spells: u64,
        /// The main thread only waits (a constant `schedstat`) while
        /// its workers move the process's RSS.
        main_parked: bool,
    }

    fn mix(a: u64, b: u64, c: u64) -> u64 {
        let mut x = a ^ b.rotate_left(21) ^ c.rotate_left(42) ^ 0x9e37_79b9_7f4a_7c15;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    impl Scripted {
        fn new(pid: Pid, seed: u64) -> Self {
            Scripted {
                pid,
                listing: Some(vec![pid]),
                born: [(pid, 1)].into_iter().collect(),
                round: 0,
                seed,
                io_spells: 0,
                vanish_spells: 0,
                main_parked: false,
            }
        }

        /// The record of `tid` this round, or why it cannot be read.
        fn read<T>(&self, pid: Pid, tid: Tid, make: impl FnOnce(u64) -> T) -> SourceResult<T> {
            let born = match self.born.get(&tid) {
                Some(&born) if pid == self.pid => born,
                _ => return Err(SourceError::NotFound),
            };
            let spell = mix(self.seed, u64::from(tid), self.round / 4) % 64;
            if tid != pid && spell < self.io_spells {
                Err(SourceError::Io("scripted".into()))
            } else if tid != pid && spell < self.io_spells + self.vanish_spells {
                Err(SourceError::NotFound)
            } else {
                Ok(make(born))
            }
        }

        fn parked(&self, tid: Tid) -> bool {
            if tid == self.pid {
                self.main_parked
            } else {
                tid.is_multiple_of(3)
            }
        }
    }

    impl ProcSource for Scripted {
        fn system_stat(&self) -> SourceResult<zerosum_proc::SystemStat> {
            let t = zerosum_proc::CpuTimes {
                user: self.round * 7,
                idle: self.round * 93,
                ..Default::default()
            };
            Ok(zerosum_proc::SystemStat {
                total: t,
                cpus: vec![(0, t)],
                ctxt: self.round,
                processes: self.round,
            })
        }
        fn meminfo(&self) -> SourceResult<zerosum_proc::MemInfo> {
            Ok(zerosum_proc::MemInfo {
                mem_total_kib: 1 << 20,
                mem_available_kib: (1 << 19) - self.round,
                ..Default::default()
            })
        }
        fn list_tasks(&self, pid: Pid) -> SourceResult<Vec<Tid>> {
            match &self.listing {
                Some(tids) if pid == self.pid => Ok(tids.clone()),
                _ => Err(SourceError::NotFound),
            }
        }
        fn task_stat(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStat> {
            let ran = if self.parked(tid) { 0 } else { self.round };
            self.read(pid, tid, |born| TaskStat {
                tid,
                comm: format!("t{tid}-{born}"),
                utime: ran * 3 + born,
                stime: ran,
                minflt: ran / 2,
                num_threads: 1,
                processor: (mix(self.seed, u64::from(tid), ran) % 4) as u32,
                starttime: born,
                ..Default::default()
            })
        }
        fn task_status(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStatus> {
            let ran = if self.parked(tid) { 0 } else { self.round };
            self.read(pid, tid, |born| TaskStatus {
                name: format!("t{tid}-{born}"),
                tid,
                tgid: pid,
                vm_rss_kib: 4096 + self.round,
                cpus_allowed: CpuSet::range(0, 3 + (ran / 5) as u32 % 2),
                voluntary_ctxt_switches: ran,
                nonvoluntary_ctxt_switches: ran / 3,
                ..Default::default()
            })
        }
        fn task_schedstat(&self, pid: Pid, tid: Tid) -> SourceResult<SchedStat> {
            if pid != self.pid || !self.born.contains_key(&tid) || tid.is_multiple_of(11) {
                return Err(SourceError::NotFound);
            }
            let ran = if self.parked(tid) { 0 } else { self.round };
            Ok(SchedStat {
                run_ns: ran * 1_000,
                wait_ns: ran * 10,
                timeslices: ran,
            })
        }
    }

    /// Two monitors on `src`: one sampled, one driven by the serial
    /// oracle. A four-round spell of failing reads reaches the
    /// quarantine (`QUARANTINE_AFTER` is three).
    fn scripted_pair(pid: Pid, delta_on: bool, max_exited_tracks: usize) -> (Monitor, Monitor) {
        let mut pair = (monitor_for(&[pid]), monitor_for(&[pid]));
        for mon in [&mut pair.0, &mut pair.1] {
            mon.config.delta_sampling = delta_on;
            mon.config.max_exited_tracks = max_exited_tracks;
        }
        pair
    }

    /// One round of both monitors over `src`, then everything compared.
    fn scripted_round(
        src: &mut Scripted,
        sampled: &mut Monitor,
        serial: &mut Monitor,
        cost_us: u64,
        what: &str,
    ) {
        src.round += 1;
        let t_s = src.round as f64;
        let rx_sampled = sampled.feed.subscribe(1);
        let rx_serial = serial.feed.subscribe(1);
        sampled.sample(t_s, src);
        crate::monitor::oracle::sample(serial, t_s, src);
        sampled.note_round_cost(t_s, cost_us);
        serial.note_round_cost(t_s, cost_us);
        assert_eq!(
            rx_sampled.try_iter().next(),
            rx_serial.try_iter().next(),
            "{what}: round {} snapshot diverged",
            src.round
        );
        assert_identical(serial, sampled);
        assert_eq!(serial.governor, sampled.governor, "{what}");
        assert_eq!(sampled.supervisor.restarts, 0, "{what}");
    }

    /// Listing × table, every way a listing can move between two
    /// rounds, against the serial oracle after every round: arrivals,
    /// departures, both at once, an empty listing, an only-main
    /// process, a tid that leaves and comes back (the same task while
    /// its track is still in the dead tail, after it was evicted, or a
    /// recycled id with a new `starttime` — also without ever leaving
    /// the listing), tids arriving below the ones held, reads that
    /// fail into quarantine or race an exit, shed rounds, the process
    /// itself exiting; with the delta gate on and off.
    #[test]
    fn join_matches_the_serial_oracle_under_seeded_listing_churn() {
        let pid: Pid = 1000;
        let mut met = [0u32; 11];
        let (mut quarantines, mut reprobes) = (0u64, 0u64);
        for seed in 0..24u64 {
            let mut rng = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let mut src = Scripted::new(pid, seed);
            src.io_spells = 6;
            src.vanish_spells = 4;
            src.main_parked = seed % 4 < 2;
            let (mut sampled, mut serial) = scripted_pair(pid, seed % 2 == 0, 3);
            let mut next_tid: Tid = pid + 1;
            // Tids that left, with the `starttime` they left with.
            let mut left: Vec<(Tid, u64)> = Vec::new();
            let rounds = 40u64;
            for r in 0..rounds {
                let held = src.listing.clone().unwrap_or_default();
                let mut now: Vec<Tid> = Vec::new();
                let mode = next() % 12;
                match mode {
                    0 => met[0] += 1, // empty listing
                    1 => {
                        met[1] += 1; // only the main thread
                        now.push(pid);
                    }
                    _ => {
                        now.push(pid);
                        // Mode 2 replaces every worker at once.
                        for &tid in held.iter().filter(|&&t| t != pid) {
                            if mode != 2 && next() % 5 != 0 {
                                now.push(tid);
                            }
                        }
                        for _ in 0..next() % 4 + u64::from(mode == 2) * 3 {
                            match next() % 6 {
                                // Back from the dead tail (or from beyond it).
                                0 | 1 if !left.is_empty() => {
                                    let (tid, born) =
                                        left.swap_remove(next() as usize % left.len());
                                    if !now.contains(&tid) {
                                        let recycled = next() % 2 == 0;
                                        met[2 + usize::from(recycled)] += 1;
                                        src.born.insert(tid, born + u64::from(recycled) * (r + 1));
                                        now.push(tid);
                                    }
                                }
                                // Ids wrapped around: below everything held.
                                2 => {
                                    let tid = 2 + (next() % 900) as Tid;
                                    if !now.contains(&tid) {
                                        met[4] += 1;
                                        src.born.insert(tid, 10 + r);
                                        now.push(tid);
                                    }
                                }
                                _ => {
                                    src.born.insert(next_tid, 10 + r);
                                    now.push(next_tid);
                                    next_tid += 1;
                                }
                            }
                        }
                        // Recycled between two listings that both show it.
                        if let Some(&tid) =
                            now.get(1).filter(|t| held.contains(t) && next() % 4 == 0)
                        {
                            met[5] += 1;
                            *src.born.entry(tid).or_default() += 1_000;
                        }
                    }
                }
                now.sort_unstable();
                for tid in held.iter().filter(|t| !now.contains(t)) {
                    left.push((*tid, src.born.get(tid).copied().unwrap_or(0)));
                }
                // The last rounds of every third seed: the process exits.
                src.listing = (seed % 3 != 0 || r + 3 < rounds).then_some(now);
                met[6] += u32::from(src.listing.is_none());
                // An overrun now and then: the round after it is shed.
                let overrun = next() % 9 == 0;
                met[7] += u32::from(overrun);
                let cost_us = if overrun { 600_000 } else { 5_000 };
                scripted_round(
                    &mut src,
                    &mut sampled,
                    &mut serial,
                    cost_us,
                    &format!("seed {seed}"),
                );
            }
            let w = &sampled.processes()[0];
            assert_eq!(w.gone, seed % 3 == 0);
            // The gate is never armed for the main thread: every round
            // that listed it has its RSS, parked or not.
            let rss: Vec<u64> = w.rss_series.iter().map(|&(_, kib)| kib).collect();
            assert!(rss.windows(2).all(|w| w[0] < w[1]), "seed {seed}: {rss:?}");
            met[8] += u32::from(w.lwps.departed().tracks > 0);
            let health = sampled.health_total();
            met[9] += u32::from(health.quarantine_events > 0);
            met[10] += u32::from(sampled.stats.delta_hits > 0);
            (quarantines, reprobes) = (
                quarantines + health.quarantine_events,
                reprobes + health.reprobes,
            );
        }
        // Empty, only-main, back, recycled, wrapped, recycled in place,
        // gone, shed; seeds that evicted, quarantined, hit the gate.
        assert!(
            met.iter().all(|&n| n >= 5),
            "a case hardly came up: {met:?}"
        );
        assert!(
            quarantines > 0 && reprobes > 0,
            "{quarantines} quarantine(s), {reprobes} re-probe(s)"
        );
    }

    /// The join at the width of a node-filling OpenMP process: 2 048
    /// threads, one in seven exiting every round and as many arriving,
    /// spells of failing reads holding some in quarantine, a shed round
    /// in the middle — row for row and series for series what the
    /// serial oracle (a scan per task, a search per entry) arrives at.
    #[test]
    fn join_at_2048_threads_matches_the_serial_oracle_round_for_round() {
        let pid: Pid = 5000;
        let mut src = Scripted::new(pid, 77);
        src.io_spells = 5;
        src.vanish_spells = 1;
        let (mut sampled, mut serial) = scripted_pair(pid, true, 512);
        let mut next_tid: Tid = pid + 1;
        let mut listing = vec![pid];
        for _ in 0..2048 {
            listing.push(next_tid);
            next_tid += 1;
        }
        for r in 0..9u64 {
            let before = listing.len();
            listing.retain(|&tid| tid == pid || !mix(r, u64::from(tid), 7).is_multiple_of(7));
            for _ in listing.len()..before {
                listing.push(next_tid);
                next_tid += 1;
            }
            for &tid in &listing {
                src.born.entry(tid).or_insert(10 + r);
            }
            src.listing = Some(listing.clone());
            let cost_us = if r == 4 { 600_000 } else { 5_000 };
            scripted_round(&mut src, &mut sampled, &mut serial, cost_us, "2048 threads");
        }
        let w = &sampled.processes()[0];
        assert_eq!(w.health.rows.len(), 2049);
        assert_eq!(sampled.governor.shed_rounds, 1);
        assert!(w.health.quarantined_now() > 0);
        assert!(w.lwps.departed().tracks > 1_000, "the dead tail was cut");
        assert!(sampled.stats.delta_hits > 2_000);
    }

    #[test]
    fn assignment_groups_by_first_allowed_cpu() {
        let mut mon = Monitor::new(ZeroSumConfig::default());
        for (pid, cpu) in [(101u32, 3u32), (102, 0), (103, 2), (104, 1)] {
            mon.watch_process(ProcessInfo {
                pid,
                rank: None,
                hostname: "n".into(),
                gpus: vec![],
                cpus_allowed: CpuSet::single(cpu),
            });
        }
        let (mut assign, mut order) = (Vec::new(), Vec::new());
        build_assignment(mon.processes(), &mut assign, &mut order, 2);
        // CPU order: 102(0), 104(1), 103(2), 101(3) -> halves.
        assert_eq!(assign, vec![1, 0, 1, 0]);
        // Deterministic: a rebuild yields the same partition.
        let snapshot = assign.clone();
        build_assignment(mon.processes(), &mut assign, &mut order, 2);
        assert_eq!(assign, snapshot);
    }

    /// `rounds` rounds of the long-lived node (every missing sample is
    /// the faults', not a process exit's) on three inline shards, one
    /// rank each, shard `i`'s reads through `plan(i)`; `i == 3` is the
    /// driver's node-scope source.
    fn run_faulty(rounds: u64, plan: impl Fn(usize) -> FaultPlan) -> Monitor {
        let (sim, pids) = build_sim_with(9_000_000);
        let sim = Arc::new(TrackedRw::new("core.shard.source", sim));
        let mut sharded = ShardedMonitor::new(monitor_for(&pids), 3, ShardMode::Inline);
        let sim_for_sources = Arc::clone(&sim);
        sharded.run_rounds(
            move |i| FaultyShardSource {
                inner: SimShardSource::new(Arc::clone(&sim_for_sources)),
                injector: FaultInjector::new(plan(i)),
            },
            rounds,
            |r| {
                let mut g = sim.write().unwrap_or_else(PoisonError::into_inner);
                g.run_for(400_000);
                (r + 1) as f64
            },
        );
        sharded.into_monitor()
    }

    /// A fault on one shard moves no other shard: a panic costs its own
    /// watches one round, and a rate of failing and torn `stat` /
    /// `status` reads leaves the peers bit-identical to a fault-free
    /// run, with clean ledgers, no restart and every round complete.
    #[test]
    fn shard_faults_are_isolated_to_their_own_watches() {
        // Shard 1's very first read panics.
        let rounds = 3u64;
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mon = run_faulty(rounds, |i| FaultPlan {
            seed: 7,
            scripted: if i == 1 {
                vec![ScriptedFault {
                    call: 1,
                    kind: FaultKind::Panic,
                }]
            } else {
                vec![]
            },
            ..Default::default()
        });
        std::panic::set_hook(prev);
        // Exactly one batch panicked, exactly one gap recorded.
        assert_eq!(mon.supervisor.restarts, 1);
        assert_eq!(mon.supervisor.gap_times_s.as_slice(), [1.0]);
        assert_eq!(mon.stats.rounds, rounds);
        // The panicked shard's watch lost one round; the others did not.
        let lens: Vec<usize> = mon
            .processes()
            .iter()
            .map(|w| w.lwps.track(w.info.pid).map_or(0, |t| t.samples.len()))
            .collect();
        assert_eq!(lens, [3, 2, 3], "one watch sampled one round less");

        // Shard 1's task reads fail (`Io`, retried) or tear (`Malformed`).
        let rounds = 6u64;
        let quiet = |i: usize| FaultPlan::quiet(0xC5A05 + i as u64);
        let rates = FaultRates {
            io_transient: 0.35,
            malformed: 0.05,
            ..FaultRates::default()
        };
        let clean = run_faulty(rounds, quiet);
        let faulted = run_faulty(rounds, |i| {
            let mut plan = quiet(i);
            if i == 1 {
                plan.per_op = vec![(Op::TaskStat, rates), (Op::TaskStatus, rates)];
            }
            plan
        });
        let errors = |w: &ProcessWatch| w.health.ledger.errors_by_kind.iter().sum::<u64>();
        assert_eq!(clean.health_total().errors_by_kind.iter().sum::<u64>(), 0);
        assert_eq!(faulted.stats.rounds, rounds, "every round completed");
        assert_eq!(faulted.supervisor.restarts, 0);
        let victim = faulted.processes()[1].info.pid;
        assert!(
            errors(&faulted.processes()[1]) > 0,
            "the faults never fired"
        );
        let (want, got) = (
            crate::feed::snapshot_of(&clean),
            crate::feed::snapshot_of(&faulted),
        );
        let peers = |s: &crate::feed::SampleSnapshot| -> Vec<crate::feed::ProcessSnapshot> {
            s.processes
                .iter()
                .filter(|p| p.pid != victim)
                .cloned()
                .collect()
        };
        assert_eq!(peers(&got).len(), 2);
        assert_eq!(
            peers(&got),
            peers(&want),
            "a peer moved under shard 1's faults"
        );
        for w in faulted.processes().iter().filter(|w| w.info.pid != victim) {
            assert_eq!(errors(w), 0, "peer {} took shard 1's faults", w.info.pid);
        }
    }
}
