//! Outside-in tracing: spans recorded by the benchmark's own adapters
//! around every call into a product layer.
//!
//! Nothing here is compiled into the product. The three adapters —
//! [`TimedSource`], [`TimedShardSource`], [`TimedLink`] — forward every
//! call to the wrapped source or link and record a span (name, start,
//! end, parent, round id). A layer's self time is its span minus the
//! part its child spans cover. Spans of the first rounds are kept in
//! full for the Chrome/Perfetto trace file; every span is folded into
//! per-name aggregates, so memory stays bounded however long the window.
//! After construction nothing here allocates, which keeps the traced
//! binary's allocation counts attributable to the product.

use crate::json::Value;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use zerosum_core::ShardSource;
use zerosum_net::{Link, SendStatus, TransportError};
use zerosum_proc::{
    ArenaSpan, MemInfo, Pid, ProcSource, ReadArena, SchedStat, SourceResult, SystemStat, TaskStat,
    TaskStatus, Tid,
};

/// What a span covers. `Src*` spans belong to whichever source layer
/// the workload samples (`procfs.linux` live, `sched.proc_source` sim).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One whole round, as the workload defines it.
    Round,
    /// `Monitor::sample`.
    MonitorSample,
    /// One round inside `ShardedMonitor::run_rounds`.
    ShardRound,
    /// `NodeSim::run_for` between rounds.
    SimAdvance,
    /// `ProcSource::system_stat_into`.
    SrcSystemStat,
    /// `ProcSource::meminfo`.
    SrcMeminfo,
    /// `ProcSource::list_tasks_into`.
    SrcListTasks,
    /// `ProcSource::task_schedstat`.
    SrcSchedstat,
    /// `ProcSource::task_stat_into`.
    SrcStat,
    /// `ProcSource::task_status_into`.
    SrcStatus,
    /// `ProcSource::task_stat_text` (arena form).
    SrcStatText,
    /// `ProcSource::task_status_text` (arena form).
    SrcStatusText,
    /// `NodeAgent::begin_round`.
    AgentBeginRound,
    /// `NodeAgent::send_detail`.
    AgentSendDetail,
    /// `NodeAgent::finish`.
    AgentFinish,
    /// `NodeAgent::tick`.
    AgentTick,
    /// `Collector::run_round`.
    CollectorRunRound,
    /// `Collector::pump_frames` (extra pumps of the closed loop).
    CollectorPump,
    /// `Collector::render_summary`.
    CollectorRenderSummary,
    /// `Link::send_bytes`.
    LinkSend,
    /// `Link::recv_bytes`.
    LinkRecv,
    /// `Link::tick`.
    LinkTick,
    /// `experiments::churn::run_sim_churn`.
    ChurnSoak,
}

impl Kind {
    /// Every kind, in aggregate-index order.
    pub const ALL: [Kind; 23] = [
        Kind::Round,
        Kind::MonitorSample,
        Kind::ShardRound,
        Kind::SimAdvance,
        Kind::SrcSystemStat,
        Kind::SrcMeminfo,
        Kind::SrcListTasks,
        Kind::SrcSchedstat,
        Kind::SrcStat,
        Kind::SrcStatus,
        Kind::SrcStatText,
        Kind::SrcStatusText,
        Kind::AgentBeginRound,
        Kind::AgentSendDetail,
        Kind::AgentFinish,
        Kind::AgentTick,
        Kind::CollectorRunRound,
        Kind::CollectorPump,
        Kind::CollectorRenderSummary,
        Kind::LinkSend,
        Kind::LinkRecv,
        Kind::LinkTick,
        Kind::ChurnSoak,
    ];

    /// The source-call kinds.
    pub const SOURCE: [Kind; 8] = [
        Kind::SrcSystemStat,
        Kind::SrcMeminfo,
        Kind::SrcListTasks,
        Kind::SrcSchedstat,
        Kind::SrcStat,
        Kind::SrcStatus,
        Kind::SrcStatText,
        Kind::SrcStatusText,
    ];

    fn index(self) -> usize {
        self as usize
    }

    /// `(layer, operation)`; the layer of a source call is `"source"`
    /// until the trace writer substitutes the workload's source layer.
    pub fn name(self) -> (&'static str, &'static str) {
        match self {
            Kind::Round => ("bench", "round"),
            Kind::MonitorSample => ("core.monitor", "sample"),
            Kind::ShardRound => ("core.shard", "round"),
            Kind::SimAdvance => ("sched.node", "run_for"),
            Kind::SrcSystemStat => ("source", "system_stat"),
            Kind::SrcMeminfo => ("source", "meminfo"),
            Kind::SrcListTasks => ("source", "list_tasks"),
            Kind::SrcSchedstat => ("source", "task_schedstat"),
            Kind::SrcStat => ("source", "task_stat"),
            Kind::SrcStatus => ("source", "task_status"),
            Kind::SrcStatText => ("source", "task_stat_text"),
            Kind::SrcStatusText => ("source", "task_status_text"),
            Kind::AgentBeginRound => ("net.agent", "begin_round"),
            Kind::AgentSendDetail => ("net.agent", "send_detail"),
            Kind::AgentFinish => ("net.agent", "finish"),
            Kind::AgentTick => ("net.agent", "tick"),
            Kind::CollectorRunRound => ("net.collector", "run_round"),
            Kind::CollectorPump => ("net.collector", "pump_frames"),
            Kind::CollectorRenderSummary => ("net.collector", "render_summary"),
            Kind::LinkSend => ("net.tcp", "send_bytes"),
            Kind::LinkRecv => ("net.tcp", "recv_bytes"),
            Kind::LinkTick => ("net.tcp", "tick"),
            Kind::ChurnSoak => ("experiments.churn", "run_sim_churn"),
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What it covers.
    pub kind: Kind,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Sequential id.
    pub id: u32,
    /// Id of the span that caused it; `u32::MAX` for a root.
    pub parent: u32,
    /// Round id shared by every span of one round.
    pub round: u32,
}

/// Totals for one [`Kind`] over the whole traced window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Sum of durations, overhead-corrected.
    pub total_ns: u64,
    /// Sum of durations minus child spans, overhead-corrected.
    pub self_ns: u64,
    /// Calls that reported failure (a source `Err`, a `WindowFull`).
    pub flagged: u64,
    /// Payload bytes, where the call reports them.
    pub bytes: u64,
}

/// Per-kind totals copied out of a [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aggregates([Agg; Kind::ALL.len()]);

impl Aggregates {
    /// Totals for `kind`.
    pub fn get(&self, kind: Kind) -> Agg {
        self.0.get(kind.index()).copied().unwrap_or_default()
    }

    /// Sum of the totals of `kinds`.
    pub fn sum(&self, kinds: &[Kind]) -> Agg {
        kinds.iter().fold(Agg::default(), |mut acc, &k| {
            let a = self.get(k);
            acc.count += a.count;
            acc.total_ns += a.total_ns;
            acc.self_ns += a.self_ns;
            acc.flagged += a.flagged;
            acc.bytes += a.bytes;
            acc
        })
    }
}

/// What recording one span costs, measured by [`Tracer::calibrate`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Overhead {
    /// Nanoseconds that land inside the span's own `[start, end]`.
    pub inside_ns: u64,
    /// Nanoseconds that land in the parent's self time.
    pub outside_ns: u64,
}

#[derive(Debug)]
struct Open {
    kind: Kind,
    start_ns: u64,
    child_ns: u64,
    children: u64,
    id: u32,
}

#[derive(Debug)]
struct Inner {
    spans: Vec<Span>,
    agg: [Agg; Kind::ALL.len()],
    stack: Vec<Open>,
    round: u32,
    next_id: u32,
    full_rounds: u32,
}

/// The in-memory span recorder. Cloning shares the buffer (shard
/// sources must be `Send`, so the buffer sits behind a mutex even
/// though every benchmark workload drives it from one thread).
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    overhead: Overhead,
    inner: Arc<Mutex<Inner>>,
}

/// Closes its span on drop, so a panic caught by the sampling
/// supervisor cannot leave the span stack out of step.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    /// Marks the call as failed (see [`Agg::flagged`]).
    pub flagged: bool,
    /// Payload bytes of the call.
    pub bytes: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tracer.close_with(self.flagged, self.bytes);
    }
}

/// Depth bound of the span stack (the deepest real nesting is 4).
const MAX_DEPTH: usize = 16;

impl Tracer {
    /// A tracer keeping the spans of the first `full_rounds` rounds (at
    /// most `span_capacity` of them) for the trace file.
    pub fn new(overhead: Overhead, full_rounds: u32, span_capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            overhead,
            inner: Arc::new(Mutex::new(Inner {
                spans: Vec::with_capacity(span_capacity),
                agg: [Agg::default(); Kind::ALL.len()],
                stack: Vec::with_capacity(MAX_DEPTH),
                round: 0,
                next_id: 0,
                full_rounds,
            })),
        }
    }

    /// Measures the cost of recording one span on this host: `n` empty
    /// spans under one parent, timed from outside.
    pub fn calibrate(n: u32) -> Overhead {
        let t = Tracer::new(Overhead::default(), 0, 0);
        t.open(Kind::Round);
        let t0 = Instant::now();
        for _ in 0..n {
            let _g = t.enter(Kind::LinkTick);
        }
        let full_ns = t0.elapsed().as_nanos() as u64 / u64::from(n.max(1));
        t.close();
        let inside_ns = t.agg(Kind::LinkTick).total_ns / u64::from(n.max(1));
        Overhead {
            inside_ns,
            outside_ns: full_ns.saturating_sub(inside_ns),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // Every update leaves the counters valid at each step, so a
        // poisoned buffer is still a usable buffer.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; pair with [`Tracer::close`]. Use [`Tracer::enter`]
    /// where a scope exists.
    pub fn open(&self, kind: Kind) {
        let mut g = self.lock();
        let id = g.next_id;
        g.next_id = g.next_id.wrapping_add(1);
        if g.stack.len() < MAX_DEPTH {
            // Clock read last, so lock and bookkeeping stay outside.
            let start_ns = self.now_ns();
            g.stack.push(Open {
                kind,
                start_ns,
                child_ns: 0,
                children: 0,
                id,
            });
        }
    }

    /// Closes the innermost open span.
    pub fn close(&self) {
        self.close_with(false, 0);
    }

    fn close_with(&self, flagged: bool, bytes: u64) {
        let end_ns = self.now_ns();
        let mut g = self.lock();
        let Some(open) = g.stack.pop() else {
            return;
        };
        let raw = end_ns.saturating_sub(open.start_ns);
        let dur = raw.saturating_sub(self.overhead.inside_ns);
        let self_ns = dur
            .saturating_sub(open.child_ns)
            .saturating_sub(open.children * self.overhead.outside_ns);
        let parent = match g.stack.last_mut() {
            Some(p) => {
                p.child_ns += raw;
                p.children += 1;
                p.id
            }
            None => u32::MAX,
        };
        let round = g.round;
        if let Some(a) = g.agg.get_mut(open.kind.index()) {
            a.count += 1;
            a.total_ns += dur;
            a.self_ns += self_ns;
            a.flagged += u64::from(flagged);
            a.bytes += bytes;
        }
        if round < g.full_rounds && g.spans.len() < g.spans.capacity() {
            g.spans.push(Span {
                kind: open.kind,
                start_ns: open.start_ns,
                end_ns,
                id: open.id,
                parent,
                round,
            });
        }
    }

    /// Opens a span closed when the guard drops.
    pub fn enter(&self, kind: Kind) -> SpanGuard<'_> {
        self.open(kind);
        SpanGuard {
            tracer: self,
            flagged: false,
            bytes: 0,
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&self, kind: Kind, f: impl FnOnce() -> R) -> R {
        let _g = self.enter(kind);
        f()
    }

    /// Starts the next round id.
    pub fn next_round(&self) {
        let mut g = self.lock();
        g.round = g.round.wrapping_add(1);
    }

    /// A copy of the per-kind totals so far.
    pub fn aggregates(&self) -> Aggregates {
        Aggregates(self.lock().agg)
    }

    /// Totals for `kind`.
    pub fn agg(&self, kind: Kind) -> Agg {
        self.aggregates().get(kind)
    }

    /// Forgets everything recorded so far (set-up and warm-up traffic
    /// of adapters that are always on) and restarts the round ids.
    pub fn reset(&self) {
        let mut g = self.lock();
        g.spans.clear();
        g.agg = [Agg::default(); Kind::ALL.len()];
        g.round = 0;
    }

    /// The kept spans, in close order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Chrome/Perfetto trace-event JSON of the kept spans.
    /// `source_layer` names the layer of the `Src*` spans.
    pub fn chrome_trace(&self, source_layer: &str) -> Result<String, String> {
        let events: Vec<Value> = self
            .spans()
            .iter()
            .map(|s| {
                let (layer, op) = s.kind.name();
                let layer = if layer == "source" {
                    source_layer
                } else {
                    layer
                };
                Value::obj([
                    ("name", Value::Str(format!("{layer}.{op}"))),
                    ("cat", Value::Str(layer.to_string())),
                    ("ph", Value::Str("X".into())),
                    ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Value::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Value::Num(1.0)),
                    ("tid", Value::Num(1.0)),
                    (
                        "args",
                        Value::obj([
                            ("id", Value::Num(f64::from(s.id))),
                            (
                                "parent",
                                if s.parent == u32::MAX {
                                    Value::Null
                                } else {
                                    Value::Num(f64::from(s.parent))
                                },
                            ),
                            ("round", Value::Num(f64::from(s.round))),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::obj([
            ("displayTimeUnit", Value::Str("ns".into())),
            ("traceEvents", Value::Arr(events)),
        ])
        .to_json()
    }
}

/// Runs `f` inside a span of `tracer` when there is one.
pub fn maybe_span<R>(tracer: Option<&Tracer>, kind: Kind, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(kind, f),
        None => f(),
    }
}

/// A [`ProcSource`] that forwards every call to `inner` and records a
/// span around it.
pub struct TimedSource<'a, S: ProcSource + ?Sized> {
    inner: &'a S,
    tracer: &'a Tracer,
}

impl<'a, S: ProcSource + ?Sized> TimedSource<'a, S> {
    /// Wraps `inner`.
    pub fn new(inner: &'a S, tracer: &'a Tracer) -> Self {
        TimedSource { inner, tracer }
    }

    fn timed<T>(&self, kind: Kind, f: impl FnOnce(&S) -> SourceResult<T>) -> SourceResult<T> {
        let mut g = self.tracer.enter(kind);
        let r = f(self.inner);
        g.flagged = r.is_err();
        r
    }

    fn timed_text(
        &self,
        kind: Kind,
        f: impl FnOnce(&S) -> SourceResult<ArenaSpan>,
    ) -> SourceResult<ArenaSpan> {
        let mut g = self.tracer.enter(kind);
        let r = f(self.inner);
        match &r {
            Ok(span) => g.bytes = span.len() as u64,
            Err(_) => g.flagged = true,
        }
        r
    }
}

impl<S: ProcSource + ?Sized> ProcSource for TimedSource<'_, S> {
    fn system_stat(&self) -> SourceResult<SystemStat> {
        self.timed(Kind::SrcSystemStat, |s| s.system_stat())
    }
    fn meminfo(&self) -> SourceResult<MemInfo> {
        self.timed(Kind::SrcMeminfo, |s| s.meminfo())
    }
    fn list_tasks(&self, pid: Pid) -> SourceResult<Vec<Tid>> {
        self.timed(Kind::SrcListTasks, |s| s.list_tasks(pid))
    }
    fn task_stat(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStat> {
        self.timed(Kind::SrcStat, |s| s.task_stat(pid, tid))
    }
    fn task_status(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStatus> {
        self.timed(Kind::SrcStatus, |s| s.task_status(pid, tid))
    }
    fn task_schedstat(&self, pid: Pid, tid: Tid) -> SourceResult<SchedStat> {
        self.timed(Kind::SrcSchedstat, |s| s.task_schedstat(pid, tid))
    }
    fn process_status(&self, pid: Pid) -> SourceResult<TaskStatus> {
        self.timed(Kind::SrcStatus, |s| s.process_status(pid))
    }
    fn system_stat_into(&self, out: &mut SystemStat) -> SourceResult<()> {
        self.timed(Kind::SrcSystemStat, |s| s.system_stat_into(out))
    }
    fn list_tasks_into(&self, pid: Pid, out: &mut Vec<Tid>) -> SourceResult<()> {
        self.timed(Kind::SrcListTasks, |s| s.list_tasks_into(pid, out))
    }
    fn task_stat_into(&self, pid: Pid, tid: Tid, out: &mut TaskStat) -> SourceResult<()> {
        self.timed(Kind::SrcStat, |s| s.task_stat_into(pid, tid, out))
    }
    fn task_status_into(&self, pid: Pid, tid: Tid, out: &mut TaskStatus) -> SourceResult<()> {
        self.timed(Kind::SrcStatus, |s| s.task_status_into(pid, tid, out))
    }
    fn task_stat_text(&self, pid: Pid, tid: Tid, arena: &mut ReadArena) -> SourceResult<ArenaSpan> {
        self.timed_text(Kind::SrcStatText, |s| s.task_stat_text(pid, tid, arena))
    }
    fn task_status_text(
        &self,
        pid: Pid,
        tid: Tid,
        arena: &mut ReadArena,
    ) -> SourceResult<ArenaSpan> {
        self.timed_text(Kind::SrcStatusText, |s| s.task_status_text(pid, tid, arena))
    }
}

/// A [`ShardSource`] whose every borrowed view is a [`TimedSource`].
#[derive(Debug)]
pub struct TimedShardSource<S: ShardSource> {
    inner: S,
    tracer: Tracer,
}

impl<S: ShardSource> TimedShardSource<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, tracer: Tracer) -> Self {
        TimedShardSource { inner, tracer }
    }
}

impl<S: ShardSource> ShardSource for TimedShardSource<S> {
    fn with_source<R>(&mut self, f: impl FnOnce(&dyn ProcSource) -> R) -> R {
        let TimedShardSource { inner, tracer } = self;
        inner.with_source(|src| f(&TimedSource::new(src, tracer)))
    }
}

/// Frames captured off a link for the codec replay.
pub type Captured = Arc<Mutex<Vec<Vec<u8>>>>;

/// A [`Link`] that forwards every call to `inner` and records a span
/// around it; optionally copies the first frames sent for the replay.
#[derive(Debug)]
pub struct TimedLink<L: Link> {
    inner: L,
    tracer: Tracer,
    capture: Option<Captured>,
    capture_left: usize,
}

impl<L: Link> TimedLink<L> {
    /// Wraps `inner` without capturing frames.
    pub fn new(inner: L, tracer: Tracer) -> Self {
        TimedLink {
            inner,
            tracer,
            capture: None,
            capture_left: 0,
        }
    }

    /// Wraps `inner`, copying the first `frames` frames sent into
    /// `into`. Copying allocates, so size `frames` to end inside the
    /// warm-up, before allocation counting starts.
    pub fn capturing(inner: L, tracer: Tracer, into: Captured, frames: usize) -> Self {
        TimedLink {
            inner,
            tracer,
            capture: Some(into),
            capture_left: frames,
        }
    }
}

impl<L: Link> Link for TimedLink<L> {
    fn send_bytes(&mut self, frame: &[u8]) -> Result<SendStatus, TransportError> {
        if self.capture_left > 0 {
            if let Some(c) = &self.capture {
                c.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(frame.to_vec());
            }
            self.capture_left -= 1;
        }
        let mut g = self.tracer.enter(Kind::LinkSend);
        let r = self.inner.send_bytes(frame);
        match &r {
            Ok(SendStatus::Sent) => g.bytes = frame.len() as u64,
            Ok(SendStatus::WindowFull) | Err(_) => g.flagged = true,
        }
        r
    }

    fn recv_bytes(&mut self, buf: &mut Vec<u8>) -> Result<usize, TransportError> {
        let mut g = self.tracer.enter(Kind::LinkRecv);
        let r = self.inner.recv_bytes(buf);
        match &r {
            Ok(n) => g.bytes = *n as u64,
            Err(_) => g.flagged = true,
        }
        r
    }

    fn tick(&mut self) {
        let _g = self.tracer.enter(Kind::LinkTick);
        self.inner.tick();
    }

    fn is_connected(&self) -> bool {
        self.inner.is_connected()
    }

    fn connect(&mut self) -> Result<(), TransportError> {
        self.inner.connect()
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t0 = Instant::now();
        while (t0.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_span_minus_children_and_parents_link_up() {
        let t = Tracer::new(Overhead::default(), 1, 16);
        {
            let _round = t.enter(Kind::Round);
            spin(200_000);
            t.span(Kind::MonitorSample, || {
                spin(300_000);
                t.span(Kind::SrcStat, || spin(400_000));
            });
        }
        let (round, sample, stat) = (
            t.agg(Kind::Round),
            t.agg(Kind::MonitorSample),
            t.agg(Kind::SrcStat),
        );
        assert_eq!((round.count, sample.count, stat.count), (1, 1, 1));
        assert_eq!(stat.self_ns, stat.total_ns, "a leaf is all self time");
        assert!(round.total_ns >= sample.total_ns && sample.total_ns >= stat.total_ns);
        assert!(sample.self_ns >= 300_000 && sample.self_ns < sample.total_ns);
        assert_eq!(sample.self_ns, sample.total_ns - stat.total_ns);
        // Layer self times add up to the round: nothing counted twice.
        assert_eq!(
            round.self_ns + sample.self_ns + stat.self_ns,
            round.total_ns
        );
        let spans = t.spans();
        assert_eq!(spans.len(), 3, "closed innermost first");
        assert_eq!(spans[0].kind, Kind::SrcStat);
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!(spans[1].parent, spans[2].id);
        assert_eq!(spans[2].parent, u32::MAX);
        assert!(spans.iter().all(|s| s.round == 0));
    }

    #[test]
    fn only_the_first_rounds_are_kept_but_everything_is_aggregated() {
        let t = Tracer::new(Overhead::default(), 2, 8);
        for _ in 0..5 {
            t.span(Kind::Round, || {});
            t.next_round();
        }
        assert_eq!(t.agg(Kind::Round).count, 5);
        assert_eq!(t.spans().len(), 2);
        let json = t.chrome_trace("procfs.linux").unwrap();
        let v = crate::json::parse(&json).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("bench.round"));
    }

    #[test]
    fn a_guard_dropped_by_unwinding_still_closes_its_span() {
        let t = Tracer::new(Overhead::default(), 0, 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = t.enter(Kind::SrcStat);
            std::panic::resume_unwind(Box::new("boom"));
        }));
        assert!(r.is_err());
        t.span(Kind::Round, || {});
        assert_eq!(t.agg(Kind::SrcStat).count, 1);
        assert_eq!(t.agg(Kind::Round).count, 1);
    }

    #[test]
    fn calibration_is_small_and_splits_inside_from_outside() {
        let o = Tracer::calibrate(20_000);
        assert!(
            o.inside_ns + o.outside_ns < 20_000,
            "a span costs well under 20 µs: {o:?}"
        );
    }

    #[test]
    fn source_kinds_cover_every_source_span() {
        for k in Kind::ALL {
            assert_eq!(k.name().0 == "source", Kind::SOURCE.contains(&k), "{k:?}");
            assert_eq!(Kind::ALL[k.index()], k);
        }
    }
}
