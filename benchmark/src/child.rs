//! One workload in one fresh process: set-up, the timed window, the
//! exit path, the correctness gate.
//!
//! The driver (`driver.rs`) starts this process and times it from
//! outside until it prints `READY` — process start to first timed
//! round — so `setup_s` includes what a user pays: exec, scenario
//! build, thread spawn, socket bind and handshake, warm-up. The peak
//! RSS read at exit is this process's alone.

use crate::alloc_count;
use crate::estimate::{
    percentile_sorted, quiet, relative, tail_percentile, Segment, Tail, MIN_BEYOND,
};
use crate::json::Value;
use crate::layers::{derive, TracedRun};
use crate::trace::{Aggregates, Tracer};
use crate::workloads::{
    build, AllocBlock, ExitPath, ExportTimes, FinishCtx, Finished, Workload, EXIT_PATH_MIN_PASSES,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Line the child prints when set-up and warm-up are done.
pub const READY: &str = "READY";
/// Prefix of the child's result line.
pub const RESULT: &str = "RESULT ";

/// What the child was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildArgs {
    /// Workload name.
    pub workload: String,
    /// Run seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Stop after `READY` (a set-up sample).
    pub setup_only: bool,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Where results, traces and scratch files go.
    pub out_dir: PathBuf,
}

/// Fewest segments a window may hold for a quiet selection to mean
/// anything, however short `--seconds` is. A traced window's exact
/// counts are those of its first `MIN_SEGMENTS` segments: the same
/// rounds in every run, however many more the host let through.
const MIN_SEGMENTS: usize = 200;
/// Fewest round latencies a tail is taken from.
const MIN_LATENCY_POOL: usize = 2 * MIN_BEYOND + 1;
/// Round latencies and segments one window can hold. Both buffers are
/// touched in full before the window opens, so the peak RSS does not
/// depend on how many rounds the host let through; a window that fills
/// one of them ends early (on the reference host the busiest loop,
/// `sim_serial_busy`, completes up to 128 000 rounds in a 16 s window).
const MAX_ROUNDS: usize = 192 * 1024;
const MAX_SEGMENTS: usize = 8 * 1024;
/// Rounds whose spans the trace file keeps in full.
const TRACE_FULL_ROUNDS: u32 = 64;
/// Span buffer size (the widest round, sharded, records ~800 spans).
const TRACE_SPAN_CAPACITY: usize = 64 * 1024;
/// Share of `--seconds` a traced run spends in its untraced baseline
/// window; the traced window gets the rest.
const TRACED_BASELINE_SHARE: f64 = 0.25;

/// On-CPU nanoseconds of the calling thread, from its own `schedstat`.
fn thread_cpu_ns() -> Result<u64, String> {
    let path = "/proc/thread-self/schedstat";
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| format!("{path}: unexpected content {text:?}"))
}

/// `VmHWM` of this process, KiB.
fn vm_hwm_kib() -> Result<f64, String> {
    let path = "/proc/self/status";
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// One timed window: its segments and every round's latency, in
/// segment order (`starts[i]` is segment `i`'s first index into
/// `round_ns`).
#[derive(Debug)]
struct Window {
    segments: Vec<Segment>,
    starts: Vec<usize>,
    round_ns: Vec<u32>,
    /// Share of the window's wall time the driving thread was on a CPU,
    /// from its own `schedstat`.
    on_cpu_share: f64,
    /// The tracer's totals after the first [`MIN_SEGMENTS`] segments.
    head: Option<Aggregates>,
}

/// What a window measured over its quiet segments (see `estimate.rs`).
#[derive(Debug, Clone, Copy)]
struct Quiet {
    segments: usize,
    /// Work per second inside the rounds.
    rate: f64,
    /// On-CPU µs of the driving thread per round.
    cpu_us_per_round: f64,
    p50_us: f64,
    samples: usize,
    tail: Option<Tail>,
}

impl Window {
    /// Buffers touched in full (a non-zero fill: zeroed pages stay
    /// unmapped until written), then emptied.
    fn new() -> Window {
        let mut win = Window {
            segments: vec![
                Segment {
                    rounds: 1,
                    ..Segment::default()
                };
                MAX_SEGMENTS
            ],
            starts: vec![1; MAX_SEGMENTS],
            round_ns: vec![1; MAX_ROUNDS],
            on_cpu_share: 1.0,
            head: None,
        };
        win.segments.clear();
        win.starts.clear();
        win.round_ns.clear();
        win
    }

    fn rounds(&self) -> u64 {
        self.segments.iter().map(|s| s.rounds).sum()
    }

    /// Pools the quiet segments (see `estimate.rs`). A segment that a
    /// host hiccup made 10 % dearer is not quiet, so the tail reported
    /// is the code's and the kernel's own, not the neighbours'. Classes
    /// weigh in equally — by the mean of their quiet segments — however
    /// many of each the host let through.
    fn quiet(&self) -> Result<Quiet, String> {
        let costs: Vec<f64> = self.segments.iter().map(Segment::cost).collect();
        let rel = relative(&costs, |i| self.segments.get(i).map_or(0, |s| s.class));
        let samples_of = |i: usize| {
            let end = self
                .starts
                .get(i + 1)
                .copied()
                .unwrap_or(self.round_ns.len());
            self.starts.get(i).map_or(0..0, |&start| start..end)
        };
        let keep = quiet(&rel, |i| samples_of(i).len(), MIN_LATENCY_POOL);
        // Per class: sums over its quiet segments, and their number.
        let mut classes: BTreeMap<u32, (Segment, f64)> = BTreeMap::new();
        let mut pooled: Vec<f64> = Vec::new();
        for &i in &keep {
            let Some(seg) = self.segments.get(i) else {
                continue;
            };
            let (sum, n) = classes.entry(seg.class).or_default();
            sum.rounds += seg.rounds;
            sum.work += seg.work;
            sum.busy_ns += seg.busy_ns;
            sum.wall_ns += seg.wall_ns;
            *n += 1.0;
            let rounds = self.round_ns.get(samples_of(i)).unwrap_or(&[]);
            pooled.extend(rounds.iter().map(|&ns| f64::from(ns) / 1e3));
        }
        if classes.len() > 1 {
            // One latency per class, so that the tail is always the
            // same percentile of the same population, however many
            // repetitions of which class were quiet.
            pooled.clear();
            pooled.extend(
                classes
                    .values()
                    .map(|(sum, _)| sum.busy_ns as f64 / 1e3 / sum.rounds.max(1) as f64),
            );
        }
        pooled.sort_by(f64::total_cmp);
        let total = |f: fn(&Segment) -> u64| -> f64 {
            classes.values().map(|(sum, n)| f(sum) as f64 / n).sum()
        };
        let rounds = total(|s| s.rounds).max(1.0);
        Ok(Quiet {
            segments: keep.len(),
            rate: total(|s| s.work) / (total(|s| s.busy_ns) / 1e9),
            cpu_us_per_round: total(|s| s.wall_ns) / 1e3 / rounds * self.on_cpu_share,
            p50_us: percentile_sorted(&pooled, 0.5).ok_or("no rounds were timed")?,
            samples: pooled.len(),
            tail: tail_percentile(&pooled, 0.99),
        })
    }
}

/// Runs segments of `w` until `seconds` of wall time have passed (or a
/// buffer is full), and between them — whenever the window owes one and
/// the workload's rings are full — a pass of the exit path into
/// `scratch`.
fn run_window(
    w: &mut dyn Workload,
    seconds: f64,
    exit_path: &mut ExitPath,
    scratch: &Path,
    tracer: Option<&Tracer>,
) -> Result<Window, String> {
    let mut win = Window::new();
    let limit = Duration::from_secs_f64(seconds);
    let cpu0 = thread_cpu_ns()?;
    let start = Instant::now();
    let mut widest = 0;
    while (start.elapsed() < limit || win.segments.len() < MIN_SEGMENTS)
        && win.segments.len() < MAX_SEGMENTS
        && win.round_ns.len() + widest <= MAX_ROUNDS
    {
        if exit_path.due(start.elapsed()) {
            if let Some(monitors) = w.exit_monitors() {
                exit_path.pass(&monitors, scratch)?;
            }
        }
        let first = win.round_ns.len();
        win.starts.push(first);
        let t0 = Instant::now();
        let count = w.segment(&mut win.round_ns)?;
        let wall_ns = t0.elapsed().as_nanos() as u64;
        widest = widest.max(win.round_ns.len() - first);
        win.segments.push(Segment {
            rounds: count.rounds,
            work: count.work,
            busy_ns: count.busy_ns,
            wall_ns,
            class: count.class,
        });
        if win.segments.len() == MIN_SEGMENTS {
            win.head = tracer.map(Tracer::aggregates);
        }
    }
    // `schedstat` advances by scheduler ticks (4 ms here): exact enough
    // across a window, useless across a segment.
    let wall_ns = start.elapsed().as_nanos() as f64;
    let cpu_ns = thread_cpu_ns()?.saturating_sub(cpu0) as f64;
    win.on_cpu_share = (cpu_ns / wall_ns).min(1.0);
    Ok(win)
}

/// Runs the child; returns the result object it printed.
pub fn run(args: &ChildArgs) -> Result<(), String> {
    let tracer = args.traced.then(|| {
        Tracer::new(
            Tracer::calibrate(50_000),
            TRACE_FULL_ROUNDS,
            TRACE_SPAN_CAPACITY,
        )
    });
    if args.traced && alloc_count::snapshot().0 == 0 {
        return Err("a traced run needs the zsbench-traced binary (counting allocator)".into());
    }
    let scratch = args.out_dir.join(format!("scratch-{}", std::process::id()));
    let mut exit_path = ExitPath::default();
    // A traced run first measures an untraced window of the same
    // binary, on a workload of its own, for `trace.overhead_pct`.
    let baseline = match &tracer {
        Some(_) => {
            let mut plain = build(&args.workload, args.seed, None)?;
            plain.top_up()?;
            let seconds = args.seconds * TRACED_BASELINE_SHARE;
            Some(run_window(
                plain.as_mut(),
                seconds,
                &mut exit_path,
                &scratch,
                None,
            )?)
        }
        None => None,
    };
    let mut w = build(&args.workload, args.seed, tracer.as_ref())?;
    if let Some(t) = &tracer {
        t.reset();
    }
    println!("{READY}");
    if args.setup_only {
        return Ok(());
    }
    let seconds = match baseline {
        Some(_) => args.seconds * (1.0 - TRACED_BASELINE_SHARE),
        None => args.seconds,
    };
    // Full rings first: from here they are full again every half
    // capacity of rounds, which is when the exit path is measured.
    w.top_up()?;
    let win = run_window(
        w.as_mut(),
        seconds,
        &mut exit_path,
        &scratch,
        tracer.as_ref(),
    )?;
    let aggs = tracer.as_ref().map(Tracer::aggregates);
    let source_layer = w.source_layer();
    w.top_up()?;
    while exit_path.passes() < EXIT_PATH_MIN_PASSES {
        let monitors = w.exit_monitors().ok_or("rings not full after the top-up")?;
        exit_path.pass(&monitors, &scratch)?;
    }
    let export = exit_path.times();
    let allocs = if args.traced {
        w.alloc_block()?
    } else {
        AllocBlock::default()
    };
    let finished = w.finish(&FinishCtx {
        scratch: scratch.clone(),
        traced: args.traced,
    });
    // Best effort: the scratch logs have been checked already.
    let _ = std::fs::remove_dir_all(&scratch);
    let finished = finished?;
    // Read before the estimators below allocate their pools, whose size
    // follows how much of the window the host left quiet.
    let peak_rss_kib = vm_hwm_kib()?;

    let q = win.quiet()?;
    let mut fields = vec![
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::Num(args.seed as f64)),
        ("rounds", Value::Num(win.rounds() as f64)),
        ("segments", Value::Num(win.segments.len() as f64)),
        ("quiet_segments", Value::Num(q.segments as f64)),
        ("latency_samples", Value::Num(q.samples as f64)),
    ];
    let metrics: Vec<(String, Value)> = match (&tracer, aggs, win.head, baseline) {
        (Some(t), Some(aggs), Some(head), Some(base)) => {
            let values = derive(&TracedRun {
                aggs,
                head,
                source_layer,
                finished: &finished,
                export,
                allocs,
                traced_p50_us: q.p50_us,
                untraced_p50_us: base.quiet()?.p50_us,
            });
            let coverage = values
                .iter()
                .find(|(n, _)| *n == "trace.coverage_pct")
                .map_or(0.0, |(_, v)| *v);
            if coverage < 90.0 {
                return Err(format!(
                    "trace.coverage_pct = {coverage:.1}: layer self times do not add up to the round"
                ));
            }
            let file = args
                .out_dir
                .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
            write_file(&file, &t.chrome_trace(source_layer)?)?;
            fields.push(("trace_file", Value::Str(file.display().to_string())));
            values
                .into_iter()
                .map(|(n, v)| (n.to_string(), Value::Num(v)))
                .collect()
        }
        _ => end_to_end(&q, &export, peak_rss_kib, &mut fields)?
            .into_iter()
            .map(|(n, v)| (n.to_string(), Value::Num(v)))
            .collect(),
    };
    fields.extend(outcome_fields(&finished));
    fields.push(("metrics", Value::Obj(metrics)));
    println!("{RESULT}{}", Value::obj(fields).to_json()?);
    Ok(())
}

/// The end-to-end metrics this process can measure itself (`setup_s`
/// is the driver's).
fn end_to_end(
    q: &Quiet,
    export: &ExportTimes,
    peak_rss_kib: f64,
    fields: &mut Vec<(&'static str, Value)>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let tail = q
        .tail
        .ok_or("too few quiet rounds in the window to report a tail latency")?;
    fields.push(("tail_percentile", Value::Num(tail.percentile)));
    fields.push(("tail_beyond", Value::Num(tail.beyond as f64)));
    let values = vec![
        ("task_samples_per_s", q.rate),
        ("round_p50_us", q.p50_us),
        ("round_p99_us", tail.value),
        ("live_cpu_us_per_round", q.cpu_us_per_round),
        ("export_ms", export.total_ms),
        ("peak_rss_kib", peak_rss_kib),
    ];
    for (name, v) in &values {
        if !(v.is_finite() && *v > 0.0) {
            return Err(format!("{name} measured {v}: the workload did not run"));
        }
    }
    Ok(values)
}

fn outcome_fields(f: &Finished) -> Vec<(&'static str, Value)> {
    let checks = f
        .checks
        .iter()
        .map(|c| {
            Value::obj([
                ("name", Value::Str(c.name.into())),
                ("ok", Value::Bool(c.ok)),
                ("detail", Value::Str(c.detail.clone())),
            ])
        })
        .collect();
    vec![
        (
            "correct",
            Value::Bool(f.failed == 0 && f.checks.iter().all(|c| c.ok)),
        ),
        ("attempted", Value::Num(f.attempted as f64)),
        ("failed", Value::Num(f.failed as f64)),
        ("checks", Value::Arr(checks)),
    ]
}

/// Writes `text` to `path`, creating its directory.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}
