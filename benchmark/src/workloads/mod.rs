//! The six workloads and what they share.
//!
//! Every workload is a closed loop driven by one thread: the next round
//! starts when the previous one returns. A workload runs in fixed-count
//! *segments*; the runner keeps starting segments until `--seconds` of
//! wall time have passed, so per-round counts compare exactly between
//! commits while the window length is the benchmark's to choose.

pub mod churn;
pub mod live;
pub mod sim_serial;
pub mod sim_sharded;
pub mod wire;

use crate::estimate::quiet_mean;
use crate::replay;
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use zerosum_core::export::{self, LOG_END_MARKER};
use zerosum_core::{render_process_report, Monitor, NodeAggregate, ProcessInfo, ZeroSumConfig};
use zerosum_proc::Pid;
use zerosum_sched::{Behavior, NodeSim, SchedParams};
use zerosum_topology::{presets, CpuSet};

/// Rounds and work units one segment completed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentCount {
    /// Rounds completed.
    pub rounds: u64,
    /// Task samples observed (on the wire: detail frames delivered
    /// and folded).
    pub work: u64,
    /// Wall nanoseconds inside the timed rounds.
    pub busy_ns: u64,
    /// Segments of one class do the same work on the same inputs; the
    /// steady workloads have one class.
    pub class: u32,
}

/// Exact allocation counts over a fixed block of steady-state rounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocBlock {
    /// Rounds in the block.
    pub rounds: u64,
    /// Work units in the block (frames on the wire, tasks otherwise).
    pub work: u64,
    /// Allocations inside the product calls of the block.
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub bytes: u64,
}

/// One named correctness check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The observed values, for the report.
    pub detail: String,
}

impl Check {
    /// A check that `ok` holds, with the observed values as detail.
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name,
            ok,
            detail: detail.into(),
        }
    }
}

/// Wall time of the exit path, split by layer; every figure is a sum
/// of per-call quiet means (see [`ExitPath`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExportTimes {
    /// Everything: reports + CSVs + the log writes.
    pub total_ms: f64,
    /// `render_process_report` for every watch.
    pub render_ms: f64,
    /// The four CSV renderers, per row rendered.
    pub csv_ns_per_row: f64,
    /// What `export::write_logs` does, per process: `log_content` +
    /// `atomic_write` into the scratch directory.
    pub write_logs_ms: f64,
    /// `NodeAggregate::from_monitor`.
    pub aggregate_ns: f64,
}

/// What a workload hands back when its window is over.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Finished {
    /// Operations attempted (task reads; on the wire, frames sent).
    pub attempted: u64,
    /// Operations failed (sampling errors + supervisor restarts +
    /// quarantine events; on the wire, frames sent and not folded +
    /// decode errors).
    pub failed: u64,
    /// Correctness checks, all of which must hold.
    pub checks: Vec<Check>,
    /// Tasks (or frames) one round covers.
    pub work_per_round: u64,
    /// Workload-specific layer values: exact counters, and in the
    /// traced run the standalone replays.
    pub layer: Vec<(&'static str, f64)>,
    /// Mean bytes of one `stat`, `status`, `schedstat` and `/proc/stat`
    /// text (traced node workloads; zeros otherwise).
    pub text_bytes: [f64; 4],
}

/// Where a workload may write, and how much it should measure.
#[derive(Debug, Clone)]
pub struct FinishCtx {
    /// Scratch directory inside the checkout, removed afterwards.
    pub scratch: PathBuf,
    /// Whether this is the traced run (informative extras are measured).
    pub traced: bool,
}

/// One benchmark workload.
pub trait Workload {
    /// Layer that owns this workload's `Src*` spans.
    fn source_layer(&self) -> &'static str;

    /// Runs one fixed-count segment of timed rounds, appending each
    /// round's wall ns to `round_ns`. A workload built with a tracer
    /// wraps every call into a product layer in a span here (and only
    /// here: warm-up, top-up and allocation rounds stay untraced).
    fn segment(&mut self, round_ns: &mut Vec<u32>) -> Result<SegmentCount, String>;

    /// Untimed rounds until every series ring is full, so the exit
    /// path and the peak RSS do not depend on where in a ring's 2:1
    /// downsampling cycle the timed window happened to stop.
    fn top_up(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// The monitors whose logs a job would write at exit, when their
    /// series rings are exactly full — the one state that recurs, so
    /// that two passes of the exit path cost the same. `None` in
    /// between.
    fn exit_monitors(&self) -> Option<Vec<&Monitor>>;

    /// A fixed block of steady-state rounds with the allocation
    /// counters read around the product calls only.
    fn alloc_block(&mut self) -> Result<AllocBlock, String>;

    /// Correctness checks, the exit path, and the exact counters.
    fn finish(self: Box<Self>, ctx: &FinishCtx) -> Result<Finished, String>;
}

/// Names of the workloads, in the order a full run interleaves them.
pub const NAMES: [&str; 6] = [
    "sim_serial_busy",
    "sim_sharded_wide",
    "live_procfs_busy",
    "live_procfs_idle",
    "churn_open",
    "wire_tcp",
];

/// Builds (sets up and warms up) workload `name` from `seed`. With a
/// tracer the workload's timed segments record spans into it.
pub fn build(name: &str, seed: u64, tracer: Option<&Tracer>) -> Result<Box<dyn Workload>, String> {
    let t = tracer.cloned();
    match name {
        "sim_serial_busy" => Ok(Box::new(sim_serial::SimSerial::setup(seed, t)?)),
        "sim_sharded_wide" => Ok(Box::new(sim_sharded::SimSharded::setup(seed, t)?)),
        "live_procfs_busy" => Ok(Box::new(live::Live::setup(false, t)?)),
        "live_procfs_idle" => Ok(Box::new(live::Live::setup(true, t)?)),
        "churn_open" => Ok(Box::new(churn::Churn::setup(seed, t)?)),
        "wire_tcp" => match t {
            None => Ok(Box::new(wire::Wire::setup(seed)?)),
            Some(t) => Ok(Box::new(wire::Wire::setup_traced(seed, t)?)),
        },
        other => Err(format!(
            "unknown workload {other:?}; expected one of {NAMES:?}"
        )),
    }
}

/// Rounds every workload runs before its timed window opens: the first
/// rounds of a fresh monitor grow the LWP tables and scratch buffers.
/// Few, so that a set-up is short enough to meet a quiet gap of the
/// host; a round that is still warming up is not a quiet one.
pub const WARMUP_ROUNDS: u64 = 16;

/// Series capacity of the four node workloads' monitors. The default
/// (4 096) holds more rounds than the slowest loop completes in a
/// window, and a ring that never fills makes the peak RSS and the exit
/// path a function of how many rounds happened to fit; at the default
/// the exit path also takes seconds (tens of MB of CSV per rank) and
/// its single calls hundreds of milliseconds, far too long to meet a
/// quiet gap of the host. At 32 every ring wraps hundreds of times in
/// any window and the longest exit-path call (one rank's log over 128
/// hardware threads) takes ~2 ms; at 64 it took ~4 ms and, on the
/// workload with most such calls (`sim_sharded_wide`), found no quiet
/// gap in three windows of ten (`export_ms` 25-55 % off).
pub const SERIES_CAPACITY: usize = 32;

/// The node workloads' configuration: the defaults but for the series
/// capacity and, on `live_procfs_busy`, delta sampling.
pub fn node_config(delta_sampling: bool) -> ZeroSumConfig {
    ZeroSumConfig::default()
        .with_delta_sampling(delta_sampling)
        .with_series_capacity(SERIES_CAPACITY)
}

/// Rounds in an [`AllocBlock`].
pub const ALLOC_BLOCK_ROUNDS: u64 = 64;

/// Virtual µs the simulated node advances between rounds.
pub const SIM_STEP_US: u64 = 10_000;

/// Observation time of simulated round `round`, seconds.
pub fn sim_time_s(round: u64) -> f64 {
    round as f64 * (SIM_STEP_US as f64 / 1e6)
}

/// splitmix64: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The simulated population: `procs` ranks × `threads` always-dispatched
/// compute threads on the Frontier preset, every rank watched — the
/// scenario `zerosum bench` uses for `samples_per_sec` (4 × 8) and
/// `sharded_samples_per_sec` (8 × 32), seeded from the run.
pub fn frontier_scenario(
    procs: u32,
    threads: u32,
    seed: u64,
    config: ZeroSumConfig,
) -> (NodeSim, Monitor, Vec<Pid>) {
    // Ten virtual hours: no thread may finish inside any window.
    let busy = || Behavior::FiniteCompute {
        remaining_us: 36_000_000_000,
        chunk_us: 10_000,
    };
    let mut sim = NodeSim::new(
        presets::frontier(),
        SchedParams {
            seed,
            ..SchedParams::default()
        },
    );
    let mut monitor = Monitor::new(config);
    let mut pids = Vec::new();
    for p in 0..procs {
        let base = p * 16;
        let mask = CpuSet::from_indices(base..base + 16);
        let pid = sim.spawn_process("bench", mask.clone(), 200_000, busy());
        for w in 1..threads {
            sim.spawn_task(pid, &format!("worker{w}"), None, busy(), false);
        }
        monitor.watch_process(ProcessInfo {
            pid,
            rank: Some(p),
            hostname: "bench".into(),
            gpus: vec![],
            cpus_allowed: mask,
        });
        pids.push(pid);
    }
    (sim, monitor, pids)
}

/// Rounds still to run until a series ring of capacity `cap` that has
/// seen `pushed` pushes is exactly full. A full ring halves on the next
/// push and refills over the following `cap / 2` pushes.
pub fn rounds_until_ring_full(pushed: u64, cap: u64) -> u64 {
    if cap < 2 || pushed <= cap {
        return cap.saturating_sub(pushed);
    }
    let period = cap / 2;
    (period - (pushed - cap) % period) % period
}

/// Checks that every watch of `monitor` tracked exactly
/// `tasks_per_watch` live LWPs, each sampled in all `rounds` rounds, and
/// that sampling saw no error, restart or quarantine. Returns the
/// checks plus `(attempted, failed)`.
pub fn check_monitor(
    monitor: &Monitor,
    rounds: u64,
    tasks_per_watch: usize,
) -> (Vec<Check>, u64, u64) {
    let mut short = Vec::new();
    let mut tracked = 0usize;
    for w in monitor.processes() {
        let live: Vec<_> = w.lwps.tracks().filter(|t| !t.exited).collect();
        tracked += live.len();
        if live.len() != tasks_per_watch {
            short.push(format!("pid {}: {} live tracks", w.info.pid, live.len()));
        }
        for t in live {
            if t.samples.total_pushed() != rounds {
                short.push(format!(
                    "tid {}: {} samples",
                    t.tid,
                    t.samples.total_pushed()
                ));
            }
        }
    }
    short.truncate(4);
    let quarantines = monitor.health_total().quarantine_events;
    let failed = monitor.stats.errors + monitor.supervisor.restarts + quarantines;
    let checks = vec![
        Check::new(
            "every watched tid sampled in every round",
            short.is_empty() && monitor.stats.rounds == rounds,
            format!(
                "{tracked} tracks x {rounds} rounds (monitor counted {}) {}",
                monitor.stats.rounds,
                short.join("; ")
            ),
        ),
        Check::new(
            "no sampling error, supervisor restart or quarantine",
            failed == 0,
            format!(
                "errors={} restarts={} quarantines={quarantines}",
                monitor.stats.errors, monitor.supervisor.restarts
            ),
        ),
    ];
    (checks, rounds * tracked as u64, failed)
}

/// The exact counters every node workload reports from its monitor.
pub fn monitor_counters(m: &Monitor) -> Vec<(&'static str, f64)> {
    let tracks: usize = m.processes().iter().map(|w| w.lwps.len()).sum();
    let departed: u64 = m.processes().iter().map(|w| w.lwps.departed().tracks).sum();
    let task_reads = m.stats.rounds.max(1) as f64 * tracks.max(1) as f64;
    vec![
        ("core.health.errors", m.stats.errors as f64),
        (
            "core.monitor.supervisor_restarts",
            m.supervisor.restarts as f64,
        ),
        ("core.monitor.vanished", m.stats.vanished as f64),
        ("core.monitor.shed_rounds", m.governor.shed_rounds as f64),
        (
            "core.monitor.governor_changes",
            m.governor.changes.len() as f64,
        ),
        (
            "core.monitor.delta_hit_pct",
            m.stats.delta_hits as f64 / task_reads * 100.0,
        ),
        ("core.lwp.tracks_retained", tracks as f64),
        ("core.lwp.tracks_departed", departed as f64),
    ]
}

/// The traced run's standalone replays over a node workload's corpus:
/// parsers (the `fast` forms for the sharded engine), renderer, arena
/// and the `stats` containers. Returns the values and the mean text
/// bytes for [`Finished::text_bytes`].
pub fn node_replays(c: &replay::Corpus, fast: bool) -> (Vec<(&'static str, f64)>, [f64; 4]) {
    let mut layer = replay::parsers(c, fast);
    layer.extend(replay::render(c));
    if fast {
        layer.extend(replay::arena(c));
    }
    layer.extend(replay::stats_containers());
    let (stat, status, schedstat) = c.mean_bytes();
    (layer, [stat, status, schedstat, c.system_stat.len() as f64])
}

/// Section headers of the paper's Listing 2 every report must carry.
const LISTING2_HEADERS: [&str; 4] = [
    "Duration of execution:",
    "Process Summary:",
    "LWP (thread) Summary:",
    "Hardware Summary:",
];

/// Share of a window spent measuring the exit path: one pass at a time,
/// spread over the whole window so that every one of its calls meets a
/// quiet gap of the host in some pass.
const EXIT_PATH_SHARE: f64 = 1.0 / 6.0;
/// Fewest passes a result may rest on.
pub const EXIT_PATH_MIN_PASSES: u32 = 12;

/// The cost a job pays at exit: `render_process_report` for every
/// watch, the four CSV renderers, the per-process `log_content` +
/// `atomic_write` that `write_logs` is made of, and the node aggregate.
/// A whole exit path is too long to fit into a quiet gap of the host,
/// so every call is timed on its own, pass after pass, and `export_ms`
/// is the sum of the calls' quiet means (see `estimate.rs`).
#[derive(Debug, Default)]
pub struct ExitPath {
    /// Per kind of call: its samples, one list per call site of a pass.
    render: Vec<Vec<f64>>,
    csv: Vec<Vec<f64>>,
    write: Vec<Vec<f64>>,
    aggregate: Vec<Vec<f64>>,
    rows: u64,
    passes: u32,
    spent: Duration,
}

/// Times one call of the exit path: appends its wall ns to the call's
/// sample list (`calls[*next]`, in call order within a pass).
fn timed_call<R>(calls: &mut Vec<Vec<f64>>, next: &mut usize, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    let ns = t0.elapsed().as_nanos() as f64;
    if calls.len() <= *next {
        calls.push(Vec::new());
    }
    if let Some(samples) = calls.get_mut(*next) {
        samples.push(ns);
    }
    *next += 1;
    r
}

impl ExitPath {
    /// Passes taken so far.
    pub fn passes(&self) -> u32 {
        self.passes
    }

    /// Whether a window that has run for `elapsed` owes a pass.
    pub fn due(&self, elapsed: Duration) -> bool {
        self.spent.as_secs_f64() <= elapsed.as_secs_f64() * EXIT_PATH_SHARE
    }

    /// One pass over `monitors`, writing into `dir`. Two passes cost
    /// the same only over series rings equally full: see
    /// [`Workload::exit_monitors`].
    pub fn pass(&mut self, monitors: &[&Monitor], dir: &Path) -> Result<(), String> {
        let started = Instant::now();
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let (mut r, mut c, mut w, mut a) = (0, 0, 0, 0);
        self.rows = 0;
        for (i, m) in monitors.iter().enumerate() {
            let duration_s = m.last_t_s;
            let reports: Vec<(Pid, String)> = m
                .processes()
                .iter()
                .map(|watch| {
                    let pid = watch.info.pid;
                    let report = timed_call(&mut self.render, &mut r, || {
                        render_process_report(m, pid, duration_s, None)
                    });
                    (pid, report)
                })
                .collect();
            let mut rows = 0;
            let mut count = |text: String| rows += text.lines().count() as u64;
            for watch in m.processes() {
                count(timed_call(&mut self.csv, &mut c, || export::lwp_csv(watch)));
            }
            count(timed_call(&mut self.csv, &mut c, || export::hwt_csv(m)));
            count(timed_call(&mut self.csv, &mut c, || export::memory_csv(m)));
            count(timed_call(&mut self.csv, &mut c, || export::health_csv(m)));
            self.rows += rows;
            for (pid, report) in &reports {
                let mut content = timed_call(&mut self.write, &mut w, || {
                    export::log_content(m, *pid, duration_s, report)
                });
                content.push_str(LOG_END_MARKER);
                content.push('\n');
                let path = dir.join(format!("piece.{i}.{pid}.log"));
                timed_call(&mut self.write, &mut w, || {
                    export::atomic_write(&path, &content)
                })
                .map_err(|e| format!("{}: {e}", path.display()))?;
                // A job writes its logs once: every pass must create
                // the file, not replace the previous pass's.
                std::fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            }
            std::hint::black_box(timed_call(&mut self.aggregate, &mut a, || {
                NodeAggregate::from_monitor("bench", m)
            }));
        }
        self.passes += 1;
        self.spent += started.elapsed();
        Ok(())
    }

    /// The quiet cost of one pass, split by layer.
    pub fn times(&self) -> ExportTimes {
        let sum_ns = |calls: &[Vec<f64>]| calls.iter().filter_map(|s| quiet_mean(s)).sum::<f64>();
        let (render_ns, csv_ns, write_ns) =
            (sum_ns(&self.render), sum_ns(&self.csv), sum_ns(&self.write));
        ExportTimes {
            total_ms: (render_ns + csv_ns + write_ns) / 1e6,
            render_ms: render_ns / 1e6,
            csv_ns_per_row: csv_ns / self.rows.max(1) as f64,
            write_logs_ms: write_ns / 1e6,
            aggregate_ns: sum_ns(&self.aggregate) / self.aggregate.len().max(1) as f64,
        }
    }
}

/// One real `write_logs` per monitor into `dir`, and the output check:
/// Listing-2 headers present, END marker last.
pub fn check_logs(monitors: &[&Monitor], dir: &Path) -> Result<Check, String> {
    let mut logs_ok = true;
    let mut detail = String::new();
    for (i, m) in monitors.iter().enumerate() {
        let node_dir = dir.join(format!("node{i}"));
        let paths = export::write_logs(m, &node_dir, m.last_t_s, |pid| {
            render_process_report(m, pid, m.last_t_s, None)
        })
        .map_err(|e| format!("write_logs into {}: {e}", node_dir.display()))?;
        logs_ok &= paths.len() == m.processes().len();
        for p in &paths {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            logs_ok &= LISTING2_HEADERS.iter().all(|h| text.contains(h))
                && text.trim_end().ends_with(LOG_END_MARKER);
            detail = format!("{} logs, last {} bytes", paths.len(), text.len());
        }
    }
    Ok(Check::new(
        "exported logs carry the Listing-2 sections and end with the END marker",
        logs_ok,
        detail,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerosum_stats::Ring;

    #[test]
    fn ring_top_up_matches_the_real_ring() {
        for cap in [2u64, 8, 9, 64] {
            let mut ring: Ring<u64> = Ring::with_capacity(cap as usize);
            for pushed in 0..(5 * cap) {
                let need = rounds_until_ring_full(pushed, cap);
                let mut probe = ring.clone();
                for i in 0..need {
                    assert!(
                        (probe.len() as u64) < cap || i == 0 && need == 0,
                        "cap {cap} pushed {pushed}: full before the top-up ended"
                    );
                    probe.push(0);
                }
                assert_eq!(
                    probe.len() as u64,
                    cap,
                    "cap {cap} pushed {pushed} need {need}"
                );
                ring.push(pushed);
            }
        }
    }

    #[test]
    fn sub_seeds_differ_and_repeat() {
        assert_eq!(mix(11, 3), mix(11, 3));
        assert_ne!(mix(11, 3), mix(11, 4));
        assert_ne!(mix(11, 3), mix(12, 3));
    }

    #[test]
    fn scenario_population_matches_its_size() {
        let (sim, monitor, pids) = frontier_scenario(2, 3, 7, ZeroSumConfig::default());
        assert_eq!(pids.len(), 2);
        assert_eq!(monitor.processes().len(), 2);
        for pid in pids {
            assert_eq!(sim.process(pid).map(|p| p.tasks.len()), Some(3));
        }
    }
}
