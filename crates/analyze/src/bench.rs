//! `zerosum bench` — the performance regression gate.
//!
//! Measures the four throughput figures the fast-path work targets and
//! renders them as hand-rolled JSON (no dependencies) so CI can diff a
//! run against a committed baseline:
//!
//! * `samples_per_sec` — task samples `Monitor::sample` (the sampling
//!   engine at one inline shard) completes per wall second against the
//!   simulated `/proc` (zero-alloc arena reads plus delta sampling).
//! * `sim_us_per_wall_ms` — virtual microseconds the bare scheduler
//!   substrate advances per wall millisecond (event-driven skip-ahead).
//! * `parse_mb_per_sec` — procfs text parsed per wall second through the
//!   borrowed-view parsers.
//! * `monitor_overhead_pct` — the §4.1 miniQMC reproduction: virtual-time
//!   overhead of a monitored run over the unmonitored baseline. This one
//!   is computed in virtual time, so it is deterministic.
//! * `net_frames_per_sec` — wire frames pushed through a full
//!   encode-then-decode round trip per wall second (mixed tag batch).
//! * `collector_round_us` — wall microseconds one collector round
//!   (`pump_frames` + `run_round`) costs over an 8-node in-process
//!   cluster with heartbeats and LWP details in flight.
//! * `sharded_samples_per_sec` — task samples per wall second through
//!   the sharded ingestion engine (`ShardedMonitor`, 4 shards) at its
//!   design point of 256 watched tasks, where the per-round fixed
//!   cost is amortized. The acceptance bar is ≥2× `samples_per_sec`.
//! * `round_p99_us` — 99th-percentile wall microseconds of one sharded
//!   sampling round (tail latency of the ingestion pipeline; the sim
//!   advance between rounds is excluded from the timed window).
//! * `churn_samples_per_sec_r{25,50,100}` — task samples per wall
//!   second through the deterministic open-system churn soak at three
//!   arrival rates (25/50/100 Hz against a 20 Hz sampling period). The
//!   curve is the lifecycle hot path under load: every round pays task
//!   arrival, departure sweeping, exited-track compaction, and
//!   starttime-keyed registry churn on top of plain sampling. A
//!   regression at the high rate with the low rate flat means the
//!   lifecycle machinery (not the samplers) got slower.
//!
//! A fifth, ungated figure (`faultwrap_overhead_pct`) records what the
//! chaos layer's pass-through wrapper adds to fault-free sampling; the
//! `<5%` contract is enforced by a unit test, not the CI gate, because
//! the quantity is a small difference of two wall times.
//!
//! Wall-clock metrics use a best-of-N loop (the minimum is the least
//! noisy location estimator for a contended CI host); the gate then
//! allows `--max-regress` percent on top of that.

use std::path::Path;
use std::sync::{Arc, PoisonError};
use std::time::Instant;
use zerosum_core::{
    Monitor, NodeAggregate, ProcessInfo, ShardMode, ShardedMonitor, SimShardSource, TrackedRw,
    ZeroSumConfig,
};
use zerosum_net::{decode_frame, encode_frame, in_proc_pair, Collector, Frame, NodeAgent};
use zerosum_proc::fault::{FaultInjector, FaultPlan};
use zerosum_proc::{format, parse, CpuTimes, SystemStat, TaskStat, TaskStatus};
use zerosum_sched::{Behavior, NodeSim, SchedParams, SimProcSource};
use zerosum_topology::{presets, CpuSet};

/// One measured figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable identifier used to match baseline entries.
    pub key: String,
    /// Measured value.
    pub value: f64,
    /// Human-readable unit.
    pub unit: String,
    /// Direction of goodness (determines the sign of a regression).
    pub higher_is_better: bool,
    /// Whether [`check`] compares this metric against the baseline.
    /// Ungated metrics are recorded for trend-watching only.
    pub gated: bool,
}

/// A full bench run (or a parsed baseline file).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchReport {
    /// The measured metrics, in presentation order.
    pub metrics: Vec<Metric>,
}

impl BenchReport {
    /// Looks up a metric by key.
    pub fn get(&self, key: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.key == key)
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::from("benchmark results:\n");
        for m in &self.metrics {
            let dir = if m.higher_is_better { "↑" } else { "↓" };
            let gate = if m.gated { "" } else { "  (ungated)" };
            out.push_str(&format!(
                "  {:<24} {:>14.3} {} {}{}\n",
                m.key, m.value, m.unit, dir, gate
            ));
        }
        out
    }

    /// Serializes to the committed-baseline JSON format.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": 1,\n  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"key\": \"{}\", \"value\": {:.4}, \"unit\": \"{}\", \"higher_is_better\": {}, \"gated\": {}}}{}\n",
                m.key,
                m.value,
                m.unit,
                m.higher_is_better,
                m.gated,
                if i + 1 < self.metrics.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses the format written by [`Self::to_json`]. Hand-rolled for
    /// exactly that shape (one object per metric), but defensive about
    /// everything a hand-edited or truncated baseline can contain:
    /// braces and escapes inside strings, objects cut off mid-field, and
    /// non-finite values all come back as errors, never panics.
    pub fn from_json(text: &str) -> Result<Self, String> {
        // Byte offset of the first `}` outside a string literal, so a
        // `}` inside a unit string cannot truncate the object.
        fn object_end(s: &str) -> Option<usize> {
            let (mut in_str, mut esc) = (false, false);
            for (i, c) in s.char_indices() {
                if esc {
                    esc = false;
                    continue;
                }
                match c {
                    '\\' if in_str => esc = true,
                    '"' => in_str = !in_str,
                    '}' if !in_str => return Some(i),
                    _ => {}
                }
            }
            None
        }
        fn str_field(obj: &str, name: &str) -> Result<String, String> {
            let tag = format!("\"{name}\": \"");
            let start = obj
                .find(&tag)
                .ok_or_else(|| format!("missing field {name:?}"))?
                + tag.len();
            let mut esc = false;
            for (i, c) in obj[start..].char_indices() {
                if esc {
                    esc = false;
                    continue;
                }
                match c {
                    '\\' => esc = true,
                    '"' => return Ok(obj[start..start + i].to_string()),
                    _ => {}
                }
            }
            Err(format!(
                "unterminated string for {name:?} (truncated file?)"
            ))
        }
        fn raw_field(obj: &str, name: &str) -> Result<String, String> {
            let tag = format!("\"{name}\": ");
            let start = obj
                .find(&tag)
                .ok_or_else(|| format!("missing field {name:?}"))?
                + tag.len();
            let end = obj[start..]
                .find([',', '}'])
                .ok_or_else(|| format!("unterminated value for {name:?}"))?;
            Ok(obj[start..start + end].trim().to_string())
        }
        let mut metrics: Vec<Metric> = Vec::new();
        let mut rest = text;
        while let Some(start) = rest.find("{\"key\":") {
            let end = start
                + object_end(&rest[start..]).ok_or_else(|| {
                    format!(
                        "metric object {} is truncated (no closing brace)",
                        metrics.len() + 1
                    )
                })?;
            let obj = &rest[start..=end];
            let key = str_field(obj, "key")?;
            let value: f64 = raw_field(obj, "value")?
                .parse()
                .map_err(|e| format!("{key}: bad value: {e}"))?;
            if !value.is_finite() {
                return Err(format!("{key}: non-finite value {value}"));
            }
            metrics.push(Metric {
                key,
                value,
                unit: str_field(obj, "unit")?,
                higher_is_better: raw_field(obj, "higher_is_better")? == "true",
                gated: raw_field(obj, "gated")? == "true",
            });
            rest = &rest[end + 1..];
        }
        if metrics.is_empty() {
            return Err("no metrics found (not a bench JSON file?)".into());
        }
        Ok(BenchReport { metrics })
    }
}

/// Percent regression of `cur` against `base` (positive = worse).
fn regression_pct(base: &Metric, cur: &Metric) -> f64 {
    if base.higher_is_better {
        (base.value - cur.value) / base.value.abs().max(1e-9) * 100.0
    } else {
        // Small percentages regress in points, not ratios: a floor on
        // the denominator keeps 0.4% → 0.6% from reading as +50%. At a
        // 15% gate the floor of 5 allows up to 0.75 points of growth.
        (cur.value - base.value) / base.value.abs().max(5.0) * 100.0
    }
}

/// Compares a run against a baseline; returns one failure line per gated
/// metric regressing more than `max_regress_pct`.
pub fn check(current: &BenchReport, baseline: &BenchReport, max_regress_pct: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for base in baseline.metrics.iter().filter(|m| m.gated) {
        let Some(cur) = current.get(&base.key) else {
            failures.push(format!("{}: missing from current run", base.key));
            continue;
        };
        let regress = regression_pct(base, cur);
        if regress > max_regress_pct {
            failures.push(format!(
                "{}: {:.3} -> {:.3} {} ({:+.1}% regression, limit {:.0}%)",
                base.key, base.value, cur.value, cur.unit, regress, max_regress_pct
            ));
        }
    }
    failures
}

/// Side-by-side delta table for two bench files (`bench --compare`).
pub fn compare(a: &BenchReport, b: &BenchReport) -> String {
    let mut out = format!("{:<24} {:>14} {:>14} {:>9}\n", "metric", "A", "B", "delta");
    for ma in &a.metrics {
        match b.get(&ma.key) {
            Some(mb) => {
                let delta = (mb.value - ma.value) / ma.value.abs().max(1e-9) * 100.0;
                let good = if delta >= 0.0 {
                    ma.higher_is_better
                } else {
                    !ma.higher_is_better
                };
                out.push_str(&format!(
                    "{:<24} {:>14.3} {:>14.3} {:>+8.1}% {}\n",
                    ma.key,
                    ma.value,
                    mb.value,
                    delta,
                    if good { "better" } else { "worse" }
                ));
            }
            None => out.push_str(&format!(
                "{:<24} {:>14.3} {:>14} {:>9}\n",
                ma.key, ma.value, "-", "GONE"
            )),
        }
    }
    // Metrics the baseline lacks but the current run has (a freshly
    // added figure) must still show up, not silently vanish.
    for mb in &b.metrics {
        if a.get(&mb.key).is_none() {
            out.push_str(&format!(
                "{:<24} {:>14} {:>14.3} {:>9}\n",
                mb.key, "-", mb.value, "NEW"
            ));
        }
    }
    out
}

/// Builds the sampling micro-scenario: 4 ranks × 8 threads of compute on
/// the Frontier preset, with the monitor watching every rank.
fn sampling_scenario() -> (NodeSim, Monitor, usize) {
    scenario(4, 8)
}

/// Builds the sharded-ingestion scenario: 8 ranks × 32 threads (256
/// watched tasks) on the same preset — the watch count where the
/// per-task marginal cost dominates the round's fixed cost.
fn sharded_scenario() -> (NodeSim, Monitor, usize) {
    scenario(8, 32)
}

fn scenario(procs: u32, threads: u32) -> (NodeSim, Monitor, usize) {
    let topo = presets::frontier();
    let mut sim = NodeSim::new(topo, SchedParams::default());
    let mut monitor = Monitor::new(ZeroSumConfig::default());
    for p in 0..procs {
        let base = p * 16;
        let mask = CpuSet::from_indices(base..base + 16);
        let pid = sim.spawn_process(
            "bench",
            mask.clone(),
            200_000,
            Behavior::FiniteCompute {
                remaining_us: 3_600_000_000,
                chunk_us: 10_000,
            },
        );
        for w in 1..threads {
            sim.spawn_task(
                pid,
                &format!("worker{w}"),
                None,
                Behavior::FiniteCompute {
                    remaining_us: 3_600_000_000,
                    chunk_us: 10_000,
                },
                false,
            );
        }
        monitor.watch_process(ProcessInfo {
            pid,
            rank: Some(p),
            hostname: "bench".into(),
            gpus: vec![],
            cpus_allowed: mask,
        });
    }
    (sim, monitor, (procs * threads) as usize)
}

/// Rounds run before the timed window opens. The first rounds of a
/// fresh monitor grow every ring, LWP table, and series buffer; with
/// them inside the window the quick suite reads systematically slower
/// than the full one (less amortization), so both exclude the same
/// warm-up instead.
const WARMUP_ROUNDS: u32 = 8;

/// Times `rounds` sampling rounds (advancing virtual time between
/// rounds so schedstats move); returns wall seconds spent inside
/// `Monitor::sample` only, steady state ([`WARMUP_ROUNDS`] excluded).
fn time_sampling(rounds: u32, wrap: bool) -> (f64, usize) {
    let (mut sim, mut monitor, ntasks) = sampling_scenario();
    let injector = FaultInjector::new(FaultPlan::quiet(7));
    let mut in_sample = 0.0f64;
    for r in 0..rounds + WARMUP_ROUNDS {
        sim.run_for(10_000);
        let t_s = f64::from(r) * 0.01;
        let src = SimProcSource::new(&sim);
        let t0 = Instant::now();
        if wrap {
            monitor.sample(t_s, &injector.wrap(&src));
        } else {
            monitor.sample(t_s, &src);
        }
        if r >= WARMUP_ROUNDS {
            in_sample += t0.elapsed().as_secs_f64();
        }
    }
    (in_sample, ntasks)
}

/// `samples_per_sec` and `faultwrap_overhead_pct`, best of `reps`.
fn bench_sampling(rounds: u32, reps: u32) -> (f64, f64) {
    let (mut best_plain, mut best_wrapped) = (f64::INFINITY, f64::INFINITY);
    let mut ntasks = 0;
    for _ in 0..reps {
        let (t, n) = time_sampling(rounds, false);
        best_plain = best_plain.min(t);
        ntasks = n;
        let (t, _) = time_sampling(rounds, true);
        best_wrapped = best_wrapped.min(t);
    }
    let samples_per_sec = (rounds as usize * ntasks) as f64 / best_plain;
    let overhead_pct = (best_wrapped / best_plain - 1.0) * 100.0;
    (samples_per_sec, overhead_pct)
}

/// Times `rounds` sharded sampling rounds over the 256-task scenario.
/// Returns (wall seconds inside the rounds, p99 round µs, ntasks).
/// The tick callback advances the sim under the write lock; that span
/// is bracketed out of the timed window so the figure measures the
/// ingestion pipeline (pump + fold), matching what [`time_sampling`]
/// measures for one inline shard.
fn time_sharded(rounds: u32, nshards: usize) -> (f64, f64, usize) {
    let (sim, monitor, ntasks) = sharded_scenario();
    let sim = Arc::new(TrackedRw::new("analyze.bench.shard_sim", sim));
    let mut sharded = ShardedMonitor::new(monitor, nshards, ShardMode::Inline);
    let total = rounds + WARMUP_ROUNDS;
    // `pre[r]` is taken when round `r`'s tick begins (ending round
    // `r-1`'s timed window); `post[r]` when it ends (starting round
    // `r`'s window).
    let mut pre: Vec<Instant> = Vec::with_capacity(total as usize);
    let mut post: Vec<Instant> = Vec::with_capacity(total as usize);
    let sim_for_shards = Arc::clone(&sim);
    sharded.run_rounds(
        move |_| SimShardSource::new(Arc::clone(&sim_for_shards)),
        u64::from(total),
        |r| {
            pre.push(Instant::now());
            sim.write()
                .unwrap_or_else(PoisonError::into_inner)
                .run_for(10_000);
            post.push(Instant::now());
            r as f64 * 0.01
        },
    );
    let end = Instant::now();
    let mut in_rounds = 0.0f64;
    let mut durs_us: Vec<f64> = Vec::with_capacity(rounds as usize);
    for (i, start) in post.iter().enumerate().skip(WARMUP_ROUNDS as usize) {
        let stop = pre.get(i + 1).copied().unwrap_or(end);
        let d = stop.duration_since(*start).as_secs_f64();
        in_rounds += d;
        durs_us.push(d * 1e6);
    }
    durs_us.sort_by(f64::total_cmp);
    let idx = ((durs_us.len() as f64 * 0.99).ceil() as usize)
        .saturating_sub(1)
        .min(durs_us.len().saturating_sub(1));
    let p99 = durs_us.get(idx).copied().unwrap_or(0.0);
    (in_rounds, p99, ntasks)
}

/// `sharded_samples_per_sec` and `round_p99_us`, best of `reps`.
fn bench_sharded(rounds: u32, reps: u32, nshards: usize) -> (f64, f64) {
    let (mut best_wall, mut best_p99) = (f64::INFINITY, f64::INFINITY);
    let mut ntasks = 0;
    for _ in 0..reps {
        let (t, p99, n) = time_sharded(rounds, nshards);
        best_wall = best_wall.min(t);
        best_p99 = best_p99.min(p99);
        ntasks = n;
    }
    let samples_per_sec = (rounds as usize * ntasks) as f64 / best_wall;
    (samples_per_sec, best_p99)
}

/// Virtual µs the bare simulator advances per wall ms, best of `reps`.
fn bench_sim_speed(scale: u32, reps: u32) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..reps {
        let topo = presets::frontier();
        let mut sim = NodeSim::new(topo.clone(), SchedParams::default());
        let cfg = zerosum_apps::MiniQmcConfig::frontier_cpu().scaled_down(scale);
        let mut ompt = zerosum_omp::OmptRegistry::new();
        zerosum_apps::launch_miniqmc(&mut sim, &topo, &cfg, &mut ompt).expect("launch");
        let t0 = Instant::now();
        let done = sim
            .run_until_apps_done(200, 3_600_000_000)
            .expect("bench app finishes");
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        best = best.max(done as f64 / wall_ms.max(1e-6));
    }
    best
}

/// Procfs text parsed per wall second through the `_into` parsers, best
/// of `reps` over a rendered Frontier-sized corpus.
fn bench_parse(iters: u32, reps: u32) -> f64 {
    // Render a representative corpus once: one 128-HWT /proc/stat plus
    // 64 task stat and status records.
    let mut sys = SystemStat::default();
    for i in 0..128u64 {
        let t = CpuTimes {
            user: 1_000 + i * 13,
            nice: i,
            system: 500 + i * 7,
            idle: 90_000 + i * 31,
            iowait: i * 3,
            irq: i,
            softirq: i * 2,
            steal: 0,
        };
        sys.total.user += t.user;
        sys.total.idle += t.idle;
        sys.cpus.push((i as u32, t));
    }
    sys.ctxt = 123_456_789;
    sys.processes = 4_242;
    let sys_text = format::format_system_stat(&sys);
    let mut stat_texts = Vec::new();
    let mut status_texts = Vec::new();
    for i in 0..64u64 {
        let st = TaskStat {
            tid: 1000 + i as u32,
            comm: format!("worker{i}"),
            utime: 10_000 + i * 97,
            stime: 2_000 + i * 13,
            minflt: i * 11,
            num_threads: 64,
            processor: (i % 128) as u32,
            ..Default::default()
        };
        stat_texts.push(format::format_task_stat(&st));
        let status = TaskStatus {
            name: format!("worker{i}"),
            tid: 1000 + i as u32,
            tgid: 1000,
            vm_rss_kib: 200_000,
            vm_size_kib: 400_000,
            vm_hwm_kib: 220_000,
            cpus_allowed: CpuSet::from_indices(0..128u32),
            voluntary_ctxt_switches: i * 100,
            nonvoluntary_ctxt_switches: i * 3,
            ..Default::default()
        };
        status_texts.push(format::format_task_status(&status));
    }
    let bytes_per_iter = sys_text.len()
        + stat_texts.iter().map(String::len).sum::<usize>()
        + status_texts.iter().map(String::len).sum::<usize>();
    let mut best = 0.0f64;
    for _ in 0..reps {
        let mut sys_out = SystemStat::default();
        let mut stat_out = TaskStat::default();
        let mut status_out = TaskStatus::default();
        let t0 = Instant::now();
        for _ in 0..iters {
            parse::parse_system_stat_into(&sys_text, &mut sys_out).expect("sys parses");
            for (s, st) in stat_texts.iter().zip(&status_texts) {
                parse::parse_task_stat_into(s.trim_end(), &mut stat_out).expect("stat parses");
                parse::parse_task_status_into(st, &mut status_out).expect("status parses");
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        best = best.max(iters as u64 as f64 * bytes_per_iter as f64 / secs.max(1e-9) / 1e6);
    }
    best
}

/// Task samples per wall second through the deterministic churn soak
/// at one arrival rate, best of `reps`. Virtual-time advance is part of
/// the timed window on purpose: the figure is end-to-end soak
/// throughput, and the sim advance is itself churn work (spawns, exits,
/// pid recycling) proportional to the storm.
fn bench_churn(rate_hz: f64, reps: u32) -> f64 {
    use zerosum_experiments::churn::{run_sim_churn, SimChurnParams};
    let p = SimChurnParams {
        churn: zerosum_apps::churn::ChurnConfig {
            arrival_rate_hz: rate_hz,
            ..Default::default()
        },
        ..SimChurnParams::default()
    };
    let mut best = 0.0f64;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = run_sim_churn(&p);
        let secs = t0.elapsed().as_secs_f64();
        best = best.max(out.task_samples as f64 / secs.max(1e-9));
    }
    best
}

/// Best-of-`reps` wall time of one full `zerosum audit` over the
/// workspace, in milliseconds. The audit runs on every push (CI's
/// audit stage), so its own cost is a gated budget: a quadratic blowup
/// in the call graph or the effect fixpoint fails the bench gate
/// before it makes CI unbearable. Returns 0.0 when no workspace root
/// is locatable (bench invoked from an extracted tarball).
fn bench_audit(reps: usize) -> f64 {
    let Some(root) = crate::lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))) else {
        return 0.0;
    };
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let report = crate::audit::audit_workspace(&root);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if report.is_ok() {
            best = best.min(ms);
        }
    }
    if best.is_finite() {
        best
    } else {
        0.0
    }
}

/// Wire frames encoded *and then* decoded per wall second over a mixed
/// batch (one frame of every tag, strings and f64 bit patterns
/// included), best of `reps`. The codec sits on every collector read
/// and every agent tick, so a per-frame allocation or a quadratic
/// checksum slip shows up here before it shows up as a stalled round.
fn bench_net_frames(iters: u32, reps: u32) -> f64 {
    let batch = vec![
        Frame::Hello {
            hostname: "bench-node".into(),
        },
        Frame::Heartbeat { round: 7, t_s: 0.7 },
        Frame::LwpDetail {
            round: 7,
            tid: 1234,
            busy_pct: 55.25,
        },
        Frame::Aggregate {
            round: 7,
            agg: NodeAggregate {
                hostname: "bench-node".into(),
                ranks: 2,
                lwps: 16,
                mean_user_pct: 91.5,
                mean_idle_pct: 6.5,
                total_nvcsw: 987_654,
                rss_kib: 8_388_608,
            },
        },
        Frame::Ack { round: 7 },
        Frame::Bye,
    ];
    let mut buf: Vec<u8> = Vec::with_capacity(4 * 1024);
    let mut best = 0.0f64;
    for _ in 0..reps {
        let t0 = Instant::now();
        let mut frames = 0u64;
        for _ in 0..iters {
            buf.clear();
            for f in &batch {
                encode_frame(f, &mut buf).expect("bench frame encodes");
            }
            let mut off = 0usize;
            while off < buf.len() {
                let rest = buf.get(off..).expect("offset within buffer");
                let (_, n) = decode_frame(rest).expect("bench frame decodes");
                off += n;
            }
            frames += batch.len() as u64;
        }
        let secs = t0.elapsed().as_secs_f64();
        best = best.max(frames as f64 / secs.max(1e-9));
    }
    best
}

/// Wall µs per collector round over a `nodes`-node in-process cluster,
/// best of `reps`. Each round every agent sends a heartbeat plus eight
/// LWP details; the timer covers only the collector side
/// (`pump_frames` + `run_round`), which is exactly the loop one daemon
/// runs per period for the whole allocation.
fn bench_collector_round(nodes: usize, rounds: u64, reps: u32) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut collector = Collector::new();
        let mut agents = Vec::with_capacity(nodes);
        for i in 0..nodes {
            let host = format!("bench{i:02}");
            collector.expect_node(&host);
            let (agent_end, collector_end) = in_proc_pair(64);
            collector.add_link(Box::new(collector_end));
            agents.push(NodeAgent::new(agent_end, host));
        }
        let mut in_round = 0.0f64;
        for r in 0..rounds {
            let round = r + 1;
            for a in &mut agents {
                a.begin_round(round, round as f64 * 0.1);
                for d in 0..8u32 {
                    a.send_detail(round, 100 + d, f64::from(d) * 11.5);
                }
                for _ in 0..4 {
                    a.tick();
                }
            }
            let t0 = Instant::now();
            collector.pump_frames();
            collector.run_round();
            in_round += t0.elapsed().as_secs_f64();
        }
        best = best.min(in_round / rounds as f64 * 1e6);
    }
    best
}

/// Runs the whole suite. `quick` shrinks workloads for the CI smoke
/// stage; the full mode is what `BENCH_pr3.json` records.
pub fn run_bench(quick: bool) -> BenchReport {
    let (rounds, reps) = if quick { (150, 3) } else { (400, 5) };
    let (samples_per_sec, faultwrap_pct) = bench_sampling(rounds, reps);
    let (sharded_sps, round_p99_us) =
        bench_sharded(if quick { 60 } else { 150 }, if quick { 2 } else { 3 }, 4);
    let sim_speed = bench_sim_speed(if quick { 80 } else { 40 }, if quick { 2 } else { 3 });
    let parse_speed = bench_parse(if quick { 300 } else { 1_500 }, if quick { 3 } else { 5 });
    let audit_ms = bench_audit(if quick { 2 } else { 3 });
    // One soak is tens of wall milliseconds but its best-of variance is
    // wide (the storm's task population swings with scheduler noise),
    // so stability comes from reps, not duration.
    let churn_reps = if quick { 5 } else { 8 };
    let churn_curve: Vec<f64> = crate::churn_chaos::SUITE_RATES_HZ
        .iter()
        .map(|&r| bench_churn(r, churn_reps))
        .collect();
    let net_frames = bench_net_frames(if quick { 2_000 } else { 10_000 }, reps);
    let round_us = bench_collector_round(8, if quick { 60 } else { 200 }, reps);
    // §4.1 reproduction: virtual-time overhead of monitoring miniQMC at
    // two threads per core (the paper's contended configuration).
    let fig8 = zerosum_experiments::figures::fig8(true, if quick { 2 } else { 4 }, 60, 42);
    BenchReport {
        metrics: vec![
            Metric {
                key: "samples_per_sec".into(),
                value: samples_per_sec,
                unit: "task-samples/s".into(),
                higher_is_better: true,
                gated: true,
            },
            Metric {
                key: "sharded_samples_per_sec".into(),
                value: sharded_sps,
                unit: "task-samples/s".into(),
                higher_is_better: true,
                gated: true,
            },
            Metric {
                key: "round_p99_us".into(),
                value: round_p99_us,
                unit: "µs/round".into(),
                higher_is_better: false,
                gated: true,
            },
            Metric {
                key: "sim_us_per_wall_ms".into(),
                value: sim_speed,
                unit: "virt-µs/wall-ms".into(),
                higher_is_better: true,
                gated: true,
            },
            Metric {
                key: "parse_mb_per_sec".into(),
                value: parse_speed,
                unit: "MB/s".into(),
                higher_is_better: true,
                gated: true,
            },
            Metric {
                key: "monitor_overhead_pct".into(),
                value: fig8.overhead_frac * 100.0,
                unit: "% virt".into(),
                higher_is_better: false,
                gated: true,
            },
            Metric {
                key: "audit_ms".into(),
                value: audit_ms,
                unit: "ms".into(),
                higher_is_better: false,
                gated: true,
            },
            Metric {
                key: "net_frames_per_sec".into(),
                value: net_frames,
                unit: "frames/s".into(),
                higher_is_better: true,
                gated: true,
            },
            Metric {
                key: "collector_round_us".into(),
                value: round_us,
                unit: "µs/round".into(),
                higher_is_better: false,
                gated: true,
            },
            Metric {
                key: "churn_samples_per_sec_r25".into(),
                value: churn_curve[0],
                unit: "task-samples/s".into(),
                higher_is_better: true,
                gated: true,
            },
            Metric {
                key: "churn_samples_per_sec_r50".into(),
                value: churn_curve[1],
                unit: "task-samples/s".into(),
                higher_is_better: true,
                gated: true,
            },
            Metric {
                key: "churn_samples_per_sec_r100".into(),
                value: churn_curve[2],
                unit: "task-samples/s".into(),
                higher_is_better: true,
                gated: true,
            },
            Metric {
                key: "faultwrap_overhead_pct".into(),
                value: faultwrap_pct,
                unit: "% wall".into(),
                higher_is_better: false,
                gated: false,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            metrics: vec![
                Metric {
                    key: "samples_per_sec".into(),
                    value: 123456.789,
                    unit: "task-samples/s".into(),
                    higher_is_better: true,
                    gated: true,
                },
                Metric {
                    key: "monitor_overhead_pct".into(),
                    value: 0.42,
                    unit: "% virt".into(),
                    higher_is_better: false,
                    gated: true,
                },
                Metric {
                    key: "faultwrap_overhead_pct".into(),
                    value: 1.8,
                    unit: "% wall".into(),
                    higher_is_better: false,
                    gated: false,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let r = sample_report();
        let parsed = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.metrics.len(), 3);
        for (a, b) in r.metrics.iter().zip(&parsed.metrics) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.unit, b.unit);
            assert_eq!(a.higher_is_better, b.higher_is_better);
            assert_eq!(a.gated, b.gated);
            assert!(
                (a.value - b.value).abs() < 1e-3,
                "{} vs {}",
                a.value,
                b.value
            );
        }
        assert!(BenchReport::from_json("{}").is_err());
        assert!(BenchReport::from_json("not json at all").is_err());
    }

    #[test]
    fn truncated_json_is_an_error_not_a_panic() {
        // Every prefix of a valid file must parse cleanly or fail with
        // an error — `bench --compare` sees torn baselines after a
        // crashed CI run. (`json` contains multi-byte "µ"s, so this also
        // walks every char boundary around them.)
        let json = sample_report().to_json();
        let full = BenchReport::from_json(&json).unwrap().metrics.len();
        for (i, _) in json.char_indices() {
            match BenchReport::from_json(&json[..i]) {
                Ok(r) => assert!(r.metrics.len() <= full),
                Err(e) => assert!(!e.is_empty()),
            }
        }
        // A file cut mid-object names the casualty.
        let cut = &json[..json.find("\"unit\"").unwrap()];
        let err = BenchReport::from_json(cut).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn braces_and_escapes_inside_strings_do_not_truncate_objects() {
        let mut r = sample_report();
        r.metrics[0].unit = "weird}unit".into();
        let parsed = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.metrics.len(), r.metrics.len());
        assert_eq!(parsed.metrics[0].unit, "weird}unit");
        // An escape before the closing quote must not swallow it.
        let text =
            r#"{"key": "k\\", "value": 1.0, "unit": "u", "higher_is_better": true, "gated": true}"#;
        let parsed = BenchReport::from_json(text).unwrap();
        assert_eq!(parsed.metrics.len(), 1);
    }

    #[test]
    fn non_finite_and_malformed_values_are_rejected() {
        let mk = |val: &str| {
            format!(
                "{{\"key\": \"m\", \"value\": {val}, \"unit\": \"u\", \
                 \"higher_is_better\": true, \"gated\": true}}"
            )
        };
        let err = BenchReport::from_json(&mk("NaN")).unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
        let err = BenchReport::from_json(&mk("inf")).unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
        let err = BenchReport::from_json(&mk("1.2.3")).unwrap_err();
        assert!(err.contains("bad value"), "{err}");
    }

    #[test]
    fn check_flags_only_gated_regressions() {
        let base = sample_report();
        let mut cur = sample_report();
        // Within tolerance: no failures.
        assert!(check(&cur, &base, 15.0).is_empty());
        // 20% throughput drop fails the 15% gate.
        cur.metrics[0].value = base.metrics[0].value * 0.80;
        let f = check(&cur, &base, 15.0);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].starts_with("samples_per_sec"));
        // An ungated metric never fails, however bad.
        cur.metrics[0].value = base.metrics[0].value;
        cur.metrics[2].value = 99.0;
        assert!(check(&cur, &base, 15.0).is_empty());
        // A missing gated metric fails.
        cur.metrics.remove(1);
        let f = check(&cur, &base, 15.0);
        assert_eq!(f.len(), 1);
        assert!(f[0].contains("missing"));
    }

    #[test]
    fn overhead_points_use_a_denominator_floor() {
        let mk = |v: f64| Metric {
            key: "monitor_overhead_pct".into(),
            value: v,
            unit: "% virt".into(),
            higher_is_better: false,
            gated: true,
        };
        // 0.4% → 0.6% of virtual overhead is +0.2 points, not +50%.
        assert!(regression_pct(&mk(0.4), &mk(0.6)) < 15.0);
        // A jump to 25% overhead still trips the gate.
        assert!(regression_pct(&mk(0.4), &mk(25.0)) > 15.0);
    }

    #[test]
    fn compare_renders_both_columns() {
        let a = sample_report();
        let mut b = sample_report();
        b.metrics[0].value *= 1.10;
        let table = compare(&a, &b);
        assert!(table.contains("samples_per_sec"));
        assert!(table.contains("better"));
    }

    #[test]
    fn compare_marks_added_and_removed_metrics() {
        // A metric only the newer run has must render as NEW, not be
        // silently dropped; one only the baseline has renders as GONE.
        let a = sample_report();
        let mut b = sample_report();
        b.metrics.push(Metric {
            key: "sharded_samples_per_sec".into(),
            value: 777_000.0,
            unit: "task-samples/s".into(),
            higher_is_better: true,
            gated: true,
        });
        let removed = b.metrics.remove(1);
        let table = compare(&a, &b);
        let new_line = table
            .lines()
            .find(|l| l.contains("sharded_samples_per_sec"))
            .expect("added metric is rendered");
        assert!(new_line.contains("NEW"), "{new_line}");
        assert!(new_line.contains("777000.000"), "{new_line}");
        let gone_line = table
            .lines()
            .find(|l| l.contains(&removed.key))
            .expect("removed metric is rendered");
        assert!(gone_line.contains("GONE"), "{gone_line}");
    }

    #[test]
    fn faultwrap_passthrough_stays_under_five_percent() {
        // The chaos satellite's contract: with a fault-free plan the
        // FaultyProc wrapper must add <5% to the sampling hot path
        // (`can_stale == false` skips all last-good caching). Best-of-N
        // keeps scheduler noise out of the comparison. The 5% bound is a
        // contract about optimized builds; unoptimized ones only get a
        // sanity ceiling (dispatch overhead is not what they measure).
        let (_, overhead_pct) = bench_sampling(60, 4);
        let limit = if cfg!(debug_assertions) { 40.0 } else { 5.0 };
        assert!(
            overhead_pct < limit,
            "fault-free wrapper overhead {overhead_pct:.2}% (want <{limit}%)"
        );
    }

    #[test]
    fn quick_bench_produces_all_metrics() {
        let r = run_bench(true);
        for key in [
            "samples_per_sec",
            "sharded_samples_per_sec",
            "round_p99_us",
            "sim_us_per_wall_ms",
            "parse_mb_per_sec",
            "monitor_overhead_pct",
            "audit_ms",
            "net_frames_per_sec",
            "collector_round_us",
            "churn_samples_per_sec_r25",
            "churn_samples_per_sec_r50",
            "churn_samples_per_sec_r100",
            "faultwrap_overhead_pct",
        ] {
            let m = r.get(key).expect(key);
            assert!(m.value.is_finite(), "{key} not finite");
        }
        // Throughputs are positive; a self-check against itself passes.
        assert!(r.get("samples_per_sec").unwrap().value > 0.0);
        assert!(r.get("sharded_samples_per_sec").unwrap().value > 0.0);
        assert!(r.get("round_p99_us").unwrap().value > 0.0);
        assert!(r.get("parse_mb_per_sec").unwrap().value > 0.0);
        assert!(r.get("churn_samples_per_sec_r50").unwrap().value > 0.0);
        assert!(check(&r, &r, 15.0).is_empty());
        // And the JSON survives a round trip.
        let round = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(round.metrics.len(), r.metrics.len());
    }
}
