//! Standalone replays: the texts and frames a traced run captured,
//! pushed through each layer's public functions on their own.
//!
//! A span around `ProcSource::task_stat_into` covers read *and* parse,
//! and one around `Link::send_bytes` covers none of the encode. The
//! replays time the pure halves alone (parse, render, arena append,
//! encode, decode, the `stats` containers at their per-round call
//! pattern), so the traced spans can be split by subtraction.

use std::hint::black_box;
use std::time::Instant;
use zerosum_apps::churn::{generate_schedule, ChurnConfig};
use zerosum_net::{decode_frame, encode_frame, Frame};
use zerosum_proc::{format, parse, Pid, ProcSource, ReadArena, SystemStat, TaskStat, TaskStatus};
use zerosum_stats::histogram::Histogram;
use zerosum_stats::{Ring, ShardRing};

/// A named per-layer value.
pub type LayerValue = (&'static str, f64);

/// Batches per replay; their quiet mean is reported (`estimate.rs`).
const BATCHES: usize = 24;
/// Wall time one batch must at least cover: short enough to fit into a
/// quiet gap of the host.
const BATCH_NS: u64 = 1_000_000;

/// Quiet mean over [`BATCHES`] batches of the ns one call of `pass`
/// takes per `ops` operations it performs.
fn ns_per_op(ops: u64, mut pass: impl FnMut()) -> f64 {
    let mut per_op = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        let mut passes = 0u64;
        while (t0.elapsed().as_nanos() as u64) < BATCH_NS {
            pass();
            passes += 1;
        }
        per_op.push(t0.elapsed().as_nanos() as f64 / (passes * ops.max(1)) as f64);
    }
    crate::estimate::quiet_mean(&per_op).unwrap_or(0.0)
}

/// The procfs texts one sampling round reads, plus the typed records
/// they were rendered from (simulated sources only).
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    /// `/proc/<pid>/task/<tid>/stat` lines, trailing newline stripped.
    pub stat: Vec<String>,
    /// `/proc/<pid>/task/<tid>/status` blocks.
    pub status: Vec<String>,
    /// `/proc/<pid>/task/<tid>/schedstat` lines.
    pub schedstat: Vec<String>,
    /// `/proc/stat`.
    pub system_stat: String,
    /// Typed records behind `stat` (empty for a live corpus).
    pub stat_records: Vec<TaskStat>,
    /// Typed records behind `status` (empty for a live corpus).
    pub status_records: Vec<TaskStatus>,
}

impl Corpus {
    /// Reads every task of `pids` through `src` and renders the records
    /// back to kernel text with `format` — the path a simulated source
    /// takes internally.
    pub fn from_source(src: &dyn ProcSource, pids: &[Pid]) -> Result<Corpus, String> {
        let mut c = Corpus::default();
        let fail = |what: &str, e: zerosum_proc::SourceError| format!("corpus {what}: {e}");
        for &pid in pids {
            for tid in src.list_tasks(pid).map_err(|e| fail("list_tasks", e))? {
                let st = src.task_stat(pid, tid).map_err(|e| fail("stat", e))?;
                let status = src.task_status(pid, tid).map_err(|e| fail("status", e))?;
                let ss = src
                    .task_schedstat(pid, tid)
                    .map_err(|e| fail("schedstat", e))?;
                c.stat
                    .push(format::format_task_stat(&st).trim_end().to_string());
                c.status.push(format::format_task_status(&status));
                c.schedstat.push(format::format_schedstat(&ss));
                c.stat_records.push(st);
                c.status_records.push(status);
            }
        }
        let sys = src.system_stat().map_err(|e| fail("system_stat", e))?;
        c.system_stat = format::format_system_stat(&sys);
        Ok(c)
    }

    /// Reads the files of every task of this process from the live
    /// `/proc`, as the kernel wrote them.
    pub fn from_live(pid: Pid, tids: &[u32]) -> Result<Corpus, String> {
        let read =
            |path: String| std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"));
        let mut c = Corpus::default();
        for tid in tids {
            let dir = format!("/proc/{pid}/task/{tid}");
            c.stat
                .push(read(format!("{dir}/stat"))?.trim_end().to_string());
            c.status.push(read(format!("{dir}/status"))?);
            c.schedstat.push(read(format!("{dir}/schedstat"))?);
        }
        c.system_stat = read("/proc/stat".into())?;
        Ok(c)
    }

    /// Mean bytes of one text of each kind: `(stat, status, schedstat)`.
    pub fn mean_bytes(&self) -> (f64, f64, f64) {
        let mean =
            |v: &[String]| v.iter().map(String::len).sum::<usize>() as f64 / v.len().max(1) as f64;
        (mean(&self.stat), mean(&self.status), mean(&self.schedstat))
    }
}

/// `procfs.parse.*`: the parsers the workload's engine uses — the
/// owning `_into` forms on the serial loop, the view/fast forms on the
/// sharded one — over the captured corpus.
pub fn parsers(c: &Corpus, fast: bool) -> Vec<LayerValue> {
    let n = c.stat.len() as u64;
    let mut stat_out = TaskStat::default();
    let mut status_out = TaskStatus::default();
    let mut sys_out = SystemStat::default();
    let stat_ns = ns_per_op(n, || {
        for line in &c.stat {
            if fast {
                if let Ok(view) = parse::parse_task_stat_view_fast(black_box(line)) {
                    view.assign_to(&mut stat_out);
                }
            } else {
                let _ = parse::parse_task_stat_into(black_box(line), &mut stat_out);
            }
        }
    });
    let status_ns = ns_per_op(n, || {
        for text in &c.status {
            let _ = if fast {
                parse::parse_task_status_fast(black_box(text), &mut status_out)
            } else {
                parse::parse_task_status_into(black_box(text), &mut status_out)
            };
        }
    });
    let schedstat_ns = ns_per_op(n, || {
        for text in &c.schedstat {
            let _ = black_box(parse::parse_schedstat(black_box(text)));
        }
    });
    let system_ns = ns_per_op(1, || {
        let _ = parse::parse_system_stat_into(black_box(&c.system_stat), &mut sys_out);
    });
    black_box((&stat_out, &status_out, &sys_out));
    let (stat_b, status_b, sched_b) = c.mean_bytes();
    let bytes = n as f64 * (stat_b + status_b + sched_b) + c.system_stat.len() as f64;
    let ns = n as f64 * (stat_ns + status_ns + schedstat_ns) + system_ns;
    vec![
        ("procfs.parse.stat_ns_per_record", stat_ns),
        ("procfs.parse.status_ns_per_record", status_ns),
        ("procfs.parse.schedstat_ns_per_record", schedstat_ns),
        ("procfs.parse.system_stat_ns_per_call", system_ns),
        // bytes/ns × 1e3 = MB/s.
        ("procfs.parse.mb_per_s", bytes / ns.max(1.0) * 1e3),
    ]
}

/// `procfs.format.render_ns_per_record`: `write_task_stat` +
/// `write_task_status` over the typed records, per record rendered.
pub fn render(c: &Corpus) -> Vec<LayerValue> {
    let records = (c.stat_records.len() + c.status_records.len()) as u64;
    if records == 0 {
        return Vec::new();
    }
    let mut text = String::new();
    let ns = ns_per_op(records, || {
        text.clear();
        for st in &c.stat_records {
            format::write_task_stat(black_box(st), &mut text);
        }
        for st in &c.status_records {
            format::write_task_status(black_box(st), &mut text);
        }
        black_box(text.len());
    });
    vec![("procfs.format.render_ns_per_record", ns)]
}

/// `procfs.arena.append_ns_per_record`: one shard batch worth of
/// `append_str` + `get` per record, arena reset per pass.
pub fn arena(c: &Corpus) -> Vec<LayerValue> {
    let records = (c.stat.len() + c.status.len()) as u64;
    let mut arena = ReadArena::new();
    let ns = ns_per_op(records, || {
        arena.reset();
        for text in c.stat.iter().chain(&c.status) {
            let span = arena.append_str(black_box(text));
            black_box(arena.get(span));
        }
    });
    vec![("procfs.arena.append_ns_per_record", ns)]
}

/// `stats.*`: the containers at the call pattern of one monitor — a
/// series ring at the default capacity pushed through several wraps, a
/// histogram record, one SPSC batch hand-off (push + pop).
pub fn stats_containers() -> Vec<LayerValue> {
    const PUSHES: u64 = 16_384;
    let push_ns = ns_per_op(PUSHES, || {
        let mut ring: Ring<(f64, u64)> = Ring::new();
        for i in 0..PUSHES {
            ring.push(black_box((i as f64, i)));
        }
        black_box(ring.len());
    });
    let mut hist = Histogram::new(0.0, 1_000.0, 64);
    let record_ns = ns_per_op(PUSHES, || {
        for i in 0..PUSHES {
            hist.push(black_box((i % 1_000) as f64));
        }
    });
    black_box(hist.count());
    let mut ring: ShardRing<Vec<u64>, _> = ShardRing::with_capacity(2, Vec::new);
    let (mut writer, mut reader) = ring.split();
    let mut batch = vec![0u64; 64];
    let swap_ns = ns_per_op(PUSHES, || {
        for _ in 0..PUSHES {
            black_box(writer.try_push_swap(&mut batch));
            black_box(reader.try_pop_swap(&mut batch));
        }
    });
    vec![
        ("stats.ring.push_ns", push_ns),
        ("stats.histogram.record_ns", record_ns),
        ("stats.shard_ring.swap_ns", swap_ns),
    ]
}

/// `net.frame.*`: decode every captured frame, re-encode it, and check
/// the bytes come back identical.
pub fn frame_codec(captured: &[Vec<u8>]) -> Result<Vec<LayerValue>, String> {
    if captured.is_empty() {
        return Err("no frames were captured for the codec replay".into());
    }
    let mut frames: Vec<Frame> = Vec::with_capacity(captured.len());
    let mut out = Vec::new();
    for bytes in captured {
        let (frame, used) = decode_frame(bytes).map_err(|e| format!("captured frame: {e}"))?;
        out.clear();
        encode_frame(&frame, &mut out).map_err(|e| format!("re-encode: {e}"))?;
        if used != bytes.len() || out != *bytes {
            return Err(format!(
                "captured {} frame does not round-trip",
                frame.kind()
            ));
        }
        frames.push(frame);
    }
    let n = frames.len() as u64;
    let decode_ns = ns_per_op(n, || {
        for bytes in captured {
            let _ = black_box(decode_frame(black_box(bytes)));
        }
    });
    let encode_ns = ns_per_op(n, || {
        for frame in &frames {
            out.clear();
            let _ = encode_frame(black_box(frame), &mut out);
        }
        black_box(out.len());
    });
    let bytes: usize = captured.iter().map(Vec::len).sum();
    Ok(vec![
        ("net.frame.encode_ns_per_frame", encode_ns),
        ("net.frame.decode_ns_per_frame", decode_ns),
        ("net.frame.bytes_per_frame", bytes as f64 / n as f64),
    ])
}

/// `apps.churn.generate_schedule_ms`: one schedule of the soak's shape.
pub fn churn_schedule(cfg: &ChurnConfig) -> Vec<LayerValue> {
    let ns = ns_per_op(1, || {
        black_box(generate_schedule(black_box(cfg)).arrivals.len());
    });
    vec![("apps.churn.generate_schedule_ms", ns / 1e6)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerosum_core::NodeAggregate;
    use zerosum_net::frame_bytes;

    #[test]
    fn codec_replay_round_trips_and_rejects_garbage() {
        let frames = [
            Frame::Heartbeat { round: 3, t_s: 0.3 },
            Frame::LwpDetail {
                round: 3,
                tid: 77,
                busy_pct: 12.5,
            },
            Frame::Aggregate {
                round: 3,
                agg: NodeAggregate {
                    hostname: "zsb-node0".into(),
                    ranks: 1,
                    lwps: 48,
                    mean_user_pct: 90.0,
                    mean_idle_pct: 10.0,
                    total_nvcsw: 3,
                    rss_kib: 4_096,
                },
            },
        ];
        let captured: Vec<Vec<u8>> = frames.iter().map(|f| frame_bytes(f).unwrap()).collect();
        let values = frame_codec(&captured).unwrap();
        assert_eq!(values.len(), 3);
        assert!(values.iter().all(|(_, v)| *v > 0.0), "{values:?}");
        assert!(frame_codec(&[]).is_err());
        assert!(frame_codec(&[vec![0u8; 12]]).is_err());
    }

    #[test]
    fn a_simulated_corpus_parses_back_to_its_records() {
        use crate::workloads::frontier_scenario;
        use zerosum_sched::SimProcSource;
        let (mut sim, _, pids) = frontier_scenario(1, 3, 5, Default::default());
        sim.run_for(50_000);
        let c = Corpus::from_source(&SimProcSource::new(&sim), &pids).unwrap();
        assert_eq!((c.stat.len(), c.status.len(), c.schedstat.len()), (3, 3, 3));
        for (line, want) in c.stat.iter().zip(&c.stat_records) {
            assert_eq!(&parse::parse_task_stat(line).unwrap(), want);
        }
        assert!(c.system_stat.starts_with("cpu "));
        let (a, b, s) = c.mean_bytes();
        assert!(a > 50.0 && b > 50.0 && s > 3.0);
    }
}
