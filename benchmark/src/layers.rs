//! Per-layer metrics: the traced window's span totals, the exact
//! counters, the allocation block and the standalone replays, combined
//! into the values `BENCHMARK.json` lists under `per_layer`.

use crate::spec::PER_LAYER;
use crate::trace::{Aggregates, Kind};
use crate::workloads::{AllocBlock, ExportTimes, Finished};

/// Everything one traced run measured.
pub struct TracedRun<'a> {
    /// Span totals of the traced window.
    pub aggs: Aggregates,
    /// Span totals of its first segments, a fixed number of rounds:
    /// what the exact counts are taken from.
    pub head: Aggregates,
    /// Layer of the `Src*` spans: `procfs.linux` or `sched.proc_source`.
    pub source_layer: &'a str,
    /// What the workload handed back (counters, replays).
    pub finished: &'a Finished,
    /// Exit-path timings.
    pub export: ExportTimes,
    /// Exact allocation counts.
    pub allocs: AllocBlock,
    /// Median round µs of the traced window.
    pub traced_p50_us: f64,
    /// Median round µs of the same binary's untraced window.
    pub untraced_p50_us: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every `per_layer` metric, in `BENCHMARK.json` order; 0 for a layer
/// the workload does not cross.
pub fn derive(run: &TracedRun<'_>) -> Vec<(&'static str, f64)> {
    let a = &run.aggs;
    let replay = |name: &str| {
        run.finished
            .layer
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let ns = |k: Kind| a.get(k).total_ns as f64;
    let n = |k: Kind| a.get(k).count as f64;
    let round = a.get(Kind::Round);
    let rounds = round.count as f64;
    let round_ns = round.total_ns as f64;
    // The replays are quiet means, so the shares built from them are
    // taken of the window's rounds at their quiet cost; the span-based
    // shares divide two totals of one window, host phases and all.
    let quiet_round_ns = run.traced_p50_us * 1e3 * rounds;
    let work = run.finished.work_per_round as f64;
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let mut set = |name: &'static str, v: f64| out.push((name, v));
    // Exact counts come from the window's head: the same rounds in
    // every run.
    let h = &run.head;
    let head_rounds = h.get(Kind::Round).count as f64;
    let head_src = h.sum(&Kind::SOURCE);
    let head_files = (head_src.count - h.get(Kind::SrcListTasks).count) as f64;

    // Source calls: every one is a file read except the directory list.
    let src = a.sum(&Kind::SOURCE);
    let list = a.get(Kind::SrcListTasks);
    let files_n = (src.count - list.count) as f64;
    let files_ns = (src.total_ns - list.total_ns) as f64;
    let stats_n = n(Kind::SrcStat) + n(Kind::SrcStatText);
    let status_n = n(Kind::SrcStatus) + n(Kind::SrcStatusText);
    // Parse time, from the standalone replay at the traced call counts.
    // The typed forms parse inside the source call; the arena `_text`
    // forms leave the parse to core.shard.
    let parse_in_source = n(Kind::SrcStat) * replay("procfs.parse.stat_ns_per_record")
        + n(Kind::SrcStatus) * replay("procfs.parse.status_ns_per_record")
        + n(Kind::SrcSchedstat) * replay("procfs.parse.schedstat_ns_per_record")
        + n(Kind::SrcSystemStat) * replay("procfs.parse.system_stat_ns_per_call");
    let parse_in_shard = n(Kind::SrcStatText) * replay("procfs.parse.stat_ns_per_record")
        + n(Kind::SrcStatusText) * replay("procfs.parse.status_ns_per_record");
    set(
        "procfs.parse.share_pct",
        ratio(parse_in_source + parse_in_shard, quiet_round_ns) * 100.0,
    );
    if run.source_layer == "procfs.linux" {
        let [stat_b, status_b, ss_b, sys_b] = run.finished.text_bytes;
        set(
            "procfs.linux.read_ns_per_file",
            ratio(files_ns - parse_in_source, files_n),
        );
        set(
            "procfs.linux.reads_per_round",
            ratio(head_files, head_rounds),
        );
        // Computed from call counts × mean text size; meminfo excluded.
        set(
            "procfs.linux.bytes_per_round",
            ratio(
                stats_n * stat_b
                    + status_n * status_b
                    + n(Kind::SrcSchedstat) * ss_b
                    + n(Kind::SrcSystemStat) * sys_b,
                rounds,
            ),
        );
        set(
            "procfs.linux.list_ns_per_call",
            ratio(list.total_ns as f64, list.count as f64),
        );
        set("procfs.linux.failed_reads", head_src.flagged as f64);
        set(
            "procfs.linux.share_pct",
            ratio(src.total_ns as f64 - parse_in_source, round_ns) * 100.0,
        );
    } else if src.count > 0 {
        set(
            "sched.proc_source.read_ns_per_call",
            ratio(src.total_ns as f64, src.count as f64),
        );
        set(
            "sched.proc_source.reads_per_round",
            ratio(head_src.count as f64, head_rounds),
        );
    }
    set(
        "sched.node.advance_ns_per_round",
        ratio(ns(Kind::SimAdvance), n(Kind::SimAdvance)),
    );

    let sample = a.get(Kind::MonitorSample);
    let shard = a.get(Kind::ShardRound);
    let per_round = |v: u64| ratio(v as f64, run.allocs.rounds as f64);
    if sample.count > 0 {
        set(
            "core.monitor.sample_self_ns_per_task",
            ratio(sample.self_ns as f64, sample.count as f64 * work),
        );
        set(
            "core.monitor.source_share_pct",
            ratio(
                (sample.total_ns - sample.self_ns) as f64,
                sample.total_ns as f64,
            ) * 100.0,
        );
    }
    if shard.count > 0 {
        set(
            "core.shard.round_self_ns_per_task",
            ratio(shard.self_ns as f64, shard.count as f64 * work),
        );
        set("core.shard.allocs_per_round", per_round(run.allocs.allocs));
    } else if n(Kind::LinkSend) > 0.0 {
        set(
            "net.allocs_per_frame",
            ratio(run.allocs.allocs as f64, run.allocs.work as f64),
        );
    } else {
        // Serial, live and churn rounds all run `Monitor::sample`; a
        // churn soak's count also holds its simulated node's.
        set(
            "core.monitor.allocs_per_round",
            per_round(run.allocs.allocs),
        );
        set(
            "core.monitor.alloc_bytes_per_round",
            per_round(run.allocs.bytes),
        );
    }

    let e = run.export;
    set("core.export.csv_ns_per_row", e.csv_ns_per_row);
    set("core.export.write_logs_ms", e.write_logs_ms);
    set("core.report.render_ms", e.render_ms);
    set("core.cluster.aggregate_ns", e.aggregate_ns);

    let send = a.get(Kind::LinkSend);
    if send.count > 0 {
        let link_ns = ns(Kind::LinkSend) + ns(Kind::LinkRecv) + ns(Kind::LinkTick);
        let agent_ns = ns(Kind::AgentBeginRound)
            + ns(Kind::AgentSendDetail)
            + ns(Kind::AgentFinish)
            + ns(Kind::AgentTick);
        let collector_self =
            (a.get(Kind::CollectorRunRound).self_ns + a.get(Kind::CollectorPump).self_ns) as f64;
        let frames_rx = replay("net.collector.frames_rx") * rounds;
        let codec =
            replay("net.frame.encode_ns_per_frame") + replay("net.frame.decode_ns_per_frame");
        set(
            "net.frame.share_pct",
            ratio(send.count as f64 * codec, quiet_round_ns) * 100.0,
        );
        set(
            "net.tcp.send_ns_per_frame",
            ratio(send.total_ns as f64, send.count as f64),
        );
        set(
            "net.tcp.recv_ns_per_call",
            ratio(ns(Kind::LinkRecv), n(Kind::LinkRecv)),
        );
        let head_send = h.get(Kind::LinkSend);
        set(
            "net.tcp.bytes_per_round",
            ratio(head_send.bytes as f64, head_rounds),
        );
        set("net.tcp.window_full", head_send.flagged as f64);
        set("net.tcp.share_pct", ratio(link_ns, round_ns) * 100.0);
        set("net.agent.round_ns", ratio(agent_ns, rounds));
        set(
            "net.collector.pump_ns_per_frame",
            ratio(collector_self, frames_rx),
        );
        set(
            "net.collector.run_round_self_ns",
            ratio(
                a.get(Kind::CollectorRunRound).self_ns as f64,
                n(Kind::CollectorRunRound),
            ),
        );
        set(
            "net.collector.render_summary_ns",
            ratio(
                ns(Kind::CollectorRenderSummary),
                n(Kind::CollectorRenderSummary),
            ),
        );
    }

    set(
        "trace.coverage_pct",
        ratio((round.total_ns - round.self_ns) as f64, round_ns) * 100.0,
    );
    set(
        "trace.overhead_pct",
        (ratio(run.traced_p50_us, run.untraced_p50_us) - 1.0) * 100.0,
    );

    // The workload's own values (counters, replays) win over nothing
    // derived here; anything unlisted in the spec is dropped, anything
    // unset is 0.
    PER_LAYER
        .iter()
        .map(|m| {
            let v = run
                .finished
                .layer
                .iter()
                .chain(out.iter())
                .find(|(name, _)| *name == m.name)
                .map_or(0.0, |(_, v)| *v);
            (m.name, v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Overhead, Tracer};

    #[test]
    fn every_spec_metric_is_emitted_once_and_unknown_names_are_dropped() {
        let t = Tracer::new(Overhead::default(), 0, 0);
        t.span(Kind::Round, || {
            t.span(Kind::MonitorSample, || {
                t.span(Kind::SrcStat, || {});
            })
        });
        let finished = Finished {
            work_per_round: 32,
            layer: vec![("core.health.errors", 3.0), ("not.in.spec", 9.0)],
            ..Finished::default()
        };
        let values = derive(&TracedRun {
            aggs: t.aggregates(),
            head: t.aggregates(),
            source_layer: "sched.proc_source",
            finished: &finished,
            export: ExportTimes::default(),
            allocs: AllocBlock {
                rounds: 4,
                work: 128,
                allocs: 40,
                bytes: 4_000,
            },
            traced_p50_us: 110.0,
            untraced_p50_us: 100.0,
        });
        let names: Vec<&str> = values.iter().map(|(n, _)| *n).collect();
        let spec: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, spec);
        let get = |name: &str| values.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("core.health.errors"), 3.0);
        assert_eq!(get("core.monitor.allocs_per_round"), 10.0);
        assert_eq!(get("sched.proc_source.reads_per_round"), 1.0);
        assert_eq!(get("procfs.linux.reads_per_round"), 0.0);
        assert_eq!(get("net.tcp.window_full"), 0.0);
        assert!((get("trace.overhead_pct") - 10.0).abs() < 1e-9);
        assert!(values.iter().all(|(_, v)| v.is_finite()));
    }
}
