//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics.
//!
//! `BENCHMARK.json` at the repository root is generated from these
//! tables (`zsbench --print-benchmark-json`), and a unit test holds the
//! committed file equal to them.

use crate::json::Value;

/// Default `--seed`; feeds the sim scheduler seeds, the churn schedules
/// and the wire payloads.
pub const DEFAULT_SEED: u64 = 11;

/// `run_seconds`: how long one run measures.
pub const RUN_SECONDS: u64 = 16;

/// Direction of goodness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Name, as printed and as later issues cite it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of goodness.
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    /// What it is, for the human-readable output.
    pub what: &'static str,
}

/// The end-to-end metrics, every one reported on every workload.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "process start to first timed round (quiet mean over fresh processes)",
    },
    EndToEnd {
        name: "task_samples_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
        what: "task samples per second inside the rounds of the quiet segments",
    },
    EndToEnd {
        name: "round_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
        what: "median round latency, quiet segments' rounds pooled",
    },
    EndToEnd {
        name: "round_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        what: "p99 round latency (or the highest percentile with 10 samples beyond it)",
    },
    EndToEnd {
        name: "live_cpu_us_per_round",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
        what: "on-CPU time of the driving thread per round, from its own schedstat, quiet segments",
    },
    EndToEnd {
        name: "export_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "exit path: reports + CSVs + write_logs (quiet mean over repeats)",
    },
    EndToEnd {
        name: "peak_rss_kib",
        unit: "KiB",
        better: Better::Lower,
        bound: 0.10,
        what: "VmHWM of the workload's process at exit",
    },
];

/// The workloads and why each exists.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "sim_serial_busy",
        "Monitor::sample over the simulated /proc, 4 ranks x 8 busy threads: no syscalls, so source render + procfs parse + monitor fold are all of the time",
    ),
    (
        "sim_sharded_wide",
        "ShardedMonitor::run_rounds, 4 inline shards over 256 tasks: plan/dispatch/fold, arena batching and the fast parsers, none of which the serial workloads run",
    ),
    (
        "live_procfs_busy",
        "Monitor::sample on the live /proc, 65 own threads, delta sampling off: kernel open/read/close dominates, so parser gains predict no change and fewer reads a large one",
    ),
    (
        "live_procfs_idle",
        "same population, default config: ~98% of task reads are schedstat-gate hits, the same layers used as gate/compare/reuse instead of read/parse/fold",
    ),
    (
        "churn_open",
        "run_sim_churn at 100 Hz Poisson arrivals, Zipf thread counts, 15% pid reuse: registry insert/retire/compaction and spawn/exit every round, writes beside reads",
    ),
    (
        "wire_tcp",
        "2 NodeAgent<TcpLink> to one Collector over loopback TCP, 50 frames per node per round, sample to summary: the only workload that touches net",
    ),
];

/// One per-layer metric (traced run only; no bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    /// `<crate>.<module>.<measure>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of goodness.
    pub better: Better,
    /// An exact count: two runs of one commit must agree on it.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn count(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better: Better::Lower,
        exact: true,
    }
}

const fn higher(name: &'static str, unit: &'static str, exact: bool) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact,
    }
}

/// The per-layer metrics; a workload that does not cross a layer
/// reports 0 for it.
pub const PER_LAYER: [PerLayer; 62] = [
    timing("procfs.linux.read_ns_per_file", "ns"),
    count("procfs.linux.reads_per_round"),
    timing("procfs.linux.bytes_per_round", "B"),
    timing("procfs.linux.list_ns_per_call", "ns"),
    count("procfs.linux.failed_reads"),
    timing("procfs.linux.share_pct", "%"),
    timing("procfs.parse.stat_ns_per_record", "ns"),
    timing("procfs.parse.status_ns_per_record", "ns"),
    timing("procfs.parse.schedstat_ns_per_record", "ns"),
    timing("procfs.parse.system_stat_ns_per_call", "ns"),
    higher("procfs.parse.mb_per_s", "MB/s", false),
    timing("procfs.parse.share_pct", "%"),
    timing("procfs.arena.append_ns_per_record", "ns"),
    timing("procfs.format.render_ns_per_record", "ns"),
    timing("sched.proc_source.read_ns_per_call", "ns"),
    count("sched.proc_source.reads_per_round"),
    timing("sched.node.advance_ns_per_round", "ns"),
    timing("core.monitor.sample_self_ns_per_task", "ns"),
    timing("core.monitor.source_share_pct", "%"),
    count("core.monitor.allocs_per_round"),
    count("core.monitor.alloc_bytes_per_round"),
    higher("core.monitor.delta_hit_pct", "%", false),
    timing("core.shard.round_self_ns_per_task", "ns"),
    count("core.shard.allocs_per_round"),
    timing("core.shard.threads_round_us", "us"),
    count("core.lwp.tracks_retained"),
    count("core.lwp.tracks_departed"),
    count("core.monitor.vanished"),
    count("core.monitor.shed_rounds"),
    count("core.monitor.governor_changes"),
    count("core.health.errors"),
    count("core.monitor.supervisor_restarts"),
    timing("core.export.csv_ns_per_row", "ns"),
    timing("core.export.write_logs_ms", "ms"),
    timing("core.report.render_ms", "ms"),
    timing("core.cluster.aggregate_ns", "ns"),
    timing("stats.ring.push_ns", "ns"),
    timing("stats.histogram.record_ns", "ns"),
    timing("stats.shard_ring.swap_ns", "ns"),
    timing("net.frame.encode_ns_per_frame", "ns"),
    timing("net.frame.decode_ns_per_frame", "ns"),
    timing("net.frame.bytes_per_frame", "B"),
    timing("net.frame.share_pct", "%"),
    timing("net.tcp.send_ns_per_frame", "ns"),
    timing("net.tcp.recv_ns_per_call", "ns"),
    count("net.tcp.bytes_per_round"),
    count("net.tcp.window_full"),
    timing("net.tcp.share_pct", "%"),
    timing("net.agent.round_ns", "ns"),
    count("net.agent.frames_shed"),
    count("net.agent.retransmits"),
    count("net.allocs_per_frame"),
    timing("net.collector.pump_ns_per_frame", "ns"),
    timing("net.collector.run_round_self_ns", "ns"),
    timing("net.collector.render_summary_ns", "ns"),
    higher("net.collector.frames_rx", "count", true),
    count("net.collector.decode_errors"),
    count("net.collector.budget_exhausted"),
    count("net.collector.throttled_reads"),
    timing("apps.churn.generate_schedule_ms", "ms"),
    higher("trace.coverage_pct", "%", false),
    timing("trace.overhead_pct", "%"),
];

/// Looks up an end-to-end metric.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Looks up a per-layer metric.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// `BENCHMARK.json`, one key per line so the committed file diffs well.
pub fn benchmark_json() -> Result<String, String> {
    let line = |v: Value| v.to_json();
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let list = |out: &mut String, key: &str, items: Vec<String>, last: bool| {
        out.push_str(&format!("  \"{key}\": [\n"));
        let n = items.len();
        for (i, item) in items.into_iter().enumerate() {
            out.push_str("    ");
            out.push_str(&item);
            out.push_str(if i + 1 < n { ",\n" } else { "\n" });
        }
        out.push_str(if last { "  ]\n" } else { "  ],\n" });
    };
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| {
            line(Value::obj([
                ("name", Value::Str((*name).into())),
                ("why", Value::Str((*why).into())),
            ]))
        })
        .collect::<Result<Vec<_>, _>>()?;
    list(&mut out, "workloads", workloads, false);
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            line(Value::obj([
                ("name", Value::Str(m.name.into())),
                ("unit", Value::Str(m.unit.into())),
                ("better", Value::Str(m.better.word().into())),
                ("bound", Value::Num(m.bound)),
            ]))
        })
        .collect::<Result<Vec<_>, _>>()?;
    list(&mut out, "end_to_end", e2e, false);
    let layers = PER_LAYER
        .iter()
        .map(|m| {
            line(Value::obj([
                ("name", Value::Str(m.name.into())),
                ("unit", Value::Str(m.unit.into())),
                ("better", Value::Str(m.better.word().into())),
            ]))
        })
        .collect::<Result<Vec<_>, _>>()?;
    list(&mut out, "per_layer", layers, true);
    out.push_str("}\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn repo_file(rel: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    #[test]
    fn committed_benchmark_json_equals_the_tables() {
        assert_eq!(repo_file("../BENCHMARK.json"), benchmark_json().unwrap());
    }

    #[test]
    fn benchmark_json_meets_the_contract_limits() {
        let v = crate::json::parse(&benchmark_json().unwrap()).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = Vec::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {}",
                why.len()
            );
            names.push(name);
        }
        assert_eq!(names, crate::workloads::NAMES);
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            names.push(m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            names.push(m.name);
        }
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128 && (1..=60).contains(&RUN_SECONDS));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        assert!(benchmark_json().unwrap().len() < 64 * 1024);
    }

    #[test]
    fn release_profile_equals_the_root_manifest() {
        // The benchmark must measure the code that ships: same
        // codegen-units and LTO as the product workspace.
        fn release_profile(manifest: &str) -> Vec<String> {
            let mut lines: Vec<String> = manifest
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(|l| l.split('#').next().unwrap_or("").trim().replace(' ', ""))
                .filter(|l| !l.is_empty())
                .collect();
            lines.sort();
            lines
        }
        let root = release_profile(&repo_file("../Cargo.toml"));
        let ours = release_profile(&repo_file("Cargo.toml"));
        assert_eq!(ours, root);
        assert_eq!(ours, ["codegen-units=1", "lto=\"thin\""]);
    }
}
