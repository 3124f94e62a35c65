//! The `zerosum` launcher wrapper binary. See the library crate for the
//! logic; this shim only handles argv/exit-code plumbing.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Subcommands are dispatched before wrapper parsing, which treats
    // the first non-flag token as the command to launch.
    match args.first().map(String::as_str) {
        // Hidden: the worker process `zerosum churn --backend real`
        // storms with. Must dispatch before anything else — children
        // re-exec this binary with exactly these args.
        Some("__churn-child") => {
            let code = zerosum_apps::churn_child_main(&args[1..]);
            if code == 2 {
                eprintln!("__churn-child: usage: [exec] <spin_us> <threads>");
            }
            std::process::exit(code);
        }
        // Hidden: the fresh process `tests/fd_table.rs` measures the
        // handle cache's effect on the fd table in.
        Some("__fd-probe") => {
            let mode = args.get(1).map_or("", String::as_str);
            match zerosum_cli::fdprobe::run_fd_probe(mode) {
                Ok(report) => println!("{report}"),
                Err(e) => {
                    eprintln!("__fd-probe: {e}");
                    std::process::exit(2);
                }
            }
            return;
        }
        Some("analyze") => std::process::exit(run_analyze(&args[1..])),
        Some("churn") => std::process::exit(run_churn(&args[1..])),
        Some("bench") => std::process::exit(run_bench(&args[1..])),
        Some("chaos") => std::process::exit(run_chaos(&args[1..])),
        Some("cluster-chaos") => std::process::exit(run_cluster_chaos(&args[1..])),
        Some("collect") => std::process::exit(run_collect(&args[1..])),
        Some("stream") => std::process::exit(run_stream(&args[1..])),
        Some("lint") => std::process::exit(run_lint()),
        Some("shard-diff") => std::process::exit(run_shard_diff(&args[1..])),
        Some("audit") => std::process::exit(run_audit(&args[1..])),
        _ => {}
    }
    let opts = match zerosum_cli::parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("zerosum: {e}");
            std::process::exit(2);
        }
    };
    match zerosum_cli::run(&opts) {
        Ok(out) => {
            let rank = opts
                .rank
                .or_else(|| zerosum_cli::rank_from_env(|k| std::env::var(k).ok()));
            if zerosum_cli::should_print(&opts, rank) {
                print!("{}", out.report);
            }
            for p in &out.logs {
                eprintln!("zerosum: wrote {}", p.display());
            }
            std::process::exit(out.exit_code);
        }
        Err(e) => {
            eprintln!("zerosum: {e}");
            std::process::exit(1);
        }
    }
}

/// `zerosum analyze [--scale N] [--seed N] [--scenario NAME]` — run the
/// paper scenarios under the trace checker. Exit 0 iff every scenario
/// is clean.
fn run_analyze(args: &[String]) -> i32 {
    let mut scale: u32 = 100;
    let mut seed: u64 = 1;
    let mut scenario: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = |it: &mut std::slice::Iter<String>, flag: &str| match it.next() {
            Some(v) => Ok(v.clone()),
            None => Err(format!("{flag} requires a value")),
        };
        let parsed = match arg.as_str() {
            "--scale" => value(&mut it, "--scale").and_then(|v| {
                v.parse()
                    .map(|s| scale = s)
                    .map_err(|e| format!("--scale: {e}"))
            }),
            "--seed" => value(&mut it, "--seed").and_then(|v| {
                v.parse()
                    .map(|s| seed = s)
                    .map_err(|e| format!("--seed: {e}"))
            }),
            "--scenario" => value(&mut it, "--scenario").map(|v| scenario = Some(v)),
            "--help" | "-h" => {
                println!("usage: zerosum analyze [--scale N] [--seed N] [--scenario NAME]");
                println!("scenarios: table1 table2 table3 fig67 fig8-smt1 fig8-smt2 fig5");
                return 0;
            }
            other => Err(format!("unknown flag {other:?}")),
        };
        if let Err(e) = parsed {
            eprintln!("zerosum analyze: {e}");
            return 2;
        }
    }
    let reports = match scenario.as_deref() {
        None => zerosum_analyze::run_all(scale, seed),
        Some(name) => match run_one_scenario(name, scale, seed) {
            Some(r) => vec![r],
            None => {
                eprintln!("zerosum analyze: unknown scenario {name:?}");
                return 2;
            }
        },
    };
    let mut clean = true;
    for r in &reports {
        print!("{}", r.render());
        clean &= r.clean();
    }
    if clean {
        println!("analyze: all scenarios clean");
        0
    } else {
        println!("analyze: FAILED");
        1
    }
}

fn run_one_scenario(name: &str, scale: u32, seed: u64) -> Option<zerosum_analyze::ScenarioReport> {
    use zerosum_experiments::figures::{fig5, fig67_traced, fig8_traced_run};
    use zerosum_experiments::tables::{run_table_traced, TableConfig};
    let config = match name {
        "table1" => Some(TableConfig::Table1),
        "table2" => Some(TableConfig::Table2),
        "table3" => Some(TableConfig::Table3),
        _ => None,
    };
    if let Some(config) = config {
        let (_, trace, audit) = run_table_traced(config, scale, seed);
        return Some(zerosum_analyze::check_trace(name, &trace, &audit));
    }
    match name {
        "fig67" => {
            let (_, trace, audit) = fig67_traced(scale.max(150), seed);
            Some(zerosum_analyze::check_trace(name, &trace, &audit))
        }
        "fig8-smt1" | "fig8-smt2" => {
            let (_, trace, audit) = fig8_traced_run(name.ends_with("smt2"), scale, seed);
            Some(zerosum_analyze::check_trace(name, &trace, &audit))
        }
        "fig5" => {
            let run = fig5(&zerosum_apps::PicConfig::small());
            Some(zerosum_analyze::check_comm_matrix(name, &run.matrix))
        }
        _ => None,
    }
}

/// `zerosum bench [--quick] [--json] [--out FILE] [--check BASELINE]
/// [--max-regress PCT]` — run the performance suite and optionally gate
/// it against a committed baseline. `--compare A B` diffs two saved
/// bench files without measuring anything. Exit 0 on success, 1 when a
/// gated metric regresses past the limit, 2 on usage/IO errors.
fn run_bench(args: &[String]) -> i32 {
    let mut quick = false;
    let mut json = false;
    let mut out_file: Option<String> = None;
    let mut check_file: Option<String> = None;
    let mut max_regress = 15.0f64;
    let mut compare_files: Option<(String, String)> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = |it: &mut std::slice::Iter<String>, flag: &str| match it.next() {
            Some(v) => Ok(v.clone()),
            None => Err(format!("{flag} requires a value")),
        };
        let parsed = match arg.as_str() {
            "--quick" => {
                quick = true;
                Ok(())
            }
            "--json" => {
                json = true;
                Ok(())
            }
            "--out" => value(&mut it, "--out").map(|v| out_file = Some(v)),
            "--check" => value(&mut it, "--check").map(|v| check_file = Some(v)),
            "--max-regress" => value(&mut it, "--max-regress").and_then(|v| {
                v.parse()
                    .map(|p| max_regress = p)
                    .map_err(|e| format!("--max-regress: {e}"))
            }),
            "--compare" => value(&mut it, "--compare A").and_then(|a| {
                value(&mut it, "--compare A B").map(|b| compare_files = Some((a, b)))
            }),
            "--help" | "-h" => {
                println!(
                    "usage: zerosum bench [--quick] [--json] [--out FILE] \
                     [--check BASELINE [--max-regress PCT]]"
                );
                println!("       zerosum bench --compare A.json B.json");
                return 0;
            }
            other => Err(format!("unknown flag {other:?}")),
        };
        if let Err(e) = parsed {
            eprintln!("zerosum bench: {e}");
            return 2;
        }
    }
    let load = |path: &str| -> Result<zerosum_analyze::BenchReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        zerosum_analyze::BenchReport::from_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    if let Some((a, b)) = compare_files {
        return match (load(&a), load(&b)) {
            (Ok(ra), Ok(rb)) => {
                print!("{}", zerosum_analyze::bench_compare(&ra, &rb));
                0
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("zerosum bench: {e}");
                2
            }
        };
    }
    let report = zerosum_analyze::run_bench(quick);
    if json {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    if let Some(path) = out_file {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("zerosum bench: {path}: {e}");
            return 2;
        }
        eprintln!("zerosum bench: wrote {path}");
    }
    if let Some(path) = check_file {
        let baseline = match load(&path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("zerosum bench: {e}");
                return 2;
            }
        };
        let failures = zerosum_analyze::bench_check(&report, &baseline, max_regress);
        if failures.is_empty() {
            println!("bench: within {max_regress:.0}% of {path}");
        } else {
            for f in &failures {
                println!("bench regression: {f}");
            }
            println!("bench: FAILED ({} regression(s))", failures.len());
            return 1;
        }
    }
    0
}

/// `zerosum chaos [--scale N] [--schedules N] [--seed N]` — run the
/// chaos soak (Tables 1–3 under seeded procfs fault schedules) and the
/// abnormal-exit drill. Exit 0 iff every schedule passes and the drill
/// leaves no torn files.
fn run_chaos(args: &[String]) -> i32 {
    let mut scale: u32 = 150;
    let mut schedules: usize = 21;
    let mut seed: u64 = 0xC4A0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = |it: &mut std::slice::Iter<String>, flag: &str| match it.next() {
            Some(v) => Ok(v.clone()),
            None => Err(format!("{flag} requires a value")),
        };
        let parsed = match arg.as_str() {
            "--scale" => value(&mut it, "--scale").and_then(|v| {
                v.parse()
                    .map(|s| scale = s)
                    .map_err(|e| format!("--scale: {e}"))
            }),
            "--schedules" => value(&mut it, "--schedules").and_then(|v| {
                v.parse()
                    .map(|s| schedules = s)
                    .map_err(|e| format!("--schedules: {e}"))
            }),
            "--seed" => value(&mut it, "--seed").and_then(|v| {
                v.parse()
                    .map(|s| seed = s)
                    .map_err(|e| format!("--seed: {e}"))
            }),
            "--help" | "-h" => {
                println!("usage: zerosum chaos [--scale N] [--schedules N] [--seed N]");
                println!("runs Tables 1-3 under seeded procfs fault schedules plus");
                println!("an abnormal-exit drill of the crash-safe export path");
                return 0;
            }
            other => Err(format!("unknown flag {other:?}")),
        };
        if let Err(e) = parsed {
            eprintln!("zerosum chaos: {e}");
            return 2;
        }
    }
    let reports = zerosum_analyze::run_suite(scale, schedules, seed);
    let mut clean = true;
    for r in &reports {
        print!("{}", r.render());
        clean &= r.passed();
    }
    let drill_dir =
        std::env::temp_dir().join(format!("zerosum-chaos-drill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&drill_dir);
    let drill_problems = zerosum_analyze::abnormal_exit_drill(&drill_dir);
    let _ = std::fs::remove_dir_all(&drill_dir);
    if drill_problems.is_empty() {
        println!("abnormal-exit drill: ok (partial logs intact, no torn files)");
    } else {
        clean = false;
        for p in &drill_problems {
            println!("abnormal-exit drill problem: {p}");
        }
    }
    if clean {
        println!("chaos: all {} schedule(s) clean", reports.len());
        0
    } else {
        println!("chaos: FAILED");
        1
    }
}

/// `zerosum cluster-chaos [--nodes N] [--rounds N] [--schedules N]
/// [--seed N] [--drill-rounds N]` — run the allocation-scale chaos
/// soak (seeded node-fault plans against the cluster supervision
/// layer) plus the bounded-memory drill. Exit 0 iff every plan passes
/// and the drill holds every series within its ring capacity.
fn run_cluster_chaos(args: &[String]) -> i32 {
    let mut nodes: usize = 4;
    let mut rounds: u32 = 24;
    let mut schedules: usize = 20;
    let mut seed: u64 = 0xA110;
    let mut drill_rounds: u64 = 1_000_000;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = |it: &mut std::slice::Iter<String>, flag: &str| match it.next() {
            Some(v) => Ok(v.clone()),
            None => Err(format!("{flag} requires a value")),
        };
        let parsed = match arg.as_str() {
            "--nodes" => value(&mut it, "--nodes").and_then(|v| {
                v.parse()
                    .map(|s| nodes = s)
                    .map_err(|e| format!("--nodes: {e}"))
            }),
            "--rounds" => value(&mut it, "--rounds").and_then(|v| {
                v.parse()
                    .map(|s| rounds = s)
                    .map_err(|e| format!("--rounds: {e}"))
            }),
            "--schedules" => value(&mut it, "--schedules").and_then(|v| {
                v.parse()
                    .map(|s| schedules = s)
                    .map_err(|e| format!("--schedules: {e}"))
            }),
            "--seed" => value(&mut it, "--seed").and_then(|v| {
                v.parse()
                    .map(|s| seed = s)
                    .map_err(|e| format!("--seed: {e}"))
            }),
            "--drill-rounds" => value(&mut it, "--drill-rounds").and_then(|v| {
                v.parse()
                    .map(|s| drill_rounds = s)
                    .map_err(|e| format!("--drill-rounds: {e}"))
            }),
            "--help" | "-h" => {
                println!(
                    "usage: zerosum cluster-chaos [--nodes N] [--rounds N] \
                     [--schedules N] [--seed N] [--drill-rounds N]"
                );
                println!("runs seeded node-fault plans (kills, stragglers, rejoins,");
                println!("clock skew) against the cluster supervision layer, the same");
                println!("plans again over lossy transports (frame drops, corruption,");
                println!("partitions), a loopback-TCP smoke, plus the bounded-memory");
                println!("drill over the monitor's ring series");
                return 0;
            }
            other => Err(format!("unknown flag {other:?}")),
        };
        if let Err(e) = parsed {
            eprintln!("zerosum cluster-chaos: {e}");
            return 2;
        }
    }
    let reports = zerosum_analyze::run_cluster_suite(nodes, rounds, schedules, seed);
    let mut clean = true;
    for r in &reports {
        print!("{}", r.render());
        clean &= r.passed();
    }
    // The same allocation judged through the wire: seeded transport
    // fault plans (drops, bit flips, truncation, delay, reorder,
    // disconnects, partitions, kills) over the in-process backend.
    let wire_reports =
        zerosum_analyze::run_transport_suite(nodes, rounds, schedules, seed.wrapping_add(0x51DE));
    for r in &wire_reports {
        print!("{}", r.render());
        clean &= r.passed();
    }
    match zerosum_analyze::tcp_loopback_smoke(3, 5) {
        None => println!("tcp-loopback smoke: SKIPPED (sandbox forbids sockets)"),
        Some(problems) if problems.is_empty() => {
            println!("tcp-loopback smoke: ok (3 nodes, aggregates bit-identical over TCP)")
        }
        Some(problems) => {
            clean = false;
            for p in &problems {
                println!("tcp-loopback smoke problem: {p}");
            }
        }
    }
    let drill_capacity = 4_096;
    let drill_problems = zerosum_analyze::bounded_memory_drill(drill_rounds, drill_capacity);
    if drill_problems.is_empty() {
        println!(
            "bounded-memory drill: ok ({drill_rounds} rounds held every series \
             within {drill_capacity} points)"
        );
    } else {
        clean = false;
        for p in &drill_problems {
            println!("bounded-memory drill problem: {p}");
        }
    }
    // A node dying mid-allocation is this suite's whole subject; the
    // crash-flush path must keep emitting PARTIAL/END-marked logs.
    let exit_dir = std::env::temp_dir().join(format!(
        "zerosum-cluster-chaos-drill-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&exit_dir);
    let exit_problems = zerosum_analyze::abnormal_exit_drill(&exit_dir);
    let _ = std::fs::remove_dir_all(&exit_dir);
    if exit_problems.is_empty() {
        println!("abnormal-exit drill: ok (PARTIAL/END markers present, no torn files)");
    } else {
        clean = false;
        for p in &exit_problems {
            println!("abnormal-exit drill problem: {p}");
        }
    }
    if clean {
        println!(
            "cluster-chaos: all {} plan(s) clean",
            reports.len() + wire_reports.len()
        );
        0
    } else {
        println!("cluster-chaos: FAILED");
        1
    }
}

/// `zerosum churn [--backend sim|fork|fork-exec] [--schedules N]
/// [--seed N] [--rate HZ] [--ramp] [--duration-ms N] [--probe]` — the
/// open-system churn soak. The default `sim` backend replays seeded
/// fork/exec storms against the deterministic node simulation and
/// judges the lifecycle invariants (bit-reproducible; this is what CI
/// gates on). The `fork` / `fork-exec` backends spawn real
/// `__churn-child` processes paced by the same schedule and sample
/// them through live `/proc`. `--probe` only checks whether the
/// sandbox allows spawning (exit 0 = yes, 3 = no) so CI can skip the
/// real stage loudly. Exit 0 clean, 1 judge failure, 2 usage errors,
/// 3 sandbox-forbidden.
fn run_churn(args: &[String]) -> i32 {
    let mut backend = String::from("sim");
    let mut schedules: usize = 20;
    let mut seed: u64 = 0xC4B1;
    let mut rate_hz: f64 = 50.0;
    let mut ramp = false;
    let mut duration_ms: u64 = 2_000;
    let mut probe = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = |it: &mut std::slice::Iter<String>, flag: &str| match it.next() {
            Some(v) => Ok(v.clone()),
            None => Err(format!("{flag} requires a value")),
        };
        let parsed = match arg.as_str() {
            "--backend" => value(&mut it, "--backend").map(|v| backend = v),
            "--schedules" => value(&mut it, "--schedules").and_then(|v| {
                v.parse()
                    .map(|s| schedules = s)
                    .map_err(|e| format!("--schedules: {e}"))
            }),
            "--seed" => value(&mut it, "--seed").and_then(|v| {
                v.parse()
                    .map(|s| seed = s)
                    .map_err(|e| format!("--seed: {e}"))
            }),
            "--rate" => value(&mut it, "--rate").and_then(|v| {
                v.parse()
                    .map(|s| rate_hz = s)
                    .map_err(|e| format!("--rate: {e}"))
            }),
            "--ramp" => {
                ramp = true;
                Ok(())
            }
            "--duration-ms" => value(&mut it, "--duration-ms").and_then(|v| {
                v.parse()
                    .map(|s| duration_ms = s)
                    .map_err(|e| format!("--duration-ms: {e}"))
            }),
            "--probe" => {
                probe = true;
                Ok(())
            }
            "--help" | "-h" => {
                println!(
                    "usage: zerosum churn [--backend sim|fork|fork-exec] [--schedules N] \
                     [--seed N] [--rate HZ] [--ramp] [--duration-ms N] [--probe]"
                );
                println!("open-system churn soak: fork/exec storms against the monitor's");
                println!("lifecycle path (DESIGN.md §14); `sim` is deterministic, `fork` and");
                println!("`fork-exec` spawn real child processes sampled through live /proc");
                return 0;
            }
            other => Err(format!("unknown flag {other:?}")),
        };
        if let Err(e) = parsed {
            eprintln!("zerosum churn: {e}");
            return 2;
        }
    }
    if probe {
        return if zerosum_apps::probe_spawn() {
            0
        } else {
            eprintln!("zerosum churn: sandbox forbids spawning children");
            3
        };
    }
    let variant = match backend.as_str() {
        "sim" => {
            let reports = zerosum_analyze::run_churn_suite(schedules, seed);
            let mut clean = true;
            for r in &reports {
                print!("{}", r.render());
                clean &= r.passed();
            }
            return if clean {
                println!("churn: all {} schedule(s) clean", reports.len());
                0
            } else {
                println!("churn: FAILED");
                1
            };
        }
        "fork" => zerosum_apps::StormVariant::Fork,
        "fork-exec" => zerosum_apps::StormVariant::ForkExec,
        other => {
            eprintln!("zerosum churn: unknown backend {other:?} (sim|fork|fork-exec)");
            return 2;
        }
    };
    // Real backend: probe first so a forbidden sandbox is a loud,
    // distinct exit instead of a storm of spawn errors.
    if !zerosum_apps::probe_spawn() {
        eprintln!("zerosum churn: sandbox forbids spawning children");
        return 3;
    }
    let cfg = zerosum_apps::ChurnConfig {
        seed,
        arrival_rate_hz: rate_hz,
        ramp,
        duration_us: duration_ms.saturating_mul(1_000).max(1),
        ..Default::default()
    };
    let out = match zerosum_apps::run_real_churn(&cfg, variant) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("zerosum churn: {e}");
            return 1;
        }
    };
    println!(
        "churn ({backend}): {} round(s), {} spawned, {} reaped, {} vanished, \
         {} departed track(s), peak footprint {}, handles held: peak {}, at exit {}, \
         {:.1} samples/s",
        out.rounds,
        out.spawned,
        out.reaped,
        out.vanished,
        out.departed_tracks,
        out.peak_footprint,
        out.peak_handles,
        out.handles_at_exit,
        out.samples_per_sec
    );
    // Wall-clock runs are nondeterministic; the judge here is the
    // robustness floor, not the sim suite's bit-level invariants.
    let mut problems = Vec::new();
    if out.rounds == 0 || out.spawned == 0 {
        problems.push(format!(
            "storm never ran: {} round(s), {} spawned",
            out.rounds, out.spawned
        ));
    }
    if out.supervisor_restarts > 0 {
        problems.push(format!(
            "sampling loop panicked {} time(s)",
            out.supervisor_restarts
        ));
    }
    if out.failed_children > 0 {
        problems.push(format!("{} child(ren) failed", out.failed_children));
    }
    // Three files per live task plus /proc/stat and meminfo, and a
    // departed pid's handles gone with the listing that misses it.
    if out.peak_handles > 3 * out.peak_footprint + 2 || out.handles_at_exit > 2 {
        problems.push(format!(
            "file handles outlive their tasks: peak {} over a peak footprint of {}, {} at exit",
            out.peak_handles, out.peak_footprint, out.handles_at_exit
        ));
    }
    if out.reaped != out.spawned {
        problems.push(format!(
            "reaped {} of {} spawned child(ren)",
            out.reaped, out.spawned
        ));
    }
    if problems.is_empty() {
        println!("churn: clean");
        0
    } else {
        for p in &problems {
            println!("churn problem: {p}");
        }
        println!("churn: FAILED");
        1
    }
}

/// `zerosum collect --listen ADDR [--probe] [--port-file F] [--nodes N]
/// [--rounds N] [--period-ms N]` — run the collector daemon over real
/// TCP: accept `--nodes` agent connections, drive `--rounds`
/// supervision rounds off received frames, and print the wire-side
/// allocation summary. `--probe` only binds and exits (0 = sockets
/// work, 3 = sandbox forbids them) so CI can decide to skip loudly.
/// Exit 0 iff every node's aggregate was delivered.
fn run_collect(args: &[String]) -> i32 {
    let mut listen = String::from("127.0.0.1:0");
    let mut probe = false;
    let mut port_file: Option<String> = None;
    let mut nodes: usize = 1;
    let mut rounds: u32 = 10;
    let mut period_ms: u64 = 100;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = |it: &mut std::slice::Iter<String>, flag: &str| match it.next() {
            Some(v) => Ok(v.clone()),
            None => Err(format!("{flag} requires a value")),
        };
        let parsed = match arg.as_str() {
            "--listen" => value(&mut it, "--listen").map(|v| listen = v),
            "--probe" => {
                probe = true;
                Ok(())
            }
            "--port-file" => value(&mut it, "--port-file").map(|v| port_file = Some(v)),
            "--nodes" => value(&mut it, "--nodes").and_then(|v| {
                v.parse()
                    .map(|s| nodes = s)
                    .map_err(|e| format!("--nodes: {e}"))
            }),
            "--rounds" => value(&mut it, "--rounds").and_then(|v| {
                v.parse()
                    .map(|s| rounds = s)
                    .map_err(|e| format!("--rounds: {e}"))
            }),
            "--period-ms" => value(&mut it, "--period-ms").and_then(|v| {
                v.parse()
                    .map(|s| period_ms = s)
                    .map_err(|e| format!("--period-ms: {e}"))
            }),
            "--help" | "-h" => {
                println!(
                    "usage: zerosum collect [--listen ADDR] [--probe] [--port-file F] \
                     [--nodes N] [--rounds N] [--period-ms N]"
                );
                println!("collector daemon: accepts `zerosum stream` agents over TCP and");
                println!("drives supervision rounds off their frames (DESIGN.md §12)");
                return 0;
            }
            other => Err(format!("unknown flag {other:?}")),
        };
        if let Err(e) = parsed {
            eprintln!("zerosum collect: {e}");
            return 2;
        }
    }
    let acceptor = match zerosum_net::Acceptor::bind(&listen) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("zerosum collect: bind {listen}: {e}");
            // Distinct exit for "no sockets here" — CI skips loudly.
            return 3;
        }
    };
    let addr = match acceptor.local_addr() {
        Ok(a) => a.to_string(),
        Err(e) => {
            eprintln!("zerosum collect: local_addr: {e}");
            return 3;
        }
    };
    eprintln!("zerosum collect: listening on {addr}");
    if let Some(pf) = &port_file {
        if let Err(e) = std::fs::write(pf, &addr) {
            eprintln!("zerosum collect: {pf}: {e}");
            return 2;
        }
    }
    if probe {
        return 0;
    }
    let period = std::time::Duration::from_millis(period_ms.max(1));
    let mut collector = zerosum_net::Collector::with_config(zerosum_net::CollectorConfig {
        period_s: period.as_secs_f64(),
        ..Default::default()
    });
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let mut accepted = 0;
    while accepted < nodes {
        match acceptor.poll_accept(zerosum_net::DEFAULT_WINDOW) {
            Ok(Some(link)) => {
                collector.add_link(Box::new(link));
                accepted += 1;
                eprintln!("zerosum collect: {accepted}/{nodes} node(s) connected");
            }
            Ok(None) => {
                if std::time::Instant::now() > deadline {
                    eprintln!("zerosum collect: timed out waiting for {nodes} node(s)");
                    return 1;
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            Err(e) => {
                eprintln!("zerosum collect: accept: {e}");
                return 1;
            }
        }
    }
    for _ in 0..rounds {
        // Pump a few times within the period so acks flow promptly.
        for _ in 0..4 {
            std::thread::sleep(period / 4);
            collector.pump_frames();
        }
        collector.run_round();
    }
    // Drain: final aggregates retransmit until acked.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while collector.wire_aggregates().len() < nodes && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
        collector.pump_frames();
    }
    print!("{}", collector.render_summary());
    if collector.wire_aggregates().len() == nodes {
        0
    } else {
        eprintln!(
            "zerosum collect: only {}/{} aggregate(s) delivered",
            collector.wire_aggregates().len(),
            nodes
        );
        1
    }
}

/// `zerosum stream --connect ADDR [--node NAME] [--rank N] [--rounds N]
/// [--period-ms N] [--seed N]` — run one node agent over real TCP: a
/// simulated node samples every period and streams
/// Hello/heartbeat/detail frames, then ships its final aggregate until
/// acked. Exit 0 iff the aggregate was acknowledged.
fn run_stream(args: &[String]) -> i32 {
    let mut connect: Option<String> = None;
    let mut node = String::from("stream0000");
    let mut rank: u32 = 0;
    let mut rounds: u32 = 10;
    let mut period_ms: u64 = 100;
    let mut seed: u64 = 42;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = |it: &mut std::slice::Iter<String>, flag: &str| match it.next() {
            Some(v) => Ok(v.clone()),
            None => Err(format!("{flag} requires a value")),
        };
        let parsed = match arg.as_str() {
            "--connect" => value(&mut it, "--connect").map(|v| connect = Some(v)),
            "--node" => value(&mut it, "--node").map(|v| node = v),
            "--rank" => value(&mut it, "--rank").and_then(|v| {
                v.parse()
                    .map(|s| rank = s)
                    .map_err(|e| format!("--rank: {e}"))
            }),
            "--rounds" => value(&mut it, "--rounds").and_then(|v| {
                v.parse()
                    .map(|s| rounds = s)
                    .map_err(|e| format!("--rounds: {e}"))
            }),
            "--period-ms" => value(&mut it, "--period-ms").and_then(|v| {
                v.parse()
                    .map(|s| period_ms = s)
                    .map_err(|e| format!("--period-ms: {e}"))
            }),
            "--seed" => value(&mut it, "--seed").and_then(|v| {
                v.parse()
                    .map(|s| seed = s)
                    .map_err(|e| format!("--seed: {e}"))
            }),
            "--help" | "-h" => {
                println!(
                    "usage: zerosum stream --connect ADDR [--node NAME] [--rank N] \
                     [--rounds N] [--period-ms N] [--seed N]"
                );
                println!("node agent: streams monitoring frames to `zerosum collect`");
                return 0;
            }
            other => Err(format!("unknown flag {other:?}")),
        };
        if let Err(e) = parsed {
            eprintln!("zerosum stream: {e}");
            return 2;
        }
    }
    let Some(addr) = connect else {
        eprintln!("zerosum stream: --connect ADDR is required");
        return 2;
    };
    let link = match zerosum_net::TcpLink::dial(&addr, zerosum_net::DEFAULT_WINDOW) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("zerosum stream: dial {addr}: {e}");
            return 3;
        }
    };
    let mut agent = zerosum_net::NodeAgent::new(link, node.clone());
    // The streamed node is the cluster-chaos simulated node: a pinned
    // rank with an OpenMP worker, sampled once per period.
    let period = std::time::Duration::from_millis(period_ms.max(1));
    let period_us = period.as_micros() as u64;
    let mut sim = zerosum_sched::NodeSim::new(
        zerosum_topology::presets::laptop_i7_1165g7(),
        zerosum_sched::SchedParams {
            seed: seed | 1,
            ..Default::default()
        },
    );
    sim.set_hostname(&node);
    let mask = zerosum_topology::CpuSet::from_indices([0u32, 1]);
    let work = zerosum_sched::Behavior::FiniteCompute {
        remaining_us: u64::from(rounds) * period_us,
        chunk_us: 10_000,
    };
    let pid = sim.spawn_process("rank", mask.clone(), 1_024, work.clone());
    sim.spawn_task(pid, "OpenMP", None, work, false);
    let mut mon = zerosum_core::Monitor::new(zerosum_core::ZeroSumConfig::scaled(10));
    mon.watch_process(zerosum_core::ProcessInfo {
        pid,
        rank: Some(rank),
        hostname: node.clone(),
        gpus: vec![],
        cpus_allowed: mask,
    });
    for r in 0..rounds {
        sim.run_for(period_us);
        let t_s = sim.now_us() as f64 / 1e6;
        {
            let src = zerosum_sched::SimProcSource::new(&sim);
            mon.sample(t_s, &src);
        }
        let round = u64::from(r) + 1;
        agent.begin_round(round, t_s);
        if let Some(w) = mon.process(pid) {
            for t in w.lwps.tracks() {
                agent.send_detail(round, t.tid, t.cpu_fraction() * 100.0);
            }
        }
        for _ in 0..4 {
            std::thread::sleep(period / 4);
            agent.tick();
        }
    }
    let agg = zerosum_core::NodeAggregate::from_monitor(&node, &mon);
    agent.finish(u64::from(rounds), agg);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !agent.done() {
        if std::time::Instant::now() > deadline {
            eprintln!("zerosum stream: aggregate never acknowledged");
            return 1;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        agent.tick();
    }
    println!(
        "stream: {node} delivered its aggregate after {rounds} round(s) \
         ({} frame(s) sent, {} detail(s) shed)",
        agent.stats.frames_tx, agent.stats.details_shed
    );
    0
}

/// `zerosum audit [--json] [--explain] [--root DIR] [--baseline FILE]
/// [--write-baseline FILE] [--drill]` — run the interprocedural
/// concurrency, effect, and thread-provenance audit (lock-order
/// cycles, locks held across blocking ops, panic-reachability,
/// hot-path allocation, nondeterminism, blocking-in-scope, ring
/// discipline, channel protocol, role blocking). With `--baseline`,
/// only findings beyond the committed baseline fail (lock cycles
/// always fail, and a baseline naming a pass that no longer exists is
/// a staleness error). `--explain` prints the witness trace (shortest
/// root→site call chain) under each finding plus the static
/// thread-role edge set. `--drill` additionally runs monitored
/// workloads under the runtime lock-order and thread-role sanitizers
/// and checks every observed edge against the static graphs. Exit 0
/// clean, 1 findings/drill failure, 2 usage/IO errors.
fn run_audit(args: &[String]) -> i32 {
    let mut json = false;
    let mut explain = false;
    let mut drill = false;
    let mut root_arg: Option<String> = None;
    let mut baseline_file: Option<String> = None;
    let mut write_baseline: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = |it: &mut std::slice::Iter<String>, flag: &str| match it.next() {
            Some(v) => Ok(v.clone()),
            None => Err(format!("{flag} requires a value")),
        };
        let parsed = match arg.as_str() {
            "--json" => {
                json = true;
                Ok(())
            }
            "--explain" => {
                explain = true;
                Ok(())
            }
            "--drill" => {
                drill = true;
                Ok(())
            }
            "--root" => value(&mut it, "--root").map(|v| root_arg = Some(v)),
            "--baseline" => value(&mut it, "--baseline").map(|v| baseline_file = Some(v)),
            "--write-baseline" => {
                value(&mut it, "--write-baseline").map(|v| write_baseline = Some(v))
            }
            "--help" | "-h" => {
                println!(
                    "usage: zerosum audit [--json] [--explain] [--root DIR] [--baseline FILE] \
                     [--write-baseline FILE] [--drill]"
                );
                println!(
                    "static lock-order + panic-reachability + effect + thread-provenance \
                     audit; see DESIGN.md §10-§11 and §15"
                );
                println!("  --explain   print the witness call chain under each finding");
                return 0;
            }
            other => Err(format!("unknown flag {other:?}")),
        };
        if let Err(e) = parsed {
            eprintln!("zerosum audit: {e}");
            return 2;
        }
    }
    let root = match root_arg {
        Some(r) => std::path::PathBuf::from(r),
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("zerosum audit: {e}");
                    return 2;
                }
            };
            match zerosum_analyze::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "zerosum audit: no workspace root found above {}",
                        cwd.display()
                    );
                    return 2;
                }
            }
        }
    };
    let report = match zerosum_analyze::audit_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("zerosum audit: {e}");
            return 2;
        }
    };
    if json {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.render_with(explain));
    }
    if let Some(path) = write_baseline {
        if let Err(e) = std::fs::write(&path, report.baseline_json()) {
            eprintln!("zerosum audit: {path}: {e}");
            return 2;
        }
        eprintln!("zerosum audit: wrote {path}");
        // Recording a baseline succeeds unless the unbaselineable pass
        // (lock cycles) fails.
        return if report.cycles().is_empty() { 0 } else { 1 };
    }
    let mut failed = false;
    match baseline_file {
        Some(path) => {
            let base = match std::fs::read_to_string(&path)
                .map_err(|e| format!("{path}: {e}"))
                .and_then(|t| zerosum_analyze::baseline_from_json(&t))
            {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("zerosum audit: {e}");
                    return 2;
                }
            };
            // A baseline key for a pass the engine no longer runs can
            // never mask anything again — stale, like a dead allowlist
            // entry.
            let stale = zerosum_analyze::unknown_pass_keys(&base);
            if !stale.is_empty() {
                for k in &stale {
                    println!("audit: STALE baseline key names unknown pass: {k}");
                }
                println!(
                    "audit: {} stale baseline key(s) — regenerate with --write-baseline",
                    stale.len()
                );
                failed = true;
            }
            let beyond = report.beyond_baseline(&base);
            if beyond.is_empty() {
                println!("audit: clean against baseline {path}");
            } else {
                for f in &beyond {
                    println!("audit: NEW {}: {}:{}: {}", f.pass, f.file, f.line, f.detail);
                    if explain && !f.witness.is_empty() {
                        println!("    trace: {}", f.witness.join(" -> "));
                    }
                }
                println!("audit: {} finding(s) beyond baseline", beyond.len());
                failed = true;
            }
        }
        None => {
            if !report.findings.is_empty() {
                failed = true;
            }
        }
    }
    // Lock cycles fail regardless of any baseline.
    if !report.cycles().is_empty() {
        println!(
            "audit: {} lock-order cycle(s) — never baselineable",
            report.cycles().len()
        );
        failed = true;
    }
    if drill {
        let d = zerosum_analyze::audit::drill::run_drill(&report);
        print!("{}", d.render());
        if !d.ok() {
            failed = true;
        }
    }
    if failed {
        1
    } else {
        0
    }
}

/// `zerosum lint` — run the repo lint pass from the workspace root.
/// `zerosum shard-diff [--seeds N]` — the N-shards-vs-1-shard
/// equivalence gate: seeded bit-identity differentials of the sharded
/// round against the one-shard round `Monitor::sample` runs, plus the
/// one-faulted-shard chaos isolation drill. Exit 0 iff every seed is
/// identical and the faulted shard stayed contained.
fn run_shard_diff(args: &[String]) -> i32 {
    let mut seeds: u64 = 20;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seeds" => match it.next().map(|v| v.parse()) {
                Some(Ok(n)) => seeds = n,
                _ => {
                    eprintln!("zerosum shard-diff: --seeds requires a number");
                    return 2;
                }
            },
            "--help" | "-h" => {
                println!("usage: zerosum shard-diff [--seeds N]");
                println!("  N seeds: sharded rounds must equal Monitor::sample's 1-shard round");
                return 0;
            }
            other => {
                eprintln!("zerosum shard-diff: unknown flag {other:?}");
                return 2;
            }
        }
    }
    let report = zerosum_analyze::run_shard_diff(seeds);
    print!("{}", report.render());
    if report.clean() {
        println!("shard-diff: all seeds identical, chaos isolated");
        0
    } else {
        println!("shard-diff: FAILED");
        1
    }
}

fn run_lint() -> i32 {
    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("zerosum lint: {e}");
            return 2;
        }
    };
    let Some(root) = zerosum_analyze::find_workspace_root(&cwd) else {
        eprintln!(
            "zerosum lint: no workspace root found above {}",
            cwd.display()
        );
        return 2;
    };
    let stale = match zerosum_analyze::lint::stale_growth_entries(&root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("zerosum lint: {e}");
            return 2;
        }
    };
    for entry in &stale {
        println!("lint: [stale-allowlist] ALLOWED_GROWTH_FIELDS entry `{entry}` matches no `.push(` site");
    }
    match zerosum_analyze::lint_repo(&root) {
        Ok(v) => {
            for x in &v {
                println!("{x}");
            }
            let errors = v.iter().filter(|x| !x.rule.is_note()).count() + stale.len();
            let notes = v.len() + stale.len() - errors;
            if errors == 0 {
                println!("lint: clean ({}), {notes} note(s)", root.display());
                0
            } else {
                println!("lint: {errors} violation(s), {notes} note(s)");
                1
            }
        }
        Err(e) => {
            eprintln!("zerosum lint: {e}");
            2
        }
    }
}
