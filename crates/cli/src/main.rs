//! The `zerosum` binary — the workspace's only executable. The logic
//! lives in the library crates; this file routes argv through the flag
//! table (`zerosum_cli::flags`), runs the command body, prints, and
//! turns the outcome into an exit code: 0 clean, 1 failed, 2 usage or
//! I/O error, 3 the sandbox forbids what the command needs.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::time::{Duration, Instant};

use zerosum_analyze::{drill_section, render_suite};
use zerosum_cli::flags::{self, Parsed};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The hidden modes dispatch before anything else: children re-exec
    // this binary with exactly these args.
    match args.split_first() {
        // The worker process `zerosum churn --backend fork` storms with.
        Some((first, rest)) if first == "__churn-child" => {
            let code = zerosum_apps::churn_child_main(rest);
            if code == 2 {
                eprintln!("__churn-child: usage: [exec] <spin_us> <threads>");
            }
            std::process::exit(code);
        }
        // The fresh process `tests/fd_table.rs` measures the handle
        // cache's effect on the fd table in.
        Some((first, rest)) if first == "__fd-probe" => {
            let mode = rest.first().map_or("", String::as_str);
            match zerosum_cli::fdprobe::run_fd_probe(mode) {
                Ok(report) => println!("{report}"),
                Err(e) => {
                    eprintln!("__fd-probe: {e}");
                    std::process::exit(2);
                }
            }
            return;
        }
        _ => {}
    }
    let (command, rest) = flags::route(&args);
    let parsed = flags::parse_flags(command, rest).unwrap_or_else(|e| {
        let code = give_up(command.name, 2)(e);
        eprintln!("usage: {}", flags::usage_line(command));
        std::process::exit(code)
    });
    if parsed.help {
        print!("{}", flags::help_text(command));
        return;
    }
    let exit = match command.name {
        "analyze" => Ok(cmd_analyze(&parsed)),
        "chaos" => Ok(cmd_chaos(&parsed)),
        "cluster-chaos" => Ok(cmd_cluster_chaos(&parsed)),
        "churn" => cmd_churn(&parsed),
        "collect" => cmd_collect(&parsed),
        "stream" => cmd_stream(&parsed),
        "audit" => cmd_audit(&parsed),
        "shard-diff" => Ok(cmd_shard_diff(&parsed)),
        "run-all" => cmd_run_all(&parsed),
        _ => cmd_wrap(&parsed),
    };
    std::process::exit(exit.unwrap_or_else(|code| code))
}

/// A command's exit code; `Err` when it gave up early with that code.
type Exit = Result<i32, i32>;

/// For `map_err`: says `zerosum <context>: <error>` and gives up with
/// `code`.
fn give_up<E: std::fmt::Display>(context: &str, code: i32) -> impl Fn(E) -> i32 + '_ {
    move |e| {
        eprintln!("{}: {e}", format!("zerosum {context}").trim_end());
        code
    }
}

/// Prints a command's last line and picks its exit code.
fn conclude(command: &str, clean: bool, clean_text: &str) -> i32 {
    if clean {
        println!("{command}: {clean_text}");
        0
    } else {
        println!("{command}: FAILED");
        1
    }
}

/// Prints a drill's section; true when the drill found nothing.
fn drill_passed(label: &str, ok_text: &str, problems: &[String]) -> bool {
    print!("{}", drill_section(label, ok_text, problems));
    problems.is_empty()
}

/// `zerosum -- <command>`: launch and monitor it, print the report.
fn cmd_wrap(p: &Parsed) -> Exit {
    let opts = zerosum_cli::wrapper_options(p).map_err(give_up("", 2))?;
    let out = zerosum_cli::run(&opts).map_err(give_up("", 1))?;
    let rank = opts
        .rank
        .or_else(|| zerosum_cli::rank_from_env(|k| std::env::var(k).ok()));
    if zerosum_cli::should_print(&opts, rank) {
        print!("{}", out.report);
    }
    for p in &out.logs {
        eprintln!("zerosum: wrote {}", p.display());
    }
    Ok(out.exit_code)
}

/// Exit 0 iff every scenario is clean.
fn cmd_analyze(p: &Parsed) -> i32 {
    let (text, clean) = render_suite(&zerosum_analyze::run_scenarios(
        p.text_of("--scenario"),
        p.number("--scale"),
        p.number("--seed"),
    ));
    print!("{text}");
    conclude("analyze", clean, "all scenarios clean")
}

/// Exit 0 iff every schedule passes and the drill leaves no torn files.
fn cmd_chaos(p: &Parsed) -> i32 {
    let verdicts = zerosum_analyze::run_suite(
        p.number("--scale"),
        p.number("--schedules"),
        p.number("--seed"),
    );
    let (text, mut clean) = render_suite(&verdicts);
    print!("{text}");
    clean &= drill_passed(
        "abnormal-exit drill",
        "ok (partial logs intact, no torn files)",
        &zerosum_analyze::abnormal_exit_drill(),
    );
    let all = format!("all {} schedule(s) clean", verdicts.len());
    conclude("chaos", clean, &all)
}

/// Exit 0 iff every node and wire plan passes and the drill holds every
/// series within its ring capacity.
fn cmd_cluster_chaos(p: &Parsed) -> i32 {
    let (nodes, rounds): (usize, u32) = (p.number("--nodes"), p.number("--rounds"));
    let (schedules, seed): (usize, u64) = (p.number("--schedules"), p.number("--seed"));
    let mut verdicts = zerosum_analyze::run_cluster_suite(nodes, rounds, schedules, seed);
    // The same allocation judged through the wire: seeded transport
    // fault plans over the in-process backend.
    verdicts.extend(zerosum_analyze::run_transport_suite(
        nodes,
        rounds,
        schedules,
        seed.wrapping_add(0x51DE),
    ));
    let (text, mut clean) = render_suite(&verdicts);
    print!("{text}");
    match zerosum_analyze::tcp_loopback_smoke(3, 5) {
        None => println!("tcp-loopback smoke: SKIPPED (sandbox forbids sockets)"),
        Some(problems) => {
            clean &= drill_passed(
                "tcp-loopback smoke",
                "ok (3 nodes, aggregates bit-identical over TCP)",
                &problems,
            );
        }
    }
    let (drill_rounds, capacity): (u64, usize) = (p.number("--drill-rounds"), 4_096);
    let held = format!("ok ({drill_rounds} rounds held every series within {capacity} points)");
    let drill = zerosum_analyze::bounded_memory_drill(drill_rounds, capacity);
    clean &= drill_passed("bounded-memory drill", &held, &drill);
    let all = format!("all {} plan(s) clean", verdicts.len());
    conclude("cluster-chaos", clean, &all)
}

/// The `sim` backend (what CI gates on) replays seeded storms against
/// the node simulation; `fork` / `fork-exec` spawn real `__churn-child`
/// processes sampled through live `/proc`. Exit 0 clean, 1 judge
/// failure, 3 the sandbox forbids spawning.
fn cmd_churn(p: &Parsed) -> Exit {
    let backend = p.text_of("--backend").unwrap_or_default();
    let seed: u64 = p.number("--seed");
    if !p.given("--probe") && backend == "sim" {
        let verdicts = zerosum_analyze::run_churn_suite(p.number("--schedules"), seed);
        let (text, clean) = render_suite(&verdicts);
        print!("{text}");
        let all = format!("all {} schedule(s) clean", verdicts.len());
        return Ok(conclude("churn", clean, &all));
    }
    // Real backend: probe first so a forbidden sandbox is a loud,
    // distinct exit instead of a storm of spawn errors.
    if !zerosum_apps::probe_spawn() {
        eprintln!("zerosum churn: sandbox forbids spawning children");
        return Err(3);
    }
    if p.given("--probe") {
        return Ok(0);
    }
    let variant = if backend == "fork" {
        zerosum_apps::StormVariant::Fork
    } else {
        zerosum_apps::StormVariant::ForkExec
    };
    let cfg = zerosum_apps::ChurnConfig {
        seed,
        arrival_rate_hz: p.number("--rate"),
        ramp: p.given("--ramp"),
        duration_us: p
            .number::<u64>("--duration-ms")
            .saturating_mul(1_000)
            .max(1),
        ..Default::default()
    };
    let out = zerosum_apps::run_real_churn(&cfg, variant).map_err(give_up("churn", 1))?;
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
    if !drill_passed("churn", "clean", &zerosum_analyze::judge_real_churn(&out)) {
        println!("churn: FAILED");
        return Ok(1);
    }
    Ok(0)
}

/// Runs the collector daemon over real TCP: accept `--nodes` agents,
/// drive `--rounds` supervision rounds off their frames, print the
/// wire-side allocation summary. Exit 0 iff every node's aggregate was
/// delivered.
fn cmd_collect(p: &Parsed) -> Exit {
    let listen = p.text_of("--listen").unwrap_or_default();
    let nodes: usize = p.number("--nodes");
    // Exit 3 says "no sockets here" (CI skips loudly on it), so it must
    // not also mean "this address is taken": only a sandbox refuses an
    // ephemeral loopback port too.
    let sandboxed = || zerosum_net::Acceptor::bind("127.0.0.1:0").is_err();
    let acceptor = zerosum_net::Acceptor::bind(listen)
        .map_err(give_up(&format!("collect: bind {listen}"), 1))
        .map_err(|code| if sandboxed() { 3 } else { code })?;
    let addr = acceptor
        .local_addr()
        .map_err(give_up("collect: local_addr", 3))?
        .to_string();
    eprintln!("zerosum collect: listening on {addr}");
    if let Some(pf) = p.text_of("--port-file") {
        std::fs::write(pf, &addr).map_err(give_up(&format!("collect: {pf}"), 2))?;
    }
    if p.given("--probe") {
        return Ok(0);
    }
    let period = Duration::from_millis(p.number::<u64>("--period-ms").max(1));
    let mut collector = zerosum_net::Collector::with_config(zerosum_net::CollectorConfig {
        period_s: period.as_secs_f64(),
        ..Default::default()
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut accepted = 0;
    while accepted < nodes {
        match acceptor.poll_accept(zerosum_net::DEFAULT_WINDOW) {
            Ok(Some(link)) => {
                collector.add_link(Box::new(link));
                accepted += 1;
                eprintln!("zerosum collect: {accepted}/{nodes} node(s) connected");
            }
            Ok(None) if Instant::now() > deadline => {
                eprintln!("zerosum collect: timed out waiting for {nodes} node(s)");
                return Err(1);
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => return Err(give_up("collect: accept", 1)(e)),
        }
    }
    for _ in 0..p.number::<u32>("--rounds") {
        // Pump a few times within the period so acks flow promptly.
        for _ in 0..4 {
            std::thread::sleep(period / 4);
            collector.pump_frames();
        }
        collector.run_round();
    }
    // Drain: final aggregates retransmit until acked.
    let deadline = Instant::now() + Duration::from_secs(10);
    while collector.wire_aggregates().len() < nodes && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
        collector.pump_frames();
    }
    print!("{}", collector.render_summary());
    let delivered = collector.wire_aggregates().len();
    if delivered != nodes {
        eprintln!("zerosum collect: only {delivered}/{nodes} aggregate(s) delivered");
        return Err(1);
    }
    Ok(0)
}

/// Runs one node agent over real TCP: the chaos drivers' simulated node
/// samples every period and streams Hello/heartbeat/detail frames, then
/// ships its final aggregate until acked. Exit 0 iff it was.
fn cmd_stream(p: &Parsed) -> Exit {
    let addr = p
        .text_of("--connect")
        .ok_or("--connect ADDR is required")
        .map_err(give_up("stream", 2))?;
    let node = p.text_of("--node").unwrap_or_default();
    let rounds: u32 = p.number("--rounds");
    // `collect --probe` is the sandbox probe; a dial that fails is a
    // failure.
    let link = zerosum_net::TcpLink::dial(addr, zerosum_net::DEFAULT_WINDOW)
        .map_err(give_up(&format!("stream: dial {addr}"), 1))?;
    let mut agent = zerosum_net::NodeAgent::new(link, node.to_string());
    let period = Duration::from_millis(p.number::<u64>("--period-ms").max(1));
    let period_us = period.as_micros() as u64;
    let (mut sim, mut mon, pid) = zerosum_experiments::cluster_chaos::chaos_node(
        node,
        p.number("--rank"),
        p.number("--seed"),
        rounds,
        period_us,
    );
    for r in 0..rounds {
        sim.run_for(period_us);
        let t_s = sim.now_us() as f64 / 1e6;
        mon.sample(t_s, &zerosum_sched::SimProcSource::new(&sim));
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
    let agg = zerosum_core::NodeAggregate::from_monitor(node, &mon);
    agent.finish(u64::from(rounds), agg);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !agent.done() {
        if Instant::now() > deadline {
            eprintln!("zerosum stream: aggregate never acknowledged");
            return Err(1);
        }
        std::thread::sleep(Duration::from_millis(5));
        agent.tick();
    }
    println!(
        "stream: {node} delivered its aggregate after {rounds} round(s) \
         ({} frame(s) sent, {} detail(s) shed)",
        agent.stats.frames_tx, agent.stats.details_shed
    );
    Ok(0)
}

/// Exit 0 no finding and the drills hold, 1 any finding or a drill
/// failure, 2 I/O errors.
fn cmd_audit(p: &Parsed) -> Exit {
    let root = match p.text_of("--root") {
        Some(r) => PathBuf::from(r),
        None => {
            let cwd = std::env::current_dir().map_err(give_up("audit", 2))?;
            zerosum_analyze::find_workspace_root(&cwd)
                .ok_or_else(|| format!("no workspace root found above {}", cwd.display()))
                .map_err(give_up("audit", 2))?
        }
    };
    let started = Instant::now();
    let report = zerosum_analyze::audit_workspace(&root).map_err(give_up("audit", 2))?;
    // The audit runs on every push; what it cost goes to stderr, so
    // stdout stays the report and nothing but the report.
    let ms = started.elapsed().as_secs_f64() * 1e3;
    eprintln!("zerosum audit: workspace audited in {ms:.0} ms");
    if p.given("--json") {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.render_with(p.given("--explain")));
    }
    let mut failed = !report.clean();
    if p.given("--drill") {
        let d = zerosum_analyze::audit::drill::run_drill(&report);
        print!("{}", d.render());
        failed |= !d.ok();
    }
    Ok(i32::from(failed))
}

/// Exit 0 iff every seed is identical and the faulted shard stayed
/// contained.
fn cmd_shard_diff(p: &Parsed) -> i32 {
    let (text, mut clean) = render_suite(&zerosum_analyze::run_shard_differential(
        p.number("--seeds"),
    ));
    print!("{text}");
    clean &= drill_passed(
        "chaos isolation",
        "ok (faulted shard contained, peers identical)",
        &zerosum_analyze::run_shard_chaos(zerosum_analyze::SHARD_CHAOS_SEED),
    );
    conclude("shard-diff", clean, "all seeds identical, chaos isolated")
}

/// With no `--only`, the compact paper-vs-measured sweep; else each
/// named artifact in full, in table order, its CSVs under `results/`.
fn cmd_run_all(p: &Parsed) -> Exit {
    use zerosum_experiments::artifacts::{evaluation_sweep, ARTIFACTS};
    let seed: u64 = p.number("--seed");
    let scale = |default: u32| p.number_opt("--scale").unwrap_or(default).max(1);
    let only = p.all_given("--only");
    if only.is_empty() {
        print!("{}", evaluation_sweep(scale(10), seed));
        return Ok(0);
    }
    for a in ARTIFACTS.iter().filter(|a| only.contains(&a.name)) {
        let (text, csvs) = (a.render)(scale(a.default_scale), seed);
        print!("{text}");
        for (file, body) in csvs {
            let path = PathBuf::from("results").join(file);
            std::fs::create_dir_all("results")
                .and_then(|()| std::fs::write(&path, body))
                .map_err(give_up(&format!("run-all: {}", path.display()), 2))?;
            eprintln!("[{}] wrote {}", a.name, path.display());
        }
    }
    Ok(0)
}
