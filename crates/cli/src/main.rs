//! The `zerosum` binary — the workspace's only executable. The logic
//! lives in the library crates; this file routes argv through the flag
//! table (`zerosum_cli::flags`), runs the command body, prints, and
//! turns the outcome into an exit code: 0 clean, 1 failed, 2 usage or
//! I/O error, 3 the sandbox forbids what the command needs.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::time::{Duration, Instant};

use zerosum_analyze::render_suite;
use zerosum_cli::flags::{self, Parsed};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The hidden modes dispatch before anything else: children re-exec
    // this binary with exactly these args.
    match args.split_first() {
        // The storm parent, run as the wrapper's job:
        // `zerosum -- zerosum __churn-storm fork 11 40 1500`.
        Some((first, rest)) if first == "__churn-storm" => {
            let code = zerosum_apps::churn_storm_main(rest);
            if code == 2 {
                eprintln!("__churn-storm: usage: <fork|fork-exec> <seed> <rate_hz> <duration_ms>");
            }
            std::process::exit(code);
        }
        // The worker process the storm spawns, one per arrival.
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
        "churn" => Ok(cmd_churn(&parsed)),
        "collect" => cmd_collect(&parsed),
        "audit" => cmd_audit(&parsed),
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

/// `zerosum -- <command>`: launch and monitor it, print the report;
/// with `--connect`, stream it to the collector too.
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
    if out.delivered == Some(false) {
        eprintln!("zerosum: the collector never acknowledged this node's aggregate");
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

/// Exit 0 iff every schedule passes.
fn cmd_chaos(p: &Parsed) -> i32 {
    let verdicts = zerosum_analyze::run_suite(
        p.number("--scale"),
        p.number("--schedules"),
        p.number("--seed"),
    );
    let (text, clean) = render_suite(&verdicts);
    print!("{text}");
    let all = format!("all {} schedule(s) clean", verdicts.len());
    conclude("chaos", clean, &all)
}

/// Exit 0 iff every node + link plan passes over the wire.
fn cmd_cluster_chaos(p: &Parsed) -> i32 {
    let (nodes, rounds): (usize, u32) = (p.number("--nodes"), p.number("--rounds"));
    let (schedules, seed): (usize, u64) = (p.number("--schedules"), p.number("--seed"));
    let verdicts = zerosum_analyze::run_transport_suite(nodes, rounds, schedules, seed);
    let (text, clean) = render_suite(&verdicts);
    print!("{text}");
    let all = format!("all {} plan(s) clean", verdicts.len());
    conclude("cluster-chaos", clean, &all)
}

/// Replays seeded storms against the node simulation. Exit 0 iff every
/// schedule is clean. (The real storm is `__churn-storm`, run under the
/// wrapper.)
fn cmd_churn(p: &Parsed) -> i32 {
    let verdicts = zerosum_analyze::run_churn_suite(p.number("--schedules"), p.number("--seed"));
    let (text, clean) = render_suite(&verdicts);
    print!("{text}");
    let all = format!("all {} schedule(s) clean", verdicts.len());
    conclude("churn", clean, &all)
}

/// Runs the collector daemon over real TCP: accept `--nodes` wrappers
/// started with `--connect`, close a supervision round every period
/// until each node delivered its aggregate or is DEAD, print the wire
/// summary. Exit 0 iff every node's aggregate was delivered.
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
    });
    // Every node connects and says Hello by then.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut accepted = 0;
    loop {
        while accepted < nodes {
            match acceptor.poll_accept(zerosum_net::DEFAULT_WINDOW) {
                Ok(Some(link)) => collector.add_link(Box::new(link)),
                Ok(None) => break,
                Err(e) => return Err(give_up("collect: accept", 1)(e)),
            }
            accepted += 1;
            eprintln!("zerosum collect: {accepted}/{nodes} node(s) connected");
        }
        // Pump a few times within the period so acks flow promptly.
        for _ in 0..4 {
            std::thread::sleep(period / 4);
            collector.pump_frames();
        }
        collector.run_round();
        let known = collector.supervision().quorum().1;
        if known >= nodes && collector.supervision().settled() {
            break;
        }
        if known < nodes && Instant::now() > deadline {
            eprintln!("zerosum collect: only {known}/{nodes} node(s) said Hello");
            break;
        }
    }
    print!("{}", collector.render_summary());
    let delivered = collector.wire_aggregates().len();
    if delivered != nodes {
        eprintln!("zerosum collect: only {delivered}/{nodes} aggregate(s) delivered");
        return Err(1);
    }
    Ok(0)
}

/// Exit 0 no finding, 1 any finding, 2 I/O errors.
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
    Ok(i32::from(!report.clean()))
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
