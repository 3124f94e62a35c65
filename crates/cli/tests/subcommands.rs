//! The binary's contract with its callers, checked on the built
//! executable: `--help` is not an error and a bad flag is exit 2 for
//! every row of the flag table, `run-all --only` prints what the
//! artifact renders, exit 3 is kept for "the sandbox forbids it", and
//! the judges `cargo test` holds in-process come out of their command
//! with the verdict lines, last line and exit code `scripts/ci.sh`
//! reads, the wrapper reports a child a signal ended and follows its
//! child's descendants (a shell's application, the real churn storm),
//! and wrappers started with `--connect` stream their real children to
//! `zerosum collect` over loopback TCP.

use std::process::{Command, Output, Stdio};
use zerosum_cli::flags::SUBCOMMANDS;
use zerosum_core::export::{LOG_END_MARKER, LOG_PARTIAL_MARKER};

fn zerosum(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_zerosum"))
        .args(args)
        .output()
        .expect("spawn zerosum")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_is_exit_0_and_a_bad_flag_exit_2_for_every_subcommand() {
    for cmd in &SUBCOMMANDS {
        let help = zerosum(&[cmd.name, "--help"]);
        assert_eq!(help.status.code(), Some(0), "{} --help", cmd.name);
        let text = stdout(&help);
        assert!(
            text.starts_with(&format!("usage: zerosum {}", cmd.name)),
            "{text}"
        );
        for f in cmd.flags {
            assert!(text.contains(f.name), "{}: help lacks {}", cmd.name, f.name);
        }
        let bad = zerosum(&[cmd.name, "--no-such-flag"]);
        assert_eq!(bad.status.code(), Some(2), "{} --no-such-flag", cmd.name);
        assert!(stdout(&bad).is_empty(), "{}: ran anyway", cmd.name);
        assert!(stderr(&bad).contains("--no-such-flag"), "{}", stderr(&bad));
    }
}

#[test]
fn wrapper_help_lists_the_subcommands() {
    for flag in ["--help", "-h"] {
        let out = zerosum(&[flag]);
        assert_eq!(out.status.code(), Some(0), "zerosum {flag}");
        let text = stdout(&out);
        assert!(text.starts_with("usage: zerosum [--period-ms N]"), "{text}");
        for cmd in &SUBCOMMANDS {
            assert!(text.contains(&format!("\n  {} ", cmd.name)), "{text}");
        }
    }
    // Still a wrapper: an unknown flag is a usage error, a command runs.
    assert_eq!(zerosum(&["--bogus", "--", "true"]).status.code(), Some(2));
    assert_eq!(zerosum(&[]).status.code(), Some(2));
}

/// The wrapper's heartbeat is `ProgressTracker::heartbeat_line`, the
/// §3.3 line, and only that on stderr; the monitor thread has no
/// placement flag (nothing could apply one to a live thread).
#[test]
fn wrapper_heartbeat_is_the_tracker_line_and_there_is_no_placement_flag() {
    let out = zerosum(&["--period-ms", "50", "--heartbeat", "--", "sleep", "0.3"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stderr(&out);
    assert!(text.lines().count() >= 2, "{text}");
    for line in text.lines() {
        let fields: Vec<&str> = line.split(", ").collect();
        let [t, procs, threads, sample] = fields[..] else {
            panic!("not a heartbeat line: {line:?}");
        };
        let count = |field: &str, unit: &str| {
            let n = field.strip_suffix(unit)?;
            n.parse::<u64>().ok()
        };
        let t = t.strip_prefix("ZeroSum: t=").and_then(|t| count(t, "s"));
        assert!(t.is_some(), "{line:?}");
        assert_eq!(count(procs, " process(es)"), Some(1), "{line:?}");
        assert!(count(threads, " live thread(s)").is_some(), "{line:?}");
        let k = sample.strip_prefix("sample ").map(str::parse::<u64>);
        assert!(matches!(k, Some(Ok(_))), "{line:?}");
    }
    assert_eq!(
        zerosum(&["--monitor-hwt", "0", "--", "true"]).status.code(),
        Some(2)
    );
}

/// A child a signal ends is an abnormal exit the wrapper reports
/// (§3.1): exit 128 + N, as a shell gives it, the signal named in the
/// report, and each log written whole under the `PARTIAL` marker with
/// the cause. A child that exits with a code of its own keeps that code
/// and a complete log.
#[test]
fn a_child_a_signal_ends_is_reported_with_partial_logs_and_exit_128_plus_n() {
    if let Err(e) = Command::new("sh").args(["-c", "true"]).status() {
        eprintln!("wrapper signal exit: SKIPPED (cannot spawn sh: {e})");
        return;
    }
    let wrapped = |tag: &str, script: &str| {
        let dir = std::env::temp_dir().join(format!("zerosum-wrap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let log_dir = dir.to_str().expect("utf-8 temp dir");
        let out = zerosum(&[
            "--period-ms",
            "50",
            "--rank",
            "0",
            "--log-dir",
            log_dir,
            "--",
            "sh",
            "-c",
            script,
        ]);
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        let log = std::fs::read_to_string(dir.join("zerosum.00000.log")).unwrap_or_default();
        let _ = std::fs::remove_dir_all(&dir);
        (out, names, log)
    };
    // No core file: the child's death is the point, not its dump.
    let (out, names, log) = wrapped("segv", "ulimit -c 0; kill -SEGV $$");
    assert_eq!(out.status.code(), Some(139), "{}", stderr(&out));
    let report = stdout(&out);
    assert!(
        report.contains("ZeroSum: abnormal exit — SIGSEGV\nZeroSum: MPI 000 - PID "),
        "{report}"
    );
    assert_eq!(names, ["zerosum.00000.log"], "one log, no .tmp left");
    assert!(log.starts_with(LOG_PARTIAL_MARKER), "{log}");
    assert!(log.contains("\ncause: SIGSEGV\n"), "{log}");
    assert!(log.trim_end().ends_with(LOG_END_MARKER), "{log}");

    let (out, names, log) = wrapped("exit3", "exit 3");
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    assert!(!stdout(&out).contains("abnormal exit"), "{}", stdout(&out));
    assert_eq!(names, ["zerosum.00000.log"]);
    assert!(!log.contains(LOG_PARTIAL_MARKER), "{log}");
    assert!(log.trim_end().ends_with(LOG_END_MARKER), "{log}");
}

/// Whether this host lets a test spawn a shell and lists a process's
/// children in `/proc`; says so loudly when not.
fn can_follow_children(what: &str) -> bool {
    if let Err(e) = Command::new("sh").args(["-c", "true"]).status() {
        eprintln!("{what}: SKIPPED (cannot spawn sh: {e})");
        return false;
    }
    let children = format!("/proc/{0}/task/{0}/children", std::process::id());
    if !std::path::Path::new(&children).exists() {
        eprintln!("{what}: SKIPPED (this kernel keeps no {children})");
        return false;
    }
    true
}

/// The wrapper report's process blocks, in order: each block's
/// `Process Summary:` line and the number of its `LWP` lines.
fn process_blocks(report: &str) -> Vec<(&str, usize)> {
    let blocks = report.split("Process Summary:\n").skip(1);
    blocks
        .map(|block| {
            let who = block.lines().next().unwrap_or_default();
            let table = block.lines().skip_while(|l| *l != "LWP (thread) Summary:");
            let lwps = table.skip(1).take_while(|l| l.starts_with("LWP ")).count();
            (who, lwps)
        })
        .collect()
}

/// Probe P1 at the command line: the application a shell starts is in
/// the report, a block of its own after the shell's, with both of its
/// threads; the shell, which ran nothing, is named by no finding. On a
/// mask wider than one HWT the `not bound` finding names both threads,
/// the main thread and its unnamed worker (probe P5 counted one).
#[test]
fn the_wrapper_follows_the_job_past_a_shell() {
    if !can_follow_children("wrapper follows the job") {
        return;
    }
    let bin = env!("CARGO_BIN_EXE_zerosum");
    let script = format!("{bin} __churn-child 600000 2; true");
    let out = zerosum(&["--period-ms", "50", "--", "sh", "-c", &script]);
    let (text, log) = (stdout(&out), stderr(&out));
    assert_eq!(out.status.code(), Some(0), "{text}{log}");
    let blocks = process_blocks(&text);
    assert_eq!(blocks.len(), 2, "{text}");
    assert_eq!(blocks[0].1, 1, "the shell: {text}");
    assert_eq!(blocks[1].1, 2, "the application: {text}");
    let shell = blocks[0].0.split_whitespace().nth(1).unwrap_or_default();
    let named = format!("process {shell}:");
    assert!(!text.contains(&named), "a finding names the shell: {text}");
    let app = &text[text.rfind("Process Summary:\n").unwrap_or_default()..];
    let mask = blocks[1]
        .0
        .rsplit_once("CPUs allowed: [")
        .map_or("", |(_, m)| m);
    if !mask.contains(['-', ',']) {
        eprintln!("unbound finding: SKIPPED (the application's mask [{mask} is one HWT)");
        return;
    }
    let tids: Vec<&str> = app
        .lines()
        .filter(|l| l.contains(" - stime:"))
        .filter_map(|l| l.strip_prefix("LWP ")?.split(':').next())
        .collect();
    let unbound: Vec<&str> = app
        .lines()
        .filter_map(|l| l.split_once(": busy LWPs ")?.1.split_once(" are not bound"))
        .flat_map(|(list, _)| list.split(", "))
        .collect();
    assert_eq!(tids.len(), 2, "{app}");
    assert_eq!(unbound, tids, "{app}");
}

/// The real fork and fork+exec storms, run as the wrapper's job: every
/// child spawned, reaped and exited 0 (the storm's own exit code, which
/// the wrapper passes on), the monitor followed them (a block past the
/// storm's own), and its supervisor caught no panic.
#[test]
fn the_real_churn_storm_runs_under_the_wrapper() {
    if !can_follow_children("real churn storm") {
        return;
    }
    let bin = env!("CARGO_BIN_EXE_zerosum");
    for (variant, seed, rate) in [("fork", "11", "40"), ("fork-exec", "12", "25")] {
        let storm = [bin, "__churn-storm", variant, seed, rate, "1500"];
        let out = zerosum(&[&["--period-ms", "50", "--"][..], &storm].concat());
        let (text, log) = (stdout(&out), stderr(&out));
        assert_eq!(out.status.code(), Some(0), "{variant}: {text}{log}");
        assert!(process_blocks(&text).len() >= 2, "{variant}: {text}");
        assert!(!text.contains("supervisor restarts:"), "{variant}: {text}");
    }
    // A malformed storm is a usage error of its own.
    let out = zerosum(&["__churn-storm", "spawn", "1", "40", "100"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
}

#[test]
fn run_all_only_prints_the_artifact_and_rejects_what_it_does_not_know() {
    let out = zerosum(&["run-all", "--only", "listing1"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(stdout(&out), zerosum_experiments::listings::listing1());

    for (args, names) in [
        (&["run-all", "--sclae", "1"][..], "--sclae"),
        (&["run-all", "--scale", "abc"][..], "--scale"),
        (&["run-all", "--only", "nosuch"][..], "--only"),
    ] {
        let out = zerosum(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stdout(&out).is_empty(), "{args:?} ran a sweep anyway");
        assert!(stderr(&out).contains(names), "{}", stderr(&out));
    }
    let valid = stderr(&zerosum(&["run-all", "--only", "nosuch"]));
    assert!(
        valid.contains("listing1") && valid.contains("table3"),
        "{valid}"
    );
}

/// Exit 3 is what `scripts/ci.sh` reads as "sandbox forbids sockets:
/// SKIP" — a taken port or a dead peer must not look like that.
#[test]
fn a_busy_port_and_a_dead_peer_are_failures_not_sandbox_skips() {
    let Ok(taken) = std::net::TcpListener::bind("127.0.0.1:0") else {
        eprintln!("collect exit codes: SKIPPED (sandbox forbids sockets)");
        assert_eq!(zerosum(&["collect", "--probe"]).status.code(), Some(3));
        return;
    };
    let addr = taken.local_addr().expect("bound address").to_string();
    assert_eq!(zerosum(&["collect", "--probe"]).status.code(), Some(0));
    let busy = zerosum(&["collect", "--listen", &addr, "--probe"]);
    assert_eq!(busy.status.code(), Some(1), "{}", stderr(&busy));
    // Nobody listens on a port just released: the wrapper fails before
    // it runs its child.
    drop(taken);
    let touched = std::env::temp_dir().join(format!("zerosum-dial-{}", std::process::id()));
    let _ = std::fs::remove_file(&touched);
    let script = format!("touch {}", touched.display());
    let dead = zerosum(&["--connect", &addr, "--", "sh", "-c", &script]);
    assert_eq!(dead.status.code(), Some(1), "{}", stderr(&dead));
    assert!(stderr(&dead).contains("dial "), "{}", stderr(&dead));
    assert!(!touched.exists(), "the child ran after a dead dial");
}

/// Runs `zerosum collect --nodes 2 --period-ms 100` and, connected to
/// it, one wrapper per command (ranks 0 and 1); returns the collector's
/// output and each wrapper's exit code. `None` when the sandbox forbids
/// sockets or spawning.
fn allocation(tag: &str, commands: [&[&str]; 2]) -> Option<(Output, Vec<Option<i32>>)> {
    let bin = env!("CARGO_BIN_EXE_zerosum");
    if let Err(e) = std::net::TcpListener::bind("127.0.0.1:0") {
        eprintln!("live allocation: SKIPPED (sandbox forbids sockets: {e})");
        return None;
    }
    if let Err(e) = Command::new("sh").args(["-c", "true"]).status() {
        eprintln!("live allocation: SKIPPED (cannot spawn sh: {e})");
        return None;
    }
    let port_file =
        std::env::temp_dir().join(format!("zerosum-collect-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_file(&port_file);
    let mut collect = Command::new(bin)
        .args([
            "collect",
            "--nodes",
            "2",
            "--period-ms",
            "100",
            "--port-file",
        ])
        .arg(&port_file)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn zerosum collect");
    // Waits for the address, not for a time: the bound only ends a
    // collector that never binds.
    let mut addr = String::new();
    for _ in 0..1_500 {
        addr = std::fs::read_to_string(&port_file).unwrap_or_default();
        if addr.parse::<std::net::SocketAddr>().is_ok()
            || collect.try_wait().is_ok_and(|s| s.is_some())
        {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let _ = std::fs::remove_file(&port_file);
    let wrappers: Vec<_> = commands
        .iter()
        .enumerate()
        .map(|(rank, command)| {
            Command::new(bin)
                .args(["--period-ms", "100", "--rank", &rank.to_string()])
                .args(["--connect", &addr, "--"])
                .args(*command)
                .stdout(Stdio::null())
                .spawn()
                .expect("spawn a wrapper")
        })
        .collect();
    // A process still running a minute on is hung (a wrapper, or a
    // collector that never declares a silent node dead): killed, it
    // reads as no exit code, so the test fails instead of hanging.
    let finish = |p: &mut std::process::Child| {
        for _ in 0..3_000 {
            if let Some(status) = p.try_wait().expect("wait for a child") {
                return status.code();
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let _ = p.kill();
        None
    };
    let codes = wrappers
        .into_iter()
        .map(|mut w| {
            let code = finish(&mut w);
            let _ = w.wait();
            code
        })
        .collect();
    finish(&mut collect);
    let out = collect
        .wait_with_output()
        .expect("wait for zerosum collect");
    Some((out, codes))
}

/// The rows of the wire summary's node table: `(node, ranks, LWPs, user%)`.
fn summary_rows(text: &str) -> Vec<(String, u64, u64, f64)> {
    let rows = text.lines().skip_while(|l| !l.starts_with("node "));
    let rows = rows.skip(1).take_while(|l| !l.starts_with("LIVE:"));
    rows.map(|l| {
        let cells: Vec<&str> = l.split_whitespace().collect();
        let number = |i: usize| cells.get(i).and_then(|c| c.parse::<f64>().ok());
        let (ranks, lwps) = (number(1).unwrap_or(0.0), number(2).unwrap_or(0.0));
        (
            cells[0].to_string(),
            ranks as u64,
            lwps as u64,
            number(3).unwrap_or(0.0),
        )
    })
    .collect()
}

/// Two real wrappers on the wire: each streams its own child, each
/// aggregate is delivered, and `collect` ends on what the wire told it.
/// The second runs its app under `sh -c`: the app's threads are in its
/// row, and the shell and the app are still one rank.
#[test]
fn two_wrappers_stream_their_children_to_collect() {
    let bin = env!("CARGO_BIN_EXE_zerosum");
    let churn: &[&str] = &[bin, "__churn-child", "600000", "2"];
    let script = format!("{bin} __churn-child 600000 2; true");
    let launched: &[&str] = &["sh", "-c", &script];
    let Some((out, codes)) = allocation("healthy", [churn, launched]) else {
        return;
    };
    let (text, log) = (stdout(&out), stderr(&out));
    assert_eq!(out.status.code(), Some(0), "{text}{log}");
    assert_eq!(codes, [Some(0), Some(0)], "{text}{log}");
    let host = zerosum_core::attach::hostname();
    let rows = summary_rows(&text);
    let names: Vec<&str> = rows.iter().map(|r| r.0.as_str()).collect();
    assert_eq!(
        names,
        [format!("{host}.00000"), format!("{host}.00001")],
        "{text}"
    );
    for (node, ranks, _, user) in &rows {
        assert_eq!(*ranks, 1, "{node}: {text}");
        assert!(*user > 0.0, "{node}: {text}");
    }
    assert!(rows[0].2 >= 2, "{text}");
    let children = format!("/proc/{0}/task/{0}/children", std::process::id());
    if std::path::Path::new(&children).exists() {
        assert!(
            rows[1].2 >= 3,
            "the shell and the app's two threads: {text}"
        );
    }
    assert!(text.contains("LIVE: 2/2 node(s), 2 aggregate(s)"), "{text}");
    for marker in ["DEAD", "DEGRADED", "SKEWED", "SUSPECT"] {
        assert!(!text.contains(marker), "{marker}: {text}");
    }
}

/// A wrapper killed mid-run is declared DEAD, and `collect` ends on
/// that, with the survivor's row, instead of waiting for it.
#[test]
fn a_killed_wrapper_is_dead_and_collect_ends_without_it() {
    let bin = env!("CARGO_BIN_EXE_zerosum");
    let killed: &[&str] = &["sh", "-c", "sleep 0.3; kill -9 $PPID"];
    let churn: &[&str] = &[bin, "__churn-child", "600000", "2"];
    let Some((out, codes)) = allocation("killed", [killed, churn]) else {
        return;
    };
    let (text, log) = (stdout(&out), stderr(&out));
    assert_eq!(out.status.code(), Some(1), "{text}{log}");
    assert_eq!(codes, [None, Some(0)], "{text}{log}");
    let host = zerosum_core::attach::hostname();
    assert!(
        text.contains(&format!("\nDEAD: node {host}.00000 (")),
        "{text}"
    );
    let rows = summary_rows(&text);
    assert_eq!(rows.len(), 1, "{text}");
    assert_eq!(rows[0].0, format!("{host}.00001"), "{text}");
    assert!(log.contains("only 1/2 aggregate(s) delivered"), "{log}");
}

/// The command path of three judges the library tests already hold on
/// the same inputs: what the command adds is the flag routing, the
/// verdict lines, the last line and the exit code.
#[test]
fn judge_commands_print_their_verdicts_and_exit_0_when_clean() {
    let out = zerosum(&["analyze", "--scenario", "table2", "--scale", "200"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    assert!(
        lines[0].starts_with("table2 ") && lines[0].ends_with("  0 violations  [ok]"),
        "{text}"
    );
    assert_eq!(lines[1], "analyze: all scenarios clean");

    let out = zerosum(&["chaos", "--scale", "300", "--schedules", "3"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "{text}");
    for (line, name) in lines.iter().zip(["t1-f00 ", "t2-f01 ", "t3-f02 "]) {
        assert!(line.starts_with(name) && line.ends_with("[ok]"), "{text}");
    }
    assert_eq!(lines[3], "chaos: all 3 schedule(s) clean");
}

/// `zerosum audit` finds the workspace from any directory inside it —
/// `benchmark/` included, which is a workspace of its own with no
/// `crates/` — and `--explain` on a clean tree is the header and `OK`.
#[test]
fn audit_runs_from_the_benchmark_directory_and_explains_a_clean_tree() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for dir in [root.join("benchmark"), root.join("crates/cli/tests")] {
        let out = Command::new(env!("CARGO_BIN_EXE_zerosum"))
            .args(["audit", "--explain"])
            .current_dir(&dir)
            .output()
            .expect("spawn zerosum");
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}: {}{}",
            dir.display(),
            stdout(&out),
            stderr(&out)
        );
        let text = stdout(&out);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(
            lines[0].starts_with("zsaudit: ") && lines[0].contains(" effect sites, "),
            "{text}"
        );
        assert_eq!(lines[1], "OK: no findings");
    }
}
