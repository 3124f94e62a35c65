//! The binary's contract with its callers, checked on the built
//! executable: `--help` is not an error and a bad flag is exit 2 for
//! every row of the flag table, `run-all --only` prints what the
//! artifact renders, exit 3 is kept for "the sandbox forbids it", and
//! the judges `cargo test` holds in-process come out of their command
//! with the verdict lines, last line and exit code `scripts/ci.sh`
//! reads.

use std::process::{Command, Output};
use zerosum_cli::flags::SUBCOMMANDS;

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
    // Nobody listens on a port just released.
    drop(taken);
    let dead = zerosum(&["stream", "--connect", &addr, "--rounds", "1"]);
    assert_eq!(dead.status.code(), Some(1), "{}", stderr(&dead));
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
    assert_eq!(lines.len(), 5, "{text}");
    for (line, name) in lines.iter().zip(["t1-f00 ", "t2-f01 ", "t3-f02 "]) {
        assert!(line.starts_with(name) && line.ends_with("[ok]"), "{text}");
    }
    assert!(lines[3].starts_with("abnormal-exit drill: ok"), "{text}");
    assert_eq!(lines[4], "chaos: all 3 schedule(s) clean");
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
