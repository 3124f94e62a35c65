//! The binary's contract with its callers, checked on the built
//! executable: `--help` is not an error and a bad flag is exit 2 for
//! every row of the flag table, `run-all --only` prints what the
//! artifact renders, and exit 3 is kept for "the sandbox forbids it".

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
