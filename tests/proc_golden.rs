//! Golden-file tests for the `/proc` parsers: every fixture under
//! `tests/fixtures/` is a verbatim capture from a real Linux kernel
//! (`cp /proc/... tests/fixtures/...`), so these tests pin the parsers
//! to the actual on-disk format rather than hand-typed approximations.

use std::path::Path;
use zerosum_proc::parse::{
    parse_meminfo, parse_schedstat, parse_system_stat, parse_task_stat, parse_task_status,
};
use zerosum_proc::TaskState;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()))
}

#[test]
fn golden_proc_stat() {
    let stat = parse_system_stat(&fixture("proc_stat.txt")).expect("parse /proc/stat");
    // The capture machine had one online CPU; the aggregate row must
    // equal the per-CPU sum.
    assert_eq!(stat.cpus.len(), 1);
    assert_eq!(stat.cpus[0].0, 0);
    assert_eq!(stat.total.user, 80642);
    assert_eq!(stat.total.system, 6319);
    assert_eq!(stat.total.idle, 229482);
    assert_eq!(stat.total.iowait, 2217);
    assert_eq!(stat.total.steal, 691);
    assert_eq!(stat.cpus[0].1, stat.total);
    assert_eq!(stat.ctxt, 832451);
    assert_eq!(stat.processes, 15250);
}

#[test]
fn golden_proc_meminfo() {
    let mem = parse_meminfo(&fixture("proc_meminfo.txt")).expect("parse /proc/meminfo");
    assert_eq!(mem.mem_total_kib, 131993292);
    assert_eq!(mem.mem_free_kib, 128789108);
    assert_eq!(mem.mem_available_kib, 131378400);
    assert_eq!(mem.buffers_kib, 25184);
    assert_eq!(mem.cached_kib, 2741888);
    assert_eq!(mem.swap_total_kib, 0);
    assert_eq!(mem.swap_free_kib, 0);
    assert_eq!(mem.used_kib(), 131993292 - 131378400);
}

#[test]
fn golden_proc_pid_stat() {
    let line = fixture("proc_pid_stat.txt");
    let st = parse_task_stat(line.trim_end()).expect("parse /proc/pid/stat");
    assert_eq!(st.tid, 15252);
    assert_eq!(st.comm, "cp");
    assert_eq!(st.state, TaskState::Running);
    assert_eq!(st.minflt, 115);
    assert_eq!(st.majflt, 0);
    assert_eq!(st.utime, 0);
    assert_eq!(st.stime, 0);
    assert_eq!(st.nice, 0);
    assert_eq!(st.num_threads, 1);
    // Field 39 (processor) — NOT field 38, which is exit_signal (17 =
    // SIGCHLD here); the capture machine allowed only CPU 0.
    assert_eq!(st.processor, 0);
    assert_eq!(st.nswap, 0);
}

#[test]
fn golden_proc_pid_status() {
    let st = parse_task_status(&fixture("proc_pid_status.txt")).expect("parse /proc/pid/status");
    assert_eq!(st.name, "cp");
    assert_eq!(st.tid, 15253);
    assert_eq!(st.tgid, 15253);
    assert_eq!(st.state, TaskState::Running);
    assert_eq!(st.vm_rss_kib, 1840);
    assert!(st.vm_size_kib >= st.vm_rss_kib);
    assert!(st.cpus_allowed.contains(0));
    assert_eq!(st.cpus_allowed.count(), 1);
    assert_eq!(st.voluntary_ctxt_switches, 0);
    assert_eq!(st.nonvoluntary_ctxt_switches, 1);
}

#[test]
fn golden_proc_pid_schedstat() {
    let ss = parse_schedstat(&fixture("proc_pid_schedstat.txt")).expect("parse schedstat");
    assert_eq!(ss.run_ns, 0);
    assert_eq!(ss.wait_ns, 58210);
    assert_eq!(ss.timeslices, 1);
}

// --- Pathological captures (§3.1.1: the observation surface is hostile).
// `comm` is attacker-controlled via prctl(PR_SET_NAME) and may contain
// spaces, parentheses, even newlines; reads can race an exiting task and
// return truncated or zeroed content. The parsers must return data or
// `Err` — never panic, never mis-split on the wrong parenthesis.

#[test]
fn golden_proc_pid_stat_evil_comm() {
    let line = fixture("proc_pid_stat_evil_comm.txt");
    let st = parse_task_stat(line.trim_end()).expect("parse evil comm");
    assert_eq!(st.tid, 4242);
    // Everything between the first '(' and the *last* ')': spaces,
    // nested parens, and an embedded newline survive verbatim.
    assert_eq!(st.comm, "tmux: new-server ((o_o)\n !");
    assert_eq!(st.state, TaskState::Running);
    assert_eq!(st.minflt, 115);
    assert_eq!(st.utime, 0);
    assert_eq!(st.num_threads, 1);
    assert_eq!(st.processor, 0);
}

#[test]
fn golden_proc_pid_stat_truncated() {
    // A read racing task exit can return the line cut mid-field. That is
    // an error (`missing field`), not a panic and not zeroed garbage.
    let line = fixture("proc_pid_stat_truncated.txt");
    let err = parse_task_stat(line.trim_end()).expect_err("truncated stat must not parse");
    assert!(err.to_string().contains("field"), "{err}");
}

#[test]
fn golden_proc_pid_stat_vanished() {
    // A stat read racing task exit can return zero bytes (the kernel
    // tears down the task struct between open and read). Every form of
    // the stat parser must reject the empty record identically — an
    // error, not a zeroed default and not a panic.
    let line = fixture("proc_pid_stat_vanished.txt");
    assert_eq!(line, "", "the vanished capture is the empty read");
    assert!(parse_task_stat(line.trim_end()).is_err());
    let mut reused = zerosum_proc::TaskStat::default();
    assert!(zerosum_proc::parse::parse_task_stat_into(line.trim_end(), &mut reused).is_err());
    assert!(zerosum_proc::parse::parse_task_stat_view_fast(line.trim_end()).is_err());
}

#[test]
fn golden_vanished_task_dir_folds_into_departure_accounting() {
    // `proc_vanish_root/` captures the §3.1.1 listing race as an on-disk
    // tree: pid 4242 lists tids {4242, 4243}, but 4243's task directory
    // is empty (the files vanished between the readdir and the open).
    // The live source must report the listing faithfully, return
    // `NotFound` for the vanished reads, and the monitor must fold that
    // into departure accounting — never into the error counters.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/proc_vanish_root");
    let src = zerosum_proc::LinuxProc::with_root(&root);
    use zerosum_proc::{ProcSource, SourceError};
    assert_eq!(src.list_tasks(4242).unwrap(), vec![4242, 4243]);
    assert_eq!(src.task_stat(4242, 4242).unwrap().comm, "survivor");
    assert!(matches!(
        src.task_stat(4242, 4243),
        Err(SourceError::NotFound)
    ));
    assert!(matches!(
        src.task_status(4242, 4243),
        Err(SourceError::NotFound)
    ));
    assert!(matches!(
        src.task_schedstat(4242, 4243),
        Err(SourceError::NotFound)
    ));

    let mut mon = zerosum_core::Monitor::new(zerosum_core::ZeroSumConfig::default());
    mon.watch_process(zerosum_core::ProcessInfo {
        pid: 4242,
        rank: None,
        hostname: "fixture".into(),
        gpus: vec![],
        cpus_allowed: Default::default(),
    });
    mon.sample(1.0, &src);
    assert_eq!(mon.supervisor.restarts, 0);
    assert_eq!(mon.stats.vanished, 1, "the race is a departure");
    assert_eq!(mon.stats.errors, 0, "never an error");
    let health = mon.health_total();
    assert_eq!(health.quarantine_events, 0, "never a quarantine");
    // The per-attempt tally sees exactly the NotFound reads and nothing
    // else (schedstat probes are untallied by design).
    assert_eq!(health.errors_by_kind[1], 0);
    assert_eq!(health.errors_by_kind[2], 0);
    assert_eq!(health.errors_by_kind[3], 0);
}

#[test]
fn golden_proc_pid_stat_zero() {
    // All-zero rows (e.g. kernel threads, or a tid observed in the first
    // jiffy of its life) are valid data, not an error.
    let line = fixture("proc_pid_stat_zero.txt");
    let st = parse_task_stat(line.trim_end()).expect("parse all-zero stat");
    assert_eq!(st.tid, 0);
    assert_eq!(st.comm, "swapper/0");
    assert_eq!(st.state, TaskState::Running);
    assert_eq!(st.minflt, 0);
    assert_eq!(st.utime, 0);
    assert_eq!(st.stime, 0);
    assert_eq!(st.nswap, 0);
    assert_eq!(st.processor, 0);
}
