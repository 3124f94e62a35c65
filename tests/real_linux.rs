//! Integration against the real Linux `/proc` of the test machine: the
//! monitor must work unmodified on a live system (the paper's actual
//! deployment mode), not only against the simulation.

mod oracle;

use std::time::{Duration, Instant};
use zerosum::prelude::*;

fn spin(ms: u64) {
    let mut acc = 1u64;
    let until = Instant::now() + Duration::from_millis(ms);
    while Instant::now() < until {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
    }
    std::hint::black_box(acc);
}

#[test]
fn live_self_monitoring_produces_a_full_report() {
    let cfg = ZeroSumConfig {
        period_us: 50_000,
        ..Default::default()
    };
    let session = SelfMonitor::start(cfg, Some(0)).expect("attach");
    let threads: Vec<_> = (0..2)
        .map(|_| {
            std::thread::Builder::new()
                .name("OpenMP".to_string())
                .spawn(|| spin(250))
                .unwrap()
        })
        .collect();
    spin(250);
    for t in threads {
        t.join().unwrap();
    }
    let (monitor, duration) = session.stop();
    assert!(monitor.stats.rounds >= 4);
    let pid = monitor.processes()[0].info.pid;
    let report = render_process_report(&monitor, pid, duration, None);
    // All sections present with live data.
    assert!(report.contains("Duration of execution:"));
    assert!(report.contains("MPI 000 - PID"));
    assert!(report.contains("LWP (thread) Summary:"));
    assert!(report.contains("Hardware Summary:"));
    // The worker threads were discovered via /proc/<pid>/task and
    // classified by name.
    let w = monitor.process(pid).unwrap();
    let omp = w
        .lwps
        .tracks()
        .filter(|t| t.kind == zerosum_core::LwpKind::OpenMp)
        .count();
    assert!(omp >= 2, "found {omp} OpenMP threads");
    // Some thread of this process burned real CPU (under `cargo test`
    // the work happens on a test-runner thread, not the main thread).
    let max_frac = w
        .lwps
        .tracks()
        .map(|t| t.cpu_fraction())
        .fold(0.0f64, f64::max);
    assert!(max_frac > 0.2, "max cpu fraction {max_frac}");
}

/// Probe P1: a shell that starts the application and waits for it
/// (`sh -c "app; true"`) is watched, and the application — a busy
/// grandchild of this test — is in the record as a watch of its own,
/// after the shell's, with the user time it burned.
#[test]
fn live_descendants_of_the_watched_process_are_followed() {
    let children = format!("/proc/{0}/task/{0}/children", std::process::id());
    if !std::path::Path::new(&children).exists() {
        eprintln!("live descendants: SKIPPED (this kernel keeps no {children})");
        return;
    }
    let busy = "sh -c 'i=0; while [ $i -lt 300000 ]; do i=$((i+1)); done'; true";
    let mut shell = match std::process::Command::new("/bin/sh")
        .args(["-c", busy])
        .spawn()
    {
        Ok(shell) => shell,
        Err(e) => {
            eprintln!("live descendants: SKIPPED (cannot spawn /bin/sh: {e})");
            return;
        }
    };
    let cfg = ZeroSumConfig {
        period_us: 20_000,
        ..Default::default()
    };
    let session = SelfMonitor::start_for_pid(cfg, shell.id(), None, |_| {}).expect("attach");
    assert!(shell.wait().expect("wait for the shell").success());
    let (monitor, _) = session.stop();
    let watches = monitor.processes();
    assert_eq!(
        watches[0].info.pid,
        shell.id(),
        "the root watch comes first"
    );
    let burned = |w: &&zerosum_core::ProcessWatch| {
        w.lwps
            .tracks()
            .any(|t| t.samples.last().is_some_and(|s| s.utime > 0))
    };
    let seen: Vec<_> = watches.iter().map(|w| (w.info.pid, w.lwps.len())).collect();
    let app = watches[1..].iter().find(burned);
    let app = app.unwrap_or_else(|| panic!("no descendant burned user time: {seen:?}"));
    assert_eq!(app.info.rank, None, "{seen:?}");
}

#[test]
fn live_log_parses_back_with_fixed_decimals() {
    let cfg = ZeroSumConfig {
        period_us: 20_000,
        series_capacity: 8,
        ..Default::default()
    };
    let session = SelfMonitor::start(cfg, None).expect("attach");
    // Asleep, not spinning: the other tests of this file measure CPU
    // fractions of this same process on however few cores there are.
    std::thread::sleep(Duration::from_millis(400));
    let (monitor, duration) = session.stop();
    let pid = monitor.processes()[0].info.pid;
    let report = render_process_report(&monitor, pid, duration, None);
    let log = zerosum_core::export::log_content(&monitor, pid, duration, &report);
    // The rows under a section title, header dropped.
    let rows = |title: &str| -> Vec<Vec<&str>> {
        let at = log
            .find(title)
            .unwrap_or_else(|| panic!("no section {title}"));
        log[at..]
            .lines()
            .skip(2)
            .take_while(|l| !l.starts_with("=== "))
            .map(|l| l.split(',').collect())
            .collect()
    };
    // `digits.ddd`, exactly `places` decimals.
    let fixed = |cell: &str, places: usize| {
        cell.split_once('.').is_some_and(|(int, frac)| {
            !int.is_empty()
                && frac.len() == places
                && cell.bytes().all(|b| b.is_ascii_digit() || b == b'.')
        })
    };
    let watch = monitor.process(pid).unwrap();
    let lwp = rows("=== LWP time series (CSV) ===");
    let lwp_samples: usize = watch.lwps.tracks().map(|t| t.samples.len()).sum();
    assert!(watch.lwps.tracks().any(|t| t.samples.wraps() > 0));
    assert_eq!(lwp.len(), lwp_samples, "one LWP row per ring entry");
    for row in &lwp {
        assert_eq!(row.len(), 13, "{row:?}");
        assert!(fixed(row[0], 3), "time cell {:?}", row[0]);
        let tid: u32 = row[1].parse().expect("tid");
        assert!(watch.lwps.track(tid).is_some(), "unknown tid {tid}");
        for cell in &row[4..12] {
            cell.parse::<u64>().expect("counter cell");
        }
        assert!(row[12].is_empty() || row[12].parse::<u64>().is_ok());
    }
    let hwt = rows("=== HWT time series (CSV) ===");
    let hwt_samples: usize = monitor.hwt.series().map(|(_, s)| s.len()).sum();
    assert!(hwt_samples > 0);
    assert_eq!(hwt.len(), hwt_samples, "one HWT row per CPU per ring entry");
    let mut series = monitor
        .hwt
        .series()
        .flat_map(|(cpu, s)| s.iter().map(move |x| (cpu, x)));
    for row in &hwt {
        assert_eq!(row.len(), 5, "{row:?}");
        assert!(fixed(row[0], 3), "time cell {:?}", row[0]);
        let (cpu, sample) = series.next().unwrap();
        assert_eq!(row[1].parse::<u32>().ok(), Some(cpu));
        for (cell, value) in
            row[2..]
                .iter()
                .zip([sample.idle_pct, sample.system_pct, sample.user_pct])
        {
            assert!(fixed(cell, 4), "percent cell {cell:?}");
            let printed: f64 = cell.parse().unwrap();
            assert!(
                (printed - value).abs() <= 0.5e-4 + 1e-9,
                "{cell} vs {value}"
            );
        }
    }
    let memory = rows("=== Memory time series (CSV) ===");
    assert_eq!(memory.len(), monitor.mem.samples().len());
    assert!(memory.iter().all(|row| row.len() == 4 && fixed(row[0], 3)));
}

#[test]
fn live_contention_analysis_runs() {
    let cfg = ZeroSumConfig {
        period_us: 40_000,
        ..Default::default()
    };
    let session = SelfMonitor::start(cfg, None).expect("attach");
    spin(200);
    let (monitor, _) = session.stop();
    let pid = monitor.processes()[0].info.pid;
    let rep = analyze(&monitor, pid).expect("contention report");
    // At least one thread is busy; the analysis must classify it so.
    assert!(
        rep.lwps.iter().any(|l| l.busy),
        "no busy rows: {:?}",
        rep.lwps
    );
    let rendered = rep.render();
    assert!(rendered.contains("Contention Summary:"));
}

#[test]
fn live_procfs_reads_are_self_consistent() {
    let src = LinuxProc::new();
    let pid = src.self_pid().unwrap();
    let stat = src.system_stat().unwrap();
    let ncpu = stat.cpus.len();
    assert!(ncpu >= 1);
    // Our own affinity mask fits within the machine's CPU set.
    let st = src.process_status(pid).unwrap();
    assert!(st.cpus_allowed.count() <= ncpu + 64); // offline CPUs tolerated
                                                   // Task list contains at least this thread; per-task reads agree on
                                                   // the tgid.
    for tid in src.list_tasks(pid).unwrap().into_iter().take(4) {
        let ts = src.task_status(pid, tid).unwrap();
        assert_eq!(ts.tgid, pid);
    }
}

/// The numeric entries of a `/proc` directory; `None` when it cannot
#[test]
fn live_thread_whose_name_is_not_utf8_is_sampled_like_any_other() {
    use zerosum_proc::SourceErrorKind::{Denied, Io, Malformed};
    // `comm` takes any 15 bytes (`prctl(PR_SET_NAME)`, or this file):
    // Latin-1 here. `stat` and `status` repeat them as they are, so a
    // reader that insists on UTF-8 can never sample the thread.
    let (named, is_named) = std::sync::mpsc::channel();
    let (release, released) = std::sync::mpsc::channel::<()>();
    let thread = std::thread::spawn(move || {
        let tid = std::fs::read_link("/proc/thread-self")
            .ok()
            .and_then(|p| p.file_name()?.to_str()?.parse::<u32>().ok());
        let wrote = std::fs::write("/proc/thread-self/comm", b"c\xe9f\xff").is_ok();
        named.send(tid.filter(|_| wrote)).unwrap();
        released.recv().ok();
    });
    let Some(tid) = is_named.recv().unwrap() else {
        eprintln!("live non-UTF-8 comm: SKIPPED (/proc/thread-self/comm is not writable here)");
        release.send(()).ok();
        thread.join().unwrap();
        return;
    };
    let want = "c\u{fffd}f\u{fffd}";
    let src = LinuxProc::new();
    let pid = src.self_pid().unwrap();
    assert_eq!(src.task_stat(pid, tid).unwrap().comm, want);
    assert_eq!(src.task_status(pid, tid).unwrap().name, want);
    let mut arena = zerosum_proc::ReadArena::new();
    let span = src.task_stat_text(pid, tid, &mut arena).unwrap();
    let line = arena.get(span).unwrap();
    assert!(
        line.windows(6).any(|w| w == b"(c\xe9f\xff)"),
        "the bytes as printed"
    );
    assert_eq!(
        zerosum_proc::parse::parse_task_stat(line).unwrap().comm,
        want
    );
    let mut mon = Monitor::new(ZeroSumConfig::default());
    mon.watch_process(ProcessInfo {
        pid,
        rank: None,
        hostname: "live".into(),
        gpus: vec![],
        cpus_allowed: Default::default(),
    });
    for round in 1..=3 {
        mon.sample(f64::from(round), &src);
    }
    release.send(()).unwrap();
    thread.join().unwrap();
    let w = mon.process(pid).unwrap();
    let track = w.lwps.track(tid).expect("the thread has a series");
    assert_eq!(track.name, want);
    assert_eq!(track.samples.len(), 3, "sampled every round");
    // Sibling tests' threads may exit under a round (`NotFound`);
    // nothing may fail to read, be retried or be quarantined.
    let ledger = &w.health.ledger;
    for kind in [Io, Malformed, Denied] {
        assert_eq!(ledger.errors_of(kind), 0, "{kind:?}: {ledger:?}");
    }
    assert_eq!((ledger.retried, ledger.quarantine_events), (0, 0));
    assert_eq!((ledger.degraded, ledger.dropped), (0, 0));
}

/// be listed at all.
fn numeric_entries(dir: &str) -> Option<Vec<u32>> {
    let entries = std::fs::read_dir(dir).ok()?;
    Some(
        entries
            .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
            .collect(),
    )
}

/// `parse ∘ format ∘ parse = parse` on one live text: when it parses,
/// the record rendered by `format::write_*` must parse to an equal
/// record. The simulator feeds the monitor through these renderers, so
/// a field the renderer drops is a field the paper tables never
/// exercise. Returns what was rendered; `None` for a text that does not
/// parse (torn under the read: the kernel's business).
fn round_trip<T: PartialEq + std::fmt::Debug, E>(
    text: &str,
    parse: impl Fn(&str) -> Result<T, E>,
    write: impl Fn(&T, &mut String),
) -> Option<String> {
    let record = parse(text).ok()?;
    let mut rendered = String::new();
    write(&record, &mut rendered);
    assert_eq!(
        parse(&rendered).ok().as_ref(),
        Some(&record),
        "{text:?} rendered as {rendered:?}"
    );
    Some(rendered)
}

/// A line's key in `status` and `/proc/meminfo`.
fn colon_key(line: &str) -> Option<&str> {
    Some(line.split_once(':')?.0.trim())
}

/// A line's key in `/proc/stat`.
fn first_word(line: &str) -> Option<&str> {
    line.split_whitespace().next()
}

/// The keys of a live text that its rendering does not carry: what the
/// kernel prints and the record has no field for.
fn skipped_keys(
    skipped: &mut std::collections::BTreeSet<String>,
    live: &str,
    rendered: &str,
    key: fn(&str) -> Option<&str>,
) {
    let kept: Vec<&str> = rendered.lines().filter_map(key).collect();
    let dropped = live.lines().filter_map(key).filter(|k| !kept.contains(k));
    skipped.extend(dropped.map(str::to_string));
}

#[test]
fn live_kernel_texts_parse_like_the_oracle() {
    use zerosum_proc::{format, parse};
    // Conformance against the running kernel, not a frozen capture:
    // every `status`, `stat` and `schedstat` this user may read, of
    // every task on the host, `/proc/stat` and `/proc/meminfo`, through
    // the shipped parsers and the reference parsers. They must agree on
    // the record or on the error; whether the text parses at all is the
    // kernel's business (a task may exit under the read and leave a torn
    // text). What parses must also survive the renderer the simulator
    // speaks through.
    let Some(pids) = numeric_entries("/proc") else {
        eprintln!("live conformance: SKIPPED (cannot list /proc)");
        return;
    };
    let (mut compared, mut round_trips) = (0usize, 0usize);
    let mut skipped = std::collections::BTreeSet::new();
    for pid in pids {
        for tid in numeric_entries(&format!("/proc/{pid}/task")).unwrap_or_default() {
            // Vanished or forbidden: nothing to compare.
            // Bytes, not `read_to_string`: a thread's name need not be
            // UTF-8. The renderer's round trip is over the text the
            // record carries it as.
            let read = |file: &str| std::fs::read(format!("/proc/{pid}/task/{tid}/{file}"));
            if let Ok(bytes) = read("status") {
                oracle::assert_status_agrees(&bytes);
                compared += 1;
                let text = String::from_utf8_lossy(&bytes);
                if let Some(rendered) =
                    round_trip(&text, parse::parse_task_status, format::write_task_status)
                {
                    skipped_keys(&mut skipped, &text, &rendered, colon_key);
                    round_trips += 1;
                }
            }
            if let Ok(bytes) = read("stat") {
                let line = bytes.trim_ascii_end();
                oracle::assert_stat_agrees(line);
                let line = String::from_utf8_lossy(line);
                let rendered = round_trip(&line, parse::parse_task_stat, format::write_task_stat);
                round_trips += usize::from(rendered.is_some());
            }
            let read =
                |file: &str| std::fs::read_to_string(format!("/proc/{pid}/task/{tid}/{file}"));
            if let Ok(text) = read("schedstat") {
                oracle::assert_schedstat_agrees(&text);
                let rendered = round_trip(&text, parse::parse_schedstat, format::write_schedstat);
                round_trips += usize::from(rendered.is_some());
            }
        }
    }
    match std::fs::read_to_string("/proc/stat") {
        Ok(text) => {
            oracle::assert_system_stat_agrees(&text);
            let rendered = round_trip(&text, parse::parse_system_stat, format::write_system_stat)
                .expect("/proc/stat parses");
            skipped_keys(&mut skipped, &text, &rendered, first_word);
        }
        Err(e) => eprintln!("live conformance: /proc/stat SKIPPED ({e})"),
    }
    match std::fs::read_to_string("/proc/meminfo") {
        Ok(text) => {
            oracle::assert_meminfo_agrees(&text);
            let rendered = round_trip(&text, parse::parse_meminfo, format::write_meminfo)
                .expect("/proc/meminfo parses");
            skipped_keys(&mut skipped, &text, &rendered, colon_key);
        }
        Err(e) => eprintln!("live conformance: /proc/meminfo SKIPPED ({e})"),
    }
    // Our own main thread, at the least, is always readable.
    assert!(compared >= 1, "no task status was readable");
    assert!(round_trips >= 1, "no task text parsed");
    eprintln!(
        "live conformance: {compared} tasks' texts, /proc/stat and /proc/meminfo agree; \
         {round_trips} task texts parse back from format::write_* to the same record"
    );
    // Kernel drift is budgeted for, not failed on.
    eprintln!(
        "live conformance: note: {} kernel keys of status, /proc/stat and /proc/meminfo \
         have no field in a record: {}",
        skipped.len(),
        skipped.into_iter().collect::<Vec<_>>().join(" ")
    );
}
