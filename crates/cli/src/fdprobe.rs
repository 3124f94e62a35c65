//! The hidden `zerosum __fd-probe <early|late>` mode: what a
//! [`LinuxProc`] does to the fd table of a process it is alone in.
//!
//! A test harness is multithreaded and opens files of its own, so the
//! non-interference claims of the handle cache (DESIGN §8) are checked
//! in a fresh process: `early` constructs the source while the process
//! has one thread and then starts 64, as an `LD_PRELOAD` constructor or
//! `zerosum -- cmd` would; `late` starts the 64 first. Both then run 20
//! steady rounds and 200 rounds under thread churn and report counts as
//! one `key=value` line for `tests/fd_table.rs` to judge — the
//! descriptors, and how many of the rounds walked the task directory.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;
use zerosum_proc::{LinuxProc, Pid, ProcSource, ReadArena, SourceError, Tid};

/// Parked threads beside the main one.
pub const WORKERS: usize = 64;
/// Rounds over the parked population alone, before the churn.
pub const STEADY_ROUNDS: usize = 20;
const CHURN_ROUNDS: usize = 200;
/// Threads started and gone again in every churn round.
const CHURN_THREADS: usize = 2;

/// A count from this process's `/proc/self/status`.
fn own_status(key: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("no {key} in /proc/self/status"))
}

/// The calling thread's tid.
fn own_tid() -> Option<Tid> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// Descriptors this process has open (the listing's own not counted).
fn open_fds() -> Result<usize, String> {
    let dir = std::fs::read_dir("/proc/self/fd").map_err(|e| e.to_string())?;
    Ok(dir.count().saturating_sub(1))
}

/// What the rounds saw.
#[derive(Default)]
struct Tally {
    reads_ok: u64,
    vanished: u64,
    errors: u64,
    /// Slowest single source call, which in round 1 is an `open` plus
    /// its read.
    worst_call_ns: u128,
}

impl Tally {
    /// Times one source call and files its outcome.
    fn timed<T>(&mut self, call: impl FnOnce() -> Result<T, SourceError>) {
        let t0 = Instant::now();
        let outcome = call();
        self.worst_call_ns = self.worst_call_ns.max(t0.elapsed().as_nanos());
        match outcome {
            Ok(_) => self.reads_ok += 1,
            Err(SourceError::NotFound) => self.vanished += 1,
            Err(_) => self.errors += 1,
        }
    }
}

/// One round as `Monitor::sample` reads it with delta sampling off and
/// in its order — `/proc/stat`, the listing, the tasks, `meminfo` —
/// `after_listing` run between the listing and the task reads; returns
/// the tasks listed.
fn probe_round(
    src: &LinuxProc,
    pid: Pid,
    tids: &mut Vec<Tid>,
    tally: &mut Tally,
    after_listing: impl FnOnce(),
) -> usize {
    let mut node = src.system_stat().is_ok() && src.list_tasks_into(pid, tids).is_ok();
    after_listing();
    let mut arena = ReadArena::new();
    for &tid in tids.iter() {
        arena.reset();
        tally.timed(|| src.task_schedstat(pid, tid));
        tally.timed(|| src.task_stat_text(pid, tid, &mut arena));
        tally.timed(|| src.task_status_text(pid, tid, &mut arena));
    }
    node &= src.meminfo().is_ok();
    if !node {
        tally.errors += 1;
    }
    tids.len()
}

/// The node's `processes` count, read beside the source under test.
fn node_forks() -> Result<u64, String> {
    let stat = LinuxProc::with_root("/proc").system_stat();
    stat.map(|s| s.processes).map_err(|e| e.to_string())
}

/// Runs the probe; the report line, or why it could not run.
pub fn run_fd_probe(mode: &str) -> Result<String, String> {
    let late = match mode {
        "early" => false,
        "late" => true,
        other => return Err(format!("usage: __fd-probe <early|late> (got {other:?})")),
    };
    let stop = Arc::new(AtomicBool::new(false));
    let spawn_workers = || -> Result<Vec<std::thread::JoinHandle<()>>, String> {
        // The barrier forces "all 64 are running" before anything else.
        let running = Arc::new(Barrier::new(WORKERS + 1));
        let workers = (0..WORKERS)
            .map(|_| {
                let (stop, running) = (Arc::clone(&stop), Arc::clone(&running));
                std::thread::Builder::new()
                    .stack_size(64 * 1024)
                    .spawn(move || {
                        running.wait();
                        // Acquire pairs with the Release store below.
                        while !stop.load(Ordering::Acquire) {
                            std::thread::park();
                        }
                    })
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        running.wait();
        Ok(workers)
    };
    let mut workers = Vec::new();
    if late {
        workers = spawn_workers()?;
    }
    let slack = own_status("FDSize:")?.saturating_sub(open_fds()?);
    let threads_at_new = own_status("Threads:")?;
    let src = LinuxProc::new();
    let fdsize_new = own_status("FDSize:")?;
    if !late {
        workers = spawn_workers()?;
    }
    let fds_start = open_fds()?;
    let pid = src.self_pid().map_err(|e| e.to_string())?;
    src.task_schedstat(pid, pid)
        .map_err(|e| format!("/proc/{pid}/task/{pid}/schedstat is not readable ({e})"))?;
    let mut tids = Vec::new();

    let mut steady = Tally::default();
    let opens_before = src.opens();
    let forks_before = node_forks()?;
    probe_round(&src, pid, &mut tids, &mut steady, || {});
    let opens_round1 = src.opens() - opens_before;
    let worst_open_us = steady.worst_call_ns / 1_000;
    for _ in 1..STEADY_ROUNDS {
        probe_round(&src, pid, &mut tids, &mut steady, || {});
    }
    let opens_steady = src.opens() - opens_before - opens_round1;
    let (held_steady, refused_steady) = (src.handles_held(), src.retentions_refused());
    let (listings_steady, forks_after) = (src.listings(), node_forks()?);

    // Every round starts two threads and lets the two of the round
    // before go once they are listed: they are read for one round, so
    // their handles are held where the budget allows, and exit under
    // the reads of the next.
    let mut churn = Tally::default();
    let mut held_peak = 0;
    let mut arrivals_missed = 0;
    let mut leaving: Option<(Arc<Barrier>, Vec<std::thread::JoinHandle<()>>)> = None;
    for _ in 0..=CHURN_ROUNDS {
        let gate = Arc::new(Barrier::new(CHURN_THREADS + 1));
        let (arrived_tx, arrived) = std::sync::mpsc::channel();
        let arriving: Vec<_> = (0..CHURN_THREADS)
            .map(|_| {
                let (gate, arrived_tx) = (Arc::clone(&gate), arrived_tx.clone());
                std::thread::spawn(move || {
                    let _ = arrived_tx.send(own_tid());
                    gate.wait();
                })
            })
            .collect();
        let arrived: Vec<Option<Tid>> = arrived.iter().take(CHURN_THREADS).collect();
        let left = leaving.replace((gate, arriving));
        probe_round(&src, pid, &mut tids, &mut churn, || {
            if let Some((gate, _)) = &left {
                gate.wait();
            }
        });
        let listed = |tid: &Option<Tid>| tid.is_some_and(|t| tids.contains(&t));
        arrivals_missed += arrived.iter().filter(|tid| !listed(tid)).count();
        held_peak = held_peak.max(src.handles_held());
        for t in left.into_iter().flat_map(|(_, threads)| threads) {
            t.join().map_err(|_| "a churn thread panicked")?;
        }
    }
    let listings_churn = src.listings() - listings_steady;
    if let Some((gate, threads)) = leaving {
        gate.wait();
        for t in threads {
            t.join().map_err(|_| "a churn thread panicked")?;
        }
    }
    // `join` can return a moment before the kernel unhashes the task.
    let deadline = Instant::now() + std::time::Duration::from_secs(5);
    while probe_round(&src, pid, &mut tids, &mut churn, || {}) > WORKERS + 1 {
        if Instant::now() > deadline {
            return Err(format!("{} tasks still listed after the churn", tids.len()));
        }
        std::thread::yield_now();
    }
    let report = format!(
        "threads_at_new={threads_at_new} slack={slack} fdsize_new={fdsize_new} fdsize_end={} \
         opens_round1={opens_round1} opens_steady={opens_steady} worst_open_us={worst_open_us} \
         held_steady={held_steady} refused_steady={refused_steady} steady_reads_ok={} \
         steady_errors={} churn_vanished={} churn_errors={} reopens={} cache_drops={} \
         held_peak={held_peak} held_end={} live_end={} fds_start={fds_start} fds_end={} \
         listings_steady={listings_steady} forks_before={forks_before} forks_after={forks_after} \
         listings_churn={listings_churn} churn_rounds={} arrivals_missed={arrivals_missed}",
        own_status("FDSize:")?,
        steady.reads_ok,
        steady.errors + steady.vanished,
        churn.vanished,
        churn.errors,
        src.reopens(),
        src.cache_drops(),
        src.handles_held(),
        tids.len(),
        open_fds()?,
        CHURN_ROUNDS + 1,
    );
    stop.store(true, Ordering::Release);
    for w in workers {
        w.thread().unpark();
        w.join().map_err(|_| "a parked worker panicked")?;
    }
    Ok(report)
}
