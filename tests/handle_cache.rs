//! `LinuxProc`'s handle cache changes what a round costs, never what it
//! sees: two monitors in lockstep over this process's parked threads,
//! one through a source that holds its files open and one through a
//! source that opens per read, end with the same LWP tables, sampling
//! counters and health ledgers — across a thread that leaves with no
//! birth on the node, which only the task directory's `nlink` reports
//! to the source that answers listings from its slots.
//!
//! A file of its own, so no sibling test's threads come and go between
//! the two monitors' reads.

mod live_threads;

use live_threads::parked_thread;
use zerosum::core::{Monitor, ProcessInfo, ZeroSumConfig};
use zerosum::procfs::LinuxProc;

#[test]
fn retaining_and_open_per_read_sources_sample_alike() {
    // This harness is multithreaded: `new` keeps to the fd table it
    // finds, `with_root` holds nothing at all.
    let sources = [LinuxProc::new(), LinuxProc::with_root("/proc")];
    let Some(pid) = sources[0].self_pid().ok() else {
        eprintln!("handle cache differential: SKIPPED (/proc/self/status is not readable)");
        return;
    };
    let mut parked: Vec<_> = (0..6).map(|_| parked_thread()).collect();
    let tids: Vec<u32> = parked.iter().map(|p| p.0).collect();

    let mut monitors = [(); 2].map(|_| {
        let mut mon = Monitor::new(ZeroSumConfig::default());
        mon.watch_process(ProcessInfo {
            pid,
            rank: None,
            hostname: "differential".into(),
            gpus: vec![],
            cpus_allowed: Default::default(),
        });
        mon
    });
    for round in 1..=8u32 {
        if round == 6 {
            let (_, go, thread) = parked.remove(0);
            drop(go);
            thread.join().unwrap();
        }
        for (mon, src) in monitors.iter_mut().zip(&sources) {
            // Gate hits for three rounds, full reads after.
            mon.config.delta_sampling = round <= 4;
            // The one thread that is not parked is this one. Coming
            // back from a sleep its `schedstat` has moved, every time;
            // straight from the last sample it may or may not have.
            std::thread::sleep(std::time::Duration::from_millis(2));
            mon.sample(f64::from(round), src);
        }
    }

    let [held, plain] = &sources;
    assert!(held.handles_held() > 0, "the harness's fd table had room");
    assert!(held.opens() < plain.opens() / 2);
    assert_eq!((plain.handles_held(), held.cache_drops()), (0, 0));
    let [a, b] = &monitors;
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.stats.errors, 0);
    assert_eq!(a.health_total(), b.health_total());
    let tracks = |mon: &Monitor| -> Vec<String> {
        let lwps = &mon.process(pid).unwrap().lwps;
        let parked = lwps.tracks().filter(|t| tids.contains(&t.tid));
        parked.map(|t| format!("{t:?}")).collect()
    };
    assert_eq!(tracks(a).len(), tids.len());
    assert_eq!(tracks(a), tracks(b));

    for (_, go, thread) in parked {
        drop(go);
        thread.join().unwrap();
    }
}
