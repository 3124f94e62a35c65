//! A scoped-thread experiment engine.
//!
//! Every experiment in this crate is a pure function of `(config, scale,
//! seed)` — simulations share no state — so independent runs can execute
//! on worker threads without changing any result. The engine preserves
//! *submission order* in its output regardless of completion order:
//! callers that iterate seeds get results ordered by seed, which keeps
//! reports and CSV artifacts byte-identical to a sequential run.
//!
//! Built on `std::thread::scope` only (no dependencies): workers claim
//! job indices from an atomic counter, write results into per-slot
//! mutexes, and a panic in any job propagates to the caller at scope
//! exit — an experiment failure is never silently swallowed.

use std::sync::atomic::{AtomicUsize, Ordering};
use zerosum_core::Tracked;

/// The worker count used by [`run_jobs`] when the caller passes 0:
/// available parallelism, capped to 8 (experiment runs are memory-bound
/// beyond that on typical CI hosts).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Runs `jobs` on up to `workers` scoped threads (0 = automatic) and
/// returns the results in submission order.
///
/// Panics if any job panics (propagated at scope exit, after the other
/// workers finish their current jobs).
pub fn run_jobs<T, F>(jobs: Vec<F>, workers: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = if workers == 0 {
        default_workers()
    } else {
        workers
    }
    .max(1)
    .min(n);
    if workers == 1 {
        // Sequential fast path: no threads, same ordering.
        return jobs.into_iter().map(|j| j()).collect();
    }
    let slots: Vec<Tracked<Option<F>>> = jobs
        .into_iter()
        .map(|j| Tracked::new("experiments.parallel.slot", Some(j)))
        .collect();
    let results: Vec<Tracked<Option<T>>> = (0..n)
        .map(|_| Tracked::new("experiments.parallel.result", None))
        .collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = slots[i]
                    .lock()
                    .expect("job slot poisoned")
                    .take()
                    .expect("each job index is claimed exactly once");
                let out = job();
                *results[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every claimed job stored a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn empty_and_single_job_work() {
        let none: Vec<Box<dyn FnOnce() -> u32 + Send>> = Vec::new();
        assert!(run_jobs(none, 4).is_empty());
        assert_eq!(run_jobs(vec![|| 7u32], 4), vec![7]);
    }

    #[test]
    fn results_preserve_submission_order() {
        // Jobs finish in shuffled order (earlier indices sleep longer);
        // the output must still be input-ordered.
        let jobs: Vec<_> = (0..16u64)
            .map(|i| {
                move || {
                    std::thread::sleep(std::time::Duration::from_millis((16 - i) % 4));
                    i * 10
                }
            })
            .collect();
        let out = run_jobs(jobs, 4);
        assert_eq!(out, (0..16u64).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn seeded_runs_match_sequential() {
        let seeds: Vec<u64> = (0..9).map(|i| 1000 + i * 7).collect();
        let f = |s: u64| s.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(17);
        let sequential: Vec<u64> = seeds.iter().map(|&s| f(s)).collect();
        for workers in [3, 1, 0] {
            let jobs = seeds.iter().map(|&s| move || f(s)).collect();
            assert_eq!(run_jobs(jobs, workers), sequential);
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        static COUNT: AtomicU32 = AtomicU32::new(0);
        let jobs: Vec<_> = (0..40)
            .map(|_| || COUNT.fetch_add(1, Ordering::SeqCst))
            .collect();
        let out = run_jobs(jobs, 6);
        assert_eq!(out.len(), 40);
        assert_eq!(COUNT.load(Ordering::SeqCst), 40);
        // All 40 distinct counter values were observed.
        let mut seen = out.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 40);
    }

    #[test]
    fn job_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            run_jobs(
                vec![
                    Box::new(|| 1u32) as Box<dyn FnOnce() -> u32 + Send>,
                    Box::new(|| panic!("boom")),
                ],
                2,
            )
        });
        assert!(result.is_err());
    }
}
