//! Hardware-thread (CPU) utilization tracking from `/proc/stat` deltas.
//!
//! §3.4 of the paper: the HWT report lists, for every hardware thread in
//! the process affinity list, the percentage of time idle, in system
//! calls, and executing user code. Percentages are computed from
//! consecutive jiffy-counter snapshots.

use zerosum_proc::SystemStat;
use zerosum_stats::Ring;

/// One per-interval utilization observation for one CPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwtSample {
    /// Sample time, seconds from start.
    pub t_s: f64,
    /// Fraction of the interval idle, percent.
    pub idle_pct: f64,
    /// Fraction in kernel mode, percent.
    pub system_pct: f64,
    /// Fraction in user mode, percent.
    pub user_pct: f64,
}

/// Utilization history for every CPU on the node.
#[derive(Debug)]
pub struct HwtTracker {
    prev: Option<SystemStat>,
    /// `(os_index, samples)` per CPU, in `/proc/stat` order. Each series
    /// is a bounded ring (2:1 downsample on wrap) so a multi-hour run
    /// holds constant memory; `overall` uses only the first/latest
    /// snapshots and is unaffected by downsampling.
    cpus: Vec<(u32, Ring<HwtSample>)>,
    /// Cumulative totals from the first to the latest snapshot.
    first: Option<SystemStat>,
    /// Ring capacity for per-CPU series.
    capacity: usize,
}

/// Position of the first row of `rows` for CPU `os_index`. `/proc/stat`
/// prints its rows in the same order every time, so slot `k` — where
/// the row sits in the snapshot being folded — is tried first and the
/// vector searched only on a miss (a hot-unplugged or newly appearing
/// CPU shifts the rows). The prediction is taken only when the slot
/// before it holds another CPU: a repeated row then resolves to its
/// first occurrence, exactly as the search does.
fn row_position<T>(rows: &[(u32, T)], k: usize, os_index: u32) -> Option<usize> {
    let hit = |j: usize| rows.get(j).is_some_and(|(i, _)| *i == os_index);
    if hit(k) && !(k > 0 && hit(k - 1)) {
        Some(k)
    } else {
        rows.iter().position(|(i, _)| *i == os_index)
    }
}

impl Default for HwtTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl HwtTracker {
    /// An empty tracker with the default series capacity.
    pub fn new() -> Self {
        Self::with_capacity(zerosum_stats::DEFAULT_SERIES_CAPACITY)
    }

    /// An empty tracker whose per-CPU series hold at most `capacity`
    /// samples.
    pub fn with_capacity(capacity: usize) -> Self {
        HwtTracker {
            prev: None,
            cpus: Vec::new(),
            first: None,
            capacity,
        }
    }

    /// Folds a `/proc/stat` snapshot taken at `t_s` seconds.
    pub fn observe(&mut self, t_s: f64, stat: &SystemStat) {
        if self.first.is_none() {
            self.first = Some(stat.clone());
        }
        if let Some(prev) = &self.prev {
            for (k, (idx, times)) in stat.cpus.iter().enumerate() {
                let Some((_, prev_times)) =
                    row_position(&prev.cpus, k, *idx).and_then(|p| prev.cpus.get(p))
                else {
                    continue;
                };
                let d = times.delta(prev_times);
                let total = d.total();
                let pos = match row_position(&self.cpus, k, *idx) {
                    Some(p) => p,
                    None => {
                        self.cpus.push((*idx, Ring::with_capacity(self.capacity)));
                        self.cpus.len() - 1
                    }
                };
                // `pos` is valid by construction; stay panic-free in
                // the sampling loop regardless.
                let Some((_, entry)) = self.cpus.get_mut(pos) else {
                    continue;
                };
                let pct = |x: u64| {
                    if total == 0 {
                        0.0
                    } else {
                        x as f64 * 100.0 / total as f64
                    }
                };
                entry.push(HwtSample {
                    t_s,
                    idle_pct: pct(d.idle + d.iowait),
                    system_pct: pct(d.system + d.irq + d.softirq),
                    user_pct: pct(d.user + d.nice),
                });
            }
        } else {
            for (idx, _) in &stat.cpus {
                self.cpus.push((*idx, Ring::with_capacity(self.capacity)));
            }
        }
        // Reuse the previous snapshot's cpu vector rather than cloning a
        // fresh one every sample.
        match &mut self.prev {
            Some(prev) => prev.clone_from(stat),
            None => self.prev = Some(stat.clone()),
        }
    }

    /// Overall utilization of one CPU across the whole run:
    /// `(idle%, system%, user%)` — the HWT report row.
    pub fn overall(&self, os_index: u32) -> Option<(f64, f64, f64)> {
        let first = self.first.as_ref()?;
        let last = self.prev.as_ref()?;
        let f = first.cpus.iter().find(|(i, _)| *i == os_index)?;
        let l = last.cpus.iter().find(|(i, _)| *i == os_index)?;
        let d = l.1.delta(&f.1);
        let total = d.total();
        if total == 0 {
            return Some((100.0, 0.0, 0.0));
        }
        let pct = |x: u64| x as f64 * 100.0 / total as f64;
        Some((
            pct(d.idle + d.iowait),
            pct(d.system + d.irq + d.softirq),
            pct(d.user + d.nice),
        ))
    }

    /// Per-interval history of one CPU (Figure 7's series).
    pub fn samples(&self, os_index: u32) -> Option<&[HwtSample]> {
        self.cpus
            .iter()
            .find(|(i, _)| *i == os_index)
            .map(|(_, v)| v.as_slice())
    }

    /// Every tracked CPU with its per-interval history, in `/proc/stat`
    /// order — what the HWT CSV dump walks.
    pub fn series(&self) -> impl Iterator<Item = (u32, &[HwtSample])> {
        self.cpus.iter().map(|(i, v)| (*i, v.as_slice()))
    }

    /// Number of delta samples per CPU (0 before two snapshots).
    pub fn sample_count(&self) -> usize {
        self.cpus.first().map(|(_, v)| v.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerosum_proc::CpuTimes;

    fn stat(rows: &[(u32, u64, u64, u64)]) -> SystemStat {
        let cpus: Vec<(u32, CpuTimes)> = rows
            .iter()
            .map(|&(i, u, s, idle)| {
                (
                    i,
                    CpuTimes {
                        user: u,
                        system: s,
                        idle,
                        ..Default::default()
                    },
                )
            })
            .collect();
        let total = cpus
            .iter()
            .fold(CpuTimes::default(), |acc, (_, t)| acc.add(t));
        SystemStat {
            total,
            cpus,
            ctxt: 0,
            processes: 0,
        }
    }

    #[test]
    fn percentages_from_deltas() {
        let mut tr = HwtTracker::new();
        tr.observe(0.0, &stat(&[(0, 0, 0, 0), (1, 0, 0, 0)]));
        tr.observe(1.0, &stat(&[(0, 64, 12, 24), (1, 0, 0, 100)]));
        let s0 = tr.samples(0).unwrap();
        assert_eq!(s0.len(), 1);
        assert!((s0[0].user_pct - 64.0).abs() < 1e-9);
        assert!((s0[0].system_pct - 12.0).abs() < 1e-9);
        assert!((s0[0].idle_pct - 24.0).abs() < 1e-9);
        let s1 = tr.samples(1).unwrap();
        assert!((s1[0].idle_pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn overall_spans_whole_run() {
        let mut tr = HwtTracker::new();
        tr.observe(0.0, &stat(&[(0, 0, 0, 0)]));
        tr.observe(1.0, &stat(&[(0, 100, 0, 0)]));
        tr.observe(2.0, &stat(&[(0, 100, 0, 100)]));
        let (idle, system, user) = tr.overall(0).unwrap();
        assert!((user - 50.0).abs() < 1e-9);
        assert!((idle - 50.0).abs() < 1e-9);
        assert_eq!(system, 0.0);
    }

    #[test]
    fn unknown_cpu_is_none() {
        let mut tr = HwtTracker::new();
        tr.observe(0.0, &stat(&[(0, 0, 0, 0)]));
        tr.observe(1.0, &stat(&[(0, 1, 0, 9)]));
        assert!(tr.overall(7).is_none());
        assert!(tr.samples(7).is_none());
    }

    #[test]
    fn single_snapshot_has_no_samples() {
        let mut tr = HwtTracker::new();
        tr.observe(0.0, &stat(&[(0, 5, 5, 5)]));
        assert_eq!(tr.sample_count(), 0);
        // overall with first == last: zero delta ⇒ treated as fully idle.
        assert_eq!(tr.overall(0), Some((100.0, 0.0, 0.0)));
    }

    #[test]
    fn series_stay_bounded_and_overall_is_exact_after_wrap() {
        let mut tr = HwtTracker::with_capacity(16);
        for t in 0..200u64 {
            tr.observe(t as f64, &stat(&[(0, t * 10, 0, t * 10)]));
        }
        // The ring wrapped many times but never exceeds its capacity...
        assert!(tr.sample_count() <= 16);
        let s = tr.samples(0).unwrap();
        assert!((s[0].t_s - 1.0).abs() < 1e-9, "first delta sample kept");
        assert!((s[s.len() - 1].t_s - 199.0).abs() < 1e-9, "latest kept");
        // ...and overall uses only the first/latest snapshots, so it is
        // unaffected by downsampling: 50/50 user/idle.
        let (idle, system, user) = tr.overall(0).unwrap();
        assert!((user - 50.0).abs() < 1e-9);
        assert!((idle - 50.0).abs() < 1e-9);
        assert_eq!(system, 0.0);
    }

    /// The fold with both lookups done by search alone, as they were
    /// before `row_position` predicted the slot.
    #[derive(Default)]
    struct SearchFold {
        prev: Option<SystemStat>,
        cpus: Vec<(u32, Vec<HwtSample>)>,
    }

    impl SearchFold {
        fn observe(&mut self, t_s: f64, stat: &SystemStat) {
            let Some(prev) = &self.prev else {
                self.cpus = stat.cpus.iter().map(|(i, _)| (*i, Vec::new())).collect();
                self.prev = Some(stat.clone());
                return;
            };
            for (idx, times) in &stat.cpus {
                let Some((_, prev_times)) = prev.cpus.iter().find(|(i, _)| i == idx) else {
                    continue;
                };
                let d = times.delta(prev_times);
                let total = d.total() as f64;
                let pct = |x: u64| x as f64 * 100.0 / total;
                let pos = match self.cpus.iter().position(|(i, _)| i == idx) {
                    Some(p) => p,
                    None => {
                        self.cpus.push((*idx, Vec::new()));
                        self.cpus.len() - 1
                    }
                };
                self.cpus[pos].1.push(HwtSample {
                    t_s,
                    idle_pct: pct(d.idle + d.iowait),
                    system_pct: pct(d.system + d.irq + d.softirq),
                    user_pct: pct(d.user + d.nice),
                });
            }
            self.prev = Some(stat.clone());
        }
    }

    #[test]
    fn predicted_slots_hold_the_series_the_search_gives() {
        // Counters grow by a per-CPU, per-round amount so that a sample
        // filed under the wrong CPU or against the wrong previous row
        // changes a percentage.
        let row = |cpu: u32, round: u64| (cpu, round * (cpu as u64 + 1), round * 2, round * 7 + 1);
        let fold = |rounds: &[&[u32]]| {
            let mut tracker = HwtTracker::new();
            let mut search = SearchFold::default();
            for (r, cpus) in rounds.iter().enumerate() {
                let rows: Vec<_> = cpus.iter().map(|&c| row(c, r as u64 + 1)).collect();
                let snapshot = stat(&rows);
                tracker.observe(r as f64, &snapshot);
                search.observe(r as f64, &snapshot);
                let got: Vec<(u32, Vec<HwtSample>)> =
                    tracker.series().map(|(i, s)| (i, s.to_vec())).collect();
                assert_eq!(got, search.cpus, "after round {r} of {rounds:?}");
            }
            tracker
        };
        let tracker = fold(&[
            &[0, 1, 2, 3],
            &[0, 1, 2, 3], // every prediction hits
            &[0, 2, 3],    // cpu 1 hot-unplugged: rows shift up
            &[0, 2, 3],
            &[0, 1, 2, 3, 4], // cpu 1 back, cpu 4 appears
            &[3, 0, 4, 1, 2], // reordered
            &[0, 0, 1, 1, 2], // repeated rows resolve to the first
            &[0, 0, 1, 1, 2],
            &[5], // nothing in common with the last round
            &[0, 1, 2, 3, 4, 5],
        ]);
        // CPUs that appeared later were appended, each with one series.
        let order: Vec<u32> = tracker.series().map(|(i, _)| i).collect();
        assert_eq!(order, [0, 1, 2, 3, 4, 5]);
        // Rows repeated from the first snapshot on: two series, one fed.
        fold(&[&[0, 0, 1], &[0, 0, 1], &[0, 1]]);
    }

    #[test]
    fn idle_includes_iowait_and_system_includes_irq() {
        let mut tr = HwtTracker::new();
        let mk = |io: u64, irq: u64| {
            let mut t = CpuTimes {
                user: 10,
                system: 10,
                idle: 10,
                ..Default::default()
            };
            t.iowait = io;
            t.irq = irq;
            SystemStat {
                total: t,
                cpus: vec![(0, t)],
                ctxt: 0,
                processes: 0,
            }
        };
        tr.observe(0.0, &mk(0, 0));
        tr.observe(1.0, &mk(10, 10));
        let s = tr.samples(0).unwrap()[0];
        // Delta: iowait 10 (idle bucket), irq 10 (system bucket).
        assert!((s.idle_pct - 50.0).abs() < 1e-9);
        assert!((s.system_pct - 50.0).abs() < 1e-9);
        assert_eq!(s.user_pct, 0.0);
    }
}
