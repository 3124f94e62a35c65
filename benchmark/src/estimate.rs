//! Location and tail estimators for the benchmark's timings.
//!
//! The reference host (a two-vCPU VM with noisy neighbours) makes the
//! same work take 1.35-1.6x as long about half of the time, in phases
//! of anything from a millisecond to half a minute (`README.md`, Noise).
//! How much of a window the slow phases occupy is the host's business,
//! not the code's, but whenever the host is quiet the code costs the
//! same, and even a slow phase is interrupted by quiet gaps a few
//! milliseconds long. Every timing is therefore reported over its
//! *quiet* samples — those whose cost is within [`QUIET_BAND`] of the
//! cheapest sample's — and a tail percentile is only trusted when
//! enough samples lie beyond it. This needs samples short enough to fit
//! into a quiet gap, and many of them: windows are cut into segments of
//! 3-6 ms and the exit path into its separate calls.

use std::collections::BTreeMap;

/// Samples that must lie beyond a tail percentile for it to be trusted.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (sorted in place); the midpoint mean for an even
/// count. `None` when empty.
pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let hi = *values.get(n / 2)?;
    if n % 2 == 1 {
        return Some(hi);
    }
    let lo = *values.get(n / 2 - 1)?;
    Some((lo + hi) / 2.0)
}

/// Nearest-rank percentile (`p` in `(0, 1]`) of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    let idx = rank(sorted.len(), p)?;
    sorted.get(idx).copied()
}

/// Zero-based nearest-rank index of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p <= 1.0) {
        return None;
    }
    Some(((n as f64 * p).ceil() as usize).clamp(1, n) - 1)
}

/// A tail estimate and the percentile it actually stands for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The estimate.
    pub value: f64,
    /// The percentile reported, in `(0, 1)`: `p` when supported, else
    /// the highest percentile with [`MIN_BEYOND`] samples beyond it.
    pub percentile: f64,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// The `p`-th percentile of an ascending slice when at least
/// [`MIN_BEYOND`] samples lie beyond it; otherwise the highest
/// percentile that has that many beyond it. `None` when even the median
/// cannot be separated from the tail (fewer than `2 * MIN_BEYOND + 1`
/// samples) — such a window is too short to report a tail at all.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<Tail> {
    let n = sorted.len();
    if n < 2 * MIN_BEYOND + 1 {
        return None;
    }
    let wanted = rank(n, p)?;
    let idx = wanted.min(n - 1 - MIN_BEYOND);
    Some(Tail {
        value: *sorted.get(idx)?,
        percentile: (idx + 1) as f64 / n as f64,
        beyond: n - 1 - idx,
    })
}

/// One fixed-size segment of a timed window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Segment {
    /// Rounds completed.
    pub rounds: u64,
    /// Task samples (or frames delivered and folded) completed.
    pub work: u64,
    /// Wall nanoseconds spent inside the timed rounds.
    pub busy_ns: u64,
    /// Wall nanoseconds of the whole segment: the rounds plus whatever
    /// the driving thread does between them.
    pub wall_ns: u64,
    /// Segments of one class do the same work on the same inputs.
    pub class: u32,
}

/// A sample is quiet when its cost is at most this multiple of the
/// cheapest sample's: beyond the few percent by which undisturbed
/// samples differ, well short of the host's slow phases.
pub const QUIET_BAND: f64 = 1.10;

/// Every sample's cost relative to the cheapest of its own class
/// (`class_of(i)`): samples of different classes do different work, so
/// each is only ever compared with its own kind. Costs are positive;
/// lower is quieter.
pub fn relative(costs: &[f64], class_of: impl Fn(usize) -> u32) -> Vec<f64> {
    let mut floor: BTreeMap<u32, f64> = BTreeMap::new();
    for (i, &c) in costs.iter().enumerate() {
        let f = floor.entry(class_of(i)).or_insert(f64::INFINITY);
        *f = f.min(c);
    }
    costs
        .iter()
        .enumerate()
        .map(|(i, &c)| c / floor.get(&class_of(i)).copied().unwrap_or(c))
        .collect()
}

/// Indices of the quiet samples among relative costs `rel`, cheapest
/// first. When they hold fewer than `min_pool` observations between
/// them (`size_of(i)` per sample), the next-cheapest samples are taken
/// too until they do: a percentile needs a pool to be taken from, even
/// in a window that hardly met a quiet gap. Empty only when `rel` is.
pub fn quiet(rel: &[f64], size_of: impl Fn(usize) -> usize, min_pool: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..rel.len()).collect();
    let at = |i: usize| rel.get(i).copied().unwrap_or(f64::INFINITY);
    order.sort_by(|&a, &b| at(a).total_cmp(&at(b)));
    let mut held = 0usize;
    order
        .into_iter()
        .take_while(|&i| {
            let take = at(i) <= QUIET_BAND || held < min_pool;
            held += size_of(i);
            take
        })
        .collect()
}

/// Mean of the quiet samples of `values`.
pub fn quiet_mean(values: &[f64]) -> Option<f64> {
    let keep = quiet(&relative(values, |_| 0), |_| 1, 1);
    if keep.is_empty() {
        return None;
    }
    let sum: f64 = keep.iter().filter_map(|&i| values.get(i)).sum();
    Some(sum / keep.len() as f64)
}

impl Segment {
    /// Wall nanoseconds per unit of work: what segments are ranked by.
    pub fn cost(&self) -> f64 {
        self.busy_ns as f64 / self.work.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&mut []), None);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs = ramp(100);
        assert_eq!(percentile_sorted(&xs, 0.5), Some(50.0));
        assert_eq!(percentile_sorted(&xs, 0.99), Some(99.0));
        assert_eq!(percentile_sorted(&xs, 1.0), Some(100.0));
        assert_eq!(percentile_sorted(&xs, 0.0), None);
        assert_eq!(percentile_sorted(&[], 0.5), None);
    }

    #[test]
    fn p99_is_reported_only_with_ten_samples_beyond() {
        // 10 000 rounds: p99 is rank 9 900, 100 samples beyond.
        let t = tail_percentile(&ramp(10_000), 0.99).unwrap();
        assert_eq!((t.value, t.beyond), (9_900.0, 100));
        assert!((t.percentile - 0.99).abs() < 1e-12);
        // 1 100 rounds: exactly 11 beyond, still p99.
        let t = tail_percentile(&ramp(1_100), 0.99).unwrap();
        assert_eq!((t.value, t.beyond), (1_089.0, 11));
        // 300 soaks: p99 would leave 3 beyond, so the estimator falls
        // back to the highest percentile with ten beyond it and says so.
        let t = tail_percentile(&ramp(300), 0.99).unwrap();
        assert_eq!((t.value, t.beyond), (290.0, 10));
        assert!(t.percentile < 0.99 && t.percentile > 0.96);
        // Too few samples to separate a tail from the median at all.
        assert_eq!(tail_percentile(&ramp(20), 0.99), None);
        assert!(tail_percentile(&ramp(21), 0.99).is_some());
    }

    #[test]
    fn quiet_selection_ignores_however_much_of_the_window_was_slow() {
        // 400 segments costing 100..103 when the host is quiet and 1.43x
        // that when it is not. Whether the slow phases take 10 % or
        // 98 % of the window, the quiet mean stays put; the median and
        // the fastest decile follow the host.
        let window = |slow: usize| -> Vec<f64> {
            (0..400)
                .map(|i| {
                    let base = 100.0 + (i % 4) as f64;
                    if i < slow {
                        base * 1.43
                    } else {
                        base
                    }
                })
                .collect()
        };
        let (mostly_quiet, mostly_slow) = (window(40), window(392));
        let (a, b) = (
            quiet_mean(&mostly_quiet).unwrap(),
            quiet_mean(&mostly_slow).unwrap(),
        );
        assert!((a - b).abs() / a < 0.005, "{a} vs {b}");
        let mut kept = quiet(&relative(&mostly_slow, |_| 0), |_| 1, 1);
        kept.sort_unstable();
        assert_eq!(kept, [392, 393, 394, 395, 396, 397, 398, 399]);
        let (ma, mb) = (
            median(&mut mostly_quiet.clone()).unwrap(),
            median(&mut mostly_slow.clone()).unwrap(),
        );
        assert!(mb / ma > 1.35, "the median follows the host: {ma} vs {mb}");
        let mut sorted = mostly_slow.clone();
        sorted.sort_by(f64::total_cmp);
        assert!(percentile_sorted(&sorted, 0.10).unwrap() / a > 1.35);
        // A window that never saw a quiet phase reports the slow one:
        // an outlier run, not a silent mix.
        assert!(quiet_mean(&window(400)).unwrap() / a > 1.4);
        assert_eq!(quiet_mean(&[]), None);
        assert_eq!(quiet(&[1.0], |_| 1, 1), [0]);
    }

    #[test]
    fn classes_have_their_own_floor_and_a_thin_pool_is_topped_up() {
        // 200 is quiet among the 200s, 150 is not among the 100s.
        let costs = [100.0, 200.0, 150.0, 205.0, 300.0];
        let rel = relative(&costs, |i| (i % 2) as u32);
        assert_eq!(rel, [1.0, 1.0, 1.5, 1.025, 3.0]);
        assert_eq!(quiet(&rel, |_| 3, 0), [0, 1, 3]);
        assert_eq!(quiet(&rel, |_| 3, 9), [0, 1, 3]);
        // A pool of 10 needs a fourth sample: the next-cheapest.
        assert_eq!(quiet(&rel, |_| 3, 10), [0, 1, 3, 2]);
        assert_eq!(quiet(&rel, |_| 3, 1_000), [0, 1, 3, 2, 4]);
    }

    #[test]
    fn segments_rank_by_cost_per_unit_of_work() {
        let seg = Segment {
            rounds: 10,
            work: 320,
            busy_ns: 640_000,
            wall_ns: 700_000,
            class: 0,
        };
        assert_eq!(seg.cost(), 2_000.0);
        assert!(Segment::default().cost() == 0.0);
    }
}
