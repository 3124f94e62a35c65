//! # zerosum-stats
//!
//! Statistics utilities for ZeroSum-rs: streaming summaries (the
//! `min avg max` triplets of Listing 2's GPU report), Welch's t-test (the
//! §4.1 overhead comparison), time-series containers with CSV export
//! (§3.6, Figures 6–7), histograms/quartiles (Figure 8's runtime
//! distributions), and bounded ring buffers with downsample-on-wrap
//! (constant-memory series for multi-hour monitored runs).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![warn(missing_docs)]

pub mod histogram;
pub mod ring;
pub mod shard_ring;
pub mod summary;
pub mod timeseries;
pub mod ttest;

pub use histogram::{quartiles, Histogram, Quartiles};
pub use ring::{Ring, DEFAULT_SERIES_CAPACITY};
#[expect(
    clippy::disallowed_types,
    reason = "the frozen benchmark's replay imports `MutexSlot` from here"
)]
pub use shard_ring::{MutexSlot, ShardReader, ShardRing, ShardWriter, Slot};
pub use summary::Summary;
pub use timeseries::{SeriesBundle, TimeSeries};
pub use ttest::{welch_t_test, welch_t_test_summaries, TTest};

#[cfg(test)]
#[path = "../../../tests/seeded/mod.rs"]
mod seeded;

/// Bounds, merge and monotonicity laws over seeded samples.
#[cfg(test)]
mod properties {
    use crate::seeded::Seeded;
    use crate::summary::Summary;
    use crate::ttest::{regularized_incomplete_beta, two_sided_p, welch_t_test};

    #[test]
    fn summaries_bound_their_mean_and_merge_like_one_sample() {
        let mut g = Seeded::new(0x57a7_0101);
        for case in 0..256 {
            let xs = g.floats(1, 200, -1e6, 1e6);
            let s = Summary::from_slice(&xs);
            assert!(
                s.mean() >= s.min() - 1e-9 && s.mean() <= s.max() + 1e-9,
                "case {case}"
            );
            assert!(s.variance() >= 0.0, "case {case}");

            let (a, b) = (g.floats(1, 50, -1e3, 1e3), g.floats(1, 50, -1e3, 1e3));
            let mut merged = Summary::from_slice(&a);
            merged.merge(&Summary::from_slice(&b));
            let whole = Summary::from_slice(&[a, b].concat());
            assert!((merged.mean() - whole.mean()).abs() < 1e-6, "case {case}");
            assert!(
                (merged.variance() - whole.variance()).abs() < 1e-4,
                "case {case}"
            );
        }
    }

    #[test]
    fn beta_and_p_values_are_monotone_and_welch_is_antisymmetric() {
        let mut g = Seeded::new(0x57a7_0102);
        for case in 0..256 {
            let (a, b) = (g.in_span(0.5, 20.0), g.in_span(0.5, 20.0));
            let x1 = g.in_span(0.01, 0.98);
            let x2 = (x1 + g.in_span(0.001, 0.02)).min(0.999);
            let v1 = regularized_incomplete_beta(a, b, x1);
            let v2 = regularized_incomplete_beta(a, b, x2);
            assert!(
                v2 >= v1 - 1e-9,
                "case {case}: I_x not monotone: {v1} > {v2}"
            );
            assert!((0.0..=1.0).contains(&v1), "case {case}");

            let (t, df) = (g.in_span(0.0, 20.0), g.in_span(1.0, 200.0));
            let p = two_sided_p(t, df);
            assert!(two_sided_p(t + 1.0, df) <= p + 1e-9, "case {case}");
            assert!((0.0..=1.0).contains(&p), "case {case}");

            let (xs, ys) = (g.floats(3, 20, 0.0, 100.0), g.floats(3, 20, 0.0, 100.0));
            if let (Some(r1), Some(r2)) = (welch_t_test(&xs, &ys), welch_t_test(&ys, &xs)) {
                assert!((r1.t + r2.t).abs() < 1e-9, "case {case}");
                assert!((r1.p_value - r2.p_value).abs() < 1e-9, "case {case}");
            }
        }
    }
}
