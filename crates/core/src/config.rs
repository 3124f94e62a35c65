//! ZeroSum configuration.
//!
//! Mirrors the knobs the paper describes (§3.1): the sampling period
//! (1 s default, §4) and the monitor's cost model. Whether the
//! abnormal-exit reporter is installed is the mode's, not a knob: a
//! self-attached application gets the panic hook, the wrapper reports
//! its child's signal ([`crate::signal`]). What no caller sets is a constant beside the code that
//! reads it: the retry and quarantine policy in [`crate::health`], the
//! overload controller's budget, ceiling and deadline in
//! [`crate::monitor`], the deadlock threshold in [`crate::heartbeat`].

/// The CPU cost model of one monitor sample, used when the monitor runs
/// as a simulated task. Reading `/proc` is kernel time; parsing and
/// bookkeeping are user time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorCost {
    /// Kernel-mode µs per sample.
    pub sys_us: u64,
    /// User-mode µs per sample.
    pub user_us: u64,
}

impl Default for MonitorCost {
    fn default() -> Self {
        // ~5 ms/sample: reading stat+status for ~10 LWPs plus the 128-row
        // /proc/stat and meminfo, then parsing. Produces the ≈0.5%
        // overhead of Figure 8 when sharing a saturated core at 1 Hz.
        MonitorCost {
            sys_us: 3_500,
            user_us: 1_500,
        }
    }
}

impl MonitorCost {
    /// Total µs per sample.
    pub fn total_us(&self) -> u64 {
        self.sys_us + self.user_us
    }
}

/// Top-level ZeroSum configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ZeroSumConfig {
    /// Sampling period, µs (paper default: once per second).
    pub period_us: u64,
    /// Monitor thread CPU cost per sample (simulation mode).
    pub cost: MonitorCost,
    /// Delta sampling: skip re-reading `stat`/`status` for worker
    /// threads whose `schedstat` is unchanged since the last fresh read.
    /// A thread whose on-CPU time, wait time, and timeslice count are
    /// all identical has not been dispatched, so those records cannot
    /// have changed. The main thread is always read fresh (it carries
    /// the process-wide RSS, which moves without the thread running).
    pub delta_sampling: bool,
    /// Capacity of every monitor time series (per-LWP samples, per-HWT
    /// utilization, RSS, meminfo). Series are ring buffers that
    /// downsample 2:1 when full, so a multi-hour run holds constant
    /// memory regardless of length.
    pub series_capacity: usize,
    /// Ceiling on retained exited/retired LWP tracks per watched
    /// process. Under open-system churn the cumulative tid count grows
    /// without bound; once a watch holds more than this many dead
    /// tracks, the oldest are folded into a departed-task summary so
    /// monitor memory stays proportional to *concurrent* tasks, not
    /// *cumulative* ones. Generous by default: closed-loop workloads
    /// keep every track for the end-of-run report.
    pub max_exited_tracks: usize,
}

impl Default for ZeroSumConfig {
    fn default() -> Self {
        ZeroSumConfig {
            period_us: 1_000_000,
            cost: MonitorCost::default(),
            delta_sampling: true,
            series_capacity: zerosum_stats::DEFAULT_SERIES_CAPACITY,
            max_exited_tracks: 512,
        }
    }
}

impl ZeroSumConfig {
    /// Builder: sets the sampling period in milliseconds.
    pub fn with_period_ms(mut self, ms: u64) -> Self {
        self.period_us = ms * 1_000;
        self
    }

    /// Builder: enables or disables delta sampling.
    pub fn with_delta_sampling(mut self, on: bool) -> Self {
        self.delta_sampling = on;
        self
    }

    /// Builder: sets the time-series ring capacity.
    pub fn with_series_capacity(mut self, cap: usize) -> Self {
        self.series_capacity = cap;
        self
    }

    /// A configuration for workloads scaled down by `scale`: the sampling
    /// period *and* the per-sample cost shrink proportionally, so a
    /// scaled experiment sees the same number of samples per block and
    /// the same relative monitor overhead as the full-size run.
    pub fn scaled(scale: u32) -> Self {
        let scale = scale.max(1) as u64;
        ZeroSumConfig {
            period_us: (1_000_000 / scale).max(10_000),
            cost: MonitorCost {
                sys_us: (3_500 / scale).max(50),
                user_us: (1_500 / scale).max(50),
            },
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ZeroSumConfig::default();
        assert_eq!(c.period_us, 1_000_000); // 1 Hz
    }

    #[test]
    fn overhead_defaults_keep_governor_idle_at_paper_cost() {
        use crate::monitor::{budget_us, deadline_us};
        let c = ZeroSumConfig::default();
        // The paper's steady-state sampling cost (~5 ms) sits well under
        // the 1% budget (10 ms at 1 Hz): the governor must be idle on a
        // healthy node so bench numbers are unaffected.
        assert!(c.cost.total_us() < budget_us(c.period_us));
        assert_eq!(budget_us(c.period_us), 10_000);
        assert_eq!(deadline_us(c.period_us), 500_000);
        assert_eq!(c.series_capacity, zerosum_stats::DEFAULT_SERIES_CAPACITY);
    }

    #[test]
    fn builders() {
        let c = ZeroSumConfig::default().with_period_ms(250);
        assert_eq!(c.period_us, 250_000);
    }
}
