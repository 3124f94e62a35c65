//! # zerosum-gpu
//!
//! The GPU-monitoring substrate for ZeroSum-rs.
//!
//! §3.4–3.5 of the paper: ZeroSum periodically queries ROCm SMI (AMD),
//! NVML (NVIDIA), or the Intel DPC++/SYCL API for device utilization,
//! clocks, power, temperature and memory, reporting min/mean/max in the
//! utilization report and watching GPU memory for exhaustion in the
//! contention report. This crate provides:
//!
//! * [`metrics`] — the Listing 2 metric set with the paper's row labels.
//! * [`device`] — the [`device::GpuBackend`] vendor abstraction and the
//!   min/mean/max [`device::GpuMonitor`].
//! * [`activity`] — the busy-fraction → metric-values physical model and
//!   the [`activity::ActivityFeed`] ground-truth source trait.
//! * [`backends`] — simulated ROCm SMI / NVML / Level Zero instances over
//!   MI250X / A100 / V100 / PVC device models.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![warn(missing_docs)]

pub mod activity;
pub mod backends;
pub mod device;
pub mod metrics;

pub use activity::{ActivityFeed, DeviceSpec, SyntheticFeed};
pub use backends::SmiSim;
pub use device::{GpuBackend, GpuMonitor};
pub use metrics::{GpuMetricKind, GpuSample};

#[cfg(test)]
#[path = "../../../tests/seeded/mod.rs"]
mod seeded;

/// The synthesis envelope over seeded inputs.
#[cfg(test)]
mod properties {
    use crate::activity::{synthesize, DeviceSpec, SynthState};
    use crate::metrics::GpuMetricKind;
    use crate::seeded::Seeded;

    /// Synthesized metrics stay within the device's physical envelope
    /// for any busy fraction and memory footprint.
    #[test]
    fn synthesis_respects_the_physical_envelope() {
        let mut g = Seeded::new(0x6b0_0001);
        let spec = DeviceSpec::mi250x_gcd();
        let within = |v: f64, (lo, hi): (f64, f64)| v >= lo - 1e-9 && v <= hi + 1e-9;
        for case in 0..256 {
            let (busy, mem) = (g.in_span(0.0, 1.0), g.in_range(0, 64 << 30));
            let mut st = SynthState::default();
            let s = synthesize(&spec, &mut st, busy, mem, g.in_span(0.1, 5.0));
            assert!(
                within(s.get(GpuMetricKind::ClockFrequencyGfx), spec.gfx_clock_mhz),
                "case {case}"
            );
            assert!(
                within(s.get(GpuMetricKind::PowerAverage), spec.power_w),
                "case {case}"
            );
            assert!(
                within(s.get(GpuMetricKind::VoltageMv), spec.voltage_mv),
                "case {case}"
            );
            assert!(s.get(GpuMetricKind::DeviceBusyPct) <= 100.0, "case {case}");
            assert_eq!(
                s.get(GpuMetricKind::UsedVramBytes),
                mem as f64,
                "case {case}"
            );
        }
    }
}
