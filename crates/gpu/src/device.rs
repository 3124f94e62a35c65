//! The vendor-library abstraction and the per-device metric monitor.
//!
//! §3.4 of the paper: "the data shown … is collected using the ROCm SMI
//! API. For other architectures (CUDA, SYCL), ZeroSum is integrated with
//! the NVIDIA NVML library and Intel DPC++/SYCL API to query similar
//! statistics. In the summary view the minimum, mean, and maximum
//! observed values are shown." [`GpuBackend`] is that API boundary;
//! [`GpuMonitor`] does the periodic sampling and min/avg/max reduction.

use crate::metrics::{GpuMetricKind, GpuSample};
use zerosum_stats::Summary;

/// A vendor management library (ROCm SMI / NVML / Level Zero) as ZeroSum
/// sees it.
pub trait GpuBackend: Send {
    /// Library name for the report header, e.g. `"ROCm SMI"`.
    fn library_name(&self) -> &str;

    /// Number of visible devices.
    fn num_devices(&self) -> usize;

    /// Device model string.
    fn device_model(&self, device: u32) -> String;

    /// Samples all metrics of `device` over the window since the last
    /// sample (`dt_s` seconds).
    fn sample(&mut self, device: u32, dt_s: f64) -> GpuSample;
}

/// Accumulated min/mean/max statistics for every metric of every device.
#[derive(Debug, Default)]
pub struct GpuMonitor {
    /// `stats[device][metric_index]`.
    stats: Vec<[Summary; 16]>,
    samples: u64,
}

impl GpuMonitor {
    /// A monitor for `n` devices.
    pub fn new(n: usize) -> Self {
        GpuMonitor {
            stats: (0..n)
                .map(|_| std::array::from_fn(|_| Summary::new()))
                .collect(),
            samples: 0,
        }
    }

    /// Number of devices tracked.
    pub fn num_devices(&self) -> usize {
        self.stats.len()
    }

    /// Number of sampling rounds folded in.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Samples every device of `backend` once and folds the values in.
    pub fn poll(&mut self, backend: &mut dyn GpuBackend, dt_s: f64) {
        self.samples += 1;
        for d in 0..self.stats.len().min(backend.num_devices()) {
            let sample = backend.sample(d as u32, dt_s);
            for (i, &kind) in GpuMetricKind::ALL.iter().enumerate() {
                self.stats[d][i].push(sample.get(kind));
            }
        }
    }

    /// The `(min, mean, max)` triplet for one metric of one device; all
    /// zero for a device not tracked, as for one never polled.
    pub fn summary(&self, device: u32, kind: GpuMetricKind) -> (f64, f64, f64) {
        let row = self.stats.get(device as usize);
        row.and_then(|metrics| metrics.get(kind as usize))
            .map_or((0.0, 0.0, 0.0), |s| (s.min(), s.mean(), s.max()))
    }

    /// Renders the per-device block of the utilization report in the
    /// Listing 2 format (`GPU <n> - (metric: min avg max)` + rows).
    pub fn render_report(&self, device: u32, visible_index: u32) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(out, "GPU {visible_index} - (metric:  min  avg  max)").unwrap();
        for kind in GpuMetricKind::ALL {
            let (min, avg, max) = self.summary(device, kind);
            writeln!(
                out,
                "    {:<32} {:>18.6} {:>18.6} {:>18.6}",
                kind.report_name(),
                min,
                avg,
                max
            )
            .unwrap();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::{synthesize, DeviceSpec, SynthState, SyntheticFeed};

    /// A minimal backend over the synthetic feed for tests.
    struct TestBackend {
        spec: DeviceSpec,
        feed: SyntheticFeed,
        state: Vec<SynthState>,
    }

    impl GpuBackend for TestBackend {
        fn library_name(&self) -> &str {
            "Test SMI"
        }
        fn num_devices(&self) -> usize {
            self.state.len()
        }
        fn device_model(&self, _device: u32) -> String {
            self.spec.model.clone()
        }
        fn sample(&mut self, device: u32, dt_s: f64) -> GpuSample {
            use crate::activity::ActivityFeed;
            let busy = self.feed.busy_fraction(device);
            let mem = self.feed.mem_used_bytes(device);
            synthesize(
                &self.spec,
                &mut self.state[device as usize],
                busy,
                mem,
                dt_s,
            )
        }
    }

    fn backend(n: usize) -> TestBackend {
        TestBackend {
            spec: DeviceSpec::mi250x_gcd(),
            feed: SyntheticFeed::uniform(n, 0.5, 4 << 30),
            state: vec![SynthState::default(); n],
        }
    }

    #[test]
    fn monitor_folds_min_mean_max() {
        let mut b = backend(2);
        let mut mon = GpuMonitor::new(2);
        for _ in 0..50 {
            mon.poll(&mut b, 1.0);
        }
        assert_eq!(mon.samples(), 50);
        let (min, avg, max) = mon.summary(0, GpuMetricKind::DeviceBusyPct);
        assert!(min <= avg && avg <= max);
        assert!(max > min, "duty-cycled device must vary");
        assert!((0.0..=100.0).contains(&min) && max <= 100.0);
    }

    #[test]
    fn report_contains_all_rows_in_listing2_format() {
        let mut b = backend(1);
        let mut mon = GpuMonitor::new(1);
        for _ in 0..10 {
            mon.poll(&mut b, 1.0);
        }
        let rep = mon.render_report(0, 0);
        assert!(rep.starts_with("GPU 0 - (metric:  min  avg  max)"));
        assert_eq!(rep.lines().count(), 17); // header + 16 metrics
        assert!(rep.contains("Clock Frequency, GLX (MHz)"));
        assert!(rep.contains("Used Visible VRAM Bytes"));
        assert!(rep.contains("Voltage (mV)"));
    }

    #[test]
    fn monitor_handles_more_devices_than_backend() {
        let mut b = backend(1);
        let mut mon = GpuMonitor::new(3);
        mon.poll(&mut b, 1.0);
        // Devices beyond the backend stay empty but don't panic.
        let (min, avg, max) = mon.summary(2, GpuMetricKind::PowerAverage);
        assert_eq!((min, avg, max), (0.0, 0.0, 0.0));
    }
}
