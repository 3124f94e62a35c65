//! Simulated vendor management libraries: ROCm SMI, NVML, Level Zero.
//!
//! Each backend owns a set of [`DeviceSpec`]s and an [`ActivityFeed`]
//! supplying ground-truth busyness (from the scheduler simulation's
//! device queues, or synthetic). The API surface matches what ZeroSum
//! calls through the real libraries; only the transport differs.

use crate::activity::{synthesize, ActivityFeed, DeviceSpec, SynthState};
use crate::device::GpuBackend;
use crate::metrics::GpuSample;

/// A simulated SMI-style library instance, owning its activity feed.
pub struct SmiSim<F = Box<dyn ActivityFeed>> {
    library: &'static str,
    specs: Vec<DeviceSpec>,
    states: Vec<SynthState>,
    feed: F,
}

impl<F: ActivityFeed> SmiSim<F> {
    /// Builds a backend with explicit specs and feed.
    pub fn new(library: &'static str, specs: Vec<DeviceSpec>, feed: F) -> Self {
        let states = vec![SynthState::default(); specs.len()];
        SmiSim {
            library,
            specs,
            states,
            feed,
        }
    }

    /// The simulated ROCm System Management Interface over `n` MI250X
    /// GCDs — the Frontier configuration (§3.4, Listing 2).
    pub fn rocm_mi250x(n: usize, feed: F) -> Self {
        Self::new("ROCm SMI", vec![DeviceSpec::mi250x_gcd(); n], feed)
    }

    /// The simulated NVML over `n` A100s (Perlmutter).
    pub fn nvml_a100(n: usize, feed: F) -> Self {
        Self::new("NVML", vec![DeviceSpec::a100_40g(); n], feed)
    }

    /// The simulated NVML over `n` V100s (Summit).
    pub fn nvml_v100(n: usize, feed: F) -> Self {
        Self::new("NVML", vec![DeviceSpec::v100(); n], feed)
    }

    /// The simulated Level Zero / SYCL interface over `n` PVC devices
    /// (Aurora / the paper's internal Intel Xe test system).
    pub fn levelzero_pvc(n: usize, feed: F) -> Self {
        Self::new("Level Zero", vec![DeviceSpec::pvc_max1550(); n], feed)
    }

    /// The device spec table.
    pub fn specs(&self) -> &[DeviceSpec] {
        &self.specs
    }

    /// The feed, for its owner to write the next window's activity.
    pub fn feed_mut(&mut self) -> &mut F {
        &mut self.feed
    }
}

impl<F: ActivityFeed> GpuBackend for SmiSim<F> {
    fn library_name(&self) -> &str {
        self.library
    }

    fn num_devices(&self) -> usize {
        self.specs.len()
    }

    fn device_model(&self, device: u32) -> String {
        self.specs
            .get(device as usize)
            .map(|s| s.model.clone())
            .unwrap_or_default()
    }

    fn sample(&mut self, device: u32, dt_s: f64) -> GpuSample {
        let busy = self.feed.busy_fraction(device);
        let mem = self.feed.mem_used_bytes(device);
        let at = device as usize;
        match (self.specs.get(at), self.states.get_mut(at)) {
            (Some(spec), Some(state)) => synthesize(spec, state, busy, mem, dt_s),
            _ => GpuSample::zero(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::SyntheticFeed;
    use crate::metrics::GpuMetricKind;

    #[test]
    fn vendor_constructors_report_libraries() {
        let feed = || Box::new(SyntheticFeed::uniform(2, 0.3, 1 << 30));
        assert_eq!(SmiSim::rocm_mi250x(2, feed()).library_name(), "ROCm SMI");
        assert_eq!(SmiSim::nvml_a100(2, feed()).library_name(), "NVML");
        assert_eq!(SmiSim::nvml_v100(2, feed()).library_name(), "NVML");
        assert_eq!(
            SmiSim::levelzero_pvc(2, feed()).library_name(),
            "Level Zero"
        );
    }

    #[test]
    fn models_match_specs() {
        let b = SmiSim::rocm_mi250x(3, Box::new(SyntheticFeed::uniform(3, 0.1, 0)));
        assert_eq!(b.num_devices(), 3);
        assert_eq!(b.device_model(1), "AMD MI250X GCD");
        assert_eq!(b.device_model(9), ""); // out of range is empty
    }

    #[test]
    fn samples_reflect_feed() {
        let mut b = SmiSim::nvml_a100(1, Box::new(SyntheticFeed::uniform(1, 0.9, 30 << 30)));
        let s = b.sample(0, 1.0);
        assert!(s.get(GpuMetricKind::DeviceBusyPct) > 10.0);
        assert_eq!(s.get(GpuMetricKind::UsedVramBytes), (30u64 << 30) as f64);
        // A100 SoC clock from the spec table.
        assert_eq!(s.get(GpuMetricKind::ClockFrequencySoc), 1215.0);
    }
}
