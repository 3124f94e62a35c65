//! The physical model turning device *busyness* into SMI metric values.
//!
//! Simulated SMI backends receive a busy fraction and memory footprint
//! from an [`ActivityFeed`] (either the scheduler simulation's device
//! queues or a synthetic phase model) and synthesize the full Listing 2
//! metric set with plausible physics: clocks boost under load, power
//! follows utilization, temperature is a low-pass filter of power, and
//! energy integrates power over the sample window.

use crate::metrics::{GpuMetricKind, GpuSample};

/// Where a backend gets ground-truth activity per device.
pub trait ActivityFeed: Send {
    /// Fraction of the time since the previous call that `device` was
    /// executing kernels, in `[0,1]`.
    fn busy_fraction(&mut self, device: u32) -> f64;

    /// Device memory currently in use, bytes.
    fn mem_used_bytes(&mut self, device: u32) -> u64;
}

impl<F: ActivityFeed + ?Sized> ActivityFeed for Box<F> {
    fn busy_fraction(&mut self, device: u32) -> f64 {
        (**self).busy_fraction(device)
    }

    fn mem_used_bytes(&mut self, device: u32) -> u64 {
        (**self).mem_used_bytes(device)
    }
}

/// A deterministic synthetic feed: devices alternate busy phases (duty
/// cycle per device), useful for examples and tests without a scheduler.
#[derive(Debug, Clone)]
pub struct SyntheticFeed {
    /// Per-device duty cycle in `[0,1]`.
    pub duty: Vec<f64>,
    /// Per-device memory footprint, bytes.
    pub mem: Vec<u64>,
    calls: u64,
}

impl SyntheticFeed {
    /// A feed for `n` devices with the given duty cycle and footprint.
    pub fn uniform(n: usize, duty: f64, mem: u64) -> Self {
        SyntheticFeed {
            duty: vec![duty; n],
            mem: vec![mem; n],
            calls: 0,
        }
    }
}

impl ActivityFeed for SyntheticFeed {
    fn busy_fraction(&mut self, device: u32) -> f64 {
        self.calls += 1;
        let duty = self.duty.get(device as usize).copied().unwrap_or(0.0);
        // Square wave with period 8 samples: busy for duty·8 samples.
        let phase = (self.calls / self.duty.len().max(1) as u64) % 8;
        if (phase as f64) < duty * 8.0 {
            (duty * 1.5).min(1.0)
        } else {
            duty * 0.25
        }
    }

    fn mem_used_bytes(&mut self, device: u32) -> u64 {
        self.mem.get(device as usize).copied().unwrap_or(0)
    }
}

/// Static electrical/thermal parameters of a device model.
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    /// Marketing name, e.g. `"AMD MI250X GCD"`.
    pub model: String,
    /// Idle and boost graphics clocks, MHz.
    pub gfx_clock_mhz: (f64, f64),
    /// Fixed SoC clock, MHz.
    pub soc_clock_mhz: f64,
    /// Idle and peak power, watts.
    pub power_w: (f64, f64),
    /// Idle temperature and thermal rise at peak power, °C.
    pub temp_c: (f64, f64),
    /// Idle and boost core voltage, mV.
    pub voltage_mv: (f64, f64),
    /// Total device memory, bytes.
    pub memory_bytes: u64,
}

impl DeviceSpec {
    /// The MI250X Graphics Compute Die of the paper's Frontier runs.
    pub fn mi250x_gcd() -> Self {
        DeviceSpec {
            model: "AMD MI250X GCD".into(),
            gfx_clock_mhz: (800.0, 1700.0),
            soc_clock_mhz: 1090.0,
            power_w: (90.0, 500.0),
            temp_c: (35.0, 55.0),
            voltage_mv: (806.0, 906.0),
            memory_bytes: 64 << 30,
        }
    }

    /// The A100-SXM4-40GB of Perlmutter.
    pub fn a100_40g() -> Self {
        DeviceSpec {
            model: "NVIDIA A100-SXM4-40GB".into(),
            gfx_clock_mhz: (210.0, 1410.0),
            soc_clock_mhz: 1215.0,
            power_w: (55.0, 400.0),
            temp_c: (30.0, 50.0),
            voltage_mv: (700.0, 880.0),
            memory_bytes: 40 << 30,
        }
    }

    /// The V100 of Summit.
    pub fn v100() -> Self {
        DeviceSpec {
            model: "NVIDIA V100".into(),
            gfx_clock_mhz: (135.0, 1530.0),
            soc_clock_mhz: 877.0,
            power_w: (50.0, 300.0),
            temp_c: (30.0, 48.0),
            voltage_mv: (700.0, 850.0),
            memory_bytes: 16 << 30,
        }
    }

    /// The Data Center GPU Max 1550 (PVC) of Aurora.
    pub fn pvc_max1550() -> Self {
        DeviceSpec {
            model: "Intel Data Center GPU Max 1550".into(),
            gfx_clock_mhz: (900.0, 1600.0),
            soc_clock_mhz: 1000.0,
            power_w: (120.0, 600.0),
            temp_c: (32.0, 52.0),
            voltage_mv: (750.0, 900.0),
            memory_bytes: 128 << 30,
        }
    }
}

/// Mutable synthesis state per device (thermal inertia, activity
/// accumulators).
#[derive(Debug, Clone, Default)]
pub struct SynthState {
    temp_c: f64,
    gfx_activity: f64,
    mem_activity: f64,
}

/// Synthesizes a full metric sample from a busy fraction.
///
/// `dt_s` is the sample window in seconds. The state carries thermal
/// inertia between calls.
pub fn synthesize(
    spec: &DeviceSpec,
    state: &mut SynthState,
    busy: f64,
    mem_used: u64,
    dt_s: f64,
) -> GpuSample {
    let busy = busy.clamp(0.0, 1.0);
    // Clocks: race-to-idle — any meaningful load boosts near max.
    let gfx_clock = if busy < 0.01 {
        spec.gfx_clock_mhz.0
    } else {
        spec.gfx_clock_mhz.0 + (spec.gfx_clock_mhz.1 - spec.gfx_clock_mhz.0) * (0.55 + 0.45 * busy)
    };
    let power = spec.power_w.0 + (spec.power_w.1 - spec.power_w.0) * busy;
    // Temperature: first-order low-pass toward the steady-state for this
    // power level (time constant ~20 s).
    let target_t = spec.temp_c.0
        + spec.temp_c.1 * (power - spec.power_w.0) / (spec.power_w.1 - spec.power_w.0);
    if state.temp_c == 0.0 {
        state.temp_c = spec.temp_c.0;
    }
    let alpha = (dt_s / 20.0).clamp(0.0, 1.0);
    state.temp_c += (target_t - state.temp_c) * alpha;
    let voltage = spec.voltage_mv.0
        + (spec.voltage_mv.1 - spec.voltage_mv.0)
            * ((gfx_clock - spec.gfx_clock_mhz.0) / (spec.gfx_clock_mhz.1 - spec.gfx_clock_mhz.0))
                .clamp(0.0, 1.0);
    // Activity counters: scaled accumulations of busyness.
    state.gfx_activity += busy * 38_443.0 * dt_s.min(10.0);
    state.mem_activity += busy * 1_536.0 * dt_s.min(10.0) * 0.4;
    let mem_busy_pct = busy * 3.0; // compute-bound kernels touch memory lightly
    GpuSample::zero()
        .with(GpuMetricKind::ClockFrequencyGfx, gfx_clock)
        .with(GpuMetricKind::ClockFrequencySoc, spec.soc_clock_mhz)
        .with(GpuMetricKind::DeviceBusyPct, busy * 100.0)
        .with(GpuMetricKind::EnergyAverage, power * dt_s / 15.0)
        .with(GpuMetricKind::GfxActivity, state.gfx_activity)
        .with(GpuMetricKind::GfxActivityPct, busy * 100.0 * 0.94)
        .with(GpuMetricKind::MemoryActivity, state.mem_activity)
        .with(GpuMetricKind::MemoryBusyPct, mem_busy_pct)
        .with(GpuMetricKind::MemoryControllerActivity, mem_busy_pct * 0.85)
        .with(GpuMetricKind::PowerAverage, power)
        .with(GpuMetricKind::Temperature, state.temp_c)
        .with(GpuMetricKind::UvdVcnActivity, 0.0)
        .with(GpuMetricKind::UsedGttBytes, 11_624_448.0)
        .with(GpuMetricKind::UsedVramBytes, mem_used as f64)
        .with(GpuMetricKind::UsedVisibleVramBytes, mem_used as f64 + 232.0)
        .with(GpuMetricKind::VoltageMv, voltage)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_device_reports_floor_values() {
        let spec = DeviceSpec::mi250x_gcd();
        let mut st = SynthState::default();
        let s = synthesize(&spec, &mut st, 0.0, 15_044_608, 1.0);
        assert_eq!(s.get(GpuMetricKind::ClockFrequencyGfx), 800.0);
        assert_eq!(s.get(GpuMetricKind::PowerAverage), 90.0);
        assert_eq!(s.get(GpuMetricKind::DeviceBusyPct), 0.0);
        assert_eq!(s.get(GpuMetricKind::UsedVramBytes), 15_044_608.0);
        assert_eq!(s.get(GpuMetricKind::ClockFrequencySoc), 1090.0);
    }

    #[test]
    fn busy_device_boosts_clock_and_power() {
        let spec = DeviceSpec::mi250x_gcd();
        let mut st = SynthState::default();
        let s = synthesize(&spec, &mut st, 0.5, 4 << 30, 1.0);
        let clock = s.get(GpuMetricKind::ClockFrequencyGfx);
        assert!(clock > 1400.0 && clock <= 1700.0, "clock {clock}");
        let power = s.get(GpuMetricKind::PowerAverage);
        assert!((power - 295.0).abs() < 1.0, "power {power}");
        assert_eq!(s.get(GpuMetricKind::DeviceBusyPct), 50.0);
    }

    #[test]
    fn temperature_has_inertia() {
        let spec = DeviceSpec::mi250x_gcd();
        let mut st = SynthState::default();
        let t0 = synthesize(&spec, &mut st, 1.0, 0, 1.0).get(GpuMetricKind::Temperature);
        let mut last = t0;
        for _ in 0..100 {
            last = synthesize(&spec, &mut st, 1.0, 0, 1.0).get(GpuMetricKind::Temperature);
        }
        assert!(t0 < last, "temperature should rise: {t0} → {last}");
        assert!(last <= spec.temp_c.0 + spec.temp_c.1 + 1e-9);
    }

    #[test]
    fn activity_counters_accumulate() {
        let spec = DeviceSpec::a100_40g();
        let mut st = SynthState::default();
        let a1 = synthesize(&spec, &mut st, 0.8, 0, 1.0).get(GpuMetricKind::GfxActivity);
        let a2 = synthesize(&spec, &mut st, 0.8, 0, 1.0).get(GpuMetricKind::GfxActivity);
        assert!(a2 > a1);
    }

    #[test]
    fn synthetic_feed_is_deterministic_and_bounded() {
        let mut f1 = SyntheticFeed::uniform(2, 0.4, 1 << 20);
        let mut f2 = SyntheticFeed::uniform(2, 0.4, 1 << 20);
        for dev in [0u32, 1, 0, 1, 0] {
            let (a, b) = (f1.busy_fraction(dev), f2.busy_fraction(dev));
            assert_eq!(a, b);
            assert!((0.0..=1.0).contains(&a));
        }
        assert_eq!(f1.mem_used_bytes(1), 1 << 20);
        assert_eq!(f1.mem_used_bytes(9), 0);
    }

    #[test]
    fn all_specs_have_sane_ranges() {
        for spec in [
            DeviceSpec::mi250x_gcd(),
            DeviceSpec::a100_40g(),
            DeviceSpec::v100(),
            DeviceSpec::pvc_max1550(),
        ] {
            assert!(
                spec.gfx_clock_mhz.0 < spec.gfx_clock_mhz.1,
                "{}",
                spec.model
            );
            assert!(spec.power_w.0 < spec.power_w.1);
            assert!(spec.voltage_mv.0 < spec.voltage_mv.1);
            assert!(spec.memory_bytes > 0);
        }
    }
}
