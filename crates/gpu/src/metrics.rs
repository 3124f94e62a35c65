//! The GPU metric set of ZeroSum's utilization report.
//!
//! Listing 2 of the paper shows the metrics ZeroSum collects per GCD via
//! ROCm SMI (and equivalents via NVML / the Intel SYCL API): clocks,
//! busy percentages, energy, power, temperature, memory usage, voltage.
//! Each metric is identified by a [`GpuMetricKind`] whose display name
//! matches the paper's report rows.

/// One of the metrics sampled from a GPU each monitoring period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GpuMetricKind {
    /// Graphics clock frequency, MHz.
    ClockFrequencyGfx,
    /// SoC/fabric clock frequency, MHz.
    ClockFrequencySoc,
    /// Fraction of the sample window the device was executing, percent.
    DeviceBusyPct,
    /// Average energy over the window, joules.
    EnergyAverage,
    /// GFX activity counter (vendor units, cumulative-style).
    GfxActivity,
    /// GFX activity percent.
    GfxActivityPct,
    /// Memory activity counter.
    MemoryActivity,
    /// Memory busy percent.
    MemoryBusyPct,
    /// Memory-controller activity percent.
    MemoryControllerActivity,
    /// Average power draw, watts.
    PowerAverage,
    /// Edge temperature, °C.
    Temperature,
    /// Video-decode engine activity (UVD/VCN), percent.
    UvdVcnActivity,
    /// Graphics translation table bytes in use.
    UsedGttBytes,
    /// Device memory bytes in use.
    UsedVramBytes,
    /// CPU-visible device memory bytes in use.
    UsedVisibleVramBytes,
    /// Core voltage, millivolts.
    VoltageMv,
}

impl GpuMetricKind {
    /// All metrics, in the order the Listing 2 report prints them.
    pub const ALL: [GpuMetricKind; 16] = [
        GpuMetricKind::ClockFrequencyGfx,
        GpuMetricKind::ClockFrequencySoc,
        GpuMetricKind::DeviceBusyPct,
        GpuMetricKind::EnergyAverage,
        GpuMetricKind::GfxActivity,
        GpuMetricKind::GfxActivityPct,
        GpuMetricKind::MemoryActivity,
        GpuMetricKind::MemoryBusyPct,
        GpuMetricKind::MemoryControllerActivity,
        GpuMetricKind::PowerAverage,
        GpuMetricKind::Temperature,
        GpuMetricKind::UvdVcnActivity,
        GpuMetricKind::UsedGttBytes,
        GpuMetricKind::UsedVramBytes,
        GpuMetricKind::UsedVisibleVramBytes,
        GpuMetricKind::VoltageMv,
    ];

    /// The row label used in the utilization report (Listing 2 format).
    pub fn report_name(self) -> &'static str {
        match self {
            GpuMetricKind::ClockFrequencyGfx => "Clock Frequency, GLX (MHz)",
            GpuMetricKind::ClockFrequencySoc => "Clock Frequency, SOC (MHz)",
            GpuMetricKind::DeviceBusyPct => "Device Busy %",
            GpuMetricKind::EnergyAverage => "Energy Average (J)",
            GpuMetricKind::GfxActivity => "GFX Activity",
            GpuMetricKind::GfxActivityPct => "GFX Activity %",
            GpuMetricKind::MemoryActivity => "Memory Activity",
            GpuMetricKind::MemoryBusyPct => "Memory Busy %",
            GpuMetricKind::MemoryControllerActivity => "Memory Controller Activity",
            GpuMetricKind::PowerAverage => "Power Average (W)",
            GpuMetricKind::Temperature => "Temperature (C)",
            GpuMetricKind::UvdVcnActivity => "UVD|VCN Activity",
            GpuMetricKind::UsedGttBytes => "Used GTT Bytes",
            GpuMetricKind::UsedVramBytes => "Used VRAM Bytes",
            GpuMetricKind::UsedVisibleVramBytes => "Used Visible VRAM Bytes",
            GpuMetricKind::VoltageMv => "Voltage (mV)",
        }
    }
}

/// One sampling instant's values for one device: a dense array indexed in
/// [`GpuMetricKind::ALL`] order, which is the enum's declaration order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSample {
    values: [f64; 16],
}

impl GpuSample {
    /// A zeroed sample.
    pub fn zero() -> Self {
        GpuSample { values: [0.0; 16] }
    }

    /// Sets a metric value (builder style).
    pub fn with(mut self, kind: GpuMetricKind, v: f64) -> Self {
        self.set(kind, v);
        self
    }

    /// Sets a metric value.
    pub fn set(&mut self, kind: GpuMetricKind, v: f64) {
        if let Some(value) = self.values.get_mut(kind as usize) {
            *value = v;
        }
    }

    /// Reads a metric value.
    pub fn get(&self, kind: GpuMetricKind) -> f64 {
        self.values.get(kind as usize).copied().unwrap_or(0.0)
    }

    /// Iterates `(kind, value)` in report order.
    pub fn iter(&self) -> impl Iterator<Item = (GpuMetricKind, f64)> + '_ {
        GpuMetricKind::ALL.iter().map(move |&k| (k, self.get(k)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_metrics_have_distinct_names() {
        let mut names: Vec<&str> = GpuMetricKind::ALL.iter().map(|k| k.report_name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16);
    }

    #[test]
    fn all_is_in_declaration_order() {
        for (i, kind) in GpuMetricKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind:?}");
        }
    }

    #[test]
    fn sample_set_get_roundtrip() {
        let mut s = GpuSample::zero();
        s.set(GpuMetricKind::PowerAverage, 126.48);
        s.set(GpuMetricKind::Temperature, 37.9);
        assert_eq!(s.get(GpuMetricKind::PowerAverage), 126.48);
        assert_eq!(s.get(GpuMetricKind::Temperature), 37.9);
        assert_eq!(s.get(GpuMetricKind::VoltageMv), 0.0);
    }

    #[test]
    fn iter_is_in_report_order() {
        let s = GpuSample::zero().with(GpuMetricKind::ClockFrequencyGfx, 1700.0);
        let first = s.iter().next().unwrap();
        assert_eq!(first.0, GpuMetricKind::ClockFrequencyGfx);
        assert_eq!(first.1, 1700.0);
        assert_eq!(s.iter().count(), 16);
    }

    #[test]
    fn listing2_names_match_paper() {
        assert_eq!(GpuMetricKind::DeviceBusyPct.report_name(), "Device Busy %");
        assert_eq!(
            GpuMetricKind::UsedVisibleVramBytes.report_name(),
            "Used Visible VRAM Bytes"
        );
        assert_eq!(
            GpuMetricKind::UvdVcnActivity.report_name(),
            "UVD|VCN Activity"
        );
    }
}
