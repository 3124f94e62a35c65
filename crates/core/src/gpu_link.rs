//! Bridging the scheduler simulation's GPU activity into the SMI-style
//! monitoring stack.
//!
//! The scheduler's device queues provide ground truth (busy time, memory
//! footprint); `zerosum-gpu`'s simulated ROCm SMI/NVML backends turn a
//! busy fraction into the full Listing 2 metric set. [`SimGpuLink`] owns
//! both ends: each period it diffs device snapshots from the
//! [`NodeSim`], writes the per-window busy fractions into the feed the
//! backend owns, and folds the synthesized samples into a [`GpuMonitor`].

use zerosum_gpu::{ActivityFeed, GpuMonitor, SmiSim};
use zerosum_sched::NodeSim;

/// Per-slot `(busy_fraction, mem_used_bytes)` of the current window:
/// [`SimGpuLink::poll`] writes it, then its backend reads it.
#[derive(Debug, Default)]
struct SlotFeed(Vec<(f64, u64)>);

impl ActivityFeed for SlotFeed {
    fn busy_fraction(&mut self, device: u32) -> f64 {
        self.0.get(device as usize).map_or(0.0, |v| v.0)
    }

    fn mem_used_bytes(&mut self, device: u32) -> u64 {
        self.0.get(device as usize).map_or(0, |v| v.1)
    }
}

/// Which vendor stack to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuStack {
    /// ROCm SMI over MI250X GCDs (Frontier).
    RocmMi250x,
    /// NVML over A100s (Perlmutter).
    NvmlA100,
    /// NVML over V100s (Summit).
    NvmlV100,
    /// Level Zero over PVC (Aurora).
    LevelZeroPvc,
}

/// The simulation-side GPU monitoring assembly.
pub struct SimGpuLink {
    /// The accumulated min/mean/max statistics.
    pub monitor: GpuMonitor,
    backend: SmiSim<SlotFeed>,
    /// Physical device indices, slot-ordered.
    devices: Vec<u32>,
    prev_busy_us: Vec<u64>,
}

impl SimGpuLink {
    /// Builds the link for the given physical `devices` on `stack`.
    pub fn new(stack: GpuStack, devices: Vec<u32>) -> Self {
        let feed = SlotFeed::default();
        let n = devices.len();
        let backend = match stack {
            GpuStack::RocmMi250x => SmiSim::rocm_mi250x(n, feed),
            GpuStack::NvmlA100 => SmiSim::nvml_a100(n, feed),
            GpuStack::NvmlV100 => SmiSim::nvml_v100(n, feed),
            GpuStack::LevelZeroPvc => SmiSim::levelzero_pvc(n, feed),
        };
        SimGpuLink {
            monitor: GpuMonitor::new(n),
            backend,
            prev_busy_us: vec![0; devices.len()],
            devices,
        }
    }

    /// The physical devices monitored, slot-ordered.
    pub fn devices(&self) -> &[u32] {
        &self.devices
    }

    /// One monitoring period: snapshot the simulator's device queues,
    /// compute per-window busy fractions, and fold an SMI sample per
    /// device.
    pub fn poll(&mut self, sim: &mut NodeSim, dt_s: f64) {
        let feed = &mut self.backend.feed_mut().0;
        feed.clear();
        for (slot, &phys) in self.devices.iter().enumerate() {
            let snap = sim.device_snapshot(phys);
            let delta = snap.busy_us.saturating_sub(self.prev_busy_us[slot]);
            self.prev_busy_us[slot] = snap.busy_us;
            let frac = if dt_s > 0.0 {
                (delta as f64 / (dt_s * 1e6)).clamp(0.0, 1.0)
            } else {
                0.0
            };
            feed.push((frac, snap.mem_used_bytes));
        }
        self.monitor.poll(&mut self.backend, dt_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerosum_gpu::GpuMetricKind;
    use zerosum_sched::{Behavior, OffloadSpec, SchedParams, WorkerSpec};
    use zerosum_topology::{presets, CpuSet};

    #[test]
    fn link_tracks_sim_gpu_activity() {
        let mut sim = NodeSim::new(presets::frontier(), SchedParams::default());
        let spec = WorkerSpec {
            iterations: 50,
            work_per_iter_us: 5_000,
            noise_frac: 0.0,
            sys_per_iter_us: 100,
            leader_extra_us: 0,
            checkpoint_every: 0,
            checkpoint_extra_us: 0,
            is_leader: false,
            barrier: None,
            offload: Some(OffloadSpec {
                device: 4,
                launch_us: 100,
                kernel_us: 3_000,
                sync_us: 50,
                bytes: 4 << 30,
            }),
        };
        sim.spawn_process("gpuapp", CpuSet::single(1), 1_024, Behavior::worker(spec));
        let mut link = SimGpuLink::new(GpuStack::RocmMi250x, vec![4, 5]);
        for _ in 0..5 {
            sim.run_for(100_000);
            link.poll(&mut sim, 0.1);
        }
        // Device 4 (slot 0) is active: busy between 0 and 100%.
        let (_, avg, max) = link.monitor.summary(0, GpuMetricKind::DeviceBusyPct);
        assert!(avg > 5.0 && max <= 100.0, "avg {avg}, max {max}");
        // Device 5 (slot 1) is idle.
        let (_, avg5, _) = link.monitor.summary(1, GpuMetricKind::DeviceBusyPct);
        assert!(avg5 < 1.0, "avg5 {avg5}");
        // VRAM footprint visible.
        let (_, _, vram) = link.monitor.summary(0, GpuMetricKind::UsedVramBytes);
        assert_eq!(vram, (4u64 << 30) as f64);
    }

    #[test]
    fn idle_link_reports_floor() {
        let mut sim = NodeSim::new(presets::frontier(), SchedParams::default());
        let mut link = SimGpuLink::new(GpuStack::RocmMi250x, vec![0]);
        sim.run_for(100_000);
        link.poll(&mut sim, 0.1);
        let (min, _, max) = link.monitor.summary(0, GpuMetricKind::PowerAverage);
        assert_eq!(min, 90.0); // MI250X idle power
        assert_eq!(max, 90.0);
    }
}
