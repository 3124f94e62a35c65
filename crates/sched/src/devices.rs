//! Simulated accelerator devices (GPU / GCD queues) and their activity
//! accounting.
//!
//! The scheduler owns a serialized kernel queue per device: offloaded
//! kernels execute in FIFO order, and the issuing task blocks until its
//! kernel completes. Cumulative busy time, energy, and memory footprints
//! are tracked so a GPU-monitoring backend (in `zerosum-gpu`, adapted in
//! `zerosum-core`) can answer SMI-style queries about utilization — the
//! data behind the GPU block of Listing 2.

/// Activity counters for one device.
#[derive(Debug, Clone, Default)]
pub struct DeviceState {
    /// Virtual time until which the device's queue is busy, µs.
    pub busy_until_us: u64,
    /// Cumulative busy time, µs.
    pub busy_us: u64,
    /// Time of the last busy-accounting update, µs.
    pub(crate) last_update_us: u64,
    /// Bytes of device memory currently allocated.
    pub mem_used_bytes: u64,
    /// High-water mark of device memory.
    pub mem_peak_bytes: u64,
    /// Kernels launched on this device.
    pub kernels_launched: u64,
    /// Total µs of kernel time enqueued (≥ busy_us until drained).
    pub kernel_us_enqueued: u64,
}

impl DeviceState {
    /// Advances busy-time accounting to `now_us`.
    pub fn advance(&mut self, now_us: u64) {
        let from = self.last_update_us;
        if now_us > from {
            let busy_end = self.busy_until_us.min(now_us);
            if busy_end > from {
                self.busy_us += busy_end - from;
            }
            self.last_update_us = now_us;
        }
    }

    /// Enqueues a kernel of `kernel_us` at `now_us`; returns the
    /// completion time.
    pub fn enqueue(&mut self, now_us: u64, kernel_us: u64) -> u64 {
        self.advance(now_us);
        let start = self.busy_until_us.max(now_us);
        let done = start + kernel_us;
        self.busy_until_us = done;
        self.kernels_launched += 1;
        self.kernel_us_enqueued += kernel_us;
        done
    }

    /// Records a device-memory allocation (idempotent growth model: the
    /// footprint only grows while the app touches more bytes).
    pub fn touch_memory(&mut self, bytes: u64) {
        if bytes > self.mem_used_bytes {
            self.mem_used_bytes = bytes;
        }
        if self.mem_used_bytes > self.mem_peak_bytes {
            self.mem_peak_bytes = self.mem_used_bytes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enqueue_serializes_kernels() {
        let mut d = DeviceState::default();
        let done1 = d.enqueue(0, 100);
        assert_eq!(done1, 100);
        let done2 = d.enqueue(10, 50); // queued behind kernel 1
        assert_eq!(done2, 150);
        let done3 = d.enqueue(500, 25); // device idle since 150
        assert_eq!(done3, 525);
        assert_eq!(d.kernels_launched, 3);
        assert_eq!(d.kernel_us_enqueued, 175);
    }

    #[test]
    fn busy_accounting_caps_at_now() {
        let mut d = DeviceState::default();
        d.enqueue(0, 100);
        d.advance(50);
        assert_eq!(d.busy_us, 50);
        d.advance(200);
        assert_eq!(d.busy_us, 100); // kernel ended at 100
    }

    #[test]
    fn memory_high_water() {
        let mut d = DeviceState::default();
        d.touch_memory(1000);
        d.touch_memory(500); // smaller touch does not shrink
        assert_eq!(d.mem_used_bytes, 1000);
        d.touch_memory(5000);
        assert_eq!(d.mem_peak_bytes, 5000);
    }
}
