//! Node and per-process memory model.
//!
//! §3.5 of the paper: ZeroSum watches `/proc/meminfo` and per-process RSS
//! to attribute out-of-memory conditions either to the application's own
//! processes or to something else on the node. The model here gives each
//! process an RSS that ramps from a small initial footprint to a target
//! over a warm-up interval (first-touch behaviour), generating minor page
//! faults while it grows; node-level `MemInfo` is derived from the sum,
//! plus a configurable "other system usage" term that experiments can
//! raise to simulate a noisy neighbour exhausting memory.

use zerosum_proc::MemInfo;

/// Per-process memory state.
#[derive(Debug, Clone)]
pub struct ProcessMemory {
    /// Resident set size target after warm-up, KiB.
    pub rss_target_kib: u64,
    /// Warm-up duration over which RSS ramps linearly, µs.
    pub warmup_us: u64,
    /// Virtual size (constant, ≥ RSS target), KiB.
    pub vm_size_kib: u64,
    /// Process start time, µs.
    pub start_us: u64,
    /// Page size used for fault accounting, KiB.
    pub page_kib: u64,
}

impl ProcessMemory {
    /// A process that maps `rss_target_kib` over one virtual second.
    pub fn new(start_us: u64, rss_target_kib: u64) -> Self {
        ProcessMemory {
            rss_target_kib,
            warmup_us: 1_000_000,
            vm_size_kib: rss_target_kib * 3 / 2 + 65_536,
            start_us,
            page_kib: 4,
        }
    }

    /// RSS at virtual time `now_us`, KiB.
    pub fn rss_kib(&self, now_us: u64) -> u64 {
        let elapsed = now_us.saturating_sub(self.start_us);
        if elapsed >= self.warmup_us || self.warmup_us == 0 {
            self.rss_target_kib
        } else {
            // 1/8 of the footprint is resident immediately (text + libs).
            let base = self.rss_target_kib / 8;
            base + (self.rss_target_kib - base) * elapsed / self.warmup_us
        }
    }

    /// Peak RSS so far (monotone since the ramp is monotone), KiB.
    pub fn hwm_kib(&self, now_us: u64) -> u64 {
        self.rss_kib(now_us)
    }

    /// Cumulative minor faults implied by the first-touch ramp.
    pub fn minor_faults(&self, now_us: u64) -> u64 {
        self.rss_kib(now_us) / self.page_kib
    }
}

/// Node-level memory state.
#[derive(Debug, Clone)]
pub struct NodeMemory {
    /// Total physical memory, KiB.
    pub total_kib: u64,
    /// Memory consumed by the OS and system services, KiB.
    pub system_kib: u64,
    /// Extra usage injected by experiments (noisy neighbour / leak), KiB.
    pub external_kib: u64,
}

impl NodeMemory {
    /// A node with `total_kib` physical memory and a typical system
    /// footprint.
    pub fn new(total_kib: u64) -> Self {
        NodeMemory {
            total_kib,
            system_kib: (total_kib / 50).min(8 * 1024 * 1024),
            external_kib: 0,
        }
    }

    /// Builds the `/proc/meminfo` view given the sum of process RSS.
    pub fn meminfo(&self, processes_rss_kib: u64) -> MemInfo {
        let used = self
            .system_kib
            .saturating_add(self.external_kib)
            .saturating_add(processes_rss_kib);
        let free = self.total_kib.saturating_sub(used);
        // Model a modest page cache that shrinks under pressure.
        let cached = (free / 10).min(4 * 1024 * 1024);
        MemInfo {
            mem_total_kib: self.total_kib,
            mem_free_kib: free.saturating_sub(cached),
            mem_available_kib: free,
            buffers_kib: cached / 8,
            cached_kib: cached,
            swap_total_kib: 0,
            swap_free_kib: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_ramps_then_plateaus() {
        let m = ProcessMemory::new(0, 8_000_000);
        assert_eq!(m.rss_kib(0), 1_000_000); // 1/8 immediately
        let mid = m.rss_kib(500_000);
        assert!(mid > 1_000_000 && mid < 8_000_000);
        assert_eq!(m.rss_kib(1_000_000), 8_000_000);
        assert_eq!(m.rss_kib(10_000_000), 8_000_000);
    }

    #[test]
    fn minor_faults_track_pages() {
        let m = ProcessMemory::new(0, 4000);
        assert_eq!(m.minor_faults(2_000_000), 1000); // 4000 KiB / 4 KiB
    }

    #[test]
    fn meminfo_subtracts_usage() {
        let n = NodeMemory::new(512 * 1024 * 1024); // 512 GiB
        let mi = n.meminfo(100 * 1024 * 1024);
        assert_eq!(mi.mem_total_kib, 512 * 1024 * 1024);
        assert!(mi.mem_available_kib < 412 * 1024 * 1024);
        assert!(mi.mem_available_kib > 300 * 1024 * 1024);
    }
}
