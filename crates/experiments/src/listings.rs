//! Listings 1 and 2: topology output and the full utilization report.

use crate::launch::launch_monitored;
use zerosum_apps::MiniQmcConfig;
use zerosum_core::{
    render_process_report, run_monitored, GpuReportContext, GpuStack, SimGpuLink, ZeroSumConfig,
};
use zerosum_sched::{NodeSim, SchedParams};
use zerosum_topology::{presets, render, RenderOptions};

/// Listing 1: the `lstopo`-style topology dump for the i7-1165G7 test
/// node, byte-for-byte in the paper's format.
pub fn listing1() -> String {
    let topo = presets::laptop_i7_1165g7();
    render(&topo, &RenderOptions::listing1())
}

/// Result of the Listing 2 run.
#[derive(Debug)]
pub struct Listing2Run {
    /// The rank-0 report with the GPU block.
    pub report: String,
    /// Application duration, virtual seconds.
    pub duration_s: f64,
    /// Rank 0's average GPU busy percentage.
    pub gpu_busy_avg: f64,
    /// Rank 0's peak VRAM bytes.
    pub vram_peak: f64,
}

/// Listing 2: miniQMC with OpenMP target offload on the simulated
/// Frontier node (8 ranks × 4 threads, spread/cores, one GCD per rank via
/// `--gpu-bind=closest`), monitored by ZeroSum with GPU sampling through
/// the simulated ROCm SMI.
pub fn listing2(scale: u32, seed: u64) -> Listing2Run {
    let topo = presets::frontier();
    let mut sim = NodeSim::new(
        topo.clone(),
        SchedParams {
            seed,
            ..SchedParams::default()
        },
    );
    let qmc = MiniQmcConfig::frontier_offload().scaled_down(scale);
    let (job, mut monitor) = launch_monitored(&mut sim, &topo, &qmc, ZeroSumConfig::scaled(scale));
    // Monitor all 8 GCDs through the simulated ROCm SMI.
    let devices: Vec<u32> = (0..8).collect();
    let mut gpu_link = SimGpuLink::new(GpuStack::RocmMi250x, devices);
    let out = run_monitored(&mut sim, &mut monitor, Some(&mut gpu_link), 3_600_000_000);
    assert!(out.completed, "listing2 run timed out");
    // Rank 0's GCD (physical 4 per Figure 2, visible index 0 to the app).
    let rank0 = job.teams[0].pid;
    let rank0_gpu = job.gpus[0].unwrap_or(0);
    let slot = gpu_link
        .devices()
        .iter()
        .position(|&d| d == rank0_gpu)
        .unwrap() as u32;
    let ctx = GpuReportContext {
        monitor: &gpu_link.monitor,
        devices: vec![(slot, rank0_gpu, 0)],
    };
    let report = render_process_report(&monitor, rank0, out.duration_s, Some(&ctx));
    let (_, busy_avg, _) = gpu_link
        .monitor
        .summary(slot, zerosum_gpu::GpuMetricKind::DeviceBusyPct);
    let (_, _, vram_peak) = gpu_link
        .monitor
        .summary(slot, zerosum_gpu::GpuMetricKind::UsedVramBytes);
    Listing2Run {
        report,
        duration_s: out.duration_s,
        gpu_busy_avg: busy_avg,
        vram_peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing1_matches_paper_exactly() {
        let text = listing1();
        assert!(text
            .starts_with("HWLOC Node topology:\nMachine L#0\n  Package L#0\n    L3Cache L#0 12MB"));
        assert!(text.contains("PU L#1 P#4")); // the logical/OS skew
                                              // header + Machine + Package + L3 + 4 cores × (L2+L1+Core+2 PUs).
        assert_eq!(text.lines().count(), 24);
    }

    #[test]
    fn listing2_report_structure_and_gpu_block() {
        let run = listing2(60, 7);
        assert!(run.report.contains("Duration of execution:"));
        assert!(run.report.contains("MPI 000"));
        // The LWP table shows the spread/cores binding of 4 OpenMP
        // threads plus the ZeroSum and helper threads.
        assert!(run.report.contains("Main, OpenMP"));
        assert!(run.report.contains("ZeroSum"));
        assert!(run.report.contains("Other"));
        // The GPU block in Listing 2 format, visible index 0.
        assert!(run.report.contains("GPU 0 - (metric:  min  avg  max)"));
        assert!(run.report.contains("Device Busy %"));
        assert!(run.report.contains("Used VRAM Bytes"));
        // GPU was genuinely exercised.
        assert!(run.gpu_busy_avg > 1.0, "busy {}", run.gpu_busy_avg);
        assert!(run.vram_peak > 1e9, "vram {}", run.vram_peak);
    }

    #[test]
    fn listing2_shares_match_shape() {
        // Listing 2's per-core shape: user ≈ 64%, system ≈ 12.5%, idle ≈
        // 23%. Accept generous bands — the shape criterion is
        // "substantial idle from GPU waits, system time from launches".
        let run = listing2(60, 8);
        let cpu_line = run
            .report
            .lines()
            .find(|l| l.starts_with("CPU 001"))
            .expect("CPU 001 row");
        let grab = |key: &str| -> f64 {
            cpu_line
                .split(key)
                .nth(1)
                .unwrap()
                .trim_start_matches(':')
                .trim()
                .split(',')
                .next()
                .unwrap()
                .trim()
                .parse()
                .unwrap()
        };
        let idle = grab("idle");
        let system = grab("system");
        let user = grab("user");
        assert!(user > 35.0, "user {user}");
        assert!(system > 3.0, "system {system}");
        assert!(idle > 5.0, "idle {idle}");
        assert!((idle + system + user - 100.0).abs() < 2.0);
    }
}
