//! The allocation-wide demo: a 4-node job where one node was launched
//! with the Table 1 misconfiguration. The cluster summary — the paper's
//! "htop for all nodes in the allocation" vision — pinpoints it.

use crate::launch::launch_monitored;
use zerosum_apps::MiniQmcConfig;
use zerosum_core::{run_monitored, ClusterMonitor, Monitor, ZeroSumConfig};
use zerosum_omp::OmpEnv;
use zerosum_sched::{NodeSim, SchedParams, SrunConfig};
use zerosum_topology::presets;

/// Runs miniQMC-sim on one node; `misconfigured` selects the Table 1
/// launch. Returns the node's monitor (as if shipped from its agent).
pub fn run_node(hostname: &str, misconfigured: bool, scale: u32, seed: u64) -> Monitor {
    let topo = presets::frontier();
    let mut sim = NodeSim::new(
        topo.clone(),
        SchedParams {
            seed,
            ..Default::default()
        },
    );
    sim.set_hostname(hostname);
    let mut qmc = MiniQmcConfig::frontier_cpu().scaled_down(scale);
    if misconfigured {
        qmc.srun = SrunConfig {
            ntasks: 8,
            cpus_per_task: None, // the Table 1 default
            threads_per_core: 1,
            reserve_first_core_per_l3: true,
            gpu_bind_closest: false,
        };
    }
    qmc.omp = OmpEnv::from_pairs([
        ("OMP_NUM_THREADS", "7"),
        ("OMP_PROC_BIND", "spread"),
        ("OMP_PLACES", "cores"),
    ])
    .unwrap();
    let (_, mut monitor) = launch_monitored(&mut sim, &topo, &qmc, ZeroSumConfig::scaled(scale));
    // Cap the run: the misconfigured node is far slower, and real
    // allocations end when the job does — here we observe a fixed window.
    run_monitored(&mut sim, &mut monitor, None, 3_600_000_000);
    monitor
}

/// Runs the 4-node allocation (node 3 misconfigured) and returns the
/// cluster view.
pub fn run_allocation(scale: u32, seed: u64) -> ClusterMonitor {
    let mut cluster = ClusterMonitor::new();
    for i in 0..4u64 {
        let hostname = format!("frontier{:05}", 9000 + i);
        let mis = i == 2;
        let mon = run_node(&hostname, mis, scale, seed + i);
        cluster.add_node(hostname, mon);
    }
    cluster
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_summary_pinpoints_the_misconfigured_node() {
        let cluster = run_allocation(175, 11);
        assert_eq!(cluster.nodes().count(), 4);
        let text = cluster.render_summary();
        assert!(text.contains("TOTAL: 4 node(s), 32 rank(s)"), "{text}");
        // Only the misconfigured node is flagged hot.
        assert!(text.contains("HOT: node frontier09002"), "{text}");
        assert!(!text.contains("HOT: node frontier09000"));
        assert!(!text.contains("HOT: node frontier09001"));
        assert!(!text.contains("HOT: node frontier09003"));
        // And it piles up the context switches.
        let aggs = cluster.aggregates();
        let bad = &aggs[2];
        let good = &aggs[0];
        assert!(
            bad.total_nvcsw > 10 * good.total_nvcsw.max(1),
            "bad {} vs good {}",
            bad.total_nvcsw,
            good.total_nvcsw
        );
    }
}
