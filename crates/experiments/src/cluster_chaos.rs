//! Allocation-scale chaos: a multi-node run driven round by round under
//! a seeded [`AllocationFaultPlan`] — node kills, straggler stalls,
//! delayed rejoins, and clock skew — while the [`ClusterMonitor`]'s
//! supervision layer keeps producing the allocation summary.
//!
//! Every node runs its own independent [`NodeSim`] (seeded from the
//! node index, *not* from the fault plan), so a faulted run's surviving
//! nodes produce byte-identical monitor data to the fault-free run —
//! the differential property the chaos suite in `zerosum-analyze`
//! checks exactly.

use zerosum_core::{ClusterMonitor, Monitor, ProcessInfo, ZeroSumConfig};
use zerosum_proc::Pid;
use zerosum_sched::{AllocationFaultPlan, Behavior, NodeSim, SchedParams, SimProcSource};
use zerosum_topology::{presets, CpuSet};

/// One sampling round per `PERIOD_US` of virtual time on every node.
const PERIOD_US: u64 = 100_000;

/// Result of one allocation-scale chaos run.
#[derive(Debug)]
pub struct ClusterChaosOutcome {
    /// The cluster view after the final round (per-node monitors plus
    /// supervision state).
    pub cluster: ClusterMonitor,
    /// The fault plan that was applied.
    pub plan: AllocationFaultPlan,
    /// Rounds driven.
    pub rounds: u32,
    /// The allocation summary rendered after every round — the report
    /// must keep appearing no matter what the plan does.
    pub round_summaries: Vec<String>,
    /// `(quorum, total)` after every round.
    pub round_quorums: Vec<(usize, usize)>,
}

impl ClusterChaosOutcome {
    /// Hostname of node `i`, as used throughout the run.
    pub fn hostname(i: usize) -> String {
        format!("chaos{i:04}")
    }
}

/// The scheduler seed of node `i`: a function of `(seed, i)` alone, so
/// the same node computes the same history whether or not its
/// neighbours (or its link) are faulted.
pub(crate) fn node_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add(i as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The node every chaos driver and `zerosum stream` simulate: the
/// laptop preset running one pinned rank with an `OpenMP` worker, both
/// computing for `rounds` periods, and a monitor watching the rank.
pub fn chaos_node(
    host: &str,
    rank: u32,
    seed: u64,
    rounds: u32,
    period_us: u64,
) -> (NodeSim, Monitor, Pid) {
    let mut sim = NodeSim::new(
        presets::laptop_i7_1165g7(),
        SchedParams {
            seed: seed | 1,
            ..Default::default()
        },
    );
    sim.set_hostname(host);
    let mask = CpuSet::from_indices([0u32, 1]);
    let work = Behavior::FiniteCompute {
        remaining_us: u64::from(rounds) * period_us,
        chunk_us: 10_000,
    };
    let pid = sim.spawn_process("rank", mask.clone(), 1_024, work.clone());
    sim.spawn_task(pid, "OpenMP", None, work, false);
    let mut mon = Monitor::new(ZeroSumConfig::scaled(10));
    mon.watch_process(ProcessInfo {
        pid,
        rank: Some(rank),
        hostname: host.to_string(),
        gpus: vec![],
        cpus_allowed: mask,
    });
    (sim, mon, pid)
}

/// Runs `node_count` independent node sims for `rounds` rounds under a
/// seeded fault plan. See [`run_cluster_chaos_with_plan`].
pub fn run_cluster_chaos(node_count: usize, rounds: u32, seed: u64) -> ClusterChaosOutcome {
    let plan = AllocationFaultPlan::generate(seed, node_count, rounds);
    run_cluster_chaos_with_plan(node_count, rounds, seed, &plan)
}

/// Runs the allocation under an explicit fault plan (pass
/// [`AllocationFaultPlan::clean`] for the differential baseline).
///
/// Per round, every node's sim advances one period. A node that is down
/// (killed and not rejoined, or inside a stall window) is frozen as an
/// agent — no local sample, no heartbeat — while its node's virtual
/// time still passes, so a rejoining agent resumes on the shared clock.
/// Heartbeats carry the node's reported sample time with its clock skew
/// applied; dead nodes are only contacted on the supervision layer's
/// exponential-backoff probe schedule.
pub fn run_cluster_chaos_with_plan(
    node_count: usize,
    rounds: u32,
    seed: u64,
    plan: &AllocationFaultPlan,
) -> ClusterChaosOutcome {
    assert_eq!(plan.nodes.len(), node_count, "plan/node-count mismatch");
    let mut cluster = ClusterMonitor::new();
    let mut sims = Vec::new();
    for i in 0..node_count {
        let hostname = ClusterChaosOutcome::hostname(i);
        let (sim, mon, _) = chaos_node(&hostname, i as u32, node_seed(seed, i), rounds, PERIOD_US);
        cluster.add_node(hostname.clone(), mon);
        sims.push((hostname, sim));
    }
    let mut round_summaries = Vec::with_capacity(rounds as usize);
    let mut round_quorums = Vec::with_capacity(rounds as usize);
    for r in 0..rounds {
        cluster.begin_round();
        let expected_t_s = (r as f64 + 1.0) * (PERIOD_US as f64 / 1e6);
        for (i, (hostname, sim)) in sims.iter_mut().enumerate() {
            sim.run_for(PERIOD_US);
            let fault = &plan.nodes[i];
            if fault.is_down(r) {
                // Frozen agent: no local sample, no heartbeat.
                continue;
            }
            let t_s = sim.now_us() as f64 / 1e6;
            {
                let src = SimProcSource::new(sim);
                cluster
                    .node_mut(hostname)
                    .expect("node registered")
                    .sample(t_s, &src);
            }
            if cluster.should_probe(hostname) {
                // The node's own clock stamps the heartbeat; skew shows
                // up as deviation from the allocation's expected time.
                let reported = t_s + fault.skew_us as f64 / 1e6;
                cluster.heartbeat_at(hostname, reported, expected_t_s);
            }
        }
        cluster.end_round();
        round_quorums.push(cluster.quorum());
        round_summaries.push(cluster.render_summary());
    }
    ClusterChaosOutcome {
        cluster,
        plan: plan.clone(),
        rounds,
        round_summaries,
        round_quorums,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerosum_core::NodeState;
    use zerosum_sched::NodeFaultPlan;

    #[test]
    fn clean_plan_never_degrades_and_all_nodes_report() {
        let out = run_cluster_chaos_with_plan(3, 12, 77, &AllocationFaultPlan::clean(3));
        assert_eq!(out.round_summaries.len(), 12);
        assert!(out.round_quorums.iter().all(|&(k, n)| k == 3 && n == 3));
        assert!(out.round_summaries.iter().all(|s| !s.contains("DEGRADED")));
        let aggs = out.cluster.aggregates();
        assert_eq!(aggs.len(), 3);
        // Each node sampled every round.
        for (_, m) in out.cluster.nodes() {
            assert_eq!(m.stats.rounds, 12);
        }
    }

    #[test]
    fn permanent_kill_is_declared_dead_and_marked_degraded() {
        let plan = AllocationFaultPlan {
            nodes: vec![
                NodeFaultPlan::none(),
                NodeFaultPlan {
                    kill_at: Some(2),
                    ..Default::default()
                },
            ],
        };
        let out = run_cluster_chaos_with_plan(2, 12, 5, &plan);
        let host = ClusterChaosOutcome::hostname(1);
        assert_eq!(out.cluster.node_state(&host), NodeState::Dead);
        // Killed at round 2 (0-based), dead after 3 missed deadlines.
        assert_eq!(out.round_quorums[4], (1, 2));
        let last = out.round_summaries.last().unwrap();
        assert!(last.contains("DEGRADED (1/2 nodes)"), "{last}");
        assert!(last.contains(&format!("DEAD: node {host}")), "{last}");
        // The dead node's rank is out of the quorum table.
        assert!(last.contains("TOTAL: 1 node(s), 1 rank(s)"), "{last}");
        // Early rounds (before the kill could be detected) were clean.
        assert!(!out.round_summaries[0].contains("DEGRADED"));
    }

    #[test]
    fn delayed_rejoin_is_picked_up_on_a_probe_and_clears_degradation() {
        let plan = AllocationFaultPlan {
            nodes: vec![
                NodeFaultPlan::none(),
                NodeFaultPlan {
                    kill_at: Some(1),
                    rejoin_at: Some(6),
                    ..Default::default()
                },
            ],
        };
        let out = run_cluster_chaos_with_plan(2, 20, 5, &plan);
        let host = ClusterChaosOutcome::hostname(1);
        let s = out.cluster.supervision_of(&host).unwrap();
        assert_eq!(out.cluster.node_state(&host), NodeState::Alive);
        assert_eq!((s.deaths, s.rejoins), (1, 1));
        // Degraded while dead, clean again after the rejoin is probed.
        assert!(out.round_summaries.iter().any(|s| s.contains("DEGRADED")));
        assert!(!out.round_summaries.last().unwrap().contains("DEGRADED"));
        // The rejoined node resumed sampling (fewer rounds than a clean
        // node, but recent ones).
        let m = out.cluster.nodes().find(|(h, _)| *h == host).unwrap().1;
        assert!(
            m.stats.rounds < 20 && m.stats.rounds > 5,
            "{}",
            m.stats.rounds
        );
    }

    #[test]
    fn skewed_clock_is_flagged_without_killing_the_node() {
        let plan = AllocationFaultPlan {
            nodes: vec![
                NodeFaultPlan::none(),
                NodeFaultPlan {
                    skew_us: -1_500_000,
                    ..Default::default()
                },
            ],
        };
        let out = run_cluster_chaos_with_plan(2, 8, 5, &plan);
        let host = ClusterChaosOutcome::hostname(1);
        assert_eq!(out.cluster.node_state(&host), NodeState::Alive);
        let s = out.cluster.supervision_of(&host).unwrap();
        assert!(s.skewed);
        assert!((s.max_skew_s - 1.5).abs() < 1e-6);
        assert!(out
            .round_summaries
            .last()
            .unwrap()
            .contains(&format!("SKEWED: node {host}")));
        assert!(out.round_quorums.iter().all(|&(k, n)| k == n));
    }

    #[test]
    fn survivors_match_the_fault_free_run_exactly() {
        let seed = 99;
        let plan = AllocationFaultPlan::generate(seed, 4, 16);
        let faulted = run_cluster_chaos_with_plan(4, 16, seed, &plan);
        let clean = run_cluster_chaos_with_plan(4, 16, seed, &AllocationFaultPlan::clean(4));
        let clean_aggs = clean.cluster.aggregates();
        for i in plan.survivors(16) {
            let host = ClusterChaosOutcome::hostname(i);
            let f = faulted
                .cluster
                .aggregates()
                .into_iter()
                .find(|a| a.hostname == host)
                .unwrap();
            let c = clean_aggs.iter().find(|a| a.hostname == host).unwrap();
            assert_eq!(&f, c, "survivor {host} diverged from fault-free run");
        }
    }
}
