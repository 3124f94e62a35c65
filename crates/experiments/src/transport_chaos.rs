//! Cluster chaos replayed over lossy *transports*: the same
//! independent per-node sims as [`crate::cluster_chaos`], but the
//! collector now sees nodes only through the wire — agents stream
//! Hello/heartbeat/detail/aggregate frames over per-node links while a
//! seeded [`TransportFaultPlan`] drops, corrupts, truncates, delays,
//! reorders, disconnects, partitions, and kills.
//!
//! The differential property sharpens accordingly: node sims are
//! seeded off the node index alone, so every node computes the same
//! local aggregate whether or not its link is chaotic — and a
//! surviving (never-killed) node's aggregate as *delivered over the
//! lossy wire* must be bit-identical to its locally computed one (and
//! hence to the fault-free run's). Killed links must surface as
//! honest DEAD/DEGRADED markers, and no corrupt frame may ever panic
//! the collector.
//!
//! Everything is tick-driven ([`TICKS_PER_ROUND`] agent ticks per
//! sampling round) with no wall clocks, so a run is a pure function of
//! `(node_count, rounds, seed, plan)` — this driver is a registered
//! nondeterminism-audit root.

use crate::cluster_chaos::{chaos_node, node_seed};
use zerosum_core::NodeAggregate;
use zerosum_net::{
    in_proc_pair, AgentStats, Collector, FaultyLink, InProcLink, LinkFaultStats, NodeAgent,
    TransportFaultPlan,
};
use zerosum_sched::SimProcSource;

/// One sampling round per `PERIOD_US` of virtual time on every node.
const PERIOD_US: u64 = 100_000;

/// Agent/link ticks per sampling round — the granularity of fault
/// delays, reconnect backoff, and aggregate retransmission.
pub const TICKS_PER_ROUND: u64 = 4;

/// Ticks of end-of-run drain: aggregates retransmit until acked, so
/// this bounds how long a lossy or freshly-reconnected link has to
/// deliver. 96 ticks ≈ 48 retransmissions at the default cadence.
pub const DRAIN_TICKS: u32 = 96;

/// Send-window bound per link, frames. One round's heartbeat plus a
/// couple of details fit; the rest of the detail stream sheds — the
/// overload discipline the suite asserts on.
pub const SEND_WINDOW: usize = 4;

/// Per-LWP detail frames each agent offers per round (deliberately one
/// more than the window leaves room for, so shedding is exercised).
const DETAILS_PER_ROUND: u32 = 3;

/// Result of one transport-chaos run.
pub struct TransportChaosOutcome {
    /// The collector after the drain: supervision state, wire-delivered
    /// aggregates, and counters.
    pub collector: Collector,
    /// The plan that was applied.
    pub plan: TransportFaultPlan,
    /// Rounds driven.
    pub rounds: u32,
    /// The wire-side allocation summary after every round.
    pub round_summaries: Vec<String>,
    /// `(quorum, total)` after every round.
    pub round_quorums: Vec<(usize, usize)>,
    /// Ground truth: each node's locally computed aggregate.
    pub local_aggregates: Vec<NodeAggregate>,
    /// Per-node agent counters (sheds, reconnects, retransmissions).
    pub agent_stats: Vec<AgentStats>,
    /// Per-link fault counters (what the chaos actually did).
    pub fault_stats: Vec<LinkFaultStats>,
}

impl TransportChaosOutcome {
    /// Hostname of node `i`, as used throughout the run.
    pub fn hostname(i: usize) -> String {
        format!("wire{i:04}")
    }
}

/// Runs `node_count` nodes for `rounds` rounds over in-process links
/// under a seeded transport fault plan.
pub fn run_transport_chaos(node_count: usize, rounds: u32, seed: u64) -> TransportChaosOutcome {
    let plan = TransportFaultPlan::generate(seed, node_count, rounds, TICKS_PER_ROUND);
    run_transport_chaos_with_plan(node_count, rounds, seed, &plan)
}

/// Runs the allocation over the wire under an explicit fault plan
/// (pass [`TransportFaultPlan::clean`] for the differential baseline).
pub fn run_transport_chaos_with_plan(
    node_count: usize,
    rounds: u32,
    seed: u64,
    plan: &TransportFaultPlan,
) -> TransportChaosOutcome {
    assert_eq!(plan.links.len(), node_count, "plan/node-count mismatch");
    let mut collector = Collector::new();
    let mut agents: Vec<NodeAgent<FaultyLink<InProcLink>>> = Vec::new();
    let mut sims = Vec::new();
    for (i, link_plan) in plan.links.iter().enumerate() {
        let hostname = TransportChaosOutcome::hostname(i);
        collector.expect_node(&hostname);
        let (agent_end, collector_end) = in_proc_pair(SEND_WINDOW);
        collector.add_link(Box::new(collector_end));
        agents.push(NodeAgent::new(
            FaultyLink::new(agent_end, link_plan.clone()),
            hostname.clone(),
        ));
        let (sim, mon, _) = chaos_node(&hostname, i as u32, node_seed(seed, i), rounds, PERIOD_US);
        sims.push((hostname, sim, mon));
    }
    let mut round_summaries = Vec::with_capacity(rounds as usize);
    let mut round_quorums = Vec::with_capacity(rounds as usize);
    for r in 0..rounds {
        let round = u64::from(r) + 1;
        for (i, (_hostname, sim, mon)) in sims.iter_mut().enumerate() {
            sim.run_for(PERIOD_US);
            let t_s = sim.now_us() as f64 / 1e6;
            {
                let src = SimProcSource::new(sim);
                mon.sample(t_s, &src);
            }
            let agent = &mut agents[i];
            agent.begin_round(round, t_s);
            for d in 0..DETAILS_PER_ROUND {
                // Deterministic synthetic per-LWP detail; the suite
                // only asserts counts and shedding, not content.
                agent.send_detail(round, 100 + d, (d as f64) * 10.0 + r as f64);
            }
        }
        for _ in 0..TICKS_PER_ROUND {
            for agent in &mut agents {
                agent.tick();
            }
        }
        collector.run_round();
        round_quorums.push(collector.quorum());
        round_summaries.push(collector.render_summary());
    }
    // End of run: every node aggregates locally (ground truth) and
    // streams the result until acked or the drain window closes.
    let mut local_aggregates = Vec::with_capacity(node_count);
    for (i, (hostname, _sim, mon)) in sims.iter().enumerate() {
        let agg = NodeAggregate::from_monitor(hostname, mon);
        agents[i].finish(u64::from(rounds), agg.clone());
        local_aggregates.push(agg);
    }
    for _ in 0..DRAIN_TICKS {
        for agent in &mut agents {
            agent.tick();
        }
        collector.pump_frames();
        if agents.iter().all(|a| a.done()) {
            break;
        }
    }
    let agent_stats = agents.iter().map(|a| a.stats).collect();
    let fault_stats = agents.iter().map(|a| a.link().stats).collect();
    TransportChaosOutcome {
        collector,
        plan: plan.clone(),
        rounds,
        round_summaries,
        round_quorums,
        local_aggregates,
        agent_stats,
        fault_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerosum_core::NodeState;
    use zerosum_net::LinkFaultPlan;

    #[test]
    fn clean_plan_delivers_every_aggregate_bit_identically() {
        let out = run_transport_chaos_with_plan(3, 12, 77, &TransportFaultPlan::clean(3));
        assert_eq!(out.round_summaries.len(), 12);
        assert!(out.round_quorums.iter().all(|&(k, n)| k == 3 && n == 3));
        assert!(out.round_summaries.iter().all(|s| !s.contains("DEGRADED")));
        assert_eq!(out.collector.stats.decode_errors, 0);
        let wire = out.collector.wire_aggregates();
        assert_eq!(wire, out.local_aggregates, "wire == local, bit for bit");
        // Exactly one heartbeat per node per round arrived.
        assert_eq!(out.collector.stats.heartbeats_rx, 3 * 12);
        // The window forced detail shedding in round 1 (hello + heartbeat
        // + details exceed it) — backpressure is exercised even clean.
        assert!(out.agent_stats.iter().all(|s| s.details_shed > 0));
    }

    #[test]
    fn killed_link_surfaces_as_dead_and_degraded() {
        let mut plan = TransportFaultPlan::clean(3);
        plan.links[2] = LinkFaultPlan {
            seed: 11,
            kill_at: Some(2 * TICKS_PER_ROUND),
            ..Default::default()
        };
        let out = run_transport_chaos_with_plan(3, 14, 5, &plan);
        let host = TransportChaosOutcome::hostname(2);
        assert_eq!(out.collector.cluster().node_state(&host), NodeState::Dead);
        let last = out.round_summaries.last().unwrap();
        assert!(last.contains("DEGRADED (2/3 nodes)"), "{last}");
        assert!(last.contains(&format!("DEAD: node {host}")), "{last}");
        // The dead node's aggregate never made it; the others' did.
        let wire = out.collector.wire_aggregates();
        assert_eq!(wire.len(), 2);
        assert!(wire.iter().all(|a| a.hostname != host));
    }

    #[test]
    fn partition_goes_dead_then_rejoins_and_still_delivers() {
        let mut plan = TransportFaultPlan::clean(2);
        plan.links[1] = LinkFaultPlan {
            seed: 7,
            partition: Some((2 * TICKS_PER_ROUND, 8 * TICKS_PER_ROUND)),
            ..Default::default()
        };
        let out = run_transport_chaos_with_plan(2, 16, 9, &plan);
        let host = TransportChaosOutcome::hostname(1);
        let sup = out.collector.cluster().supervision_of(&host).unwrap();
        assert_eq!(sup.state, NodeState::Alive, "healed partition rejoins");
        assert!(sup.deaths >= 1, "partition crossed the dead deadline");
        assert!(sup.rejoins >= 1);
        assert!(
            out.round_summaries.iter().any(|s| s.contains("DEGRADED")),
            "mid-partition summaries are honest"
        );
        assert!(!out.round_summaries.last().unwrap().contains("DEGRADED"));
        // Both aggregates delivered bit-identically after the heal.
        assert_eq!(out.collector.wire_aggregates(), out.local_aggregates);
    }

    #[test]
    fn survivors_match_the_fault_free_run_exactly_over_lossy_links() {
        let seed = 99;
        let plan = TransportFaultPlan::generate(seed, 4, 16, TICKS_PER_ROUND);
        let faulted = run_transport_chaos_with_plan(4, 16, seed, &plan);
        let clean = run_transport_chaos_with_plan(4, 16, seed, &TransportFaultPlan::clean(4));
        assert_eq!(clean.collector.wire_aggregates(), clean.local_aggregates);
        let clean_wire = clean.collector.wire_aggregates();
        for i in plan.survivors() {
            let host = TransportChaosOutcome::hostname(i);
            let f = faulted
                .collector
                .wire_aggregates()
                .into_iter()
                .find(|a| a.hostname == host)
                .unwrap_or_else(|| panic!("survivor {host} delivered no aggregate"));
            let c = clean_wire.iter().find(|a| a.hostname == host).unwrap();
            assert_eq!(&f, c, "survivor {host} diverged over the lossy wire");
        }
    }

    #[test]
    fn runs_are_pure_functions_of_their_inputs() {
        let a = run_transport_chaos(3, 10, 1234);
        let b = run_transport_chaos(3, 10, 1234);
        assert_eq!(a.round_summaries, b.round_summaries);
        assert_eq!(a.round_quorums, b.round_quorums);
        assert_eq!(a.collector.wire_aggregates(), b.collector.wire_aggregates());
        assert_eq!(a.collector.stats, b.collector.stats);
        assert_eq!(a.agent_stats, b.agent_stats);
        assert_eq!(a.fault_stats, b.fault_stats);
    }
}
