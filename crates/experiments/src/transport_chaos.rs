//! Allocation chaos over the wire: independent per-node sims whose
//! agents stream Hello/heartbeat/detail/aggregate frames to one
//! collector over per-node links, under a seeded [`AllocationFaultPlan`]
//! applied at the agent (node kills, straggler stalls, delayed rejoins,
//! clock skew) and a seeded [`TransportFaultPlan`] applied to the link
//! (drops, corruption, truncation, delay, reorder, disconnects,
//! partitions, kills). This is the one allocation path: the collector
//! knows a node only by what arrives.
//!
//! The differential property follows: node sims are seeded off the
//! node index alone, so every node computes the same local aggregate
//! whether or not it or its link is chaotic — and a surviving node's
//! aggregate as *delivered over the lossy wire* must be bit-identical
//! to its locally computed one (and hence to the fault-free run's).
//! Dead nodes and killed links must surface as honest DEAD/DEGRADED
//! markers, and no corrupt frame may ever panic the collector.
//!
//! Everything is tick-driven ([`TICKS_PER_ROUND`] agent ticks per
//! sampling round) with no wall clocks, so a run is a pure function of
//! `(node_count, rounds, seed, plans)` — this driver is a registered
//! nondeterminism-audit root.

use zerosum_core::{Monitor, NodeAggregate, ProcessInfo, ZeroSumConfig};
use zerosum_net::{
    in_proc_pair, AgentStats, AllocationFaultPlan, Collector, FaultyLink, InProcLink, Link,
    LinkFaultStats, NodeAgent, TransportFaultPlan,
};
use zerosum_sched::{Behavior, NodeSim, SchedParams, SimProcSource};
use zerosum_topology::{presets, CpuSet};

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

/// Result of one allocation chaos run.
pub struct TransportChaosOutcome {
    /// The collector after the drain: supervision state, wire-delivered
    /// aggregates, and counters.
    pub collector: Collector,
    /// The node plan that was applied at the agents.
    pub nodes: AllocationFaultPlan,
    /// The link plan that was applied.
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

/// The scheduler seed of node `i`: a function of `(seed, i)` alone, so
/// the same node computes the same history whether or not its
/// neighbours (or its link) are faulted.
fn node_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add(i as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The node the chaos driver simulates: the laptop preset running one
/// pinned rank with an `OpenMP` worker, both computing for `rounds`
/// periods, and a monitor watching the rank.
fn chaos_node(host: &str, rank: u32, seed: u64, rounds: u32, period_us: u64) -> (NodeSim, Monitor) {
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
    (sim, mon)
}

/// Offset from a run's seed to its link plan's seed. Both plan
/// generators start from the same seed mix, so one seed would tie each
/// link's fault to its node's; the offset gives the link plan a stream
/// of its own.
const LINK_SEED_OFFSET: u64 = 0x51DE;

/// Runs `node_count` nodes for `rounds` rounds over in-process links
/// under the node plan seeded by `seed` and the link plan seeded by
/// `seed + LINK_SEED_OFFSET`.
pub fn run_transport_chaos(node_count: usize, rounds: u32, seed: u64) -> TransportChaosOutcome {
    let nodes = AllocationFaultPlan::generate(seed, node_count, rounds);
    let link_seed = seed.wrapping_add(LINK_SEED_OFFSET);
    let links = TransportFaultPlan::generate(link_seed, node_count, rounds, TICKS_PER_ROUND);
    run_transport_chaos_with_plan(node_count, rounds, seed, &nodes, &links)
}

/// Runs the allocation over the wire under explicit node and link
/// plans (pass the `clean` plans for the differential baseline).
///
/// Per round every node's sim advances one period. A node that is down
/// (killed and not rejoined, or inside a stall window) takes no sample
/// and sends nothing, and its agent does not tick; its link still does,
/// because the network's clock is the allocation's, not the node's. A
/// skewed node adds its `skew_us` to the `t_s` its heartbeats report. A
/// node still down at run end never hands over its aggregate.
pub fn run_transport_chaos_with_plan(
    node_count: usize,
    rounds: u32,
    seed: u64,
    nodes: &AllocationFaultPlan,
    plan: &TransportFaultPlan,
) -> TransportChaosOutcome {
    assert_eq!(
        nodes.nodes.len(),
        node_count,
        "node plan/node-count mismatch"
    );
    assert_eq!(
        plan.links.len(),
        node_count,
        "link plan/node-count mismatch"
    );
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
        let (sim, mon) = chaos_node(&hostname, i as u32, node_seed(seed, i), rounds, PERIOD_US);
        sims.push((hostname, sim, mon));
    }
    let mut round_summaries = Vec::with_capacity(rounds as usize);
    let mut round_quorums = Vec::with_capacity(rounds as usize);
    let mut down = vec![false; node_count];
    for r in 0..rounds {
        let round = u64::from(r) + 1;
        for (i, (_hostname, sim, mon)) in sims.iter_mut().enumerate() {
            sim.run_for(PERIOD_US);
            let fault = &nodes.nodes[i];
            down[i] = fault.is_down(r);
            if down[i] {
                continue;
            }
            let t_s = sim.now_us() as f64 / 1e6;
            {
                let src = SimProcSource::new(sim);
                mon.sample(t_s, &src);
            }
            let agent = &mut agents[i];
            // The node's own clock stamps the heartbeat; skew shows up
            // collector-side as deviation from the round's expected time.
            agent.begin_round(round, t_s + fault.skew_us as f64 / 1e6);
            for d in 0..DETAILS_PER_ROUND {
                // Deterministic synthetic per-LWP detail; the suite
                // only asserts counts and shedding, not content.
                agent.send_detail(round, 100 + d, (d as f64) * 10.0 + r as f64);
            }
        }
        for _ in 0..TICKS_PER_ROUND {
            tick_all(&mut agents, &down);
        }
        collector.run_round();
        round_quorums.push(collector.supervision().quorum());
        round_summaries.push(collector.render_summary());
    }
    // End of run: every node aggregates locally (ground truth); those
    // still up stream the result until acked or the drain window closes.
    let mut local_aggregates = Vec::with_capacity(node_count);
    for (i, (hostname, _sim, mon)) in sims.iter().enumerate() {
        let agg = NodeAggregate::from_monitor(hostname, mon);
        if !down[i] {
            agents[i].finish(u64::from(rounds), agg.clone());
        }
        local_aggregates.push(agg);
    }
    for _ in 0..DRAIN_TICKS {
        tick_all(&mut agents, &down);
        collector.pump_frames();
        if agents.iter().all(|a| a.done()) {
            break;
        }
    }
    let agent_stats = agents.iter().map(|a| a.stats).collect();
    let fault_stats = agents.iter().map(|a| a.link().stats).collect();
    TransportChaosOutcome {
        collector,
        nodes: nodes.clone(),
        plan: plan.clone(),
        rounds,
        round_summaries,
        round_quorums,
        local_aggregates,
        agent_stats,
        fault_stats,
    }
}

/// One tick of every agent; a node that is down ticks only its link.
fn tick_all(agents: &mut [NodeAgent<FaultyLink<InProcLink>>], down: &[bool]) {
    for (agent, &down) in agents.iter_mut().zip(down) {
        if down {
            agent.link_mut().tick();
        } else {
            agent.tick();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerosum_core::NodeState;
    use zerosum_net::{LinkFaultPlan, NodeFaultPlan};

    /// Runs with clean links and only node `i` under `fault`.
    fn run_node_fault(
        n: usize,
        rounds: u32,
        i: usize,
        fault: NodeFaultPlan,
    ) -> TransportChaosOutcome {
        let mut nodes = AllocationFaultPlan::clean(n);
        nodes.nodes[i] = fault;
        run_transport_chaos_with_plan(n, rounds, 5, &nodes, &TransportFaultPlan::clean(n))
    }

    /// Runs with clean nodes under an explicit link plan.
    fn run_links(
        n: usize,
        rounds: u32,
        seed: u64,
        plan: &TransportFaultPlan,
    ) -> TransportChaosOutcome {
        run_transport_chaos_with_plan(n, rounds, seed, &AllocationFaultPlan::clean(n), plan)
    }

    #[test]
    fn clean_plan_delivers_every_aggregate_bit_identically() {
        let out = run_links(3, 12, 77, &TransportFaultPlan::clean(3));
        assert_eq!(out.round_summaries.len(), 12);
        assert!(out.round_quorums.iter().all(|&(k, n)| k == 3 && n == 3));
        assert!(out.round_summaries.iter().all(|s| !s.contains("DEGRADED")));
        assert!(out.round_summaries.iter().all(|s| !s.contains("SKEWED")));
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
    fn killed_node_ends_dead_and_delivers_nothing() {
        let out = run_node_fault(
            2,
            12,
            1,
            NodeFaultPlan {
                kill_at: Some(2),
                ..Default::default()
            },
        );
        let host = TransportChaosOutcome::hostname(1);
        assert_eq!(
            out.collector.supervision().node_state(&host),
            NodeState::Dead
        );
        // Killed at round 2 (0-based), dead after 3 missed deadlines.
        assert_eq!(out.round_quorums[3], (2, 2));
        assert_eq!(out.round_quorums[4], (1, 2));
        assert!(!out.round_summaries[0].contains("DEGRADED"));
        let last = out.round_summaries.last().unwrap();
        assert!(last.contains("DEGRADED (1/2 nodes)"), "{last}");
        assert!(last.contains(&format!("DEAD: node {host}")), "{last}");
        // The dead node never handed over its aggregate; the other did.
        let wire = out.collector.wire_aggregates();
        assert_eq!(wire.len(), 1);
        assert!(wire.iter().all(|a| a.hostname != host));
        assert_eq!(out.collector.stats.heartbeats_rx, 12 + 2);
    }

    #[test]
    fn stalled_node_goes_dead_then_rejoins_counted_once() {
        for fault in [
            NodeFaultPlan {
                stall: Some((2, 7)),
                ..Default::default()
            },
            NodeFaultPlan {
                kill_at: Some(1),
                rejoin_at: Some(6),
                ..Default::default()
            },
        ] {
            let out = run_node_fault(2, 16, 1, fault.clone());
            let host = TransportChaosOutcome::hostname(1);
            let sup = out.collector.supervision().supervision_of(&host).unwrap();
            assert_eq!(sup.state, NodeState::Alive, "{fault:?}");
            assert_eq!((sup.deaths, sup.rejoins), (1, 1), "{fault:?}");
            let states: Vec<NodeState> = sup.transitions.iter().map(|t| t.1).collect();
            assert_eq!(
                states,
                [NodeState::Suspect, NodeState::Dead, NodeState::Alive],
                "{fault:?}"
            );
            assert!(out.round_summaries.iter().any(|s| s.contains("DEGRADED")));
            assert!(!out.round_summaries.last().unwrap().contains("DEGRADED"));
            // One aggregate per node: the rejoined node's is its own
            // local one (it missed the down rounds' samples), once.
            assert_eq!(out.collector.wire_aggregates(), out.local_aggregates);
            let clean = run_node_fault(2, 16, 1, NodeFaultPlan::none());
            assert_eq!(out.local_aggregates[0], clean.local_aggregates[0]);
        }
    }

    #[test]
    fn skewed_node_is_flagged_but_stays_alive_and_in_the_quorum() {
        let out = run_node_fault(
            2,
            8,
            1,
            NodeFaultPlan {
                skew_us: -1_500_000,
                ..Default::default()
            },
        );
        let host = TransportChaosOutcome::hostname(1);
        let sup = out.collector.supervision().supervision_of(&host).unwrap();
        assert_eq!(sup.state, NodeState::Alive);
        assert_eq!(sup.deaths, 0);
        assert!(sup.skewed);
        assert!((sup.max_skew_s - 1.5).abs() < 1e-6);
        let last = out.round_summaries.last().unwrap();
        assert!(last.contains(&format!("SKEWED: node {host}")), "{last}");
        assert!(!last.contains("SKEWED: node wire0000"), "{last}");
        assert!(out.round_quorums.iter().all(|&(k, n)| (k, n) == (2, 2)));
        // Skew distorts the reported time axis, not the node's data.
        let clean = run_node_fault(2, 8, 1, NodeFaultPlan::none());
        assert_eq!(out.collector.wire_aggregates(), clean.local_aggregates);
    }

    #[test]
    fn killed_link_surfaces_as_dead_and_degraded() {
        let mut plan = TransportFaultPlan::clean(3);
        plan.links[2] = LinkFaultPlan {
            seed: 11,
            kill_at: Some(2 * TICKS_PER_ROUND),
            ..Default::default()
        };
        let out = run_links(3, 14, 5, &plan);
        let host = TransportChaosOutcome::hostname(2);
        assert_eq!(
            out.collector.supervision().node_state(&host),
            NodeState::Dead
        );
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
        let out = run_links(2, 16, 9, &plan);
        let host = TransportChaosOutcome::hostname(1);
        let sup = out.collector.supervision().supervision_of(&host).unwrap();
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
        let faulted = run_transport_chaos(4, 16, seed);
        let clean = run_links(4, 16, seed, &TransportFaultPlan::clean(4));
        assert_eq!(clean.collector.wire_aggregates(), clean.local_aggregates);
        let clean_wire = clean.collector.wire_aggregates();
        let never_down = faulted.nodes.survivors(16);
        for i in faulted.plan.survivors() {
            if !never_down.contains(&i) {
                continue;
            }
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
        let seed = 1234;
        let a = run_transport_chaos(3, 10, seed);
        let b = run_transport_chaos(3, 10, seed);
        // The seed drives node faults as well as link faults.
        assert!(a.nodes.nodes.iter().any(|p| p.is_faulty()));
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.round_summaries, b.round_summaries);
        assert_eq!(a.round_quorums, b.round_quorums);
        assert_eq!(a.collector.wire_aggregates(), b.collector.wire_aggregates());
        assert_eq!(a.collector.stats, b.collector.stats);
        assert_eq!(a.agent_stats, b.agent_stats);
        assert_eq!(a.fault_stats, b.fault_stats);
        assert_eq!(a.collector.render_summary(), b.collector.render_summary());
        // So is a run under explicit node plans of every kind.
        let nodes = AllocationFaultPlan {
            nodes: vec![
                NodeFaultPlan::none(),
                NodeFaultPlan {
                    kill_at: Some(2),
                    rejoin_at: Some(5),
                    skew_us: 700_000,
                    ..Default::default()
                },
                NodeFaultPlan {
                    stall: Some((1, 4)),
                    ..Default::default()
                },
            ],
        };
        let links = TransportFaultPlan::generate(seed, 3, 10, TICKS_PER_ROUND);
        let c = run_transport_chaos_with_plan(3, 10, seed, &nodes, &links);
        let d = run_transport_chaos_with_plan(3, 10, seed, &nodes, &links);
        assert_eq!(c.round_summaries, d.round_summaries);
        assert_eq!(c.collector.render_summary(), d.collector.render_summary());
        assert_eq!(c.collector.stats, d.collector.stats);
        assert_eq!(c.agent_stats, d.agent_stats);
        assert_eq!(c.fault_stats, d.fault_stats);
    }
}
