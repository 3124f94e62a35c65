//! Allocation chaos checking: the wire layer under seeded node and
//! link fault plans.
//!
//! This module judges the one allocation path — the collector daemon
//! supervising nodes it only hears from over per-node links — while
//! nodes are killed, stalled, rejoined late and clock-skewed by an
//! [`AllocationFaultPlan`](zerosum_net::AllocationFaultPlan) and links
//! drop, corrupt, truncate, delay, reorder, disconnect, partition, and
//! die by a [`TransportFaultPlan`](zerosum_net::TransportFaultPlan).
//! Per seed it asserts seven properties:
//!
//! 1. **No panics** — no frame the chaos can manufacture (truncation,
//!    bit flips, mid-frame disconnects) panics the collector.
//! 2. **A report every round** — the allocation summary keeps
//!    rendering off whatever frames arrived.
//! 3. **Honest degradation** — `DEGRADED (k/n nodes)` appears exactly
//!    when the wire-side quorum shrank.
//! 4. **Exact survivors** — every node that is never down and whose
//!    link is never killed delivers its aggregate over the lossy wire
//!    bit-identical to both its locally computed value and the
//!    fault-free run's (corruption is rejected by checksum and repaired
//!    by retransmission, never absorbed).
//! 5. **Honest death** — a permanently killed link, or a node killed
//!    and not rejoined, delivers no aggregate and ends in `Dead` (a
//!    node, once it has been silent long enough to be declared so).
//! 6. **Honest skew** — `SKEWED` appears for a node exactly when its
//!    plan skews its clock and at least one of its heartbeats arrived.
//! 7. **Skew is not death** — a skewed node on a clean link is never
//!    taken out of the quorum.
//!
//! The same protocol runs over real loopback TCP between `zerosum
//! collect` and wrappers started with `--connect`; the CLI's live test
//! drives it.

use crate::verdict::{seeded_suite, Verdict};
use zerosum_core::NodeState;
use zerosum_experiments::transport_chaos::{
    run_transport_chaos, run_transport_chaos_with_plan, TransportChaosOutcome,
};
use zerosum_net::{AllocationFaultPlan, NodeFaultPlan, TransportFaultPlan};

/// Rounds of silence after which a killed node must be Dead: the
/// collector's three missed deadlines, plus two rounds in which a frame
/// its link delayed may still arrive. (A generated link kill leaves at
/// least that much run behind it.)
const SILENT_ROUNDS_TO_DEAD: u32 = 5;

/// Runs the verdict's seeded node and link plans and judges the wire
/// layer against the seven properties above.
pub fn judge_transport_run(v: &mut Verdict, node_count: usize, rounds: u32) {
    let outcome = run_transport_chaos(node_count, rounds, v.seed);
    let (nodes, links) = (&outcome.nodes.nodes, &outcome.plan.links);
    let sup = outcome.collector.supervision();
    // Killed and still down when the run ends: the node never finishes,
    // and it must be Dead once it has been silent long enough.
    let dead_at_end =
        |p: &NodeFaultPlan| p.kill_at.is_some() && rounds > 0 && p.is_down(rounds - 1);
    let silent_enough = |p: &NodeFaultPlan| {
        p.kill_at
            .is_some_and(|k| k.saturating_add(SILENT_ROUNDS_TO_DEAD) <= rounds)
    };
    let faulted_nodes = nodes.iter().filter(|p| p.is_faulty()).count();
    let faulted_links = links.iter().filter(|l| l.is_faulty()).count();
    let killed_nodes = nodes.iter().filter(|p| dead_at_end(p)).count();
    let killed_links = links.iter().filter(|l| l.kill_at.is_some()).count();
    let harmed: u64 = outcome
        .fault_stats
        .iter()
        .map(|s| s.dropped + s.corrupted + s.truncated)
        .sum();
    let rejected = outcome.collector.stats.decode_errors;
    let shed: u64 = outcome.agent_stats.iter().map(|s| s.details_shed).sum();
    let reconnects: u64 = outcome.agent_stats.iter().map(|s| s.reconnects).sum();
    // Properties 2 and 3: a summary after every round, honestly marked.
    check_quorum_markers(
        v,
        &outcome.round_summaries,
        &outcome.round_quorums,
        node_count,
        rounds,
    );
    let final_summary = outcome.collector.render_summary();
    let wire = outcome.collector.wire_aggregates();
    let never_down = outcome.nodes.survivors(rounds);
    let mut skewed = 0;
    for (i, (node, link)) in nodes.iter().zip(links).enumerate() {
        let host = TransportChaosOutcome::hostname(i);
        let (heard, deaths) = sup
            .supervision_of(&host)
            .map_or((0, 0), |s| (s.heartbeats, s.deaths));
        // Property 5: permanent death ends Dead and delivers nothing.
        if dead_at_end(node) || link.kill_at.is_some() {
            let due = link.kill_at.is_some() || silent_enough(node);
            if due && sup.node_state(&host) != NodeState::Dead {
                v.problems
                    .push(format!("killed {host} not marked DEAD at run end"));
            }
            if wire.iter().any(|a| a.hostname == host) {
                v.problems
                    .push(format!("killed {host} delivered an aggregate"));
            }
        }
        // Property 6: SKEWED exactly where the plan skews a clock that
        // was heard from.
        let flagged = final_summary.contains(&format!("SKEWED: node {host} "));
        skewed += usize::from(flagged);
        if flagged != (node.skew_us != 0 && heard > 0) {
            v.problems.push(format!(
                "{host}: SKEWED shown {flagged}, plan skew {}us, {heard} heartbeat(s)",
                node.skew_us
            ));
        }
        // Property 7: a skewed node that is never down, on a clean link,
        // never dies.
        if node.skew_us != 0 && never_down.contains(&i) && !link.is_faulty() && deaths > 0 {
            v.problems.push(format!(
                "{host}: clock skew alone took it out of the quorum"
            ));
        }
    }
    v.set_tally("faulted_nodes", faulted_nodes as u64);
    v.set_tally("faulted_links", faulted_links as u64);
    v.set_tally("killed_nodes", killed_nodes as u64);
    v.set_tally("killed_links", killed_links as u64);
    v.set_tally(
        "rejoined_nodes",
        nodes.iter().filter(|p| p.rejoins()).count() as u64,
    );
    v.set_tally("skewed_nodes", skewed as u64);
    v.set_tally("frames_harmed", harmed);
    v.set_tally("decode_errors", rejected);
    v.set_tally("details_shed", shed);
    v.set_tally("reconnects", reconnects);
    // Property 4: the differential. Survivors' wire-delivered aggregates
    // match their local ground truth and the fault-free run, bit for bit.
    let clean = run_transport_chaos_with_plan(
        node_count,
        rounds,
        v.seed,
        &AllocationFaultPlan::clean(node_count),
        &TransportFaultPlan::clean(node_count),
    );
    let clean_wire = clean.collector.wire_aggregates();
    for i in outcome.plan.survivors() {
        if !never_down.contains(&i) {
            continue;
        }
        let host = TransportChaosOutcome::hostname(i);
        let delivered = wire.iter().find(|a| a.hostname == host);
        let local = outcome.local_aggregates.iter().find(|a| a.hostname == host);
        let baseline = clean_wire.iter().find(|a| a.hostname == host);
        match (delivered, local, baseline) {
            (Some(d), Some(l), Some(b)) if d == l && d == b => {}
            (Some(d), Some(l), _) if d != l => v.problems.push(format!(
                "survivor {host}: wire-delivered aggregate differs from local ground truth"
            )),
            (Some(_), _, Some(_)) => v.problems.push(format!(
                "survivor {host}: aggregate diverged from the fault-free run"
            )),
            _ => v.problems.push(format!(
                "survivor {host}: aggregate never delivered over the lossy wire"
            )),
        }
    }
    v.cells = format!(
        "{node_count} node(s)  {faulted_nodes}+{faulted_links} node+link fault(s)  \
         {killed_nodes}+{killed_links} killed  {skewed} skewed  {harmed} harmed  \
         {rejected} rejected  {shed} shed  {reconnects} reconnect(s)  \
         {:>3}/{rounds} degraded round(s)",
        v.tally("degraded_rounds"),
    );
}

/// Properties 2 and 3: every round rendered a summary carrying its
/// `LIVE:` line, and `DEGRADED (k/n nodes)` appears with the right
/// counts exactly when the quorum shrank — never on a full quorum.
/// Files the `degraded_rounds` tally.
fn check_quorum_markers(
    v: &mut Verdict,
    summaries: &[String],
    quorums: &[(usize, usize)],
    node_count: usize,
    rounds: u32,
) {
    if summaries.len() != rounds as usize {
        v.problems.push(format!(
            "only {}/{rounds} rounds produced an allocation summary",
            summaries.len()
        ));
    }
    let mut degraded_rounds = 0;
    for (r, (summary, &(k, n))) in summaries.iter().zip(quorums).enumerate() {
        if n != node_count {
            v.problems
                .push(format!("round {r}: quorum total {n} != {node_count} nodes"));
        }
        if !summary.contains("LIVE:") {
            v.problems
                .push(format!("round {r}: summary missing its LIVE: line"));
        }
        if k < n {
            degraded_rounds += 1;
            let marker = format!("DEGRADED ({k}/{n} nodes)");
            if !summary.contains(&marker) {
                v.problems.push(format!(
                    "round {r}: quorum {k}/{n} but summary lacks {marker:?}"
                ));
            }
        } else if summary.contains("DEGRADED") {
            v.problems.push(format!(
                "round {r}: full quorum but summary claims degradation"
            ));
        }
    }
    v.set_tally("degraded_rounds", degraded_rounds);
}

/// Runs the allocation chaos soak: `schedules` seeded node + link
/// plans, each judged by [`judge_transport_run`].
pub fn run_transport_suite(
    node_count: usize,
    rounds: u32,
    schedules: usize,
    base_seed: u64,
) -> Vec<Verdict> {
    seeded_suite(
        |i| format!("alloc-f{i:02}"),
        10,
        schedules,
        base_seed,
        |_, v| judge_transport_run(v, node_count, rounds),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance soak: 20 seeded node + link plans over the
    /// deterministic in-process backend — zero panics, honest
    /// DEGRADED/DEAD/SKEWED markers, and survivor aggregates delivered
    /// over lossy links bit-identical to the fault-free run.
    #[test]
    fn transport_soak_twenty_plans_all_pass() {
        let reports = run_transport_suite(4, 16, 20, 0x51DE);
        assert_eq!(reports.len(), 20);
        let failed: Vec<&Verdict> = reports.iter().filter(|r| !r.passed()).collect();
        assert!(
            failed.is_empty(),
            "failed plans:\n{}",
            failed.iter().map(|r| r.render()).collect::<String>()
        );
        // The soak must exercise the machinery, not tiptoe around it:
        // every plan is chaotic on both layers, frames are harmed and
        // rejected, details shed to backpressure, agents reconnect,
        // nodes die for good, stall or rejoin, lie about their clocks,
        // and links die.
        assert!(reports.iter().all(|r| r.tally("faulted_links") > 0));
        assert!(reports.iter().all(|r| r.tally("faulted_nodes") > 0));
        let sum = |key: &str| -> u64 { reports.iter().map(|r| r.tally(key)).sum() };
        for (key, what) in [
            ("frames_harmed", "no plan ever harmed a frame"),
            ("decode_errors", "no corrupt frame ever reached the decoder"),
            ("details_shed", "backpressure never shed a detail frame"),
            ("reconnects", "no agent ever had to reconnect"),
            ("killed_links", "no plan permanently killed a link"),
            ("killed_nodes", "no plan killed a node for good"),
            ("rejoined_nodes", "no plan stalled or rejoined a node"),
            ("skewed_nodes", "no node was ever flagged SKEWED"),
            ("degraded_rounds", "no plan ever degraded the wire quorum"),
        ] {
            assert!(sum(key) > 0, "{what}");
        }
    }

    /// The soak's published set, the plans `zerosum cluster-chaos
    /// --nodes 4 --rounds 24 --schedules 20 --seed 41248` runs: every
    /// one clean.
    #[test]
    fn transport_soak_at_seed_41248_all_pass() {
        let reports = run_transport_suite(4, 24, 20, 41248);
        assert_eq!(reports.len(), 20);
        for r in &reports {
            assert!(r.passed(), "{}", r.render());
        }
    }

    #[test]
    fn quorum_markers_must_match_the_quorum() {
        let full = "LIVE: 2/2 node(s)".to_string();
        let degraded = "LIVE: 1/2 node(s)\nDEGRADED (1/2 nodes)".to_string();
        let quorums = [(2, 2), (1, 2)];
        let mut v = Verdict::new("x", 4, 1);
        check_quorum_markers(&mut v, &[full.clone(), degraded.clone()], &quorums, 2, 2);
        assert!(v.passed(), "{v:?}");
        assert_eq!(v.tally("degraded_rounds"), 1);
        // A marker on a full quorum, a missing one on a shrunk quorum,
        // and a missing round are each a problem.
        let mut bad = Verdict::new("x", 4, 1);
        check_quorum_markers(&mut bad, &[degraded, full], &quorums, 2, 3);
        assert_eq!(bad.problems.len(), 3, "{bad:?}");
    }
}
