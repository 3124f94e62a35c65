//! `wire_tcp`: two `NodeAgent<TcpLink>`s dialled to an `Acceptor` on
//! `127.0.0.1:0`, one `Collector`, all ticked from one thread.
//!
//! Per round each agent does `begin_round`, 48 × `send_detail`,
//! `finish(aggregate)`, `tick`; then `Collector::run_round`, agent
//! `tick`s for the acks, and `render_summary`. The round ends when the
//! summary holds that round's aggregates — the sample-to-summary
//! latency. The only workload that touches `net`. 50 frames per
//! connection per round stays under the collector's decode budget of 64,
//! so nothing is shed by design and every frame sent must be folded.
//!
//! Each node's payload comes from a small simulated monitor sampled in
//! set-up; those monitors are also what the exit path exports.

use super::{
    check_logs, frontier_scenario, mix, sim_time_s, AllocBlock, Check, FinishCtx, Finished,
    SegmentCount, Workload, ALLOC_BLOCK_ROUNDS, SIM_STEP_US, WARMUP_ROUNDS,
};
use crate::alloc_count;
use crate::replay;
use crate::trace::{maybe_span, Captured, Kind, TimedLink, Tracer};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;
use zerosum_core::{Monitor, NodeAggregate, ZeroSumConfig};
use zerosum_net::{Acceptor, Collector, Link, NodeAgent, TcpLink, DEFAULT_WINDOW};
use zerosum_sched::SimProcSource;

/// Node agents (and TCP connections). Fixed, so the workload is the
/// same on every host; the reference host has two cores.
pub const NODES: usize = 2;
/// `LwpDetail` frames per agent per round.
pub const DETAILS: usize = 48;
/// Frames per agent per round: heartbeat + details + aggregate.
const FRAMES_PER_AGENT: u64 = DETAILS as u64 + 2;
/// Rounds per segment (~3 ms on the reference host).
const SEGMENT_ROUNDS: u64 = 12;
/// Rounds each node's monitor samples in set-up.
const NODE_ROUNDS: u64 = 32;
/// Bound on the closed loop's retries for data in flight on loopback.
const SPIN_LIMIT: u32 = 100_000;
/// Frames each traced agent link copies for the codec replay; ends
/// inside the warm-up.
const CAPTURE_FRAMES: usize = 512;
/// The collector's monitoring period: heartbeats carry `round × period`
/// so no skew is flagged.
const PERIOD_S: f64 = 0.1;

/// What one node ships.
struct NodeData {
    hostname: String,
    monitor: Monitor,
    /// `(tid, base busy %)` per detail frame.
    details: Vec<(u32, f64)>,
    base: NodeAggregate,
}

/// The workload state, generic over the agent-side link so the traced
/// run can interpose [`TimedLink`] while the plain run keeps
/// `NodeAgent<TcpLink>` as shipped.
pub struct Wire<L: Link> {
    agents: Vec<NodeAgent<L>>,
    collector: Collector,
    // Kept open for the connections' lifetime.
    _acceptor: Acceptor,
    nodes: Vec<NodeData>,
    jitter: Vec<f64>,
    round: u64,
    tracer: Option<Tracer>,
    captured: Option<Captured>,
    /// First output mismatch seen outside the timed spans.
    mismatch: Option<String>,
    extra_pumps: u64,
    extra_ticks: u64,
    /// `(rounds, frames folded)` when the first timed segment began.
    timed_from: Option<(u64, u64)>,
}

fn node_data(seed: u64, node: usize) -> NodeData {
    let hostname = format!("zsb-node{node}");
    let (mut sim, mut monitor, pids) = frontier_scenario(
        1,
        DETAILS as u32,
        mix(seed, node as u64),
        ZeroSumConfig::default(),
    );
    for r in 0..NODE_ROUNDS {
        sim.run_for(SIM_STEP_US);
        monitor.sample(sim_time_s(r), &SimProcSource::new(&sim));
    }
    let mut details: Vec<(u32, f64)> = pids
        .iter()
        .filter_map(|&pid| monitor.process(pid))
        .flat_map(|w| w.lwps.tracks())
        .map(|t| (t.tid, t.cpu_fraction() * 100.0))
        .collect();
    details.sort_by_key(|&(tid, _)| tid);
    let base = NodeAggregate::from_monitor(&hostname, &monitor);
    NodeData {
        hostname,
        monitor,
        details,
        base,
    }
}

impl Wire<TcpLink> {
    /// Plain links on both sides.
    pub fn setup(seed: u64) -> Result<Self, String> {
        Wire::setup_with(seed, None, None, |l| l, |l| Box::new(l))
    }
}

impl Wire<TimedLink<TcpLink>> {
    /// [`TimedLink`]s on both sides; agent links copy their first
    /// frames for the codec replay.
    pub fn setup_traced(seed: u64, tracer: Tracer) -> Result<Self, String> {
        let captured: Captured = Arc::new(Mutex::new(Vec::new()));
        let (t_agent, t_coll, cap) = (tracer.clone(), tracer.clone(), Arc::clone(&captured));
        Wire::setup_with(
            seed,
            Some(tracer),
            Some(captured),
            move |l| TimedLink::capturing(l, t_agent.clone(), Arc::clone(&cap), CAPTURE_FRAMES),
            move |l| Box::new(TimedLink::new(l, t_coll.clone())),
        )
    }
}

impl<L: Link> Wire<L> {
    fn setup_with(
        seed: u64,
        tracer: Option<Tracer>,
        captured: Option<Captured>,
        wrap_agent: impl Fn(TcpLink) -> L,
        wrap_collector: impl Fn(TcpLink) -> Box<dyn Link>,
    ) -> Result<Self, String> {
        let cannot = |what: &str, e: &dyn std::fmt::Display| {
            format!("{what}: {e} (no loopback sockets: wire_tcp cannot run)")
        };
        let acceptor = Acceptor::bind("127.0.0.1:0").map_err(|e| cannot("bind 127.0.0.1:0", &e))?;
        let addr = acceptor
            .local_addr()
            .map_err(|e| cannot("local_addr", &e))?;
        let mut collector = Collector::new();
        collector.cfg.period_s = PERIOD_S;
        let mut agents = Vec::with_capacity(NODES);
        let mut nodes = Vec::with_capacity(NODES);
        for n in 0..NODES {
            let data = node_data(seed, n);
            if data.details.len() != DETAILS {
                return Err(format!(
                    "node {n}: {} tracks, wanted {DETAILS}",
                    data.details.len()
                ));
            }
            collector.expect_node(&data.hostname);
            let dial = TcpLink::dial(&addr, DEFAULT_WINDOW).map_err(|e| cannot("dial", &e))?;
            let mut accepted = None;
            for _ in 0..SPIN_LIMIT {
                accepted = acceptor
                    .poll_accept(DEFAULT_WINDOW)
                    .map_err(|e| cannot("accept", &e))?;
                if accepted.is_some() {
                    break;
                }
                std::thread::yield_now();
            }
            let accepted = accepted.ok_or("loopback accept never completed")?;
            collector.add_link(wrap_collector(accepted));
            agents.push(NodeAgent::new(wrap_agent(dial), data.hostname.clone()));
            nodes.push(data);
        }
        let jitter = (0..1024u64)
            .map(|i| (mix(seed, 1_000 + i) % 1_000) as f64 / 100.0)
            .collect();
        let mut w = Wire {
            agents,
            collector,
            _acceptor: acceptor,
            nodes,
            jitter,
            round: 0,
            tracer,
            captured,
            mismatch: None,
            extra_pumps: 0,
            extra_ticks: 0,
            timed_from: None,
        };
        // The first round carries the Hello handshake.
        for _ in 0..WARMUP_ROUNDS {
            w.round(false)?;
        }
        Ok(w)
    }

    /// The aggregate node `n` ships in round `round`.
    fn aggregate(&self, n: usize, round: u64) -> NodeAggregate {
        let base = &self.nodes[n].base;
        NodeAggregate {
            total_nvcsw: base.total_nvcsw + round,
            ..base.clone()
        }
    }

    /// One round, traced if asked and built with a tracer; returns the
    /// wall ns from the first `begin_round` to the rendered summary.
    fn round(&mut self, traced: bool) -> Result<u64, String> {
        let tracer = self.tracer.clone().filter(|_| traced);
        let t = tracer.as_ref();
        self.round += 1;
        let round = self.round;
        let t_s = round as f64 * PERIOD_S;
        let t0 = Instant::now();
        let round_span = t.map(|t| t.enter(Kind::Round));
        for n in 0..NODES {
            let agg = self.aggregate(n, round);
            let (agent, node) = (&mut self.agents[n], &self.nodes[n]);
            maybe_span(t, Kind::AgentBeginRound, || agent.begin_round(round, t_s));
            for (d, &(tid, base_pct)) in node.details.iter().enumerate() {
                let pct = base_pct + self.jitter[(round as usize + d) % self.jitter.len()];
                maybe_span(t, Kind::AgentSendDetail, || {
                    agent.send_detail(round, tid, pct)
                });
            }
            maybe_span(t, Kind::AgentFinish, || agent.finish(round, agg));
            maybe_span(t, Kind::AgentTick, || agent.tick());
        }
        maybe_span(t, Kind::CollectorRunRound, || self.collector.run_round());
        // Closed loop: everything sent this round must be folded before
        // the round counts. Loopback delivers within the send syscall,
        // so these retry loops normally do not spin.
        let mut spins = 0;
        while self.collector.stats.frames_rx < self.frames_sent() {
            maybe_span(t, Kind::CollectorPump, || self.collector.pump_frames());
            self.extra_pumps += 1;
            spins += 1;
            if spins > SPIN_LIMIT {
                return Err(format!(
                    "round {round}: collector folded {} of {} frames sent",
                    self.collector.stats.frames_rx,
                    self.frames_sent()
                ));
            }
        }
        for n in 0..NODES {
            let mut first = true;
            while !self.agents[n].done() || first {
                let agent = &mut self.agents[n];
                maybe_span(t, Kind::AgentTick, || agent.tick());
                if !first {
                    self.extra_ticks += 1;
                    // A retransmitted aggregate needs folding and acking.
                    maybe_span(t, Kind::CollectorPump, || self.collector.pump_frames());
                }
                first = false;
                spins += 1;
                if spins > SPIN_LIMIT {
                    return Err(format!("round {round}: node {n}'s aggregate never acked"));
                }
            }
        }
        let summary = maybe_span(t, Kind::CollectorRenderSummary, || {
            self.collector.render_summary()
        });
        drop(round_span);
        let ns = t0.elapsed().as_nanos() as u64;
        if let Some(t) = t {
            t.next_round();
        }
        // Output checks, outside the timed span.
        if self.mismatch.is_none() {
            let want: Vec<NodeAggregate> = (0..NODES).map(|n| self.aggregate(n, round)).collect();
            let got = self.collector.wire_aggregates();
            if got != want {
                self.mismatch = Some(format!(
                    "round {round}: wire aggregates {got:?} != {want:?}"
                ));
            } else if !self.nodes.iter().all(|n| summary.contains(&n.hostname)) {
                self.mismatch = Some(format!("round {round}: summary omits a node: {summary}"));
            }
        }
        Ok(ns)
    }

    fn frames_sent(&self) -> u64 {
        self.agents.iter().map(|a| a.stats.frames_tx).sum()
    }
}

impl<L: Link> Workload for Wire<L> {
    fn source_layer(&self) -> &'static str {
        "sched.proc_source"
    }

    fn segment(&mut self, round_ns: &mut Vec<u32>) -> Result<SegmentCount, String> {
        let before = self.collector.stats.details_rx;
        self.timed_from
            .get_or_insert((self.round, self.collector.stats.frames_rx));
        let mut busy_ns = 0;
        for _ in 0..SEGMENT_ROUNDS {
            let ns = self.round(true)?;
            busy_ns += ns;
            round_ns.push(ns as u32);
        }
        Ok(SegmentCount {
            rounds: SEGMENT_ROUNDS,
            work: self.collector.stats.details_rx - before,
            busy_ns,
            class: 0,
        })
    }

    fn exit_monitors(&self) -> Option<Vec<&Monitor>> {
        // Sampled once in set-up: always in the same state.
        Some(self.nodes.iter().map(|n| &n.monitor).collect())
    }

    fn alloc_block(&mut self) -> Result<AllocBlock, String> {
        let frames0 = self.collector.stats.frames_rx;
        let (a0, b0) = alloc_count::snapshot();
        for _ in 0..ALLOC_BLOCK_ROUNDS {
            self.round(false)?;
        }
        let (a1, b1) = alloc_count::snapshot();
        Ok(AllocBlock {
            rounds: ALLOC_BLOCK_ROUNDS,
            work: self.collector.stats.frames_rx - frames0,
            allocs: a1 - a0,
            bytes: b1 - b0,
        })
    }

    fn finish(self: Box<Self>, ctx: &FinishCtx) -> Result<Finished, String> {
        let sent = self.frames_sent();
        let cs = self.collector.stats;
        let shed: u64 = self.agents.iter().map(|a| a.stats.details_shed).sum();
        let retx: u64 = self
            .agents
            .iter()
            .map(|a| a.stats.hello_retx + a.stats.agg_retx)
            .sum();
        let agent_errors: u64 = self.agents.iter().map(|a| a.stats.decode_errors).sum();
        let failed = sent.saturating_sub(cs.frames_rx) + cs.decode_errors + agent_errors + shed;
        let expected = self.round * NODES as u64 * FRAMES_PER_AGENT + NODES as u64;
        let mut checks = vec![
            Check::new(
                "every summary named both nodes and held the aggregates passed to finish, bit for bit",
                self.mismatch.is_none(),
                self.mismatch
                    .clone()
                    .unwrap_or_else(|| format!("{} rounds checked", self.round)),
            ),
            Check::new(
                "every frame sent was folded: nothing shed, retransmitted or rejected",
                failed == 0 && cs.frames_rx == sent && sent == expected + retx && retx == 0,
                format!(
                    "sent={sent} expected={expected} folded={} shed={shed} retx={retx} \
                     decode_errors={} budget_exhausted={} extra_pumps={} extra_ticks={}",
                    cs.frames_rx,
                    cs.decode_errors + agent_errors,
                    cs.budget_exhausted,
                    self.extra_pumps,
                    self.extra_ticks
                ),
            ),
        ];
        let monitors: Vec<&Monitor> = self.nodes.iter().map(|n| &n.monitor).collect();
        checks.push(check_logs(&monitors, &ctx.scratch)?);
        // Per steady round: the Hellos and the warm-up are set-up's.
        let (round0, frames0) = self.timed_from.unwrap_or((0, 0));
        let frames_per_round =
            (cs.frames_rx - frames0) as f64 / (self.round - round0).max(1) as f64;
        let mut layer = vec![
            ("net.agent.frames_shed", shed as f64),
            ("net.agent.retransmits", retx as f64),
            ("net.collector.frames_rx", frames_per_round),
            (
                "net.collector.decode_errors",
                (cs.decode_errors + agent_errors) as f64,
            ),
            ("net.collector.budget_exhausted", cs.budget_exhausted as f64),
            ("net.collector.throttled_reads", cs.throttled_reads as f64),
        ];
        if let Some(c) = &self.captured {
            let frames = c.lock().unwrap_or_else(PoisonError::into_inner);
            layer.extend(replay::frame_codec(&frames)?);
        }
        Ok(Finished {
            attempted: sent,
            failed,
            checks,
            work_per_round: NODES as u64 * DETAILS as u64,
            layer,
            text_bytes: [0.0; 4],
        })
    }
}
