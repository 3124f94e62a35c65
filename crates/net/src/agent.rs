//! The node-side streaming agent: one per monitored node, speaking the
//! wire protocol over any [`Link`].
//!
//! The agent is the active half of the failure model. It re-sends
//! Hello every round until the collector acks it (a lost Hello cannot
//! orphan a node's heartbeats forever), sends exactly one heartbeat
//! per round *before* any detail (liveness outranks detail under
//! backpressure — a full window sheds per-LWP detail, never the
//! heartbeat), and retransmits the end-of-run aggregate until acked.
//! A torn connection puts the agent into tick-counted exponential
//! backoff (initial 1 tick, doubling to a ceiling — the only re-probe
//! schedule a dead node has); during backoff it sends nothing, so
//! collector-side the outage is ordinary silence and the
//! Alive→Suspect→Dead machine needs no extra connection states.
//! Everything is tick-driven — no clocks — so the whole agent stays
//! inside the nondeterminism audit's det-reachable set.

use crate::frame::{decode_frame, encode_frame, DecodeError, Frame};
use crate::transport::{Link, SendStatus, TransportError};
use zerosum_core::NodeAggregate;

/// Ticks between retransmissions of an unacked aggregate.
const RETRANSMIT_TICKS: u32 = 2;
/// First reconnect backoff, ticks.
const INITIAL_BACKOFF_TICKS: u32 = 1;
/// Backoff ceiling, ticks (doubles per failed attempt up to this).
const MAX_BACKOFF_TICKS: u32 = 16;

/// Everything the agent counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AgentStats {
    /// Frames handed to the link successfully.
    pub frames_tx: u64,
    /// Heartbeats sent.
    pub heartbeats_tx: u64,
    /// Per-LWP detail frames shed (window full or link down).
    pub details_shed: u64,
    /// Per-LWP detail frames sent.
    pub details_tx: u64,
    /// Successful reconnects after a tear.
    pub reconnects: u64,
    /// Failed reconnect attempts (each doubles the backoff).
    pub failed_connects: u64,
    /// Hello frames sent beyond the first (lost-Hello recovery).
    pub hello_retx: u64,
    /// Aggregate frames sent beyond the first.
    pub agg_retx: u64,
    /// Acks received.
    pub acks_rx: u64,
    /// Corrupt inbound frames (acks are retransmission-safe).
    pub decode_errors: u64,
}

/// Reconnect backoff: the agent is down and waiting.
#[derive(Debug, Clone, Copy)]
struct Backoff {
    /// Ticks until the next connect attempt.
    wait: u32,
    /// Current interval (doubles per failure, capped).
    interval: u32,
}

/// One node's streaming agent over a [`Link`].
#[derive(Debug)]
pub struct NodeAgent<L: Link> {
    link: L,
    hostname: String,
    hello_acked: bool,
    hellos_sent: u64,
    /// The end-of-run aggregate awaiting delivery: `(round, agg)`.
    pending_agg: Option<(u64, NodeAggregate)>,
    agg_sends: u64,
    agg_acked: bool,
    ticks_since_agg_send: u32,
    backoff: Option<Backoff>,
    rx_buf: Vec<u8>,
    scratch: Vec<u8>,
    /// Counters.
    pub stats: AgentStats,
}

impl<L: Link> NodeAgent<L> {
    /// An agent for `hostname` over `link`.
    pub fn new(link: L, hostname: impl Into<String>) -> Self {
        NodeAgent {
            link,
            hostname: hostname.into(),
            hello_acked: false,
            hellos_sent: 0,
            pending_agg: None,
            agg_sends: 0,
            agg_acked: false,
            ticks_since_agg_send: 0,
            backoff: None,
            rx_buf: Vec::new(),
            scratch: Vec::new(),
            stats: AgentStats::default(),
        }
    }

    /// The underlying link.
    pub fn link(&self) -> &L {
        &self.link
    }

    /// The underlying link. The allocation chaos driver ticks it while
    /// the node itself is down, so the network's clock keeps running;
    /// nothing else needs it.
    pub fn link_mut(&mut self) -> &mut L {
        &mut self.link
    }

    /// True while the agent is in reconnect backoff (sending nothing).
    pub fn is_down(&self) -> bool {
        self.backoff.is_some()
    }

    /// True once the pending aggregate (if any) has been acked.
    pub fn done(&self) -> bool {
        self.pending_agg.is_none() || self.agg_acked
    }

    /// Opens round `round` (1-based): re-Hello if unacked, then the
    /// round's heartbeat stamped with the node's sample time `t_s`.
    pub fn begin_round(&mut self, round: u64, t_s: f64) {
        if self.backoff.is_some() {
            return;
        }
        if !self.hello_acked {
            let hello = Frame::Hello {
                hostname: self.hostname.clone(),
            };
            if self.send(&hello) == SendOutcome::Sent {
                if self.hellos_sent > 0 {
                    self.stats.hello_retx += 1;
                }
                self.hellos_sent += 1;
            }
            if self.backoff.is_some() {
                return;
            }
        }
        if self.send(&Frame::Heartbeat { round, t_s }) == SendOutcome::Sent {
            self.stats.heartbeats_tx += 1;
        }
    }

    /// Offers one per-LWP detail sample; shed (not queued, not
    /// retried) when the window is full or the link is down.
    pub fn send_detail(&mut self, round: u64, tid: u32, busy_pct: f64) {
        if self.backoff.is_some() {
            self.stats.details_shed += 1;
            return;
        }
        match self.send(&Frame::LwpDetail {
            round,
            tid,
            busy_pct,
        }) {
            SendOutcome::Sent => self.stats.details_tx += 1,
            SendOutcome::WindowFull | SendOutcome::Down => self.stats.details_shed += 1,
        }
    }

    /// Hands over the end-of-run aggregate; [`NodeAgent::tick`]
    /// transmits and retransmits it until the collector acks.
    pub fn finish(&mut self, round: u64, agg: NodeAggregate) {
        self.pending_agg = Some((round, agg));
        self.agg_acked = false;
        self.agg_sends = 0;
        // Send eagerly on the next tick.
        self.ticks_since_agg_send = RETRANSMIT_TICKS;
    }

    /// Advances one tick: backoff countdown / reconnect attempt,
    /// inbound acks, aggregate (re)transmission, and last the link
    /// machinery — the link tick is the flush, so everything queued
    /// since the previous tick (this tick's aggregate included) is on
    /// the wire when the call returns. Exactly one link tick per call,
    /// none while in backoff: fault plans count link ticks.
    pub fn tick(&mut self) {
        if let Some(mut b) = self.backoff {
            b.wait = b.wait.saturating_sub(1);
            if b.wait > 0 {
                self.backoff = Some(b);
                return;
            }
            match self.link.connect() {
                Ok(()) => {
                    self.backoff = None;
                    self.stats.reconnects += 1;
                    // A reconnect is a new stream: the collector's view
                    // of this conn restarts at Hello.
                    self.hello_acked = false;
                    self.rx_buf.clear();
                }
                Err(_) => {
                    self.stats.failed_connects += 1;
                    b.interval = (b.interval * 2).min(MAX_BACKOFF_TICKS);
                    b.wait = b.interval;
                    self.backoff = Some(b);
                    return;
                }
            }
        }
        self.pump_acks();
        if self.backoff.is_none() {
            self.offer_aggregate();
        }
        self.link.tick();
    }

    /// Sends the pending aggregate when it is unacked and due.
    fn offer_aggregate(&mut self) {
        self.ticks_since_agg_send = self.ticks_since_agg_send.saturating_add(1);
        if self.agg_acked || self.ticks_since_agg_send < RETRANSMIT_TICKS {
            return;
        }
        let frame = match &self.pending_agg {
            Some((round, agg)) => Frame::Aggregate {
                round: *round,
                agg: agg.clone(),
            },
            None => return,
        };
        if self.send(&frame) == SendOutcome::Sent {
            if self.agg_sends > 0 {
                self.stats.agg_retx += 1;
            }
            self.agg_sends += 1;
            self.ticks_since_agg_send = 0;
        }
    }

    /// Drains inbound acks.
    fn pump_acks(&mut self) {
        match self.link.recv_bytes(&mut self.rx_buf) {
            Ok(_) => {}
            Err(_) => {
                self.enter_backoff();
                return;
            }
        }
        let mut consumed = 0usize;
        loop {
            let decoded = {
                let rest = self.rx_buf.get(consumed..).unwrap_or(&[]);
                if rest.is_empty() {
                    break;
                }
                decode_frame(rest)
            };
            match decoded {
                Ok((frame, n)) => {
                    consumed += n;
                    if let Frame::Ack { round } = frame {
                        self.stats.acks_rx += 1;
                        if round == 0 {
                            self.hello_acked = true;
                        } else if self.pending_agg.as_ref().is_some_and(|(r, _)| *r == round) {
                            self.agg_acked = true;
                        }
                    }
                }
                Err(DecodeError::Incomplete { .. }) => break,
                Err(_) => {
                    self.stats.decode_errors += 1;
                    consumed = self.rx_buf.len();
                    break;
                }
            }
        }
        if consumed > 0 {
            self.rx_buf.drain(..consumed);
        }
    }

    /// Encodes and sends one frame, folding a tear into backoff.
    fn send(&mut self, frame: &Frame) -> SendOutcome {
        self.scratch.clear();
        if encode_frame(frame, &mut self.scratch).is_err() {
            return SendOutcome::Down;
        }
        match self.link.send_bytes(&self.scratch) {
            Ok(SendStatus::Sent) => {
                self.stats.frames_tx += 1;
                SendOutcome::Sent
            }
            Ok(SendStatus::WindowFull) => SendOutcome::WindowFull,
            Err(TransportError::Disconnected) | Err(TransportError::Io(_)) => {
                self.enter_backoff();
                SendOutcome::Down
            }
        }
    }

    fn enter_backoff(&mut self) {
        if self.backoff.is_none() {
            self.backoff = Some(Backoff {
                wait: INITIAL_BACKOFF_TICKS,
                interval: INITIAL_BACKOFF_TICKS,
            });
        }
        self.hello_acked = false;
    }
}

/// What happened to one offered frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SendOutcome {
    Sent,
    WindowFull,
    Down,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultyLink, LinkFaultPlan};
    use crate::frame::frame_bytes;
    use crate::transport::in_proc_pair;

    fn agg(host: &str, nvcsw: u64) -> NodeAggregate {
        NodeAggregate {
            hostname: host.to_string(),
            ranks: 1,
            lwps: 3,
            mean_user_pct: 77.0,
            mean_idle_pct: 20.0,
            total_nvcsw: nvcsw,
            rss_kib: 4096,
        }
    }

    #[test]
    fn heartbeat_outranks_detail_under_backpressure() {
        // Window of 2: hello + heartbeat fill it on round 1.
        let (agent_end, _coll_end) = in_proc_pair(2);
        let mut agent = NodeAgent::new(agent_end, "n");
        agent.begin_round(1, 0.1);
        for t in 0..4 {
            agent.send_detail(1, t, 50.0);
        }
        assert_eq!(agent.stats.heartbeats_tx, 1);
        assert_eq!(agent.stats.details_tx, 0);
        assert_eq!(agent.stats.details_shed, 4);
    }

    #[test]
    fn hello_is_resent_until_acked() {
        let (agent_end, mut coll_end) = in_proc_pair(8);
        let mut agent = NodeAgent::new(agent_end, "n");
        agent.begin_round(1, 0.1);
        agent.begin_round(2, 0.2);
        assert_eq!(agent.stats.hello_retx, 1, "no ack yet: hello resent");
        coll_end
            .send_bytes(&frame_bytes(&Frame::Ack { round: 0 }).unwrap())
            .unwrap();
        agent.tick();
        agent.begin_round(3, 0.3);
        assert_eq!(agent.stats.hello_retx, 1, "acked: no more hellos");
    }

    #[test]
    fn aggregate_retransmits_until_acked() {
        let (agent_end, mut coll_end) = in_proc_pair(8);
        let mut agent = NodeAgent::new(agent_end, "n");
        agent.finish(5, agg("n", 1));
        for _ in 0..6 {
            agent.tick();
        }
        assert!(!agent.done());
        assert!(agent.stats.agg_retx >= 1, "{:?}", agent.stats);
        // Drain what arrived and ack round 5.
        let mut sink = Vec::new();
        coll_end.recv_bytes(&mut sink).unwrap();
        coll_end
            .send_bytes(&frame_bytes(&Frame::Ack { round: 5 }).unwrap())
            .unwrap();
        agent.tick();
        assert!(agent.done());
        let before = agent.stats.agg_retx;
        for _ in 0..4 {
            agent.tick();
        }
        assert_eq!(agent.stats.agg_retx, before, "acked: no more sends");
    }

    #[test]
    fn one_tick_ships_the_aggregate_and_the_next_sees_its_ack() {
        use crate::collector::Collector;
        let (agent_end, coll_end) = in_proc_pair(8);
        let mut agent = NodeAgent::new(agent_end, "n");
        let mut collector = Collector::new();
        collector.add_link(Box::new(coll_end));
        agent.begin_round(1, 0.1);
        agent.finish(1, agg("n", 9));
        agent.tick();
        collector.pump_frames();
        assert_eq!(collector.wire_aggregates(), vec![agg("n", 9)]);
        agent.tick();
        assert!(agent.done());
        assert_eq!(agent.stats.agg_retx, 0);
        assert_eq!(agent.stats.acks_rx, 2, "hello ack + aggregate ack");
    }

    #[test]
    fn every_agent_tick_outside_backoff_is_exactly_one_link_tick() {
        // Fault plans count link ticks: a kill at link tick 3 must fire
        // on the third agent tick whatever else those ticks did.
        let (agent_end, _coll) = in_proc_pair(8);
        let faulty = FaultyLink::new(
            agent_end,
            LinkFaultPlan {
                seed: 8,
                kill_at: Some(3),
                ..Default::default()
            },
        );
        let mut agent = NodeAgent::new(faulty, "n");
        agent.finish(1, agg("n", 1));
        agent.tick(); // sends the aggregate
        agent.tick(); // idle
        assert!(!agent.link().stats.killed);
        agent.tick(); // retransmits
        assert!(agent.link().stats.killed, "third agent tick = link tick 3");
    }

    #[test]
    fn tear_enters_backoff_and_reconnect_doubles_until_success() {
        let (agent_end, _coll) = in_proc_pair(8);
        // Kill at tick 1000 never fires; disconnect tears at frame 0.
        let faulty = FaultyLink::new(
            agent_end,
            LinkFaultPlan {
                seed: 8,
                disconnect_at: Some(0),
                ..Default::default()
            },
        );
        let mut agent = NodeAgent::new(faulty, "n");
        agent.begin_round(1, 0.1);
        assert!(agent.is_down(), "tear on first send enters backoff");
        // Round 2 while down: nothing sent, heartbeat silence.
        agent.begin_round(2, 0.2);
        assert_eq!(agent.stats.heartbeats_tx, 0);
        agent.tick(); // backoff expires → reconnect succeeds
        assert!(!agent.is_down());
        assert_eq!(agent.stats.reconnects, 1);
        agent.begin_round(3, 0.3);
        assert_eq!(agent.stats.heartbeats_tx, 1, "flow restored");
        // The torn Hello never reached the wire, so the post-reconnect
        // Hello is the first (and only) one actually sent.
        assert_eq!(agent.stats.hello_retx, 0);
        assert_eq!(agent.stats.frames_tx, 2, "hello + heartbeat");
    }

    #[test]
    fn permanently_killed_link_backs_off_exponentially_forever() {
        let (agent_end, _coll) = in_proc_pair(8);
        let faulty = FaultyLink::new(
            agent_end,
            LinkFaultPlan {
                seed: 8,
                kill_at: Some(1),
                ..Default::default()
            },
        );
        let mut agent = NodeAgent::new(faulty, "n");
        agent.tick(); // tick 1: kill fires
        agent.begin_round(1, 0.1); // send fails → backoff
        assert!(agent.is_down());
        for _ in 0..200 {
            agent.tick();
        }
        assert!(agent.is_down(), "a killed link never comes back");
        assert!(agent.stats.failed_connects >= 4);
        assert_eq!(agent.stats.reconnects, 0);
        // Backoff doubling is capped: 200 ticks at a 16-tick ceiling
        // means at least (200-31)/16 attempts but far fewer than 200.
        assert!(agent.stats.failed_connects < 40);
    }
}
