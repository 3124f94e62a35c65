//! The collector daemon core: drives [`ClusterMonitor`] supervision
//! rounds off frames received over any set of [`Link`]s.
//!
//! The collector is deliberately passive and bounded. Per round it
//! drains each node's link into a per-connection reassembly buffer and
//! decodes at most [`CollectorConfig::max_frames_per_node_per_round`]
//! frames from it — one babbling or stuck node can neither stall the
//! round nor starve its neighbours. A connection whose buffer exceeds
//! `MAX_BUFFERED_BYTES` stops being read until it drains, which fills
//! the sender's bounded window and pushes the backpressure to the
//! agent — whose overload discipline sheds per-LWP detail first, never
//! heartbeats.
//!
//! Corrupt input can only *lose* data, never wedge the daemon: any
//! non-`Incomplete` decode error counts, drops the connection's buffer
//! (frames re-align at the next queue boundary), and moves on. The
//! decode path is registered as a panic-reachability audit root, so
//! this loop is statically panic-free.
//!
//! Liveness is silence-based: a node in reconnect backoff simply stops
//! heartbeating and the existing Alive→Suspect→Dead machine does the
//! rest — connection state never grows a parallel state machine.
//! Heartbeats are judged against the expected time *of the round they
//! carry*, so a network-delayed frame does not masquerade as clock
//! skew.

use crate::frame::{decode_frame, encode_frame, DecodeError, Frame};
use crate::transport::{Link, SendStatus};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use zerosum_core::{ClusterMonitor, NodeAggregate};

/// Bounds and timing knobs of the collector loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectorConfig {
    /// Decode budget per connection per round.
    pub max_frames_per_node_per_round: usize,
    /// Monitoring period, seconds — maps a heartbeat's round number to
    /// its expected sample time for clock-skew judgement.
    pub period_s: f64,
}

/// Reassembly-buffer cap per connection; a connection over the cap is
/// not read until it drains (backpressure to the agent).
const MAX_BUFFERED_BYTES: usize = 256 * 1024;

/// Pumps a connection may sit on the *same* incomplete head frame
/// before its buffer is dropped. A corrupted length prefix whose magic
/// and version survived intact claims a plausible giant frame that
/// will never complete; this deadline unwedges the stream (the sender
/// retransmits anything that mattered).
const MAX_HEADER_STALLS: u32 = 8;

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            max_frames_per_node_per_round: 64,
            period_s: 0.1,
        }
    }
}

/// Everything the collector counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectorStats {
    /// Frames decoded successfully.
    pub frames_rx: u64,
    /// Hello frames.
    pub hellos_rx: u64,
    /// Heartbeat frames.
    pub heartbeats_rx: u64,
    /// Per-LWP detail frames.
    pub details_rx: u64,
    /// Aggregate frames.
    pub aggregates_rx: u64,
    /// Bye frames.
    pub byes_rx: u64,
    /// Acks sent.
    pub acks_tx: u64,
    /// Acks the ack window refused (the agent retransmits).
    pub acks_dropped: u64,
    /// Corrupt frames rejected by the decoder.
    pub decode_errors: u64,
    /// Buffer drops forced by decode errors.
    pub resyncs: u64,
    /// Frames needing a hostname that arrived before any Hello.
    pub orphan_frames: u64,
    /// Reads skipped because a connection buffer was over its cap.
    pub throttled_reads: u64,
    /// Frame-budget exhaustions (a node had more frames than one
    /// round's decode budget).
    pub budget_exhausted: u64,
    /// Buffers dropped by the header-stall deadline (a phantom frame
    /// head that never completed).
    pub header_timeouts: u64,
}

/// One node connection: its link, reassembly buffer, and identity.
struct NodeConn {
    link: Box<dyn Link>,
    buf: Vec<u8>,
    hostname: Option<String>,
    scratch: Vec<u8>,
    /// Consecutive pumps spent on the same undecodable buffer head.
    stalled: u32,
}

/// The collector daemon state. Owns the supervision-side
/// [`ClusterMonitor`] and the per-node aggregates delivered so far.
pub struct Collector {
    cluster: ClusterMonitor,
    conns: Vec<NodeConn>,
    /// Latest aggregate per hostname: `(round, aggregate)`.
    aggs: BTreeMap<String, (u64, NodeAggregate)>,
    /// Collector configuration.
    pub cfg: CollectorConfig,
    /// Counters.
    pub stats: CollectorStats,
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

impl Collector {
    /// An empty collector with default bounds.
    pub fn new() -> Self {
        Collector::with_config(CollectorConfig::default())
    }

    /// An empty collector with explicit bounds.
    pub fn with_config(cfg: CollectorConfig) -> Self {
        Collector {
            cluster: ClusterMonitor::new(),
            conns: Vec::new(),
            aggs: BTreeMap::new(),
            cfg,
            stats: CollectorStats::default(),
        }
    }

    /// Registers a node for supervision before (or whether or not) it
    /// ever says Hello — a node whose Hello is lost forever must still
    /// be declared DEAD, not forgotten.
    pub fn expect_node(&mut self, hostname: &str) {
        self.cluster.register_node(hostname);
    }

    /// Adds a node connection.
    pub fn add_link(&mut self, link: Box<dyn Link>) {
        self.conns.push(NodeConn {
            link,
            buf: Vec::new(),
            hostname: None,
            scratch: Vec::new(),
            stalled: 0,
        });
    }

    /// The supervision-side cluster view.
    pub fn cluster(&self) -> &ClusterMonitor {
        &self.cluster
    }

    /// Aggregates delivered over the wire so far, ordered by hostname.
    pub fn wire_aggregates(&self) -> Vec<NodeAggregate> {
        self.aggs.values().map(|(_, a)| a.clone()).collect()
    }

    /// Drives one supervision round: pump frames, then close the round
    /// against the heartbeat deadline.
    pub fn run_round(&mut self) {
        self.cluster.begin_round();
        self.pump_frames();
        self.cluster.end_round();
    }

    /// `(quorum, total)` of the supervised node set.
    pub fn quorum(&self) -> (usize, usize) {
        self.cluster.quorum()
    }

    /// Drains every connection and dispatches up to the per-node frame
    /// budget. Also used bare during the end-of-run drain, when no
    /// more supervision rounds are being opened.
    pub fn pump_frames(&mut self) {
        let budget = self.cfg.max_frames_per_node_per_round;
        let period_s = self.cfg.period_s;
        for conn in &mut self.conns {
            if conn.buf.len() >= MAX_BUFFERED_BYTES {
                self.stats.throttled_reads += 1;
            } else {
                // A down link is simply silence; reconnects are the
                // agent's job and death is the deadline's job.
                let _ = conn.link.recv_bytes(&mut conn.buf);
            }
            let mut used = 0usize;
            let mut consumed = 0usize;
            loop {
                if used >= budget {
                    self.stats.budget_exhausted += 1;
                    break;
                }
                let decoded = {
                    let rest = conn.buf.get(consumed..).unwrap_or(&[]);
                    if rest.is_empty() {
                        break;
                    }
                    decode_frame(rest)
                };
                match decoded {
                    Ok((frame, n)) => {
                        consumed += n;
                        used += 1;
                        self.stats.frames_rx += 1;
                        dispatch_frame(
                            &mut self.cluster,
                            &mut self.aggs,
                            &mut self.stats,
                            conn,
                            period_s,
                            frame,
                        );
                    }
                    Err(DecodeError::Incomplete { .. }) => break,
                    Err(_) => {
                        // Corrupt at the head: drop the whole buffer.
                        // Upstream queues are frame-granular, so the
                        // stream re-aligns at the next arrival.
                        self.stats.decode_errors += 1;
                        self.stats.resyncs += 1;
                        consumed = conn.buf.len();
                        break;
                    }
                }
            }
            if consumed > 0 {
                conn.buf.drain(..consumed);
            }
            // Header-stall deadline: a non-empty buffer whose head made
            // no progress this pump is waiting on a frame tail. A real
            // tail arrives within a pump or two; a phantom one (length
            // prefix corrupted under an intact magic/version) never
            // does, so after the deadline the buffer is dropped and the
            // stream re-aligns at the next queue boundary.
            if consumed == 0 && used == 0 && !conn.buf.is_empty() {
                conn.stalled += 1;
                if conn.stalled >= MAX_HEADER_STALLS {
                    self.stats.header_timeouts += 1;
                    self.stats.resyncs += 1;
                    conn.buf.clear();
                    conn.stalled = 0;
                }
            } else {
                conn.stalled = 0;
            }
            // Last, so the acks dispatched above leave in this pump:
            // the link tick is the flush, and an ack that waited for
            // the next pump would cost the agent a retransmission.
            conn.link.tick();
        }
    }

    /// Renders the allocation summary from wire-delivered aggregates,
    /// with the supervision markers appended — the streamed counterpart
    /// of [`ClusterMonitor::render_summary`].
    pub fn render_summary(&self) -> String {
        let mut out = String::from("Allocation Summary (wire):\n");
        let aggs = self.wire_aggregates();
        writeln!(
            out,
            "{:<16} {:>5} {:>5} {:>8} {:>8} {:>12} {:>10}",
            "node", "ranks", "LWPs", "user%", "idle%", "nv_ctx", "RSS(GiB)"
        )
        .unwrap();
        for a in &aggs {
            writeln!(
                out,
                "{:<16} {:>5} {:>5} {:>8.2} {:>8.2} {:>12} {:>10.2}",
                a.hostname,
                a.ranks,
                a.lwps,
                a.mean_user_pct,
                a.mean_idle_pct,
                a.total_nvcsw,
                a.rss_kib as f64 / (1024.0 * 1024.0)
            )
            .unwrap();
        }
        let (k, n) = self.cluster.quorum();
        writeln!(
            out,
            "LIVE: {k}/{n} node(s), {} aggregate(s) delivered, {} heartbeat(s) received",
            aggs.len(),
            self.stats.heartbeats_rx
        )
        .unwrap();
        out.push_str(&self.cluster.render_markers());
        out
    }
}

/// Applies one decoded frame to the collector state. A free function
/// over split borrows so the pump loop can hold the connection and the
/// cluster mutably at once, with no indexing on the panic-audited path.
fn dispatch_frame(
    cluster: &mut ClusterMonitor,
    aggs: &mut BTreeMap<String, (u64, NodeAggregate)>,
    stats: &mut CollectorStats,
    conn: &mut NodeConn,
    period_s: f64,
    frame: Frame,
) {
    match frame {
        Frame::Hello { hostname } => {
            stats.hellos_rx += 1;
            cluster.register_node(hostname.clone());
            conn.hostname = Some(hostname);
            send_ack(conn, stats, 0);
        }
        Frame::Heartbeat { round, t_s } => {
            stats.heartbeats_rx += 1;
            // Judge skew against the expected time of the round the
            // heartbeat *claims*, so network delay is not skew.
            let expected = round as f64 * period_s;
            match conn.hostname.clone() {
                Some(host) => cluster.heartbeat_at(&host, t_s, expected),
                None => stats.orphan_frames += 1,
            }
        }
        Frame::LwpDetail { .. } => {
            stats.details_rx += 1;
        }
        Frame::Aggregate { round, agg } => {
            stats.aggregates_rx += 1;
            // Aggregates carry their own identity and are idempotent:
            // a retransmit overwrites with equal data.
            cluster.register_node(agg.hostname.clone());
            aggs.insert(agg.hostname.clone(), (round, agg));
            send_ack(conn, stats, round);
        }
        Frame::Bye => {
            stats.byes_rx += 1;
        }
        // Acks are collector → node; one arriving here is just noise
        // from a confused peer, already counted in frames_rx.
        Frame::Ack { .. } => {}
    }
}

/// Sends an ack; a refused or failed send is fine — the agent
/// retransmits whatever the ack covered.
fn send_ack(conn: &mut NodeConn, stats: &mut CollectorStats, round: u64) {
    conn.scratch.clear();
    if encode_frame(&Frame::Ack { round }, &mut conn.scratch).is_err() {
        return;
    }
    match conn.link.send_bytes(&conn.scratch) {
        Ok(SendStatus::Sent) => stats.acks_tx += 1,
        Ok(SendStatus::WindowFull) | Err(_) => stats.acks_dropped += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::NodeAgent;
    use crate::frame::frame_bytes;
    use crate::transport::{in_proc_pair, Link};
    use zerosum_core::NodeState;

    fn agg(host: &str) -> NodeAggregate {
        NodeAggregate {
            hostname: host.to_string(),
            ranks: 1,
            lwps: 2,
            mean_user_pct: 90.5,
            mean_idle_pct: 8.25,
            total_nvcsw: 42,
            rss_kib: 1024,
        }
    }

    #[test]
    fn hello_heartbeat_aggregate_flow_end_to_end() {
        let (agent_end, coll_end) = in_proc_pair(8);
        let mut collector = Collector::new();
        collector.expect_node("node-a");
        collector.add_link(Box::new(coll_end));
        let mut agent = NodeAgent::new(agent_end, "node-a");
        for r in 1..=4u64 {
            agent.begin_round(r, r as f64 * 0.1);
            collector.run_round();
            // Tick after the round so the Hello ack is consumed before
            // the next round opens.
            agent.tick();
        }
        assert_eq!(collector.quorum(), (1, 1));
        assert_eq!(collector.cluster().node_state("node-a"), NodeState::Alive);
        assert_eq!(collector.stats.heartbeats_rx, 4);
        assert_eq!(collector.stats.hellos_rx, 1, "hello acked, sent once");
        agent.finish(4, agg("node-a"));
        for _ in 0..8 {
            agent.tick();
            collector.pump_frames();
        }
        assert!(agent.done());
        assert_eq!(collector.wire_aggregates(), vec![agg("node-a")]);
        let summary = collector.render_summary();
        assert!(summary.contains("node-a"), "{summary}");
        assert!(!summary.contains("DEGRADED"), "{summary}");
    }

    #[test]
    fn silent_node_is_declared_dead_and_summary_says_so() {
        let (_agent_end, coll_end) = in_proc_pair(8);
        let mut collector = Collector::new();
        collector.expect_node("ghost");
        collector.add_link(Box::new(coll_end));
        for _ in 0..5 {
            collector.run_round();
        }
        assert_eq!(collector.cluster().node_state("ghost"), NodeState::Dead);
        assert_eq!(collector.quorum(), (0, 1));
        let s = collector.render_summary();
        assert!(s.contains("DEGRADED (0/1 nodes)"), "{s}");
        assert!(s.contains("DEAD: node ghost"), "{s}");
    }

    #[test]
    fn corrupt_bytes_count_and_resync_instead_of_wedging() {
        let (mut raw, coll_end) = in_proc_pair(8);
        let mut collector = Collector::new();
        collector.add_link(Box::new(coll_end));
        // A garbage blob with a plausible length prefix.
        let mut evil = 9u32.to_be_bytes().to_vec();
        evil.extend_from_slice(b"XXXXXXXXX");
        raw.send_bytes(&evil).unwrap();
        // A valid frame behind it in the same queue.
        raw.send_bytes(
            &frame_bytes(&Frame::Hello {
                hostname: "n".into(),
            })
            .unwrap(),
        )
        .unwrap();
        collector.run_round();
        assert_eq!(collector.stats.decode_errors, 1);
        assert_eq!(collector.stats.resyncs, 1);
        // The resync dropped the buffer — including the good frame that
        // shared it — but the *next* arrival decodes cleanly.
        raw.send_bytes(
            &frame_bytes(&Frame::Hello {
                hostname: "n".into(),
            })
            .unwrap(),
        )
        .unwrap();
        collector.run_round();
        assert_eq!(collector.stats.hellos_rx, 1);
    }

    #[test]
    fn corrupted_length_prefix_cannot_wedge_the_stream() {
        let (mut raw, coll_end) = in_proc_pair(64);
        let mut collector = Collector::new();
        collector.add_link(Box::new(coll_end));
        // A frame whose length prefix was inflated in flight but whose
        // magic and version survived: it claims kilobytes that will
        // never arrive, so the head can never complete.
        let good = frame_bytes(&Frame::Heartbeat { round: 1, t_s: 0.1 }).unwrap();
        let inflated = ((good.len() - 4 + 4_000) as u32).to_be_bytes();
        let mut evil: Vec<u8> = inflated.to_vec();
        evil.extend_from_slice(good.get(4..).unwrap_or(&[]));
        raw.send_bytes(&evil).unwrap();
        // An intact frame queued behind the phantom head.
        raw.send_bytes(
            &frame_bytes(&Frame::Hello {
                hostname: "n".into(),
            })
            .unwrap(),
        )
        .unwrap();
        for _ in 0..MAX_HEADER_STALLS {
            collector.pump_frames();
            assert_eq!(collector.stats.hellos_rx, 0, "wedged behind the phantom");
        }
        assert_eq!(collector.stats.header_timeouts, 1, "deadline fired");
        // The stream re-aligned: the next arrival decodes cleanly.
        raw.send_bytes(
            &frame_bytes(&Frame::Hello {
                hostname: "n".into(),
            })
            .unwrap(),
        )
        .unwrap();
        collector.pump_frames();
        assert_eq!(collector.stats.hellos_rx, 1);
    }

    #[test]
    fn orphan_heartbeats_are_counted_not_attributed() {
        let (mut raw, coll_end) = in_proc_pair(8);
        let mut collector = Collector::new();
        collector.expect_node("n");
        collector.add_link(Box::new(coll_end));
        raw.send_bytes(&frame_bytes(&Frame::Heartbeat { round: 1, t_s: 0.1 }).unwrap())
            .unwrap();
        collector.run_round();
        assert_eq!(collector.stats.orphan_frames, 1);
        assert_eq!(collector.stats.heartbeats_rx, 1);
        // No hello ⇒ no attribution ⇒ the deadline still counts down.
        for _ in 0..4 {
            collector.run_round();
        }
        assert_eq!(collector.cluster().node_state("n"), NodeState::Dead);
    }

    #[test]
    fn frame_budget_bounds_one_round_of_a_babbling_node() {
        let (mut raw, coll_end) = in_proc_pair(1024);
        let mut collector = Collector::with_config(CollectorConfig {
            max_frames_per_node_per_round: 8,
            ..CollectorConfig::default()
        });
        collector.add_link(Box::new(coll_end));
        let beat = frame_bytes(&Frame::LwpDetail {
            round: 1,
            tid: 1,
            busy_pct: 1.0,
        })
        .unwrap();
        for _ in 0..20 {
            raw.send_bytes(&beat).unwrap();
        }
        collector.run_round();
        assert_eq!(collector.stats.frames_rx, 8, "budget caps the round");
        assert_eq!(collector.stats.budget_exhausted, 1);
        collector.run_round();
        collector.run_round();
        assert_eq!(collector.stats.frames_rx, 20, "backlog drains later");
    }
}
