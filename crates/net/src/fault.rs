//! Seeded fault plans for allocation chaos, one level above the
//! per-read `zerosum-proc::fault` injector: a [`TransportFaultPlan`]
//! for every node's link and an [`AllocationFaultPlan`] for every node
//! itself. Both are pure functions of their seed, drawn from one
//! `xorshift` stream, so chaos failures replay exactly.
//!
//! [`FaultyLink`] applies one node's [`LinkFaultPlan`] uniformly to
//! *any* [`Link`] backend — the in-process pipe and the TCP stream see
//! exactly the same chaos. Link faults operate on whole encoded frames
//! at the sending endpoint: drop, single-byte corruption (caught by the
//! frame checksum), truncation, tick-delayed delivery, reorder (hold
//! one frame back past its successor), a reconnectable mid-stream
//! disconnect, a two-way partition window (sends black-holed, half-open
//! style), and a permanent kill after which `connect` never succeeds
//! again.
//!
//! A [`NodeFaultPlan`] — a kill, a straggler stall, a delayed rejoin or
//! clock skew, in units of monitoring rounds — is applied at the node's
//! agent by the allocation chaos driver
//! (`zerosum-experiments::transport_chaos`), round by round, beside the
//! node's link plan. The collector's supervision must keep producing
//! allocation reports (with explicit `DEGRADED (k/n nodes)` markers) no
//! matter what the plans do.

use crate::transport::{Link, SendStatus, TransportError};

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// What happens to one node's link over a run. Percentages are per
/// outbound frame; ticks are the driver's [`Link::tick`] steps.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LinkFaultPlan {
    /// Seed of this link's private fault stream.
    pub seed: u64,
    /// Chance an outbound frame silently vanishes, percent.
    pub drop_pct: u8,
    /// Chance a frame has one byte flipped in flight, percent.
    pub corrupt_pct: u8,
    /// Chance a frame loses its tail bytes in flight, percent.
    pub truncate_pct: u8,
    /// Chance a frame is held for [`LinkFaultPlan::delay_ticks`], percent.
    pub delay_pct: u8,
    /// How long a delayed frame is held, ticks.
    pub delay_ticks: u32,
    /// Chance a frame is delivered *after* its successor, percent.
    pub reorder_pct: u8,
    /// Outbound frame index at which the link tears down once
    /// (reconnectable — exercises the agent's backoff).
    pub disconnect_at: Option<u64>,
    /// Tick window `[start, end)` during which the link is partitioned:
    /// sends are black-holed (the sender still sees success — a
    /// half-open connection) and nothing is received.
    pub partition: Option<(u64, u64)>,
    /// Tick at which the link dies permanently: every send/recv fails
    /// and `connect` never succeeds again. The node must end DEAD.
    pub kill_at: Option<u64>,
}

impl LinkFaultPlan {
    /// A fault-free link.
    pub fn none() -> Self {
        LinkFaultPlan::default()
    }

    /// True if this plan injects any fault at all (a seed alone, which
    /// only drives the dice, is not one).
    pub fn is_faulty(&self) -> bool {
        LinkFaultPlan {
            seed: 0,
            ..self.clone()
        } != LinkFaultPlan::none()
    }
}

/// A fault plan for every node link of an allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportFaultPlan {
    /// Per-node link plans, indexed like the node list.
    pub links: Vec<LinkFaultPlan>,
}

impl TransportFaultPlan {
    /// A plan with no faults on any link.
    pub fn clean(node_count: usize) -> Self {
        TransportFaultPlan {
            links: vec![LinkFaultPlan::none(); node_count],
        }
    }

    /// Generates a seeded plan over `node_count` links for a run of
    /// `rounds` rounds at `ticks_per_round` ticks each. Node 0 always
    /// has a clean link (the differential baseline), at least one other
    /// link is faulted whenever `node_count > 1`, and at most one link
    /// is killed so the quorum never collapses.
    pub fn generate(seed: u64, node_count: usize, rounds: u32, ticks_per_round: u64) -> Self {
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for _ in 0..3 {
            xorshift(&mut rng);
        }
        let total_ticks = u64::from(rounds) * ticks_per_round;
        let mut links = vec![LinkFaultPlan::none(); node_count];
        let mut any_fault = false;
        let mut killed = false;
        for (i, plan) in links.iter_mut().enumerate().skip(1) {
            plan.seed = xorshift(&mut rng) | 1;
            let force = !any_fault && i == node_count - 1;
            let draw = xorshift(&mut rng) % 100;
            // ~70% of links get a fault; the last link is forced when
            // nothing else was drawn so every generated plan is chaotic.
            if draw >= 70 && !force {
                continue;
            }
            any_fault = true;
            let mut kind = xorshift(&mut rng) % 4;
            if kind == 3 && killed {
                kind = 0;
            }
            match kind {
                0 => {
                    // Lossy link: every frame-level fault at once, at
                    // rates low enough that retransmission wins.
                    plan.drop_pct = 5 + (xorshift(&mut rng) % 20) as u8;
                    plan.corrupt_pct = 5 + (xorshift(&mut rng) % 15) as u8;
                    plan.truncate_pct = (xorshift(&mut rng) % 10) as u8;
                    plan.delay_pct = (xorshift(&mut rng) % 20) as u8;
                    plan.delay_ticks = 1 + (xorshift(&mut rng) % 6) as u32;
                    plan.reorder_pct = (xorshift(&mut rng) % 15) as u8;
                }
                1 => {
                    // One mid-stream disconnect: the agent must back
                    // off, reconnect, re-Hello, and retransmit.
                    let frames = u64::from(rounds).saturating_mul(3).max(4);
                    plan.disconnect_at = Some(2 + xorshift(&mut rng) % (frames / 2).max(1));
                    plan.drop_pct = (xorshift(&mut rng) % 10) as u8;
                }
                2 => {
                    // Partition long enough to cross the dead deadline,
                    // healed with enough run left to rejoin and deliver.
                    let span = total_ticks.max(8 * ticks_per_round);
                    let start = ticks_per_round + xorshift(&mut rng) % (span / 4).max(1);
                    let len = 5 * ticks_per_round + xorshift(&mut rng) % (span / 4).max(1);
                    let end = (start + len).min(total_ticks.saturating_sub(2 * ticks_per_round));
                    if end > start {
                        plan.partition = Some((start, end));
                    } else {
                        plan.drop_pct = 20;
                    }
                }
                _ => {
                    // Permanent kill, early enough that the collector
                    // declares the node dead before the run ends.
                    killed = true;
                    let latest = total_ticks.saturating_sub(6 * ticks_per_round).max(1);
                    plan.kill_at = Some(ticks_per_round + xorshift(&mut rng) % latest);
                }
            }
        }
        TransportFaultPlan { links }
    }

    /// Node indices whose links are never killed — the nodes whose
    /// wire-delivered aggregates must match the fault-free run exactly.
    pub fn survivors(&self) -> Vec<usize> {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, p)| p.kill_at.is_none())
            .map(|(i, _)| i)
            .collect()
    }
}

/// What happens to one node over a monitored run, in units of
/// *monitoring rounds* (one round = one sampling period).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodeFaultPlan {
    /// Round at which the node dies (stops heartbeating entirely).
    pub kill_at: Option<u32>,
    /// Round at which a killed node rejoins (heartbeats resume). Only
    /// meaningful with `kill_at`; `None` means the node stays dead.
    pub rejoin_at: Option<u32>,
    /// Straggler window `[start, end)`: the node is alive but answers no
    /// heartbeats during these rounds (e.g. an OS jitter storm or a
    /// paging stall), then resumes on its own.
    pub stall: Option<(u32, u32)>,
    /// Constant clock skew the node applies to its reported sample
    /// timestamps, µs. Supervision counts rounds, not wall time, so skew
    /// must distort reports' time axes without killing the node.
    pub skew_us: i64,
}

impl NodeFaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        NodeFaultPlan::default()
    }

    /// True if this plan injects any fault at all.
    pub fn is_faulty(&self) -> bool {
        *self != NodeFaultPlan::none()
    }

    /// True if the node fails to heartbeat in `round` (killed and not
    /// yet rejoined, or inside a stall window).
    pub fn is_down(&self, round: u32) -> bool {
        if let Some(k) = self.kill_at {
            if round >= k && self.rejoin_at.is_none_or(|r| round < r) {
                return true;
            }
        }
        if let Some((s, e)) = self.stall {
            if (s..e).contains(&round) {
                return true;
            }
        }
        false
    }

    /// True if the node is down at some round but heartbeats again
    /// later — the delayed-rejoin case supervision must handle without
    /// double-counting the node.
    pub fn rejoins(&self) -> bool {
        (self.kill_at.is_some() && self.rejoin_at.is_some()) || self.stall.is_some()
    }
}

/// A fault plan for every node of an allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocationFaultPlan {
    /// Per-node plans, indexed like the allocation's node list.
    pub nodes: Vec<NodeFaultPlan>,
}

impl AllocationFaultPlan {
    /// A plan with no faults on any node.
    pub fn clean(node_count: usize) -> Self {
        AllocationFaultPlan {
            nodes: vec![NodeFaultPlan::none(); node_count],
        }
    }

    /// Generates a seeded plan over `node_count` nodes and `rounds`
    /// monitoring rounds. Node 0 is always fault-free (the rank-0 /
    /// aggregator node must survive for the differential baseline), and
    /// at least one other node is faulted whenever `node_count > 1`.
    pub fn generate(seed: u64, node_count: usize, rounds: u32) -> Self {
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        // Warm the stream so nearby seeds diverge.
        for _ in 0..3 {
            xorshift(&mut rng);
        }
        let mut nodes = vec![NodeFaultPlan::none(); node_count];
        let mut any_fault = false;
        for (i, plan) in nodes.iter_mut().enumerate().skip(1) {
            let force = !any_fault && i == node_count - 1;
            let draw = xorshift(&mut rng) % 100;
            // ~60% of nodes get a fault; the last node is forced when
            // nothing else was drawn so every generated plan is chaotic.
            if draw >= 60 && !force {
                continue;
            }
            any_fault = true;
            let kind = xorshift(&mut rng) % 4;
            let span = rounds.max(4);
            let at = 1 + (xorshift(&mut rng) % (span / 2).max(1) as u64) as u32;
            match kind {
                0 => {
                    // Permanent kill.
                    plan.kill_at = Some(at);
                }
                1 => {
                    // Kill with delayed rejoin.
                    let gap = 2 + (xorshift(&mut rng) % (span / 3).max(1) as u64) as u32;
                    plan.kill_at = Some(at);
                    plan.rejoin_at = Some(at + gap);
                }
                2 => {
                    // Straggler stall.
                    let len = 1 + (xorshift(&mut rng) % (span / 4).max(1) as u64) as u32;
                    plan.stall = Some((at, at + len));
                }
                _ => {
                    // Clock skew only: node stays up, its clock lies.
                    let mag = (xorshift(&mut rng) % 5_000_000) as i64 + 250_000;
                    plan.skew_us = if xorshift(&mut rng).is_multiple_of(2) {
                        mag
                    } else {
                        -mag
                    };
                }
            }
        }
        AllocationFaultPlan { nodes }
    }

    /// Node indices that never miss a heartbeat over `rounds` rounds —
    /// the survivor set a degraded run's aggregates must match exactly.
    pub fn survivors(&self, rounds: u32) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, p)| (0..rounds).all(|r| !p.is_down(r)))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Counters of everything a [`FaultyLink`] did to the stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkFaultStats {
    /// Frames silently dropped.
    pub dropped: u64,
    /// Frames with a byte flipped.
    pub corrupted: u64,
    /// Frames with their tail cut off.
    pub truncated: u64,
    /// Frames held for later delivery.
    pub delayed: u64,
    /// Frames delivered after their successor.
    pub reordered: u64,
    /// Frames black-holed inside a partition window.
    pub partitioned: u64,
    /// Mid-stream disconnects injected.
    pub disconnects: u64,
    /// True once the permanent kill fired.
    pub killed: bool,
}

/// Wraps any [`Link`] endpoint and applies a [`LinkFaultPlan`] to its
/// outbound frames (and its connectivity). Deterministic: the same
/// plan over the same send/tick sequence produces the same chaos.
#[derive(Debug)]
pub struct FaultyLink<L: Link> {
    inner: L,
    plan: LinkFaultPlan,
    rng: u64,
    now_tick: u64,
    frames_offered: u64,
    /// Frames held by the delay fault: `(release_tick, bytes)`.
    held_delayed: Vec<(u64, Vec<u8>)>,
    /// Frame held back by the reorder fault.
    held_reorder: Option<Vec<u8>>,
    /// Whether the one-shot disconnect already fired.
    disconnect_done: bool,
    /// What the wrapper did so far.
    pub stats: LinkFaultStats,
}

impl<L: Link> FaultyLink<L> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: L, plan: LinkFaultPlan) -> Self {
        let mut rng = plan.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for _ in 0..3 {
            xorshift(&mut rng);
        }
        FaultyLink {
            inner,
            plan,
            rng,
            now_tick: 0,
            frames_offered: 0,
            held_delayed: Vec::new(),
            held_reorder: None,
            disconnect_done: false,
            stats: LinkFaultStats::default(),
        }
    }

    /// The wrapped endpoint.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    fn killed(&self) -> bool {
        self.plan.kill_at.is_some_and(|k| self.now_tick >= k)
    }

    fn partitioned(&self) -> bool {
        self.plan
            .partition
            .is_some_and(|(s, e)| self.now_tick >= s && self.now_tick < e)
    }

    fn roll(&mut self, pct: u8) -> bool {
        pct > 0 && xorshift(&mut self.rng) % 100 < u64::from(pct)
    }

    /// Pushes `bytes` through the inner link, parking it back in the
    /// reorder slot if the window is full.
    fn deliver_held(&mut self, bytes: Vec<u8>) {
        match self.inner.send_bytes(&bytes) {
            Ok(SendStatus::Sent) => {}
            Ok(SendStatus::WindowFull) => self.held_reorder = Some(bytes),
            Err(_) => {}
        }
    }
}

impl<L: Link> Link for FaultyLink<L> {
    fn send_bytes(&mut self, frame: &[u8]) -> Result<SendStatus, TransportError> {
        if self.killed() {
            self.inner.shutdown();
            return Err(TransportError::Disconnected);
        }
        let idx = self.frames_offered;
        self.frames_offered += 1;
        if !self.disconnect_done && self.plan.disconnect_at == Some(idx) {
            self.disconnect_done = true;
            self.stats.disconnects += 1;
            self.inner.shutdown();
            return Err(TransportError::Disconnected);
        }
        if self.partitioned() {
            // Half-open: the sender sees success, the frame is gone.
            self.stats.partitioned += 1;
            return Ok(SendStatus::Sent);
        }
        if self.roll(self.plan.drop_pct) {
            self.stats.dropped += 1;
            return Ok(SendStatus::Sent);
        }
        let mut bytes = frame.to_vec();
        if self.roll(self.plan.corrupt_pct) && !bytes.is_empty() {
            let pos = (xorshift(&mut self.rng) as usize) % bytes.len();
            if let Some(b) = bytes.get_mut(pos) {
                *b ^= 1 << (xorshift(&mut self.rng) % 8);
            }
            self.stats.corrupted += 1;
        }
        if self.roll(self.plan.truncate_pct) && bytes.len() > 1 {
            let cut = 1 + (xorshift(&mut self.rng) as usize) % (bytes.len() - 1);
            bytes.truncate(cut);
            self.stats.truncated += 1;
        }
        if self.roll(self.plan.delay_pct) {
            self.stats.delayed += 1;
            self.held_delayed
                .push((self.now_tick + u64::from(self.plan.delay_ticks), bytes));
            return Ok(SendStatus::Sent);
        }
        if self.roll(self.plan.reorder_pct) && self.held_reorder.is_none() {
            // Hold this frame back; it goes out after its successor.
            self.stats.reordered += 1;
            self.held_reorder = Some(bytes);
            return Ok(SendStatus::Sent);
        }
        let status = self.inner.send_bytes(&bytes)?;
        if let Some(held) = self.held_reorder.take() {
            self.deliver_held(held);
        }
        Ok(status)
    }

    fn recv_bytes(&mut self, buf: &mut Vec<u8>) -> Result<usize, TransportError> {
        if self.killed() {
            self.inner.shutdown();
            return Err(TransportError::Disconnected);
        }
        if self.partitioned() {
            return Ok(0);
        }
        self.inner.recv_bytes(buf)
    }

    fn tick(&mut self) {
        self.now_tick += 1;
        if self.killed() {
            if !self.stats.killed {
                self.stats.killed = true;
                self.inner.shutdown();
            }
            return;
        }
        self.inner.tick();
        if self.partitioned() {
            return;
        }
        if !self.held_delayed.is_empty() {
            let due = self.now_tick;
            let mut keep = Vec::new();
            for (release, bytes) in std::mem::take(&mut self.held_delayed) {
                if release <= due {
                    match self.inner.send_bytes(&bytes) {
                        Ok(SendStatus::Sent) | Err(_) => {}
                        Ok(SendStatus::WindowFull) => keep.push((release, bytes)),
                    }
                } else {
                    keep.push((release, bytes));
                }
            }
            self.held_delayed = keep;
        }
    }

    fn is_connected(&self) -> bool {
        !self.killed() && self.inner.is_connected()
    }

    fn connect(&mut self) -> Result<(), TransportError> {
        if self.killed() {
            return Err(TransportError::Disconnected);
        }
        self.held_delayed.clear();
        self.held_reorder = None;
        self.inner.connect()
    }

    fn shutdown(&mut self) {
        self.held_delayed.clear();
        self.held_reorder = None;
        self.inner.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::in_proc_pair;

    #[test]
    fn plan_generation_is_deterministic_and_node0_clean() {
        for seed in 0..40u64 {
            let a = TransportFaultPlan::generate(seed, 5, 24, 4);
            let b = TransportFaultPlan::generate(seed, 5, 24, 4);
            assert_eq!(a, b);
            assert!(!a.links[0].is_faulty(), "seed {seed}: link 0 faulted");
            assert!(
                a.links.iter().any(|p| p.is_faulty()),
                "seed {seed}: no faults"
            );
            let kills = a.links.iter().filter(|p| p.kill_at.is_some()).count();
            assert!(kills <= 1, "seed {seed}: {kills} kills");
            assert_eq!(a.survivors().len(), 5 - kills);
        }
    }

    #[test]
    fn dropped_frames_never_arrive() {
        let (a, mut b) = in_proc_pair(64);
        let mut faulty = FaultyLink::new(
            a,
            LinkFaultPlan {
                seed: 9,
                drop_pct: 100,
                ..Default::default()
            },
        );
        for _ in 0..10 {
            assert_eq!(faulty.send_bytes(b"x").unwrap(), SendStatus::Sent);
        }
        let mut got = Vec::new();
        assert_eq!(b.recv_bytes(&mut got).unwrap(), 0);
        assert_eq!(faulty.stats.dropped, 10);
    }

    #[test]
    fn corruption_changes_bytes_without_changing_length() {
        let (a, mut b) = in_proc_pair(64);
        let mut faulty = FaultyLink::new(
            a,
            LinkFaultPlan {
                seed: 3,
                corrupt_pct: 100,
                ..Default::default()
            },
        );
        faulty.send_bytes(b"hello-frame").unwrap();
        let mut got = Vec::new();
        b.recv_bytes(&mut got).unwrap();
        assert_eq!(got.len(), 11);
        assert_ne!(got, b"hello-frame");
        assert_eq!(faulty.stats.corrupted, 1);
    }

    #[test]
    fn delay_holds_frames_until_tick() {
        let (a, mut b) = in_proc_pair(64);
        let mut faulty = FaultyLink::new(
            a,
            LinkFaultPlan {
                seed: 5,
                delay_pct: 100,
                delay_ticks: 3,
                ..Default::default()
            },
        );
        faulty.send_bytes(b"late").unwrap();
        let mut got = Vec::new();
        assert_eq!(b.recv_bytes(&mut got).unwrap(), 0);
        for _ in 0..2 {
            faulty.tick();
        }
        assert_eq!(b.recv_bytes(&mut got).unwrap(), 0, "released too early");
        faulty.tick();
        assert_eq!(b.recv_bytes(&mut got).unwrap(), 4);
        assert_eq!(got, b"late");
    }

    #[test]
    fn reorder_swaps_adjacent_frames() {
        let (a, mut b) = in_proc_pair(64);
        let mut faulty = FaultyLink::new(
            a,
            LinkFaultPlan {
                seed: 1,
                reorder_pct: 100,
                ..Default::default()
            },
        );
        // First send is held; with the slot occupied, the second send
        // goes straight through and flushes the held frame after it.
        faulty.send_bytes(b"AA").unwrap();
        faulty.send_bytes(b"BB").unwrap();
        let mut got = Vec::new();
        b.recv_bytes(&mut got).unwrap();
        assert_eq!(got, b"BBAA");
    }

    #[test]
    fn disconnect_fires_once_and_reconnect_restores_flow() {
        let (a, mut b) = in_proc_pair(64);
        let mut faulty = FaultyLink::new(
            a,
            LinkFaultPlan {
                seed: 2,
                disconnect_at: Some(1),
                ..Default::default()
            },
        );
        assert_eq!(faulty.send_bytes(b"1").unwrap(), SendStatus::Sent);
        assert_eq!(faulty.send_bytes(b"2"), Err(TransportError::Disconnected));
        assert!(!faulty.is_connected());
        faulty.connect().unwrap();
        assert_eq!(faulty.send_bytes(b"3").unwrap(), SendStatus::Sent);
        let mut got = Vec::new();
        b.recv_bytes(&mut got).unwrap();
        // Frame 1 was lost to the tear; frame 3 arrives post-reconnect.
        assert_eq!(got, b"3");
        assert_eq!(faulty.stats.disconnects, 1);
    }

    #[test]
    fn partition_black_holes_both_directions_then_heals() {
        let (a, mut b) = in_proc_pair(64);
        let mut faulty = FaultyLink::new(
            a,
            LinkFaultPlan {
                seed: 4,
                partition: Some((1, 3)),
                ..Default::default()
            },
        );
        faulty.tick(); // tick 1: inside the window
        assert_eq!(faulty.send_bytes(b"gone").unwrap(), SendStatus::Sent);
        b.send_bytes(b"ack").unwrap();
        let mut got = Vec::new();
        assert_eq!(faulty.recv_bytes(&mut got).unwrap(), 0);
        faulty.tick();
        faulty.tick(); // tick 3: healed
        assert_eq!(faulty.send_bytes(b"back").unwrap(), SendStatus::Sent);
        let mut at_b = Vec::new();
        b.recv_bytes(&mut at_b).unwrap();
        assert_eq!(at_b, b"back");
        // The collector-side ack sent during the partition *is* still
        // queued in the pipe (the partition models the agent's NIC).
        assert!(faulty.recv_bytes(&mut got).unwrap() > 0);
        assert_eq!(faulty.stats.partitioned, 1);
    }

    #[test]
    fn kill_is_permanent() {
        let (a, _b) = in_proc_pair(64);
        let mut faulty = FaultyLink::new(
            a,
            LinkFaultPlan {
                seed: 6,
                kill_at: Some(2),
                ..Default::default()
            },
        );
        assert_eq!(faulty.send_bytes(b"1").unwrap(), SendStatus::Sent);
        faulty.tick();
        faulty.tick();
        assert!(!faulty.is_connected());
        assert_eq!(faulty.send_bytes(b"2"), Err(TransportError::Disconnected));
        assert_eq!(faulty.connect(), Err(TransportError::Disconnected));
        assert!(faulty.stats.killed);
    }

    #[test]
    fn node_plan_generation_is_deterministic() {
        let a = AllocationFaultPlan::generate(42, 4, 30);
        let b = AllocationFaultPlan::generate(42, 4, 30);
        assert_eq!(a, b);
        let c = AllocationFaultPlan::generate(43, 4, 30);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn node_zero_is_always_clean_and_some_node_is_faulted() {
        for seed in 0..40u64 {
            let plan = AllocationFaultPlan::generate(seed, 4, 30);
            assert!(!plan.nodes[0].is_faulty(), "seed {seed}: node 0 faulted");
            assert!(
                plan.nodes.iter().any(|p| p.is_faulty()),
                "seed {seed}: no faults generated"
            );
        }
    }

    #[test]
    fn kill_without_rejoin_is_down_forever() {
        let p = NodeFaultPlan {
            kill_at: Some(5),
            ..Default::default()
        };
        assert!(!p.is_down(4));
        assert!(p.is_down(5));
        assert!(p.is_down(500));
        assert!(!p.rejoins());
    }

    #[test]
    fn rejoin_and_stall_windows_end() {
        let p = NodeFaultPlan {
            kill_at: Some(3),
            rejoin_at: Some(7),
            ..Default::default()
        };
        assert!(p.is_down(3) && p.is_down(6));
        assert!(!p.is_down(7), "rejoined node heartbeats again");
        assert!(p.rejoins());
        let s = NodeFaultPlan {
            stall: Some((2, 4)),
            ..Default::default()
        };
        assert!(!s.is_down(1) && s.is_down(2) && s.is_down(3) && !s.is_down(4));
    }

    #[test]
    fn skew_only_nodes_stay_up() {
        let p = NodeFaultPlan {
            skew_us: -1_500_000,
            ..Default::default()
        };
        assert!((0..100).all(|r| !p.is_down(r)));
        assert!(p.is_faulty());
    }

    #[test]
    fn survivors_match_is_down() {
        let plan = AllocationFaultPlan::generate(7, 6, 24);
        let survivors = plan.survivors(24);
        assert!(survivors.contains(&0));
        for i in survivors {
            assert!((0..24).all(|r| !plan.nodes[i].is_down(r)));
        }
    }
}
