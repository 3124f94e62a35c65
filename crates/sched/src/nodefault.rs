//! Seeded node-level fault plans for allocation-scale chaos testing.
//!
//! The `FaultInjector` (in `zerosum-proc`) perturbs individual procfs
//! reads on one node. This module is the same idea one level up: a
//! deterministic, seeded plan of *node* failures — kills, stalls
//! (stragglers), delayed rejoins, and clock skew — that the allocation
//! chaos driver (`zerosum-experiments::transport_chaos`) applies at each
//! node's agent, round by round, beside the node's link plan. The
//! collector's supervision must keep producing allocation reports (with
//! explicit `DEGRADED (k/n nodes)` markers) no matter what the plans do.
//!
//! Like everything in `zerosum-sched`, plans are pure functions of their
//! seed: the same `(seed, node_count, rounds)` triple always yields the
//! same schedule, so chaos failures replay exactly.

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

    /// One-line human description for chaos reports.
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if let Some(k) = self.kill_at {
            match self.rejoin_at {
                Some(r) => parts.push(format!("kill@{k} rejoin@{r}")),
                None => parts.push(format!("kill@{k}")),
            }
        }
        if let Some((s, e)) = self.stall {
            parts.push(format!("stall@{s}..{e}"));
        }
        if self.skew_us != 0 {
            parts.push(format!("skew {}us", self.skew_us));
        }
        if parts.is_empty() {
            parts.push("clean".to_string());
        }
        parts.join(" ")
    }
}

/// A fault plan for every node of an allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocationFaultPlan {
    /// Per-node plans, indexed like the allocation's node list.
    pub nodes: Vec<NodeFaultPlan>,
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
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

    /// One-line description of every node's plan.
    pub fn describe(&self) -> String {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, p)| format!("node{i}: {}", p.describe()))
            .collect::<Vec<_>>()
            .join("; ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
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

    #[test]
    fn describe_mentions_each_fault() {
        let p = NodeFaultPlan {
            kill_at: Some(2),
            rejoin_at: Some(9),
            skew_us: 100,
            ..Default::default()
        };
        let d = p.describe();
        assert!(
            d.contains("kill@2 rejoin@9") && d.contains("skew 100us"),
            "{d}"
        );
        assert_eq!(NodeFaultPlan::none().describe(), "clean");
    }
}
