//! Logical-to-physical rank mapping.
//!
//! §3.1.3 of the paper: the point-to-point data "could also be used to
//! guide the logical MPI process ordering on the nodes to exploit lower
//! latency communication between ranks executing on the same node." This
//! module provides the mapping strategies and the metric such guidance
//! optimizes — the fraction of traffic that stays node-local.

use crate::comm::CommMatrix;

/// How ranks are distributed across nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapStrategy {
    /// Consecutive ranks fill a node before moving on (Slurm `block`).
    Block,
    /// Ranks deal out round-robin across nodes (Slurm `cyclic`).
    Cyclic,
}

/// A rank→node assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankMap {
    node_of: Vec<usize>,
    nodes: usize,
}

impl RankMap {
    /// Maps `ranks` ranks onto `nodes` nodes with the given strategy.
    ///
    /// # Panics
    /// If `nodes` is zero.
    pub fn new(ranks: usize, nodes: usize, strategy: MapStrategy) -> Self {
        assert!(nodes > 0, "need at least one node");
        let per_node = ranks.div_ceil(nodes);
        let node_of = (0..ranks)
            .map(|r| match strategy {
                MapStrategy::Block => r / per_node,
                MapStrategy::Cyclic => r % nodes,
            })
            .collect();
        RankMap { node_of, nodes }
    }

    /// The node hosting `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        self.node_of[rank]
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The fraction of the matrix's traffic exchanged between ranks on
    /// the same node — higher is better for a given app pattern.
    pub fn intra_node_fraction(&self, m: &CommMatrix) -> f64 {
        let total = m.total_bytes();
        if total == 0 {
            return 0.0;
        }
        let mut local = 0u64;
        for s in 0..m.size() {
            for d in 0..m.size() {
                if self.node_of[s] == self.node_of[d] {
                    local += m.bytes(s, d);
                }
            }
        }
        local as f64 / total as f64
    }
}

/// A logical→physical rank permutation: `placement[logical] = slot`,
/// where slots are filled node-major (`slot / per_node` = node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankOrder {
    slot_of: Vec<usize>,
    per_node: usize,
}

impl RankOrder {
    /// The identity order for `ranks` ranks at `per_node` per node.
    pub fn identity(ranks: usize, per_node: usize) -> Self {
        RankOrder {
            slot_of: (0..ranks).collect(),
            per_node: per_node.max(1),
        }
    }

    /// The node hosting `rank` under this order.
    pub fn node_of(&self, rank: usize) -> usize {
        self.slot_of[rank] / self.per_node
    }

    /// Fraction of matrix traffic that stays node-local under this order.
    pub fn intra_node_fraction(&self, m: &CommMatrix) -> f64 {
        let total = m.total_bytes();
        if total == 0 {
            return 0.0;
        }
        let mut local = 0u64;
        for s in 0..m.size() {
            for d in 0..m.size() {
                if self.node_of(s) == self.node_of(d) {
                    local += m.bytes(s, d);
                }
            }
        }
        local as f64 / total as f64
    }
}

/// Greedy traffic-aware rank ordering — the §3.1.3 use of ZeroSum's
/// point-to-point data: "guide the logical MPI process ordering on the
/// nodes to exploit lower latency communication between ranks executing
/// on the same node."
///
/// Nodes are filled one at a time: seed each node with the unplaced rank
/// having the most total traffic, then repeatedly add the unplaced rank
/// with the highest traffic to the ranks already on the node.
pub fn optimize_order(m: &CommMatrix, per_node: usize) -> RankOrder {
    let n = m.size();
    let per_node = per_node.max(1);
    let pair = |a: usize, b: usize| m.bytes(a, b) + m.bytes(b, a);
    let mut placed = vec![false; n];
    let mut slot_of = vec![0usize; n];
    let mut next_slot = 0usize;
    while next_slot < n {
        // Seed: heaviest unplaced rank by total traffic.
        let seed = (0..n)
            .filter(|&r| !placed[r])
            .max_by_key(|&r| (0..n).map(|o| pair(r, o)).sum::<u64>())
            .expect("unplaced rank exists");
        let mut node_members = vec![seed];
        placed[seed] = true;
        slot_of[seed] = next_slot;
        next_slot += 1;
        while node_members.len() < per_node && next_slot < n {
            let best = (0..n)
                .filter(|&r| !placed[r])
                .max_by_key(|&r| node_members.iter().map(|&mbr| pair(r, mbr)).sum::<u64>());
            let Some(best) = best else { break };
            placed[best] = true;
            slot_of[best] = next_slot;
            next_slot += 1;
            node_members.push(best);
        }
    }
    RankOrder { slot_of, per_node }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommWorld;
    use crate::patterns::halo_1d;

    #[test]
    fn block_and_cyclic_assignments() {
        let block = RankMap::new(8, 2, MapStrategy::Block);
        assert_eq!(block.node_of(0), 0);
        assert_eq!(block.node_of(3), 0);
        assert_eq!(block.node_of(4), 1);
        let cyc = RankMap::new(8, 2, MapStrategy::Cyclic);
        assert_eq!(cyc.node_of(0), 0);
        assert_eq!(cyc.node_of(1), 1);
    }

    #[test]
    fn block_beats_cyclic_for_halo_traffic() {
        // The paper's guidance use case: nearest-neighbour traffic favours
        // block placement (neighbours co-located).
        let w = CommWorld::new(64);
        halo_1d(&w, 1, 1 << 16);
        let m = w.matrix();
        let block = RankMap::new(64, 8, MapStrategy::Block).intra_node_fraction(&m);
        let cyclic = RankMap::new(64, 8, MapStrategy::Cyclic).intra_node_fraction(&m);
        assert!(
            block > 0.8 && cyclic < 0.1,
            "block {block}, cyclic {cyclic}"
        );
    }

    #[test]
    fn uneven_division() {
        let map = RankMap::new(10, 3, MapStrategy::Block);
        // ceil(10/3)=4 per node: 4,4,2.
        assert_eq!(map.node_of(3), 0);
        assert_eq!(map.node_of(4), 1);
        assert_eq!(map.node_of(8), 2);
        assert_eq!(map.node_of(9), 2);
    }

    #[test]
    fn optimizer_recovers_block_locality_for_halo() {
        let w = CommWorld::new(32);
        halo_1d(&w, 1, 1 << 16);
        let m = w.matrix();
        let order = optimize_order(&m, 8);
        let frac = order.intra_node_fraction(&m);
        // Greedy chains neighbours onto nodes: most traffic stays local.
        assert!(frac > 0.8, "optimized fraction {frac}");
        assert!(frac >= RankOrder::identity(32, 8).intra_node_fraction(&m) - 1e-12);
    }

    #[test]
    fn optimizer_beats_identity_on_strided_traffic() {
        // Ranks communicate with rank+8 (stride = per_node): identity
        // placement makes ALL traffic cross-node; the optimizer pairs
        // partners onto one node.
        let mut m = CommMatrix::new(16);
        for r in 0..8 {
            m.record(r, r + 8, 1_000_000);
            m.record(r + 8, r, 1_000_000);
        }
        let identity = RankOrder::identity(16, 4).intra_node_fraction(&m);
        assert_eq!(identity, 0.0);
        let frac = optimize_order(&m, 4).intra_node_fraction(&m);
        assert!(frac > 0.9, "optimized fraction {frac}");
    }

    #[test]
    fn optimizer_handles_uneven_last_node() {
        let w = CommWorld::new(10);
        halo_1d(&w, 1, 100);
        let order = optimize_order(&w.matrix(), 4);
        // Every rank gets a slot; nodes are 0,1,2.
        let mut nodes: Vec<usize> = (0..10).map(|r| order.node_of(r)).collect();
        nodes.sort_unstable();
        assert_eq!(nodes.iter().filter(|&&x| x == 0).count(), 4);
        assert_eq!(nodes.iter().filter(|&&x| x == 2).count(), 2);
    }

    #[test]
    fn empty_matrix_fraction_zero() {
        let map = RankMap::new(4, 2, MapStrategy::Block);
        assert_eq!(map.intra_node_fraction(&CommMatrix::new(4)), 0.0);
    }
}
