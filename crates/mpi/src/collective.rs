//! Collective operations modeled as point-to-point message flows.
//!
//! ZeroSum wraps only the point-to-point API, so collectives show up in
//! its heatmap as the underlying algorithm's message pattern. The PIC
//! proxy's diagnostics reduce is the one collective a workload injects:
//! a binomial-tree reduce.

use crate::comm::CommWorld;

/// Binomial-tree reduce to `root`: each round, every relative rank an
/// odd multiple of `stride` sends to the rank `stride` below it.
pub fn reduce_binomial(world: &CommWorld, root: usize, bytes: u64) {
    let n = world.size();
    let abs = |r: usize| (r + root) % n;
    let mut stride = 1usize;
    while stride < n {
        let mut r = 0;
        while r + stride < n {
            // relative rank r+stride sends to relative rank r
            world.communicator(abs(r + stride)).send(abs(r), bytes);
            r += stride * 2;
        }
        stride *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_collects_to_root() {
        let w = CommWorld::new(8);
        reduce_binomial(&w, 0, 64);
        let m = w.matrix();
        let msgs: u64 = (0..8)
            .flat_map(|s| (0..8).map(move |d| (s, d)))
            .map(|(s, d)| m.messages(s, d))
            .sum();
        assert_eq!(msgs, 7);
        // Root sends nothing.
        let root_sent: u64 = (0..8).map(|d| m.messages(0, d)).sum();
        assert_eq!(root_sent, 0);
    }
}
