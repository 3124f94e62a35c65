//! Communication-pattern generators.
//!
//! Figure 5 of the paper shows the point-to-point heatmap of a
//! gyrokinetic particle-in-cell code (512 ranks on Frontier) with a
//! strong nearest-neighbour diagonal. These generators drive the
//! simulated communicators with the two traffic classes the PIC proxy
//! produces: 1-D halo exchange and a random-pairs background.

use crate::comm::CommWorld;

/// One step of 1-D halo exchange: every rank sends `bytes` to its ±1…±width
/// neighbours, periodic at the ends (a field-line-following PIC mesh).
pub fn halo_1d(world: &CommWorld, width: usize, bytes: u64) {
    let n = world.size();
    for r in 0..n {
        let c = world.communicator(r);
        for d in 1..=width {
            // Traffic decays with neighbour distance, as halo widths do.
            let b = bytes / d as u64;
            c.send((r + d) % n, b);
            c.send((r + n - d % n) % n, b);
        }
    }
}

/// `count` random sender/receiver pairs of `bytes` each, from a seeded
/// LCG (deterministic background noise for heatmap contrast tests).
pub fn random_pairs(world: &CommWorld, count: usize, bytes: u64, seed: u64) {
    let n = world.size() as u64;
    let mut state = seed
        .wrapping_mul(2862933555777941757)
        .wrapping_add(3037000493)
        | 1;
    let mut next = || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    for _ in 0..count {
        let s = (next() % n) as usize;
        let d = (next() % n) as usize;
        if s != d {
            world.communicator(s).send(d, bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halo_1d_is_diagonal_and_periodic() {
        let w = CommWorld::new(16);
        halo_1d(&w, 1, 4096);
        let m = w.matrix();
        assert_eq!(m.bytes(0, 1), 4096);
        assert_eq!(m.bytes(0, 15), 4096); // periodic wrap
        assert_eq!(m.bytes(0, 2), 0);
        assert!((m.diagonal_fraction(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn halo_1d_width_two_decays() {
        let w = CommWorld::new(16);
        halo_1d(&w, 2, 4096);
        let m = w.matrix();
        assert_eq!(m.bytes(3, 4), 4096);
        assert_eq!(m.bytes(3, 5), 2048); // second-neighbour traffic halved
    }

    #[test]
    fn random_pairs_deterministic() {
        let w1 = CommWorld::new(32);
        random_pairs(&w1, 500, 64, 42);
        let w2 = CommWorld::new(32);
        random_pairs(&w2, 500, 64, 42);
        assert_eq!(w1.matrix(), w2.matrix());
        assert!(w1.matrix().total_bytes() > 0);
        // Different seed differs.
        let w3 = CommWorld::new(32);
        random_pairs(&w3, 500, 64, 43);
        assert_ne!(w1.matrix(), w3.matrix());
    }
}
