//! # zerosum-mpi
//!
//! The MPI substrate for ZeroSum-rs.
//!
//! The paper's ZeroSum queries the hostname, communicator rank and size at
//! startup and wraps the MPI point-to-point API to accumulate per-pair
//! byte counts (§3.1.3), later post-processed into the Figure 5 heatmap
//! (§3.6). With no MPI available here, this crate *is* the substrate
//! being wrapped:
//!
//! * [`comm`] — the simulated world, per-rank communicators, and the
//!   shared [`comm::CommMatrix`] traffic matrix.
//! * [`patterns`] — workload traffic generators (1-D/2-D halo exchange,
//!   all-to-all, random background).
//! * [`collective`] — collectives expressed as their point-to-point
//!   message flows.
//! * [`heatmap`] — CSV export, downsampled intensity grids, and ASCII
//!   rendering of the matrix.
//! * [`mapping`] — rank→node placement strategies and the intra-node
//!   traffic fraction they optimize.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collective;
pub mod comm;
pub mod heatmap;
pub mod mapping;
pub mod patterns;

pub use comm::{CommMatrix, CommWorld, Communicator};
pub use mapping::{optimize_order, MapStrategy, RankMap, RankOrder};

#[cfg(test)]
#[path = "../../../tests/seeded/mod.rs"]
mod seeded;

/// Conservation, band containment and mapping laws over seeded
/// traffic.
#[cfg(test)]
mod properties {
    use crate::comm::{CommMatrix, CommWorld};
    use crate::patterns;
    use crate::seeded::Seeded;

    /// Up to `max` seeded `(src, dst, bytes)` sends among `size` ranks.
    fn sends(g: &mut Seeded, size: usize, max: u64, bytes: u64) -> Vec<(usize, usize, u64)> {
        (0..g.in_range(0, max))
            .map(|_| {
                let (s, d) = (g.in_range(0, size as u64), g.in_range(0, size as u64));
                (s as usize, d as usize, g.in_range(1, bytes))
            })
            .collect()
    }

    /// Total bytes equal the sum of what each communicator sent.
    #[test]
    fn totals_add_up() {
        let mut g = Seeded::new(0x3b1_0001);
        for case in 0..128 {
            let size = g.in_range(2, 32) as usize;
            let w = CommWorld::new(size);
            let mut expect = 0u64;
            for (s, d, b) in sends(&mut g, size, 200, 10_000) {
                if s != d {
                    w.communicator(s).send(d, b);
                    expect += b;
                }
            }
            assert_eq!(w.matrix().total_bytes(), expect, "case {case}");
        }
    }

    /// Halo traffic is always fully within the band of its width.
    #[test]
    fn halo_traffic_stays_in_its_band() {
        let mut g = Seeded::new(0x3b1_0002);
        for case in 0..64 {
            let (size, width) = (g.in_range(4, 128) as usize, g.in_range(1, 3) as usize);
            let w = CommWorld::new(size);
            patterns::halo_1d(&w, width, 10_000);
            let frac = w.matrix().diagonal_fraction(width);
            assert!(
                (frac - 1.0).abs() < 1e-12,
                "case {case}: {size} ranks, width {width}"
            );
        }
    }

    /// `optimize_order` never puts more than `per_node` ranks on a node
    /// and its intra-node fraction is a fraction.
    #[test]
    fn optimizer_respects_node_capacity() {
        let mut g = Seeded::new(0x3b1_0003);
        for case in 0..128 {
            let (size, per_node) = (g.in_range(2, 40) as usize, g.in_range(1, 9) as usize);
            let mut m = CommMatrix::new(size);
            for (s, d, b) in sends(&mut g, size, 120, 10_000) {
                if s != d {
                    m.record(s, d, b);
                }
            }
            let order = crate::mapping::optimize_order(&m, per_node);
            let mut on_node = std::collections::BTreeMap::new();
            for r in 0..size {
                *on_node.entry(order.node_of(r)).or_insert(0usize) += 1;
            }
            assert!(
                on_node.values().all(|&c| c <= per_node),
                "case {case}: {on_node:?}"
            );
            assert!(
                (0.0..=1.0).contains(&order.intra_node_fraction(&m)),
                "case {case}"
            );
        }
    }

    /// Merging partial matrices equals recording everything in one.
    #[test]
    fn merge_equals_union() {
        let mut g = Seeded::new(0x3b1_0004);
        for case in 0..128 {
            let size = g.in_range(2, 16) as usize;
            let mut parts = [CommMatrix::new(size), CommMatrix::new(size)];
            let mut whole = CommMatrix::new(size);
            for part in &mut parts {
                for (s, d, b) in sends(&mut g, size, 50, 100) {
                    part.record(s, d, b);
                    whole.record(s, d, b);
                }
            }
            let [mut merged, other] = parts;
            merged.merge(&other);
            assert_eq!(merged, whole, "case {case}");
        }
    }
}
