//! # zerosum-topology
//!
//! Hardware-locality substrate for ZeroSum-rs — an hwloc substitute.
//!
//! The paper's ZeroSum uses the Portable Hardware Locality (hwloc) library
//! to query and print node topology and to reason about thread placement.
//! This crate provides the equivalent, self-contained model:
//!
//! * [`cpuset::CpuSet`] — kernel-style bitmask sets of hardware-thread OS
//!   indices, with the `/proc` list-format text representation.
//! * [`object::Topology`] — the machine/package/NUMA/cache/core/PU/GPU
//!   object tree with hwloc's logical-vs-OS index distinction.
//! * [`builder::TopologyBuilder`] — construction API.
//! * [`presets`] — the node models of the paper's platforms (Frontier,
//!   Summit, Perlmutter, Aurora, and the Listing 1 laptop).
//! * [`mod@render`] — `lstopo`-style text output (Listing 1).
//! * [`distance`] — the NUMA domains of a cpuset and the GPUs closest to
//!   it (`--gpu-bind=closest`, the configuration evaluator).
//! * [`query`] — OpenMP places at each granularity (binding policies).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![warn(missing_docs)]

pub mod builder;
pub mod cpuset;
pub mod diagram;
pub mod discover;
pub mod distance;
pub mod object;
pub mod presets;
pub mod query;
pub mod render;

pub use builder::TopologyBuilder;
pub use cpuset::CpuSet;
pub use diagram::render_node_diagram;
pub use discover::discover;
pub use object::{GpuAttrs, GpuVendor, ObjId, Object, ObjectKind, Topology};
pub use render::{render, RenderOptions};

#[cfg(test)]
#[path = "../../../tests/seeded/mod.rs"]
mod seeded;

/// The set algebra of [`CpuSet`] over seeded index sets.
#[cfg(test)]
mod properties {
    use crate::cpuset::CpuSet;
    use crate::seeded::Seeded;

    #[test]
    fn list_text_and_iteration_round_trip() {
        let mut g = Seeded::new(0x70b0_0001);
        for case in 0..256 {
            let indices = g.index_set(512, 64);
            let set = CpuSet::from_indices(indices.iter().copied());
            let parsed = CpuSet::parse_list(&set.to_list_string()).unwrap();
            assert_eq!(parsed, set, "case {case}: {indices:?}");
            assert_eq!(set.count(), indices.len(), "case {case}");
            assert!(set.iter().eq(indices.iter().copied()), "case {case}");
        }
    }

    #[test]
    fn union_difference_and_intersection_obey_the_set_laws() {
        let mut g = Seeded::new(0x70b0_0002);
        for case in 0..256 {
            let sa = CpuSet::from_indices(g.index_set(256, 32));
            let sb = CpuSet::from_indices(g.index_set(256, 32));
            let union = sa.union(&sb);
            assert_eq!(union, sb.union(&sa), "case {case}: union commutes");
            assert!(
                sa.is_subset_of(&union) && sb.is_subset_of(&union),
                "case {case}"
            );
            let only_a = sa.difference(&sb);
            assert!(
                !only_a.intersects(&sb) && only_a.is_subset_of(&sa),
                "case {case}"
            );
            let both = sa.intersection(&sb);
            assert!(
                both.is_subset_of(&sa) && both.is_subset_of(&sb),
                "case {case}"
            );
            assert_eq!(only_a.count() + both.count(), sa.count(), "case {case}");
        }
    }
}
