//! Place queries over a [`Topology`]: what a "place" (thread, core,
//! socket, NUMA domain, L3 region) expands to for OpenMP binding.

use crate::cpuset::CpuSet;
use crate::object::{ObjectKind, Topology};

/// The granularities at which OpenMP places can be formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaceGrain {
    /// One place per hardware thread.
    Threads,
    /// One place per physical core (all its HWTs).
    Cores,
    /// One place per package.
    Sockets,
    /// One place per NUMA domain.
    NumaDomains,
    /// One place per shared L3 region.
    L3Caches,
}

/// Expands the topology into an ordered list of places at the requested
/// granularity, each restricted to `allowed` (empty places are dropped).
///
/// This is the primitive under `OMP_PLACES=threads|cores|sockets` and
/// under ZeroSum's "choose an efficient thread placement" guidance.
pub fn places(topo: &Topology, grain: PlaceGrain, allowed: &CpuSet) -> Vec<CpuSet> {
    let kind = match grain {
        PlaceGrain::Threads => ObjectKind::Pu,
        PlaceGrain::Cores => ObjectKind::Core,
        PlaceGrain::Sockets => ObjectKind::Package,
        PlaceGrain::NumaDomains => ObjectKind::NumaDomain,
        PlaceGrain::L3Caches => ObjectKind::L3Cache,
    };
    let mut out = Vec::new();
    for id in topo.objects_of_kind(kind) {
        let cs = topo.object(id).cpuset.intersection(allowed);
        if !cs.is_empty() {
            out.push(cs);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn places_cores_respects_allowed() {
        let t = presets::frontier();
        let allowed = CpuSet::range(1, 7);
        let p = places(&t, PlaceGrain::Cores, &allowed);
        assert_eq!(p.len(), 7);
        assert_eq!(p[0].to_list_string(), "1");
        assert_eq!(p[6].to_list_string(), "7");
    }

    #[test]
    fn places_threads_and_sockets() {
        let t = presets::laptop_i7_1165g7();
        let all = t.complete_cpuset().clone();
        assert_eq!(places(&t, PlaceGrain::Threads, &all).len(), 8);
        assert_eq!(places(&t, PlaceGrain::Sockets, &all).len(), 1);
        assert_eq!(places(&t, PlaceGrain::Cores, &all).len(), 4);
    }

    #[test]
    fn places_numa_grain() {
        let t = presets::frontier();
        let all = t.complete_cpuset().clone();
        let p = places(&t, PlaceGrain::NumaDomains, &all);
        assert_eq!(p.len(), 4);
        assert_eq!(p[0].count(), 32);
    }
}
