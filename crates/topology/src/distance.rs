//! GPU↔CPU locality: which NUMA domains a cpuset covers and which GPUs
//! hang off them.
//!
//! Used by `srun --gpu-bind=closest` and by the configuration evaluator
//! to flag processes whose GPU is not attached to their NUMA domain (the
//! Frontier concern from §2 of the paper).

use crate::cpuset::CpuSet;
use crate::object::{ObjectKind, Topology};

/// The set of NUMA logical indices covered by a cpuset.
pub fn numas_of_cpuset(topo: &Topology, cpuset: &CpuSet) -> Vec<u32> {
    let mut out = Vec::new();
    for numa in topo.objects_of_kind(ObjectKind::NumaDomain) {
        let o = topo.object(numa);
        if o.cpuset.intersects(cpuset) {
            out.push(o.logical_index);
        }
    }
    out
}

/// GPUs (logical ids into the topology) local to any NUMA domain covered by
/// `cpuset`, i.e. the devices `--gpu-bind=closest` would hand a process
/// bound to that cpuset.
pub fn closest_gpus(topo: &Topology, cpuset: &CpuSet) -> Vec<u32> {
    let numas = numas_of_cpuset(topo, cpuset);
    let mut out = Vec::new();
    for gpu in topo.gpus() {
        let a = topo.object(gpu).attrs.gpu.as_ref().expect("gpu attrs");
        if numas.contains(&a.local_numa) {
            out.push(a.physical_index);
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn closest_gpus_matches_figure2() {
        let t = presets::frontier();
        // A process bound to cores 49-55 (NUMA 3) is closest to GCDs 0,1.
        let cs = CpuSet::range(49, 55);
        assert_eq!(closest_gpus(&t, &cs), vec![0, 1]);
        // NUMA 0 (cores 1-7) gets GCDs 4,5 — the paper's example.
        let cs = CpuSet::range(1, 7);
        assert_eq!(closest_gpus(&t, &cs), vec![4, 5]);
    }

    #[test]
    fn numas_of_wide_cpuset() {
        let t = presets::frontier();
        let cs = CpuSet::range(0, 127);
        assert_eq!(numas_of_cpuset(&t, &cs), vec![0, 1, 2, 3]);
    }
}
