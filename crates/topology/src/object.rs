//! The hardware object tree.
//!
//! This is the crate's hwloc substitute: a compute node is described as a
//! tree of typed objects (machine → package → NUMA domain → caches → cores
//! → processing units), each carrying a *logical* index (depth-first order
//! within its type, hwloc `L#`) and, where meaningful, an *OS* index
//! (hwloc `P#` — the number the kernel uses in `/proc` and in affinity
//! masks). GPUs hang off the machine with a locality link to their NUMA
//! domain, mirroring the node diagrams in Figures 1–3 of the paper.

use crate::cpuset::CpuSet;
use std::fmt;

/// Identifier of an object within its [`Topology`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub(crate) u32);

impl ObjId {
    /// Index into the arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The type of a topology object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ObjectKind {
    /// The whole compute node.
    Machine,
    /// A physical CPU package (socket).
    Package,
    /// A NUMA domain.
    NumaDomain,
    /// Level-3 cache region.
    L3Cache,
    /// Level-2 cache.
    L2Cache,
    /// Level-1 (data) cache.
    L1Cache,
    /// A physical core.
    Core,
    /// A processing unit (hardware thread); the leaf the OS schedules on.
    Pu,
    /// An accelerator device (GPU or GPU compute die).
    Gpu,
}

impl ObjectKind {
    /// The name used in `lstopo`-style rendering (Listing 1 of the paper).
    pub fn render_name(self) -> &'static str {
        match self {
            ObjectKind::Machine => "Machine",
            ObjectKind::Package => "Package",
            ObjectKind::NumaDomain => "NUMANode",
            ObjectKind::L3Cache => "L3Cache",
            ObjectKind::L2Cache => "L2Cache",
            ObjectKind::L1Cache => "L1Cache",
            ObjectKind::Core => "Core",
            ObjectKind::Pu => "PU",
            ObjectKind::Gpu => "GPU",
        }
    }
}

impl fmt::Display for ObjectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.render_name())
    }
}

/// Attributes that only some object kinds carry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObjectAttrs {
    /// Cache size in KiB (cache kinds only).
    pub cache_kib: Option<u64>,
    /// Local memory in MiB (machine / NUMA kinds).
    pub memory_mib: Option<u64>,
    /// GPU attributes (GPU kind only).
    pub gpu: Option<GpuAttrs>,
}

/// Description of an accelerator device.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuAttrs {
    /// Vendor of the device.
    pub vendor: GpuVendor,
    /// Marketing / model name (e.g. "AMD MI250X GCD").
    pub model: String,
    /// Physical device index as the vendor driver enumerates it.
    pub physical_index: u32,
    /// Index as visible to the application after `*_VISIBLE_DEVICES`
    /// remapping (the "visible HIP index" of §3.4 of the paper).
    pub visible_index: u32,
    /// Logical index of the NUMA domain this device is attached to.
    pub local_numa: u32,
    /// Device memory in MiB.
    pub memory_mib: u64,
}

/// GPU vendor, selecting which SMI-style library ZeroSum queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuVendor {
    /// AMD — queried via (simulated) ROCm SMI.
    Amd,
    /// NVIDIA — queried via (simulated) NVML.
    Nvidia,
    /// Intel — queried via (simulated) Level Zero / SYCL API.
    Intel,
}

impl fmt::Display for GpuVendor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuVendor::Amd => write!(f, "AMD"),
            GpuVendor::Nvidia => write!(f, "NVIDIA"),
            GpuVendor::Intel => write!(f, "Intel"),
        }
    }
}

/// One node of the topology tree.
#[derive(Debug, Clone)]
pub struct Object {
    /// What this object is.
    pub kind: ObjectKind,
    /// Logical index among objects of the same kind (hwloc `L#`).
    pub logical_index: u32,
    /// OS index (hwloc `P#`); `None` for objects the OS does not number.
    pub os_index: Option<u32>,
    /// The set of PU OS indices contained in this subtree.
    pub cpuset: CpuSet,
    /// Child object ids, in construction order.
    pub children: Vec<ObjId>,
    /// Parent object id (`None` for the machine root).
    pub parent: Option<ObjId>,
    /// Kind-specific attributes.
    pub attrs: ObjectAttrs,
}

/// An immutable hardware topology for one compute node.
///
/// Built with [`crate::builder::TopologyBuilder`] or one of the presets in
/// [`crate::presets`].
#[derive(Debug, Clone)]
pub struct Topology {
    pub(crate) objects: Vec<Object>,
    pub(crate) root: ObjId,
    /// Human-readable name of the node model (e.g. "OLCF Frontier").
    pub name: String,
}

impl Topology {
    /// The root (machine) object id.
    pub fn root(&self) -> ObjId {
        self.root
    }

    /// Access an object by id.
    pub fn object(&self, id: ObjId) -> &Object {
        &self.objects[id.index()]
    }

    /// Total number of objects of all kinds.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True only for a degenerate topology with no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// All objects of a given kind, in logical-index order.
    pub fn objects_of_kind(&self, kind: ObjectKind) -> Vec<ObjId> {
        let mut v: Vec<ObjId> = (0..self.objects.len() as u32)
            .map(ObjId)
            .filter(|id| self.object(*id).kind == kind)
            .collect();
        v.sort_by_key(|id| self.object(*id).logical_index);
        v
    }

    /// Number of objects of a given kind.
    pub fn count_of_kind(&self, kind: ObjectKind) -> usize {
        self.objects.iter().filter(|o| o.kind == kind).count()
    }

    /// The complete cpuset of the machine (all PU OS indices).
    pub fn complete_cpuset(&self) -> &CpuSet {
        &self.object(self.root).cpuset
    }

    /// Finds the PU object with the given OS index.
    pub fn pu_by_os_index(&self, os: u32) -> Option<ObjId> {
        (0..self.objects.len() as u32).map(ObjId).find(|id| {
            let o = self.object(*id);
            o.kind == ObjectKind::Pu && o.os_index == Some(os)
        })
    }

    /// Walks up from `id` to the nearest ancestor of `kind`.
    pub fn ancestor_of_kind(&self, id: ObjId, kind: ObjectKind) -> Option<ObjId> {
        let mut cur = self.object(id).parent;
        while let Some(p) = cur {
            if self.object(p).kind == kind {
                return Some(p);
            }
            cur = self.object(p).parent;
        }
        None
    }

    /// All GPU objects in logical order.
    pub fn gpus(&self) -> Vec<ObjId> {
        self.objects_of_kind(ObjectKind::Gpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TopologyBuilder;

    fn tiny() -> Topology {
        TopologyBuilder::new("tiny")
            .package(|p| {
                p.numa(1024, |n| {
                    n.l3(4096, |l3| l3.core_with_pus(&[0, 2]).core_with_pus(&[1, 3]))
                })
            })
            .build()
    }

    #[test]
    fn counts() {
        let t = tiny();
        assert_eq!(t.count_of_kind(ObjectKind::Machine), 1);
        assert_eq!(t.count_of_kind(ObjectKind::Package), 1);
        assert_eq!(t.count_of_kind(ObjectKind::NumaDomain), 1);
        assert_eq!(t.count_of_kind(ObjectKind::Core), 2);
        assert_eq!(t.count_of_kind(ObjectKind::Pu), 4);
    }

    #[test]
    fn complete_cpuset_covers_all_pus() {
        let t = tiny();
        assert_eq!(t.complete_cpuset().to_list_string(), "0-3");
    }

    #[test]
    fn pu_lookup_and_ancestor() {
        let t = tiny();
        let pu = t.pu_by_os_index(2).expect("pu 2 exists");
        assert_eq!(t.object(pu).os_index, Some(2));
        let core = t.ancestor_of_kind(pu, ObjectKind::Core).unwrap();
        assert_eq!(t.object(core).logical_index, 0);
        let numa = t.ancestor_of_kind(pu, ObjectKind::NumaDomain).unwrap();
        assert_eq!(t.object(numa).kind, ObjectKind::NumaDomain);
        assert!(t.ancestor_of_kind(t.root(), ObjectKind::Package).is_none());
    }

    #[test]
    fn logical_indices_are_sequential_per_kind() {
        let t = tiny();
        let cores = t.objects_of_kind(ObjectKind::Core);
        let idx: Vec<u32> = cores.iter().map(|c| t.object(*c).logical_index).collect();
        assert_eq!(idx, vec![0, 1]);
        let pus = t.objects_of_kind(ObjectKind::Pu);
        let idx: Vec<u32> = pus.iter().map(|c| t.object(*c).logical_index).collect();
        assert_eq!(idx, vec![0, 1, 2, 3]);
    }
}
