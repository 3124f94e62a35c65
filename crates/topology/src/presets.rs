//! Built-in node topologies for the systems discussed in the paper.
//!
//! These encode the published node diagrams (Figures 1–3) and the test
//! laptop of Listing 1: OLCF Frontier and Summit, NERSC Perlmutter, ANL
//! Aurora, and an Intel i7-1165G7 test box. Each preset also documents the
//! platform quirks the paper calls out — Frontier's non-intuitive GPU↔NUMA
//! map and reserved first core per L3 region, Summit's core-index skip for
//! the OS-reserved core.

use crate::builder::TopologyBuilder;
use crate::object::{GpuAttrs, GpuVendor, Topology};

/// OLCF Frontier compute node (Figure 2).
///
/// One 64-core AMD "Optimized 3rd Gen EPYC" (2 HWT/core, second thread at
/// OS index `core+64`), 4 NUMA domains of 2 CCDs × 8 cores, 512 GiB DDR4,
/// and four MI250X GPUs exposing 8 GCDs. The GCD physical indices are
/// associated with NUMA domains `[0,1,2,3]` in the non-intuitive order
/// `[[4,5],[2,3],[6,7],[0,1]]` — exactly the trap described in §2.
pub fn frontier() -> Topology {
    let mut b = TopologyBuilder::new("OLCF Frontier (HPE Cray EX, AMD EPYC + MI250X)")
        .memory_mib(512 * 1024);
    const GCD_BY_NUMA: [[u32; 2]; 4] = [[4, 5], [2, 3], [6, 7], [0, 1]];
    b = b.package(|mut p| {
        for numa in 0..4u32 {
            p = p.numa(128 * 1024, |mut n| {
                for ccd in 0..2u32 {
                    n = n.l3(32 * 1024, |mut l3| {
                        for k in 0..8u32 {
                            let core = numa * 16 + ccd * 8 + k;
                            l3 = l3.core_cached(512, 32, &[core, core + 64]);
                        }
                        l3
                    });
                }
                n
            });
        }
        p
    });
    for numa in 0..4u32 {
        for &gcd in &GCD_BY_NUMA[numa as usize] {
            b = b.gpu(GpuAttrs {
                vendor: GpuVendor::Amd,
                model: "AMD MI250X GCD".into(),
                physical_index: gcd,
                visible_index: gcd,
                local_numa: numa,
                memory_mib: 64 * 1024,
            });
        }
    }
    b.build()
}

/// OLCF Summit compute node (Figure 1).
///
/// Two IBM POWER9 sockets of 22 SMT4 cores (HWT OS index `4*core + t`);
/// the last core of each socket is reserved for the operating system,
/// which is why the node diagram's core ordering skips from 83 to 88.
/// Six NVIDIA V100 GPUs, three per socket.
pub fn summit() -> Topology {
    let mut b = TopologyBuilder::new("OLCF Summit (IBM POWER9 + V100)").memory_mib(512 * 1024);
    for socket in 0..2u32 {
        b = b.package(|p| {
            p.numa(256 * 1024, |mut n| {
                for c in 0..22u32 {
                    let core = socket * 22 + c;
                    let base = core * 4;
                    n = n.core_with_pus(&[base, base + 1, base + 2, base + 3]);
                }
                n
            })
        });
    }
    for g in 0..6u32 {
        b = b.gpu(GpuAttrs {
            vendor: GpuVendor::Nvidia,
            model: "NVIDIA V100".into(),
            physical_index: g,
            visible_index: g,
            local_numa: g / 3,
            memory_mib: 16 * 1024,
        });
    }
    b.build()
}

/// NERSC Perlmutter GPU node (Figure 3, left).
///
/// One AMD EPYC 7763 (64 cores, 2 HWT/core, 4 NUMA domains) and four
/// NVIDIA A100 GPUs. The paper notes the public diagram gives no
/// GPU-ordering information; we attach GPU `i` to NUMA domain `i`.
pub fn perlmutter() -> Topology {
    let mut b =
        TopologyBuilder::new("NERSC Perlmutter (AMD EPYC 7763 + A100)").memory_mib(256 * 1024);
    b = b.package(|mut p| {
        for numa in 0..4u32 {
            p = p.numa(64 * 1024, |mut n| {
                for ccd in 0..2u32 {
                    n = n.l3(32 * 1024, |mut l3| {
                        for k in 0..8u32 {
                            let core = numa * 16 + ccd * 8 + k;
                            l3 = l3.core_cached(512, 32, &[core, core + 64]);
                        }
                        l3
                    });
                }
                n
            });
        }
        p
    });
    for g in 0..4u32 {
        b = b.gpu(GpuAttrs {
            vendor: GpuVendor::Nvidia,
            model: "NVIDIA A100-SXM4-40GB".into(),
            physical_index: g,
            visible_index: g,
            local_numa: g,
            memory_mib: 40 * 1024,
        });
    }
    b.build()
}

/// ANL Aurora compute node (Figure 3, right).
///
/// Two Intel Xeon Max sockets (52 cores each, 2 HWT/core) and six Intel
/// Data Center GPU Max (PVC) devices, three per socket.
pub fn aurora() -> Topology {
    let mut b = TopologyBuilder::new("ANL Aurora (Intel Xeon Max + PVC)").memory_mib(512 * 1024);
    for socket in 0..2u32 {
        b = b.package(|p| {
            p.numa(256 * 1024, |mut n| {
                for c in 0..52u32 {
                    let core = socket * 52 + c;
                    n = n.core_with_pus(&[core, core + 104]);
                }
                n
            })
        });
    }
    for g in 0..6u32 {
        b = b.gpu(GpuAttrs {
            vendor: GpuVendor::Intel,
            model: "Intel Data Center GPU Max 1550".into(),
            physical_index: g,
            visible_index: g,
            local_numa: g / 3,
            memory_mib: 128 * 1024,
        });
    }
    b.build()
}

/// The Listing 1 test system: a single Intel® Core™ i7-1165G7 with four
/// cores, two PUs per core, a shared 12 MiB L3, and per-core 1280 KiB L2 /
/// 48 KiB L1 caches. The PU logical/OS index skew of the listing (core 0
/// holds `P#0` and `P#4`) is reproduced.
pub fn laptop_i7_1165g7() -> Topology {
    TopologyBuilder::new("Intel Core i7-1165G7 test node")
        .memory_mib(16 * 1024)
        .package(|p| {
            p.numa(16 * 1024, |n| {
                n.l3(12 * 1024, |mut l3| {
                    for core in 0..4u32 {
                        l3 = l3.core_cached(1280, 48, &[core, core + 4]);
                    }
                    l3
                })
            })
        })
        .build()
}

/// Looks a preset up by name (case-insensitive): `frontier`, `summit`,
/// `perlmutter`, `aurora`, or `laptop`.
pub fn by_name(name: &str) -> Option<Topology> {
    match name.to_ascii_lowercase().as_str() {
        "frontier" => Some(frontier()),
        "summit" => Some(summit()),
        "perlmutter" => Some(perlmutter()),
        "aurora" => Some(aurora()),
        "laptop" | "i7-1165g7" => Some(laptop_i7_1165g7()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectKind;

    #[test]
    fn frontier_shape() {
        let t = frontier();
        assert_eq!(t.count_of_kind(ObjectKind::Package), 1);
        assert_eq!(t.count_of_kind(ObjectKind::NumaDomain), 4);
        assert_eq!(t.count_of_kind(ObjectKind::L3Cache), 8);
        assert_eq!(t.count_of_kind(ObjectKind::Core), 64);
        assert_eq!(t.count_of_kind(ObjectKind::Pu), 128);
        assert_eq!(t.count_of_kind(ObjectKind::Gpu), 8);
        assert_eq!(t.complete_cpuset().to_list_string(), "0-127");
    }

    #[test]
    fn frontier_gpu_numa_map_is_nonintuitive() {
        let t = frontier();
        // GCD 0 and 1 attach to NUMA 3; GCD 4 and 5 to NUMA 0 — the trap
        // described in the caption of Figure 2.
        let mut numa_of = [0u32; 8];
        for g in t.gpus() {
            let a = t.object(g).attrs.gpu.as_ref().unwrap();
            numa_of[a.physical_index as usize] = a.local_numa;
        }
        assert_eq!(numa_of, [3, 3, 1, 1, 0, 0, 2, 2]);
    }

    #[test]
    fn summit_shape() {
        let t = summit();
        assert_eq!(t.count_of_kind(ObjectKind::Package), 2);
        assert_eq!(t.count_of_kind(ObjectKind::Core), 44);
        assert_eq!(t.count_of_kind(ObjectKind::Pu), 176);
        assert_eq!(t.count_of_kind(ObjectKind::Gpu), 6);
    }

    #[test]
    fn perlmutter_and_aurora_shapes() {
        let p = perlmutter();
        assert_eq!(p.count_of_kind(ObjectKind::Core), 64);
        assert_eq!(p.count_of_kind(ObjectKind::Gpu), 4);
        let a = aurora();
        assert_eq!(a.count_of_kind(ObjectKind::Core), 104);
        assert_eq!(a.count_of_kind(ObjectKind::Gpu), 6);
        assert_eq!(a.count_of_kind(ObjectKind::Pu), 208);
    }

    #[test]
    fn laptop_matches_listing1_numbering() {
        let t = laptop_i7_1165g7();
        assert_eq!(t.count_of_kind(ObjectKind::Core), 4);
        assert_eq!(t.count_of_kind(ObjectKind::Pu), 8);
        // PU logical 1 (second PU of core 0) has OS index 4.
        let pus = t.objects_of_kind(ObjectKind::Pu);
        assert_eq!(t.object(pus[0]).os_index, Some(0));
        assert_eq!(t.object(pus[1]).os_index, Some(4));
        assert_eq!(t.object(pus[2]).os_index, Some(1));
        assert_eq!(t.object(pus[3]).os_index, Some(5));
    }

    #[test]
    fn by_name_lookup() {
        assert!(by_name("Frontier").is_some());
        assert!(by_name("laptop").is_some());
        assert!(by_name("nonesuch").is_none());
    }
}
