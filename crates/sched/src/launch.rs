//! Slurm-style job launch: computing per-rank CPU masks and GPU
//! assignments.
//!
//! The paper's three Frontier experiments differ *only* in the `srun`
//! arguments (`-n8` vs `-n8 -c7`) and OpenMP binding environment. This
//! module reproduces the resource-assignment half: given a topology and a
//! launch configuration it computes each rank's `Cpus_allowed` mask and —
//! with `--gpu-bind=closest` — its GPU, honouring the reserved
//! first-core-per-L3 policy that Frontier applies by default.

use zerosum_topology::distance::closest_gpus;
use zerosum_topology::{CpuSet, ObjectKind, Topology};

/// A simplified `srun` launch configuration.
#[derive(Debug, Clone)]
pub struct SrunConfig {
    /// `-n` — number of tasks (MPI ranks) on this node.
    pub ntasks: usize,
    /// `-c` — cores per task; `None` reproduces the Slurm default of one
    /// core per task (the Table 1 misconfiguration).
    pub cpus_per_task: Option<usize>,
    /// `--threads-per-core` — how many hardware threads per core are
    /// schedulable (1 or 2).
    pub threads_per_core: u32,
    /// Reserve the first core of each L3 region for system processes
    /// (Frontier's default, noted under every table of the paper).
    pub reserve_first_core_per_l3: bool,
    /// `--gpu-bind=closest` — assign each rank a GPU from its NUMA domain.
    pub gpu_bind_closest: bool,
}

impl Default for SrunConfig {
    fn default() -> Self {
        SrunConfig {
            ntasks: 1,
            cpus_per_task: None,
            threads_per_core: 1,
            reserve_first_core_per_l3: true,
            gpu_bind_closest: false,
        }
    }
}

/// Errors from launch-plan computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// Requested more cores than the node offers.
    NotEnoughCores {
        /// Cores needed.
        needed: usize,
        /// Cores available after reservations.
        available: usize,
    },
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::NotEnoughCores { needed, available } => write!(
                f,
                "launch needs {needed} cores but only {available} are available"
            ),
        }
    }
}

impl std::error::Error for LaunchError {}

/// The computed placement for one rank.
#[derive(Debug, Clone)]
pub struct RankPlacement {
    /// Rank index on this node.
    pub rank: u32,
    /// Hardware threads the rank's process may use.
    pub cpus_allowed: CpuSet,
    /// GPU physical index assigned (with `gpu_bind_closest`), if any.
    pub gpu: Option<u32>,
}

/// Computes per-rank placements for a launch on `topo`.
pub fn plan_launch(topo: &Topology, cfg: &SrunConfig) -> Result<Vec<RankPlacement>, LaunchError> {
    // Ordered list of usable cores (object ids), skipping reservations.
    let mut usable_cores = Vec::new();
    for l3 in topo.objects_of_kind(ObjectKind::L3Cache) {
        let cores: Vec<_> = topo
            .object(l3)
            .children
            .iter()
            .filter_map(|&c| find_core(topo, c))
            .collect();
        let skip = usize::from(cfg.reserve_first_core_per_l3);
        usable_cores.extend(cores.into_iter().skip(skip));
    }
    if usable_cores.is_empty() {
        // Topology without L3 objects (e.g. Summit preset): fall back to
        // all cores, applying per-package reservation of the last core
        // (the Summit convention).
        for pkg in topo.objects_of_kind(ObjectKind::Package) {
            let mut cores = collect_cores(topo, pkg);
            if cfg.reserve_first_core_per_l3 && !cores.is_empty() {
                cores.pop(); // Summit reserves the last core per socket
            }
            usable_cores.extend(cores);
        }
    }
    let per_task = cfg.cpus_per_task.unwrap_or(1);
    let needed = per_task * cfg.ntasks;
    if usable_cores.len() < needed {
        return Err(LaunchError::NotEnoughCores {
            needed,
            available: usable_cores.len(),
        });
    }
    let mut placements = Vec::with_capacity(cfg.ntasks);
    for rank in 0..cfg.ntasks {
        let mut mask = CpuSet::new();
        for core in &usable_cores[rank * per_task..(rank + 1) * per_task] {
            let pus: Vec<u32> = topo.object(*core).cpuset.iter().collect();
            for &pu in pus.iter().take(cfg.threads_per_core as usize) {
                mask.set(pu);
            }
        }
        let gpu = if cfg.gpu_bind_closest {
            let close = closest_gpus(topo, &mask);
            if close.is_empty() {
                None
            } else {
                // Ranks sharing a NUMA domain round-robin over its GPUs.
                Some(close[rank % close.len()])
            }
        } else {
            None
        };
        placements.push(RankPlacement {
            rank: rank as u32,
            cpus_allowed: mask,
            gpu,
        });
    }
    Ok(placements)
}

fn find_core(topo: &Topology, id: zerosum_topology::ObjId) -> Option<zerosum_topology::ObjId> {
    let o = topo.object(id);
    if o.kind == ObjectKind::Core {
        return Some(id);
    }
    for &c in &o.children {
        if let Some(core) = find_core(topo, c) {
            return Some(core);
        }
    }
    None
}

fn collect_cores(topo: &Topology, id: zerosum_topology::ObjId) -> Vec<zerosum_topology::ObjId> {
    let mut out = Vec::new();
    let mut stack = vec![id];
    while let Some(n) = stack.pop() {
        let o = topo.object(n);
        if o.kind == ObjectKind::Core {
            out.push(n);
            continue;
        }
        for &c in o.children.iter().rev() {
            stack.push(c);
        }
    }
    out.sort_by_key(|&c| topo.object(c).logical_index);
    out
}

/// The "Other" (MPI progress helper) thread mask: every usable hardware
/// thread on the node — the wide affinity list shown for LWP 51374 in
/// Listing 2 of the paper.
pub fn helper_mask(topo: &Topology, cfg: &SrunConfig) -> CpuSet {
    let mut mask = CpuSet::new();
    for p in plan_launch(
        topo,
        &SrunConfig {
            ntasks: 1,
            cpus_per_task: Some(count_usable_cores(topo, cfg)),
            threads_per_core: cfg.threads_per_core,
            ..cfg.clone()
        },
    )
    .into_iter()
    .flatten()
    {
        mask.union_with(&p.cpus_allowed);
    }
    mask
}

fn count_usable_cores(topo: &Topology, cfg: &SrunConfig) -> usize {
    let l3s = topo.count_of_kind(ObjectKind::L3Cache);
    let cores = topo.count_of_kind(ObjectKind::Core);
    if cfg.reserve_first_core_per_l3 {
        if l3s > 0 {
            cores - l3s
        } else {
            cores - topo.count_of_kind(ObjectKind::Package)
        }
    } else {
        cores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerosum_topology::presets;

    #[test]
    fn table1_default_config_one_core_per_rank() {
        let topo = presets::frontier();
        let cfg = SrunConfig {
            ntasks: 8,
            cpus_per_task: None,
            threads_per_core: 1,
            reserve_first_core_per_l3: true,
            gpu_bind_closest: false,
        };
        let plan = plan_launch(&topo, &cfg).unwrap();
        assert_eq!(plan.len(), 8);
        // Rank 0: first usable core is core 1 (core 0 reserved) — the
        // paper's "all of the threads were bound to core 1".
        assert_eq!(plan[0].cpus_allowed.to_list_string(), "1");
        assert_eq!(plan[1].cpus_allowed.to_list_string(), "2");
        assert_eq!(plan[7].cpus_allowed.to_list_string(), "9");
    }

    #[test]
    fn table2_c7_gives_each_rank_an_l3_region() {
        let topo = presets::frontier();
        let cfg = SrunConfig {
            ntasks: 8,
            cpus_per_task: Some(7),
            threads_per_core: 1,
            reserve_first_core_per_l3: true,
            gpu_bind_closest: false,
        };
        let plan = plan_launch(&topo, &cfg).unwrap();
        assert_eq!(plan[0].cpus_allowed.to_list_string(), "1-7");
        assert_eq!(plan[1].cpus_allowed.to_list_string(), "9-15");
        assert_eq!(plan[7].cpus_allowed.to_list_string(), "57-63");
    }

    #[test]
    fn gpu_bind_closest_matches_figure2() {
        let topo = presets::frontier();
        let cfg = SrunConfig {
            ntasks: 8,
            cpus_per_task: Some(7),
            threads_per_core: 1,
            reserve_first_core_per_l3: true,
            gpu_bind_closest: true,
        };
        let plan = plan_launch(&topo, &cfg).unwrap();
        // Ranks 0,1 live in NUMA 0 → GCDs 4,5; ranks 6,7 in NUMA 3 → 0,1.
        assert_eq!(plan[0].gpu, Some(4));
        assert_eq!(plan[1].gpu, Some(5));
        assert_eq!(plan[6].gpu, Some(0));
        assert_eq!(plan[7].gpu, Some(1));
    }

    #[test]
    fn threads_per_core_two_includes_smt() {
        let topo = presets::frontier();
        let cfg = SrunConfig {
            ntasks: 1,
            cpus_per_task: Some(7),
            threads_per_core: 2,
            reserve_first_core_per_l3: true,
            gpu_bind_closest: false,
        };
        let plan = plan_launch(&topo, &cfg).unwrap();
        assert_eq!(plan[0].cpus_allowed.to_list_string(), "1-7,65-71");
    }

    #[test]
    fn oversubscribed_launch_errors() {
        let topo = presets::laptop_i7_1165g7();
        let cfg = SrunConfig {
            ntasks: 16,
            cpus_per_task: Some(2),
            threads_per_core: 1,
            reserve_first_core_per_l3: false,
            gpu_bind_closest: false,
        };
        match plan_launch(&topo, &cfg) {
            Err(LaunchError::NotEnoughCores {
                needed: 32,
                available: 4,
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn helper_mask_is_wide() {
        let topo = presets::frontier();
        let cfg = SrunConfig {
            ntasks: 8,
            cpus_per_task: Some(7),
            threads_per_core: 1,
            reserve_first_core_per_l3: true,
            gpu_bind_closest: false,
        };
        let mask = helper_mask(&topo, &cfg);
        // The Listing 2 wide mask: 56 usable cores, one HWT each.
        assert_eq!(mask.count(), 56);
        assert_eq!(
            mask.to_list_string(),
            "1-7,9-15,17-23,25-31,33-39,41-47,49-55,57-63"
        );
    }

    #[test]
    fn summit_fallback_reserves_last_core_per_socket() {
        let topo = presets::summit();
        let cfg = SrunConfig {
            ntasks: 2,
            cpus_per_task: Some(21),
            threads_per_core: 4,
            reserve_first_core_per_l3: true,
            gpu_bind_closest: false,
        };
        let plan = plan_launch(&topo, &cfg).unwrap();
        // Rank 0 gets socket 0's 21 usable cores, 4 HWTs each: 0-83.
        assert_eq!(plan[0].cpus_allowed.to_list_string(), "0-83");
        // Rank 1 starts at core 22 (HWT 88) — the Figure 1 index skip.
        assert_eq!(plan[1].cpus_allowed.first(), Some(88));
    }
}
