//! miniQMC-sim: the workload proxy for the paper's evaluation.
//!
//! §4 of the paper runs the ECP proxy application miniQMC (a simplified
//! real-space quantum Monte Carlo code) as MPI+OpenMP, in CPU-only and
//! OpenMP-target-offload variants. Only its *scheduling footprint*
//! matters to ZeroSum: per-walker compute blocks with small system-call
//! overhead, a leader serial section, per-block team barriers, and — in
//! the offload variant — kernel launches to one GCD per rank. This
//! module builds that footprint on the simulated node from the same
//! inputs the paper's runs used (`srun` arguments + OpenMP environment).

use zerosum_omp::{launch_team_process, OmpEnv, OmptRegistry, TeamInfo};
use zerosum_sched::launch::helper_mask;
use zerosum_sched::{plan_launch, Behavior, NodeSim, OffloadSpec, SrunConfig, WorkerSpec};
use zerosum_topology::Topology;

/// GPU offload settings of the target-offload variant.
#[derive(Debug, Clone)]
pub struct QmcOffload {
    /// Kernel-launch/transfer overhead (system time) per block, µs.
    pub launch_us: u64,
    /// Kernel time on the device per walker block, µs.
    pub kernel_us: u64,
    /// Post-kernel synchronization system time, µs.
    pub sync_us: u64,
    /// Device bytes touched per rank (spline tables + walkers).
    pub bytes: u64,
}

/// The miniQMC-sim configuration.
#[derive(Debug, Clone)]
pub struct MiniQmcConfig {
    /// Slurm launch parameters (`srun -n… -c…`).
    pub srun: SrunConfig,
    /// OpenMP environment (`OMP_NUM_THREADS`, `OMP_PROC_BIND`,
    /// `OMP_PLACES`).
    pub omp: OmpEnv,
    /// Number of QMC blocks (outer iterations with a team barrier each).
    pub blocks: u32,
    /// Mean walker compute per thread per block, µs.
    pub walker_work_us: u64,
    /// Relative walker-population noise (±).
    pub noise_frac: f64,
    /// System-call time per thread per block, µs.
    pub sys_per_block_us: u64,
    /// Serial (leader-only) work per block, µs.
    pub leader_serial_us: u64,
    /// Leader checkpoint cadence in blocks (0 = never) — periodic
    /// diagnostics/I-O whose long serial section makes waiting team
    /// members exhaust their spin budget and block.
    pub checkpoint_every: u32,
    /// Serial checkpoint work, µs.
    pub checkpoint_extra_us: u64,
    /// Resident set per rank, KiB.
    pub rss_kib: u64,
    /// GPU offload per block, when running the target-offload variant.
    pub offload: Option<QmcOffload>,
}

impl MiniQmcConfig {
    /// The paper's CPU-only Frontier runs (Tables 1–3): 8 ranks, 7
    /// OpenMP threads, ~700 blocks calibrated so the well-configured run
    /// (Table 2/3) takes ≈27 s of virtual time.
    pub fn frontier_cpu() -> Self {
        MiniQmcConfig {
            srun: SrunConfig {
                ntasks: 8,
                cpus_per_task: Some(7),
                threads_per_core: 1,
                reserve_first_core_per_l3: true,
                gpu_bind_closest: false,
            },
            omp: OmpEnv::from_pairs([("OMP_NUM_THREADS", "7")]).unwrap(),
            blocks: 700,
            walker_work_us: 35_000,
            noise_frac: 0.04,
            sys_per_block_us: 450,
            leader_serial_us: 2_500,
            checkpoint_every: 100,
            checkpoint_extra_us: 300_000,
            rss_kib: 2 * 1024 * 1024, // 2 GiB/rank
            offload: None,
        }
    }

    /// The Listing 2 GPU-offload run: 8 ranks × 4 threads, spread/cores,
    /// one MI250X GCD per rank via `--gpu-bind=closest`.
    pub fn frontier_offload() -> Self {
        MiniQmcConfig {
            srun: SrunConfig {
                ntasks: 8,
                cpus_per_task: Some(7),
                threads_per_core: 1,
                reserve_first_core_per_l3: true,
                gpu_bind_closest: true,
            },
            omp: OmpEnv::from_pairs([
                ("OMP_NUM_THREADS", "4"),
                ("OMP_PROC_BIND", "spread"),
                ("OMP_PLACES", "cores"),
            ])
            .unwrap(),
            blocks: 300,
            // Calibrated to Listing 2's per-core shares: ~64% user, ~12.5%
            // system, ~23% idle (GPU synchronization wait).
            walker_work_us: 64_000,
            noise_frac: 0.05,
            sys_per_block_us: 6_000,
            leader_serial_us: 1_000,
            checkpoint_every: 0,
            checkpoint_extra_us: 0,
            rss_kib: 3 * 1024 * 1024,
            offload: Some(QmcOffload {
                launch_us: 6_500,
                kernel_us: 4_200,
                sync_us: 0,
                bytes: 4_839_596_032, // the Listing 2 VRAM peak
            }),
        }
    }

    /// Scales the workload down by `factor` (blocks divided) for fast
    /// tests while preserving per-block structure.
    pub fn scaled_down(mut self, factor: u32) -> Self {
        self.blocks = (self.blocks / factor).max(2);
        if self.checkpoint_every > 0 {
            // Keep ~7 checkpoints across the run and shrink each one so
            // the checkpoint share of the runtime stays constant.
            self.checkpoint_every = (self.blocks / 7).max(1);
            self.checkpoint_extra_us = (self.checkpoint_extra_us / factor as u64).max(1_000);
        }
        self
    }

    /// Expected busy team size per rank.
    pub fn team_size(&self) -> usize {
        self.omp.num_threads.unwrap_or(1)
    }
}

/// A launched miniQMC job.
#[derive(Debug)]
pub struct MiniQmcJob {
    /// Per-rank team info (pid + member tids + binding).
    pub teams: Vec<TeamInfo>,
    /// Per-rank assigned GPU physical index, if offloading.
    pub gpus: Vec<Option<u32>>,
}

/// Launches miniQMC-sim onto the node per the configuration. Each rank
/// becomes a process with its OpenMP team, plus an unbound MPI
/// progress-helper thread (the `Other` LWP of the paper's tables).
pub fn launch(
    sim: &mut NodeSim,
    topo: &Topology,
    cfg: &MiniQmcConfig,
    ompt: &mut OmptRegistry,
) -> Result<MiniQmcJob, zerosum_sched::launch::LaunchError> {
    let plan = plan_launch(topo, &cfg.srun)?;
    let wide = helper_mask(topo, &cfg.srun);
    let mut teams = Vec::new();
    let mut gpus = Vec::new();
    for placement in plan {
        let rank = placement.rank;
        let barrier_id = 1;
        let cfg2 = cfg.clone();
        let gpu = placement.gpu;
        let mk_spec = move |_thread: usize, is_leader: bool| WorkerSpec {
            iterations: cfg2.blocks,
            work_per_iter_us: cfg2.walker_work_us,
            noise_frac: cfg2.noise_frac,
            sys_per_iter_us: cfg2.sys_per_block_us,
            leader_extra_us: cfg2.leader_serial_us,
            checkpoint_every: cfg2.checkpoint_every,
            checkpoint_extra_us: cfg2.checkpoint_extra_us,
            is_leader,
            barrier: Some(barrier_id),
            offload: cfg2.offload.as_ref().map(|o| OffloadSpec {
                device: gpu.unwrap_or(0),
                launch_us: o.launch_us,
                kernel_us: o.kernel_us,
                sync_us: o.sync_us,
                bytes: o.bytes,
            }),
        };
        let team = launch_team_process(
            sim,
            "miniqmc",
            placement.cpus_allowed.clone(),
            cfg.rss_kib,
            &cfg.omp,
            mk_spec,
            ompt,
        );
        sim.set_rank(team.pid, rank);
        // The MPI progress helper: unbound, nearly idle (the ‡ LWP).
        sim.spawn_task(
            team.pid,
            "cxi-helper",
            Some(wide.clone()),
            Behavior::helper_poll(500_000, 200),
            true,
        );
        teams.push(team);
        gpus.push(placement.gpu);
    }
    Ok(MiniQmcJob { teams, gpus })
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerosum_sched::SchedParams;
    use zerosum_topology::presets;

    fn tiny_cpu_cfg() -> MiniQmcConfig {
        let mut cfg = MiniQmcConfig::frontier_cpu().scaled_down(100);
        cfg.walker_work_us = 3_000;
        cfg.leader_serial_us = 300;
        cfg
    }

    #[test]
    fn launch_creates_ranks_teams_and_helpers() {
        let topo = presets::frontier();
        let mut sim = NodeSim::new(topo.clone(), SchedParams::default());
        let mut ompt = OmptRegistry::new();
        let job = launch(&mut sim, &topo, &tiny_cpu_cfg(), &mut ompt).unwrap();
        assert_eq!(job.teams.len(), 8);
        // 7 team members per rank.
        assert_eq!(job.teams[0].tids.len(), 7);
        // Rank 0's process mask is cores 1-7.
        let p = sim.process(job.teams[0].pid).unwrap();
        assert_eq!(p.cpus_allowed.to_list_string(), "1-7");
        assert_eq!(p.rank, Some(0));
        // Helper thread exists with the wide mask (9 tasks total).
        assert_eq!(p.tasks.len(), 8);
        // No GPU in the CPU config.
        assert!(job.gpus.iter().all(|g| g.is_none()));
    }

    #[test]
    fn job_runs_to_completion() {
        let topo = presets::frontier();
        let mut sim = NodeSim::new(topo.clone(), SchedParams::default());
        let mut ompt = OmptRegistry::new();
        launch(&mut sim, &topo, &tiny_cpu_cfg(), &mut ompt).unwrap();
        let done = sim.run_until_apps_done(120_000_000);
        assert!(done.is_some(), "miniqmc-sim must finish");
    }

    #[test]
    fn offload_config_assigns_closest_gcds() {
        let topo = presets::frontier();
        let mut sim = NodeSim::new(topo.clone(), SchedParams::default());
        let mut ompt = OmptRegistry::new();
        let mut cfg = MiniQmcConfig::frontier_offload().scaled_down(100);
        cfg.walker_work_us = 2_000;
        let job = launch(&mut sim, &topo, &cfg, &mut ompt).unwrap();
        // Figure 2 mapping: ranks 0,1 (NUMA 0) get GCDs 4,5; ranks 6,7 get 0,1.
        assert_eq!(job.gpus[0], Some(4));
        assert_eq!(job.gpus[1], Some(5));
        assert_eq!(job.gpus[6], Some(0));
        assert_eq!(job.gpus[7], Some(1));
        // Offload run completes and touches the GPUs.
        sim.run_until_apps_done(300_000_000)
            .expect("offload run finishes");
        assert!(!sim.active_devices().is_empty());
    }

    #[test]
    fn table3_binding_pins_one_thread_per_core() {
        let topo = presets::frontier();
        let mut sim = NodeSim::new(topo.clone(), SchedParams::default());
        let mut ompt = OmptRegistry::new();
        let mut cfg = tiny_cpu_cfg();
        cfg.omp = OmpEnv::from_pairs([
            ("OMP_NUM_THREADS", "7"),
            ("OMP_PROC_BIND", "spread"),
            ("OMP_PLACES", "cores"),
        ])
        .unwrap();
        let job = launch(&mut sim, &topo, &cfg, &mut ompt).unwrap();
        let team = &job.teams[0];
        assert!(team.binding.bound);
        let masks: Vec<String> = team
            .binding
            .masks
            .iter()
            .map(|m| m.to_list_string())
            .collect();
        assert_eq!(masks, vec!["1", "2", "3", "4", "5", "6", "7"]);
    }
}
