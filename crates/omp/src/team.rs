//! Team launch: spawning an OpenMP-style thread team into a [`NodeSim`]
//! process with affinity from the binding policy and OMPT notifications.

use crate::bind::{bind_team, TeamBinding};
use crate::env::OmpEnv;
use crate::ompt::{OmpThreadType, OmptRegistry, ThreadBegin};
use zerosum_proc::{Pid, Tid};
use zerosum_sched::{Behavior, NodeSim, WorkerSpec};
use zerosum_topology::CpuSet;

/// Description of a launched team.
#[derive(Debug, Clone)]
pub struct TeamInfo {
    /// The owning process.
    pub pid: Pid,
    /// LWP ids of the team in thread-number order (index 0 = master, the
    /// process main thread).
    pub tids: Vec<Tid>,
    /// The binding that was applied.
    pub binding: TeamBinding,
}

/// Launches a process whose main thread is the master of an OpenMP team.
///
/// `mk_spec(thread_num, is_master)` builds each member's workload; the
/// spec's `is_leader` flag is overridden to match the master. Worker
/// threads are named `"OpenMP"` (like the AMD runtime's worker naming in
/// the paper's LWP tables). `ompt` receives a `thread-begin` per member,
/// exactly as a 5.1-compliant runtime notifies a registered tool.
#[allow(clippy::too_many_arguments)]
pub fn launch_team_process(
    sim: &mut NodeSim,
    name: &str,
    process_mask: CpuSet,
    rss_kib: u64,
    env: &OmpEnv,
    mk_spec: impl Fn(usize, bool) -> WorkerSpec,
    ompt: &mut OmptRegistry,
) -> TeamInfo {
    let team_size = env
        .num_threads
        .unwrap_or_else(|| process_mask.count().max(1));
    let binding = bind_team(sim.topology(), env, &process_mask, team_size);
    // Master (main thread).
    let mut spec = mk_spec(0, true);
    spec.is_leader = true;
    let pid = sim.spawn_process(name, process_mask, rss_kib, Behavior::worker(spec));
    sim.set_task_affinity(pid, binding.masks[0].clone());
    let mut tids = vec![pid];
    ompt.emit_thread_begin(ThreadBegin {
        thread_num: 0,
        tid: pid,
        thread_type: OmpThreadType::Initial,
    });
    // Workers.
    for i in 1..team_size {
        let mut spec = mk_spec(i, false);
        spec.is_leader = false;
        let tid = sim.spawn_task(
            pid,
            "OpenMP",
            Some(binding.masks[i].clone()),
            Behavior::worker(spec),
            false,
        );
        tids.push(tid);
        ompt.emit_thread_begin(ThreadBegin {
            thread_num: i,
            tid,
            thread_type: OmpThreadType::Worker,
        });
    }
    TeamInfo { pid, tids, binding }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerosum_sched::SchedParams;
    use zerosum_topology::presets;

    fn spec(iters: u32) -> WorkerSpec {
        WorkerSpec {
            iterations: iters,
            work_per_iter_us: 2_000,
            noise_frac: 0.0,
            sys_per_iter_us: 0,
            leader_extra_us: 0,
            checkpoint_every: 0,
            checkpoint_extra_us: 0,
            is_leader: false,
            barrier: Some(1),
            offload: None,
        }
    }

    #[test]
    fn team_spawns_bound_threads_and_fires_ompt() {
        let mut sim = NodeSim::new(presets::frontier(), SchedParams::default());
        let env = OmpEnv::from_pairs([
            ("OMP_NUM_THREADS", "7"),
            ("OMP_PROC_BIND", "spread"),
            ("OMP_PLACES", "cores"),
        ])
        .unwrap();
        let mask = CpuSet::parse_list("1-7").unwrap();
        let mut evs = Vec::new();
        let mut ompt = OmptRegistry::new();
        ompt.on_thread_begin(|ev| evs.push(ev));
        let team = launch_team_process(
            &mut sim,
            "miniqmc",
            mask,
            4096,
            &env,
            |_, _| spec(3),
            &mut ompt,
        );
        assert_eq!(team.tids.len(), 7);
        assert!(team.binding.bound);
        // OMPT saw all 7 threads, master first.
        drop(ompt);
        assert_eq!(evs.len(), 7);
        assert_eq!(evs[0].thread_num, 0);
        assert_eq!(evs[0].thread_type, OmpThreadType::Initial);
        assert_eq!(evs[6].thread_num, 6);
        // Affinity applied: worker 3 pinned to core 4.
        let t = sim.task_by_tid(team.tids[3]).unwrap();
        assert_eq!(t.affinity.to_list_string(), "4");
        // The team runs to completion.
        let done = sim.run_until_apps_done(60_000_000);
        assert!(done.is_some());
    }

    #[test]
    fn default_team_size_is_mask_width() {
        let mut sim = NodeSim::new(presets::frontier(), SchedParams::default());
        let env = OmpEnv::default();
        let mask = CpuSet::parse_list("1-7").unwrap();
        let mut ompt = OmptRegistry::new();
        let team = launch_team_process(&mut sim, "app", mask, 64, &env, |_, _| spec(1), &mut ompt);
        // taskset of 7 CPUs ⇒ team of 7 (the §3.1.2 example).
        assert_eq!(team.tids.len(), 7);
        assert!(!team.binding.bound);
    }

    #[test]
    fn master_is_leader_in_spec() {
        let mut sim = NodeSim::new(presets::laptop_i7_1165g7(), SchedParams::default());
        let env = OmpEnv::from_pairs([("OMP_NUM_THREADS", "2")]).unwrap();
        let mut ompt = OmptRegistry::new();
        let team = launch_team_process(
            &mut sim,
            "app",
            CpuSet::from_indices([0u32, 1]),
            64,
            &env,
            |_, _| spec(2),
            &mut ompt,
        );
        assert_eq!(team.tids[0], team.pid);
        sim.run_until_apps_done(60_000_000).expect("finishes");
    }
}
