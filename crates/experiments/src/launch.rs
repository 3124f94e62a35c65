//! The one launcher of a monitored miniQMC job, shared by every artifact
//! that watches miniQMC run: Tables 1–3, Listing 2, Figures 6–8, the
//! `srun -c N` sweep and the allocation demo.

use zerosum_apps::{launch_miniqmc, MiniQmcConfig, MiniQmcJob};
use zerosum_core::{attach_monitor_threads, Monitor, ProcessInfo, ZeroSumConfig};
use zerosum_omp::OmptRegistry;
use zerosum_sched::NodeSim;
use zerosum_topology::Topology;

/// Launches miniQMC on `sim` (seed, tracing and hostname are already the
/// caller's) and puts a fresh monitor on it, in the order the real tool
/// meets a job: the OMPT `thread-begin` capture (§3.1.2), the launch,
/// every rank watched with its GPU, every OpenMP thread the runtime
/// reported registered, and the monitor threads attached. Running the
/// job is the caller's.
pub(crate) fn launch_monitored(
    sim: &mut NodeSim,
    topo: &Topology,
    qmc: &MiniQmcConfig,
    zs: ZeroSumConfig,
) -> (MiniQmcJob, Monitor) {
    let mut omp_tids = Vec::new();
    let mut ompt = OmptRegistry::new();
    ompt.on_thread_begin(|ev| omp_tids.push(ev.tid));
    let job = launch_miniqmc(sim, topo, qmc, &mut ompt).expect("launch");
    drop(ompt);
    let mut monitor = Monitor::new(zs);
    for (team, gpu) in job.teams.iter().zip(&job.gpus) {
        let process = sim.process(team.pid);
        monitor.watch_process(ProcessInfo {
            pid: team.pid,
            rank: process.and_then(|p| p.rank),
            hostname: sim.hostname().to_string(),
            gpus: gpu.iter().copied().collect(),
            cpus_allowed: process.map(|p| p.cpus_allowed.clone()).unwrap_or_default(),
        });
    }
    for tid in omp_tids {
        if let Some(task) = sim.task_by_tid(tid) {
            monitor.register_omp_thread(task.pid, tid);
        }
    }
    attach_monitor_threads(sim, &monitor);
    (job, monitor)
}
