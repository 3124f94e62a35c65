//! Deterministic sim-churn backend: replays a seeded open-system
//! arrival schedule from `zerosum-apps::churn` against the node
//! simulation, so the lifecycle soak is bit-reproducible in CI.
//!
//! The storm exercises exactly the machinery a live node stresses:
//!
//! * **Thread churn** — each non-reuse arrival spawns a Zipf-sized team
//!   of finite-compute threads inside one of a fixed set of watched
//!   slot processes; short-lived arrivals are born and dead between two
//!   samples, so the monitor only ever sees their departure.
//! * **PID reuse** — reuse arrivals recycle a watched pid through
//!   [`NodeSim::respawn_process_with_pid`] once its previous
//!   incarnation has fully exited (guarded against same-jiffy respawns,
//!   where `/proc` starttime could not discriminate either).
//! * **Exit races** — an optional [`ExitRace`] wrap makes a residue
//!   class of worker tids vanish between `list_tasks` and the per-task
//!   reads, deterministically, on top of the organic churn.
//! * **Governor load** — each round reports a modeled cost that grows
//!   with the live task count, so an arrival-rate ramp pushes the
//!   monitor over budget and the overhead governor must shed honestly.
//!
//! [`run_sim_churn`] returns a [`SimChurnOutcome`] carrying everything
//! the `analyze::churn_chaos` judges assert on, including a FNV
//! fingerprint over the per-round observable state (the
//! bit-reproducibility witness).

use zerosum_apps::churn::{generate_schedule, Arrival, ChurnConfig};
use zerosum_core::{Monitor, MonitorCost, ProcessInfo, ZeroSumConfig};
use zerosum_proc::{ExitRace, Pid, ProcSource};
use zerosum_sched::{Behavior, NodeSim, SchedParams, SimProcSource};
use zerosum_topology::{presets, CpuSet};

/// Microseconds per jiffy at `USER_HZ` = 100 — must match the sim
/// source's starttime quantization for the same-jiffy reuse guard.
const US_PER_JIFFY: u64 = 1_000_000 / zerosum_proc::USER_HZ;

/// Watched processes a soak registers: the first `WATCH_SLOTS -
/// REUSE_SLOTS` are long-lived and receive thread churn, the others
/// are cycled through pid reuse.
const WATCH_SLOTS: usize = 5;
const REUSE_SLOTS: usize = 2;

/// Sim-backend knobs on top of the shared [`ChurnConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimChurnParams {
    /// The storm shape (shared with the real storm, `__churn-storm`).
    pub churn: ChurnConfig,
    /// When nonzero, wrap the source in [`ExitRace`] with this modulus
    /// (residue 0): listed worker tids in the class vanish on read.
    pub vanish_mod: u64,
    /// `max_exited_tracks` for the monitor config: small enough that
    /// the soak proves compaction engages.
    pub max_exited_tracks: usize,
}

impl Default for SimChurnParams {
    fn default() -> Self {
        SimChurnParams {
            churn: ChurnConfig::default(),
            vanish_mod: 0,
            max_exited_tracks: 128,
        }
    }
}

/// One incarnation of a reuse-slot process, for the judge's
/// observed-incarnation lower bound.
#[derive(Debug, Clone, Copy)]
struct Incarnation {
    spawn_us: u64,
    /// Guaranteed-alive window: a churn task's op durations sum to its
    /// lifetime, so it stays listed for at least this long.
    alive_us: u64,
}

/// Everything the churn judges assert on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimChurnOutcome {
    /// Sampling rounds completed.
    pub rounds: u64,
    /// Task samples taken (live listed tasks summed over all rounds) —
    /// the numerator of the `churn_samples_per_sec` bench figure.
    pub task_samples: u64,
    /// Arrivals injected (thread churn + reuse).
    pub arrivals: u64,
    /// Tasks spawned across all arrivals (all incarnations).
    pub spawned_tasks: u64,
    /// Successful pid recycles.
    pub reuses_done: u64,
    /// Reuse arrivals that fell back to thread churn (previous
    /// incarnation still alive, or same-jiffy respawn).
    pub reuse_fallbacks: u64,
    /// Short-lived arrivals (< one sampling period).
    pub short_lived: u64,
    /// Monitor departure accounting (`SampleStats::vanished`).
    pub vanished: u64,
    /// Monitor hard read errors (`SampleStats::errors`).
    pub errors: u64,
    /// Sampling-loop panics caught by the supervisor.
    pub supervisor_restarts: u64,
    /// Quarantine entries across all ledgers.
    pub quarantine_events: u64,
    /// Merged ledger error tallies by [`SourceErrorKind`] index.
    pub errors_by_kind: [u64; 4],
    /// Peak per-round lifecycle footprint (tracks + health states +
    /// delta-gate entries) across all watches.
    pub peak_footprint: usize,
    /// Footprint at the final round.
    pub final_footprint: usize,
    /// Peak live listed tasks across watched pids in any round.
    pub peak_live_tasks: usize,
    /// Retained LWP tracks at the end, all watches.
    pub tracks_retained: u64,
    /// Compacted-away dead tracks, all watches.
    pub tracks_departed: u64,
    /// Main-thread tracks retained on reuse-slot watches (one per
    /// observed incarnation when the registry keys by starttime).
    pub reuse_main_tracks: u64,
    /// Distinct starttimes among those tracks — equal to
    /// `reuse_main_tracks` when no two incarnations were merged.
    pub reuse_distinct_starttimes: u64,
    /// Incarnations guaranteed observed (a sample fell inside their
    /// guaranteed-alive window) — lower bound for `reuse_main_tracks`.
    pub reuse_observed_floor: u64,
    /// Total reuse-slot incarnations (initial spawn + recycles) —
    /// upper bound for `reuse_main_tracks`.
    pub reuse_incarnations: u64,
    /// Governor period changes recorded.
    pub governor_changes: u64,
    /// Rounds that shed per-task detail.
    pub shed_rounds: u64,
    /// Budget overruns the governor could not absorb.
    pub governor_overruns: u64,
    /// Effective sampling period at the end, µs.
    pub final_period_us: u64,
    /// FNV-1a fingerprint over per-round observable state: equal
    /// fingerprints mean bit-identical soaks.
    pub fingerprint: u64,
}

fn fnv(h: u64, v: u64) -> u64 {
    let mut h = h;
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The behavior of one churn task: a wall-clock lifetime at a ~12%
/// duty cycle, so a storm of them churns `/proc` without saturating the
/// simulated cores (their lifetime is schedule policy, not CPU demand).
fn churn_behavior(lifetime_us: u64) -> Behavior {
    let spin = (lifetime_us / 16).clamp(200, 2_000);
    Behavior::finite_task(lifetime_us, spin, spin * 7)
}

/// Runs the deterministic churn soak. Pure function of `p` — same
/// params, same [`SimChurnOutcome::fingerprint`], bit for bit.
pub fn run_sim_churn(p: &SimChurnParams) -> SimChurnOutcome {
    let cfg = &p.churn;
    let schedule = generate_schedule(cfg);
    let mut sim = NodeSim::new(
        presets::laptop_i7_1165g7(),
        SchedParams {
            seed: cfg.seed,
            ..SchedParams::default()
        },
    );
    sim.set_hostname("churn-sim");
    let mask = CpuSet::range(0, 7);
    let mut mon = Monitor::new(ZeroSumConfig {
        period_us: cfg.period_us,
        max_exited_tracks: p.max_exited_tracks,
        // A lean fixed cost so the per-task model term dominates: the
        // governor should react to the storm, not to the baseline.
        cost: MonitorCost {
            sys_us: 100,
            user_us: 50,
        },
        ..ZeroSumConfig::default()
    });
    let mut out = SimChurnOutcome::default();

    // Fixed watch set: churn flows through these, the watch list itself
    // never grows (watches are operator registrations, not churn).
    let mut thread_pids = Vec::new();
    for i in 0..WATCH_SLOTS - REUSE_SLOTS {
        let pid = sim.spawn_process(
            &format!("churn-slot{i}"),
            mask.clone(),
            2_048,
            Behavior::Sleeper,
        );
        thread_pids.push(pid);
    }
    let mut reuse_pids = Vec::new();
    let mut incarnations: Vec<Incarnation> = Vec::new();
    for i in 0..REUSE_SLOTS {
        let pid = sim.spawn_process(
            &format!("churn-reuse{i}"),
            mask.clone(),
            1_024,
            Behavior::finite_task(cfg.period_us, 500, 2_000),
        );
        reuse_pids.push(pid);
        incarnations.push(Incarnation {
            spawn_us: sim.now_us(),
            alive_us: cfg.period_us,
        });
        out.spawned_tasks += 1;
        out.reuse_incarnations += 1;
    }
    for &pid in thread_pids.iter().chain(&reuse_pids) {
        mon.watch_process(ProcessInfo {
            pid,
            rank: None,
            hostname: "churn-sim".into(),
            gpus: vec![],
            cpus_allowed: mask.clone(),
        });
        out.spawned_tasks += u64::from(thread_pids.contains(&pid));
    }

    let mut thread_rr = 0usize;
    let mut reuse_rr = 0usize;
    let mut inject = |sim: &mut NodeSim,
                      a: &Arrival,
                      out: &mut SimChurnOutcome,
                      incarnations: &mut Vec<Incarnation>| {
        out.arrivals += 1;
        out.short_lived += u64::from(a.short);
        let mut as_thread_churn = true;
        if a.reuse && !reuse_pids.is_empty() {
            let pid = reuse_pids[reuse_rr % reuse_pids.len()];
            reuse_rr += 1;
            // Only recycle a fully exited pid, and only when the new
            // starttime lands in a different jiffy — on the same jiffy
            // real /proc could not discriminate the incarnations either,
            // so the monitor cannot be asked to.
            let same_jiffy = sim
                .task_by_tid(pid)
                .map(|t| t.spawned_at_us / US_PER_JIFFY == sim.now_us() / US_PER_JIFFY)
                .unwrap_or(true);
            if sim.process_exited(pid) && !same_jiffy {
                sim.respawn_process_with_pid(
                    pid,
                    "churn-reuse",
                    mask.clone(),
                    1_024,
                    churn_behavior(a.lifetime_us),
                );
                incarnations.push(Incarnation {
                    spawn_us: sim.now_us(),
                    alive_us: a.lifetime_us,
                });
                out.spawned_tasks += 1;
                out.reuses_done += 1;
                out.reuse_incarnations += 1;
                as_thread_churn = false;
            } else {
                out.reuse_fallbacks += 1;
            }
        }
        if as_thread_churn {
            let pid = thread_pids[thread_rr % thread_pids.len()];
            thread_rr += 1;
            for _ in 0..a.threads.max(1) {
                sim.spawn_task(pid, "churn", None, churn_behavior(a.lifetime_us), true);
                out.spawned_tasks += 1;
            }
        }
    };

    let base_cost = mon.config.cost.total_us();
    // Modeled monitor cost per live task per round, µs: a ramp's is
    // what overloads the governor.
    let per_task_cost_us = if cfg.ramp { 120 } else { 5 };
    let watched: Vec<Pid> = thread_pids.iter().chain(&reuse_pids).copied().collect();
    let mut sample_times = Vec::new();
    let mut listing = Vec::new(); // every watch's, every round
    let mut fp = 0xcbf2_9ce4_8422_2325u64;
    let mut next = 0usize;
    while sim.now_us() < cfg.duration_us {
        // Re-read each round: the governor may have widened the period.
        let period = mon.effective_period_us().max(1_000);
        let target = (sim.now_us() + period).min(cfg.duration_us);
        while next < schedule.arrivals.len() && schedule.arrivals[next].at_us <= target {
            let a = schedule.arrivals[next];
            next += 1;
            let dt = a.at_us.saturating_sub(sim.now_us());
            if dt > 0 {
                sim.run_for(dt);
            }
            inject(&mut sim, &a, &mut out, &mut incarnations);
        }
        let rest = target.saturating_sub(sim.now_us());
        if rest > 0 {
            sim.run_for(rest);
        }
        let now = sim.now_us();
        let t_s = now as f64 / 1e6;
        sample_times.push(now);
        let live: usize = {
            let src = SimProcSource::new(&sim);
            if p.vanish_mod > 0 {
                let raced = ExitRace::new(&src, p.vanish_mod, 0);
                mon.sample(t_s, &raced);
            } else {
                mon.sample(t_s, &src);
            }
            watched
                .iter()
                .map(|&pid| {
                    src.list_tasks_into(pid, &mut listing)
                        .map_or(0, |()| listing.len())
                })
                .sum()
        };
        let backoff = mon.take_backoff_us();
        if backoff > 0 {
            sim.run_for(backoff);
        }
        mon.note_round_cost(t_s, base_cost + per_task_cost_us * live as u64 + backoff);
        out.rounds += 1;
        out.task_samples += live as u64;
        out.peak_live_tasks = out.peak_live_tasks.max(live);
        let footprint: usize = mon
            .processes()
            .iter()
            .map(|w| w.lwps.len() + w.health.footprint() + w.delta_gate_len())
            .sum();
        out.peak_footprint = out.peak_footprint.max(footprint);
        out.final_footprint = footprint;
        for v in [
            out.rounds,
            live as u64,
            footprint as u64,
            mon.stats.vanished,
            mon.stats.errors,
            mon.stats.delta_hits,
            mon.effective_period_us(),
        ] {
            fp = fnv(fp, v);
        }
    }

    out.vanished = mon.stats.vanished;
    out.errors = mon.stats.errors;
    out.supervisor_restarts = mon.supervisor.restarts;
    let ledger = mon.health_total();
    out.quarantine_events = ledger.quarantine_events;
    out.errors_by_kind = ledger.errors_by_kind;
    for w in mon.processes() {
        out.tracks_retained += w.lwps.len() as u64;
        out.tracks_departed += w.lwps.departed().tracks;
    }
    // Reuse accounting: each observed incarnation of a recycled pid
    // must have its own track, keyed by starttime.
    for &pid in &reuse_pids {
        if let Some(w) = mon.process(pid) {
            let mut starts: Vec<u64> = w
                .lwps
                .tracks()
                .filter(|t| t.tid == pid)
                .map(|t| t.starttime)
                .collect();
            out.reuse_main_tracks += starts.len() as u64;
            starts.sort_unstable();
            starts.dedup();
            out.reuse_distinct_starttimes += starts.len() as u64;
        }
    }
    out.reuse_observed_floor = incarnations
        .iter()
        .filter(|inc| {
            sample_times
                .iter()
                .any(|&t| t > inc.spawn_us && t < inc.spawn_us + inc.alive_us)
        })
        .count() as u64;
    out.governor_changes = mon.governor.changes.len() as u64;
    out.shed_rounds = mon.governor.shed_rounds;
    out.governor_overruns = mon.governor.overruns;
    out.final_period_us = mon.effective_period_us();
    out.fingerprint = fp;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerosum_proc::SourceErrorKind;

    #[test]
    fn sim_churn_is_bit_reproducible() {
        let p = SimChurnParams::default();
        let a = run_sim_churn(&p);
        let b = run_sim_churn(&p);
        assert_eq!(a, b, "same params must reproduce bit-identically");
        assert!(a.rounds > 10);
        assert!(a.arrivals > 50, "{a:?}");
        let other = run_sim_churn(&SimChurnParams {
            churn: ChurnConfig {
                seed: 99,
                ..p.churn
            },
            ..p
        });
        assert_ne!(a.fingerprint, other.fingerprint, "seed must matter");
    }

    #[test]
    fn sim_churn_survives_without_errors_or_quarantine() {
        let out = run_sim_churn(&SimChurnParams::default());
        assert_eq!(out.supervisor_restarts, 0);
        assert_eq!(out.errors, 0, "{out:?}");
        assert_eq!(out.quarantine_events, 0, "{out:?}");
        // Organic churn produces departures, not error storms.
        assert!(out.spawned_tasks > 100, "{out:?}");
        assert!(out.reuses_done > 0, "{out:?}");
    }

    #[test]
    fn exit_race_wrap_folds_into_departure_accounting() {
        let out = run_sim_churn(&SimChurnParams {
            vanish_mod: 3,
            ..SimChurnParams::default()
        });
        assert_eq!(out.supervisor_restarts, 0);
        assert_eq!(out.errors, 0, "NotFound must never be an error: {out:?}");
        assert_eq!(out.quarantine_events, 0, "{out:?}");
        assert!(out.vanished > 0, "{out:?}");
        // The injected NotFounds are visible in the retry ledger only
        // under their own kind.
        assert!(out.errors_by_kind[SourceErrorKind::NotFound as usize] > 0);
        assert_eq!(out.errors_by_kind[SourceErrorKind::Io as usize], 0);
    }

    #[test]
    fn memory_stays_bounded_as_cumulative_tasks_grow() {
        let p = SimChurnParams {
            churn: ChurnConfig {
                duration_us: 4_000_000,
                ..ChurnConfig::default()
            },
            max_exited_tracks: 64,
            ..SimChurnParams::default()
        };
        let out = run_sim_churn(&p);
        // Cumulative incarnations far exceed what any round retains.
        assert!(out.spawned_tasks > 300, "{out:?}");
        let bound = 4 * (out.peak_live_tasks + WATCH_SLOTS * p.max_exited_tracks) + 64;
        assert!(
            out.peak_footprint <= bound,
            "footprint {} exceeds churn-proportional bound {bound}: {out:?}",
            out.peak_footprint
        );
        // Compaction really engaged and accounting reconciles: nothing
        // retained or compacted is double-counted.
        assert!(out.tracks_departed > 0, "{out:?}");
        assert!(out.tracks_retained + out.tracks_departed <= out.spawned_tasks);
    }

    #[test]
    fn reused_pids_never_merge_or_double_count() {
        let out = run_sim_churn(&SimChurnParams::default());
        assert!(out.reuses_done > 0, "soak must exercise pid reuse");
        assert_eq!(
            out.reuse_main_tracks, out.reuse_distinct_starttimes,
            "two incarnations merged into one starttime: {out:?}"
        );
        assert!(
            out.reuse_main_tracks >= out.reuse_observed_floor,
            "observed incarnations missing their own track: {out:?}"
        );
        assert!(
            out.reuse_main_tracks <= out.reuse_incarnations,
            "more main tracks than incarnations (double count): {out:?}"
        );
    }

    #[test]
    fn governor_sheds_honestly_under_arrival_ramp() {
        let out = run_sim_churn(&SimChurnParams {
            churn: ChurnConfig {
                ramp: true,
                duration_us: 4_000_000,
                ..ChurnConfig::default()
            },
            ..SimChurnParams::default()
        });
        assert_eq!(out.supervisor_restarts, 0);
        // The ramp must overload the budget, and the governor must
        // respond by widening the period (and/or shedding), not by
        // silently missing deadlines.
        assert!(
            out.governor_changes > 0 || out.shed_rounds > 0,
            "governor never reacted to the ramp: {out:?}"
        );
        if out.governor_changes > 0 {
            assert!(
                out.final_period_us > ChurnConfig::default().period_us,
                "changes recorded but the period never widened: {out:?}"
            );
        }
    }
}
