//! `zerosum shard-diff` — the N-shards-vs-1-shard equivalence gate.
//!
//! One sampling engine runs every round; [`ShardedMonitor`] spreads it
//! over per-HWT-group shards — on the driver thread or on threads of
//! their own — while claiming aggregates *bit-identical* to the
//! one-inline-shard round `Monitor::sample` runs. This module is that
//! claim's CI gate, in two parts:
//!
//! 1. **Seeded differential** ([`run_shard_differential`]): for each
//!    seed, build a randomized node (topology, rank count, thread
//!    counts, work durations, affinity layout, shard count, shard mode,
//!    round cadence all seed-derived), run the same schedule through
//!    `Monitor::sample` and through a sharded monitor over independent
//!    but identically constructed simulations, and require the full
//!    observable state — the published [`SampleSnapshot`], sampling
//!    stats, merged health ledger, governor and supervisor records, and
//!    every watch's RSS series / affinity / gone flag — to compare
//!    equal, byte for byte in `Debug` form. Short-lived ranks are part of the mix, so the
//!    vanish/exit path is differentiated too, on every seed.
//!
//! 2. **Chaos isolation** ([`run_shard_chaos`]): wrap exactly one
//!    shard's source in a seeded [`FaultInjector`]
//!    (`FaultyShardSource`) and leave the others clean. Every round
//!    must still complete, the supervisor must catch nothing, faults
//!    must demonstrably fire — and the watches owned by the *other*
//!    shards must finish bit-identical to a fault-free reference run.
//!    A fault on one shard that stalls, skews, or corrupts another
//!    shard's round fails this gate.

use std::fmt::Write as _;
use std::sync::{Arc, PoisonError};

use crate::verdict::{guarded, Verdict};
use zerosum_core::feed::snapshot_of;
use zerosum_core::{
    FaultyShardSource, Monitor, ProcessInfo, ShardMode, ShardedMonitor, SimShardSource, TrackedRw,
    VanishShardSource, ZeroSumConfig,
};
use zerosum_proc::fault::{FaultInjector, FaultPlan, FaultRates, Op};
use zerosum_proc::ExitRace;
use zerosum_sched::{Behavior, NodeSim, SchedParams, SimProcSource};
use zerosum_topology::{presets, CpuSet};

/// Deterministic xorshift64* stream for scenario derivation.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        // Avoid the all-zeros fixed point.
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// The seed-derived scenario shape shared by the one-shard and sharded
/// runs of one differential case.
struct Scenario {
    ranks: u32,
    threads_per_rank: Vec<u32>,
    work_us: Vec<u64>,
    nshards: usize,
    mode: ShardMode,
    rounds: u64,
    advance_us: u64,
    laptop: bool,
    /// When nonzero, wrap both runs' sources in an exit-race shim:
    /// worker tids in residue class 0 mod `vanish_mod` stay listed but
    /// vanish on read — departures inside a round, on every round.
    vanish_mod: u64,
}

impl Scenario {
    fn derive(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let ranks = 2 + rng.below(3) as u32; // 2..=4
        let mut threads_per_rank = Vec::new();
        let mut work_us = Vec::new();
        for _ in 0..ranks {
            threads_per_rank.push(1 + rng.below(5) as u32); // 1..=5
                                                            // A third of the ranks finish mid-run, exercising the
                                                            // vanish/exit fold path under sharding.
            let short = rng.below(3) == 0;
            work_us.push(if short {
                200_000 + rng.below(400_000)
            } else {
                60_000_000
            });
        }
        Scenario {
            ranks,
            threads_per_rank,
            work_us,
            nshards: 1 + rng.below(4) as usize, // 1..=4
            mode: if rng.below(4) == 0 {
                ShardMode::Threads
            } else {
                ShardMode::Inline
            },
            rounds: 4 + rng.below(5), // 4..=8
            advance_us: 150_000 + rng.below(250_000),
            laptop: rng.below(2) == 0,
            // Drawn last so pre-existing seeds keep their shapes: a
            // third of seeds race a residue class of workers into
            // mid-round departure (modulus 2..=4).
            vanish_mod: if rng.below(3) == 0 {
                2 + rng.below(3)
            } else {
                0
            },
        }
    }

    fn shape(&self) -> String {
        let vanish = if self.vanish_mod > 0 {
            format!(", vanish%{}", self.vanish_mod)
        } else {
            String::new()
        };
        format!(
            "{} ranks×{:?} thr, {} shards, {:?}, {} rounds{vanish}",
            self.ranks, self.threads_per_rank, self.nshards, self.mode, self.rounds
        )
    }

    /// Builds the node and a monitor watching every rank. Both runs of
    /// a differential case call this with the same scenario, so the two
    /// simulations are identically constructed and evolve identically.
    fn build(&self) -> (NodeSim, Monitor, Vec<u32>) {
        let topo = if self.laptop {
            presets::laptop_i7_1165g7()
        } else {
            presets::frontier()
        };
        let hwts = topo.complete_cpuset().count() as u32;
        let mut sim = NodeSim::new(topo, SchedParams::default());
        let mut monitor = Monitor::new(ZeroSumConfig::default());
        let span = (hwts / self.ranks).max(1);
        let mut pids = Vec::new();
        for r in 0..self.ranks {
            let base = (r * span) % hwts;
            let mask = CpuSet::from_indices(base..(base + span).min(hwts));
            let work = self.work_us.get(r as usize).copied().unwrap_or(1_000_000);
            let pid = sim.spawn_process(
                &format!("rank{r}"),
                mask.clone(),
                150_000,
                Behavior::FiniteCompute {
                    remaining_us: work,
                    chunk_us: 10_000,
                },
            );
            let threads = self.threads_per_rank.get(r as usize).copied().unwrap_or(1);
            for w in 1..threads {
                sim.spawn_task(
                    pid,
                    &format!("w{w}"),
                    None,
                    Behavior::FiniteCompute {
                        remaining_us: work,
                        chunk_us: 10_000,
                    },
                    false,
                );
            }
            monitor.watch_process(ProcessInfo {
                pid,
                rank: Some(r),
                hostname: "diff".into(),
                gpus: vec![],
                cpus_allowed: mask,
            });
            pids.push(pid);
        }
        (sim, monitor, pids)
    }

    fn t_s(&self, round: u64) -> f64 {
        (round + 1) as f64 * self.advance_us as f64 * 1e-6
    }
}

/// Everything the differential compares, as one deterministic string
/// (fixed-layout structs, arrays, and `Ring`s only — no hash-ordered
/// containers).
fn fingerprint(mon: &Monitor) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "snapshot: {:?}", snapshot_of(mon));
    let _ = writeln!(out, "stats: {:?}", mon.stats);
    let _ = writeln!(out, "health: {:?}", mon.health_total());
    let _ = writeln!(out, "governor: {:?}", mon.governor);
    let _ = writeln!(out, "supervisor: {:?}", mon.supervisor);
    for w in mon.processes() {
        let _ = writeln!(
            out,
            "watch {}: gone={} cpus={} rss={:?}",
            w.info.pid,
            w.gone,
            w.cpus_allowed.to_list_string(),
            w.rss_series
        );
    }
    out
}

/// First line on which two fingerprints differ, for the report.
fn first_diff(a: &str, b: &str) -> String {
    for (la, lb) in a.lines().zip(b.lines()) {
        if la != lb {
            return format!("1 shard: {la} | sharded: {lb}");
        }
    }
    format!(
        "fingerprint lengths differ ({} vs {} lines)",
        a.lines().count(),
        b.lines().count()
    )
}

/// Runs one seed's one-shard reference: `Monitor::sample`. The
/// exit-race shim is always layered (modulus 0 is transparent) so both
/// runs read through the same stack.
fn run_one_shard(sc: &Scenario) -> Monitor {
    let (mut sim, mut monitor, _) = sc.build();
    for r in 0..sc.rounds {
        sim.run_for(sc.advance_us);
        let src = SimProcSource::new(&sim);
        let raced = ExitRace::new(&src, sc.vanish_mod, 0);
        monitor.sample(sc.t_s(r), &raced);
    }
    monitor
}

/// Runs one seed's sharded counterpart over an identically built node.
fn run_sharded(sc: &Scenario) -> Monitor {
    let (sim, monitor, _) = sc.build();
    let sim = Arc::new(TrackedRw::new("analyze.sharddiff.sim", sim));
    let mut sharded = ShardedMonitor::new(monitor, sc.nshards, sc.mode);
    let shard_sim = Arc::clone(&sim);
    let vanish_mod = sc.vanish_mod;
    sharded.run_rounds(
        move |_| VanishShardSource::new(SimShardSource::new(Arc::clone(&shard_sim)), vanish_mod, 0),
        sc.rounds,
        |r| {
            sim.write()
                .unwrap_or_else(PoisonError::into_inner)
                .run_for(sc.advance_us);
            sc.t_s(r)
        },
    );
    sharded.into_monitor()
}

/// The seeded N-shards-vs-1-shard differential over seeds `0..seeds`:
/// one verdict per seed, its cells the scenario's shape.
pub fn run_shard_differential(seeds: u64) -> Vec<Verdict> {
    (0..seeds)
        .map(|seed| {
            guarded(Verdict::new(format!("shard-{seed:02}"), 9, seed), |v| {
                let sc = Scenario::derive(seed);
                v.cells = sc.shape();
                let one_shard = fingerprint(&run_one_shard(&sc));
                let sharded = fingerprint(&run_sharded(&sc));
                if one_shard != sharded {
                    v.problems.push(first_diff(&one_shard, &sharded));
                }
            })
        })
        .collect()
}

/// Fault rates aimed at one shard's task reads: heavy transient I/O
/// (retry path) plus occasional torn records (degrade/drop path), no
/// exit races so the victim stays observable every round.
fn victim_rates() -> FaultRates {
    FaultRates {
        io_transient: 0.35,
        malformed: 0.05,
        ..FaultRates::default()
    }
}

/// The fault seed `zerosum shard-diff` runs [`run_shard_chaos`] with.
pub const SHARD_CHAOS_SEED: u64 = 0x000C_5A05;

/// The chaos-isolation drill: three ranks on three shards, faults
/// injected into shard 1 only. Returns failure descriptions.
pub fn run_shard_chaos(fault_seed: u64) -> Vec<String> {
    let sc = Scenario {
        ranks: 3,
        threads_per_rank: vec![2, 3, 2],
        work_us: vec![60_000_000; 3],
        nshards: 3,
        mode: ShardMode::Inline,
        rounds: 6,
        advance_us: 200_000,
        laptop: false,
        vanish_mod: 0,
    };
    let run = |faulty: bool| -> (Monitor, u64) {
        let (sim, monitor, _) = sc.build();
        let sim = Arc::new(TrackedRw::new("analyze.sharddiff.chaos", sim));
        let mut sharded = ShardedMonitor::new(monitor, sc.nshards, sc.mode);
        let shard_sim = Arc::clone(&sim);
        let mut faults_fired = 0u64;
        sharded.run_rounds(
            |i| {
                let mut plan = FaultPlan::quiet(fault_seed.wrapping_add(i as u64));
                if faulty && i == 1 {
                    plan.per_op = vec![
                        (Op::TaskStat, victim_rates()),
                        (Op::TaskStatus, victim_rates()),
                    ];
                }
                FaultyShardSource::new(
                    SimShardSource::new(Arc::clone(&shard_sim)),
                    FaultInjector::new(plan),
                )
            },
            sc.rounds,
            |r| {
                sim.write()
                    .unwrap_or_else(PoisonError::into_inner)
                    .run_for(sc.advance_us);
                sc.t_s(r)
            },
        );
        let mon = sharded.into_monitor();
        let ledger = mon.health_total();
        faults_fired += ledger.errors_by_kind.iter().sum::<u64>();
        (mon, faults_fired)
    };

    let (clean, clean_errors) = run(false);
    let (faulted, fault_errors) = run(true);
    let mut failures = Vec::new();
    if clean_errors != 0 {
        failures.push(format!(
            "fault-free reference recorded {clean_errors} errors"
        ));
    }
    if fault_errors == 0 {
        failures.push("fault plan injected nothing; the drill tested nothing".into());
    }
    if faulted.stats.rounds != sc.rounds {
        failures.push(format!(
            "faulted run stalled: {} of {} rounds",
            faulted.stats.rounds, sc.rounds
        ));
    }
    if faulted.supervisor.restarts != 0 {
        failures.push(format!(
            "supervisor caught {} panics under I/O faults",
            faulted.supervisor.restarts
        ));
    }
    // Shard assignment is by first allowed CPU then pid: with three
    // contiguous masks, shard 1 owns exactly the middle rank. The other
    // two ranks must be untouched — bit-identical to the fault-free run.
    let clean_snap = snapshot_of(&clean);
    let faulted_snap = snapshot_of(&faulted);
    let victim_rank = 1u32;
    let mut saw_peer = false;
    for (c, f) in clean_snap.processes.iter().zip(&faulted_snap.processes) {
        if c.rank == Some(victim_rank) {
            continue;
        }
        saw_peer = true;
        if c != f {
            failures.push(format!(
                "peer rank {:?} corrupted by shard-1 faults (pid {})",
                c.rank, c.pid
            ));
        }
    }
    if !saw_peer {
        failures.push("no peer ranks found in snapshot".into());
    }
    for w in faulted.processes() {
        if w.info.rank != Some(victim_rank)
            && w.health.ledger.errors_by_kind.iter().sum::<u64>() > 0
        {
            failures.push(format!(
                "peer watch {} recorded errors from shard-1 faults",
                w.info.pid
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differential_seeds_are_identical() {
        // The CI gate runs 20 seeds; the unit test keeps a
        // representative five so `cargo test` stays fast.
        for v in run_shard_differential(5) {
            assert!(v.passed(), "{}", v.render());
            assert!(v.cells.contains("shards"), "{}", v.render());
        }
    }

    /// A tid listed at `list_tasks` but gone by the shard's `stat` read
    /// must take the departure path at any shard count — same vanish
    /// accounting, no errors, bit-identical fingerprints.
    #[test]
    fn mid_round_departures_diff_identical() {
        let sc = Scenario {
            ranks: 3,
            threads_per_rank: vec![3, 4, 2],
            // Two ranks finish mid-run, so organic exits overlap the
            // injected exit races.
            work_us: vec![300_000, 60_000_000, 250_000],
            nshards: 3,
            mode: ShardMode::Inline,
            rounds: 6,
            advance_us: 200_000,
            laptop: true,
            vanish_mod: 3,
        };
        let one_shard = run_one_shard(&sc);
        let sharded = run_sharded(&sc);
        assert!(
            one_shard.stats.vanished > 0,
            "scenario exercised no mid-round departures"
        );
        assert_eq!(one_shard.stats.errors, 0, "vanish must never be an error");
        assert_eq!(
            fingerprint(&one_shard),
            fingerprint(&sharded),
            "departure handling diverged between shard counts"
        );
    }

    /// The derived seed pool really contains vanish scenarios, so the
    /// CI differential exercises departures without hand-picked seeds.
    #[test]
    fn derived_seed_pool_includes_vanish_scenarios() {
        assert!(
            (0..20).any(|s| Scenario::derive(s).vanish_mod > 0),
            "no vanish scenario in the first 20 seeds"
        );
    }

    #[test]
    fn chaos_stays_isolated() {
        let failures = run_shard_chaos(7);
        assert!(failures.is_empty(), "{failures:?}");
    }
}
