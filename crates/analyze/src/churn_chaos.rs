//! Open-system churn chaos: the lifecycle soak judged.
//!
//! `zerosum-experiments::churn` replays seeded Berserker-style
//! fork/exec storms against the node simulation; this module is the
//! judge family on top. Every schedule in the suite must hold five
//! properties simultaneously:
//!
//! 1. **No panics at any arrival rate** — the sampling-loop supervisor
//!    never catches anything, and a panic inside the soak driver
//!    itself is caught here and reported, never aborts the suite.
//! 2. **Departure, not error** — a task vanishing between `list_tasks`
//!    and the per-task reads (organically or via the seeded
//!    [`ExitRace`](zerosum_proc::ExitRace) wrap) folds into
//!    health/departure accounting: zero hard errors, zero quarantine
//!    events, and nothing but `NotFound` in the retry ledger.
//! 3. **Reused pids never merge** — every observed incarnation of a
//!    recycled pid gets its own starttime-keyed track; merged or
//!    double-counted incarnations fail.
//! 4. **Bounded memory** — the lifecycle footprint stays proportional
//!    to live tasks plus the per-watch exited-track cap, however many
//!    cumulative tasks the storm creates.
//! 5. **Honest shedding** — under an arrival-rate ramp the overhead
//!    governor reacts (widens the period and/or sheds detail) instead
//!    of silently missing deadlines.
//!
//! The suite also runs its first schedule twice and requires
//! bit-identical outcomes — the reproducibility witness CI leans on.

use crate::verdict::{guarded, seeded_suite, Verdict};
use zerosum_apps::churn::{ChurnConfig, RealChurnOutcome};
use zerosum_experiments::churn::{run_sim_churn, SimChurnOutcome, SimChurnParams};
use zerosum_proc::SourceErrorKind;

/// The arrival rates the suite cycles through, Hz. The high point is
/// 4× the calibrated sampling rate (20 Hz at the default 50 ms
/// period), so most arrivals live and die between two samples.
pub const SUITE_RATES_HZ: [f64; 3] = [25.0, 50.0, 100.0];

/// The `ExitRace` moduli the suite cycles through (0 = no injected
/// races, organic churn only).
pub const SUITE_VANISH_MODS: [u64; 3] = [0, 2, 3];

/// Judges one completed soak against the five churn properties.
pub fn judge_churn_run(v: &mut Verdict, p: &SimChurnParams, out: &SimChurnOutcome) {
    let problems = &mut v.problems;
    if out.rounds == 0 || out.arrivals == 0 {
        problems.push(format!(
            "soak never ran: {} round(s), {} arrival(s)",
            out.rounds, out.arrivals
        ));
    }
    // Property 1: no panics.
    if out.supervisor_restarts > 0 {
        problems.push(format!(
            "sampling loop panicked {} time(s)",
            out.supervisor_restarts
        ));
    }
    // Property 2: departures fold into accounting, never an error or
    // quarantine storm, and never any error kind but NotFound.
    if out.errors > 0 {
        problems.push(format!("{} hard read error(s) under churn", out.errors));
    }
    if out.quarantine_events > 0 {
        problems.push(format!(
            "{} quarantine event(s) — churn must not look like a sick task",
            out.quarantine_events
        ));
    }
    for kind in [
        SourceErrorKind::Io,
        SourceErrorKind::Malformed,
        SourceErrorKind::Denied,
    ] {
        let n = out.errors_by_kind[kind as usize];
        if n > 0 {
            problems.push(format!(
                "{n} {kind:?} entr(ies) in the retry ledger — vanish must fold \
                 into NotFound only"
            ));
        }
    }
    if p.vanish_mod > 0 {
        if out.errors_by_kind[SourceErrorKind::NotFound as usize] == 0 {
            problems.push("ExitRace was armed but no NotFound was ever recorded".into());
        }
        if out.vanished == 0 {
            problems.push("ExitRace was armed but no departure was accounted".into());
        }
    }
    // Property 3: reused pids never merge series or double-count.
    if out.reuse_main_tracks != out.reuse_distinct_starttimes {
        problems.push(format!(
            "incarnations merged: {} main track(s) over {} distinct starttime(s)",
            out.reuse_main_tracks, out.reuse_distinct_starttimes
        ));
    }
    if out.reuse_main_tracks < out.reuse_observed_floor {
        problems.push(format!(
            "{} incarnation(s) provably sampled alive but only {} track(s) retained",
            out.reuse_observed_floor, out.reuse_main_tracks
        ));
    }
    if out.reuse_main_tracks > out.reuse_incarnations {
        problems.push(format!(
            "{} main track(s) exceed {} incarnation(s) (double count)",
            out.reuse_main_tracks, out.reuse_incarnations
        ));
    }
    // Property 4: footprint proportional to live tasks + the exited
    // cap, not to cumulative arrivals. The factor covers the three
    // per-watch structures (tracks, health states, delta gate).
    let slots = (p.thread_slots + p.reuse_slots) as usize;
    let bound = 4 * (out.peak_live_tasks + slots * p.max_exited_tracks) + 64;
    if out.peak_footprint > bound {
        problems.push(format!(
            "peak footprint {} exceeds churn-proportional bound {bound}",
            out.peak_footprint
        ));
    }
    if out.tracks_retained + out.tracks_departed > out.spawned_tasks {
        problems.push(format!(
            "retained {} + departed {} tracks exceed {} spawned task(s)",
            out.tracks_retained, out.tracks_departed, out.spawned_tasks
        ));
    }
    // Property 5: the governor reacts to a ramp instead of silently
    // missing deadlines.
    if p.churn.ramp {
        if out.governor_changes == 0 && out.shed_rounds == 0 {
            problems.push("arrival ramp never made the governor react".into());
        }
        if out.governor_changes > 0 && out.final_period_us <= p.churn.period_us {
            problems.push(format!(
                "{} period change(s) recorded but the period never widened \
                 ({} µs)",
                out.governor_changes, out.final_period_us
            ));
        }
    }
    v.set_tally("rounds", out.rounds);
    v.set_tally("spawned", out.spawned_tasks);
    v.cells = churn_cells(
        p,
        [out.rounds, out.spawned_tasks, out.vanished, out.reuses_done],
        out.fingerprint,
    );
}

/// The churn summary cells: the schedule's shape, four run columns and
/// the outcome fingerprint (the bit-reproducibility witness).
fn churn_cells(
    p: &SimChurnParams,
    [rounds, spawned, vanished, reuses]: [u64; 4],
    fp: u64,
) -> String {
    format!(
        "{:>5.0} Hz  vanish%{:<2} {} {rounds:>4} rounds  {spawned:>5} spawned  \
         {vanished:>4} vanished  {reuses:>3} reuses  fp={fp:016x}",
        p.churn.arrival_rate_hz,
        p.vanish_mod,
        if p.churn.ramp { "ramp" } else { "flat" },
    )
}

/// The deterministic schedule-`i` parameters of the suite: arrival
/// rates cycle through [`SUITE_RATES_HZ`], vanish moduli through
/// [`SUITE_VANISH_MODS`] (phase-shifted so the pairings rotate), and
/// every fifth schedule ramps with the per-task cost raised enough to
/// overload the governor's budget.
pub fn suite_params(i: usize, seed: u64) -> SimChurnParams {
    let ramp = i % 5 == 4;
    SimChurnParams {
        churn: ChurnConfig {
            seed,
            arrival_rate_hz: SUITE_RATES_HZ[i % SUITE_RATES_HZ.len()],
            ramp,
            ..ChurnConfig::default()
        },
        vanish_mod: SUITE_VANISH_MODS[(i / SUITE_RATES_HZ.len()) % SUITE_VANISH_MODS.len()],
        per_task_cost_us: if ramp { 120 } else { 5 },
        ..SimChurnParams::default()
    }
}

/// Runs the churn suite: `schedules` seeded soaks across the
/// rate × vanish × ramp grid (schedule `i` seeded `base_seed + 7919·i`),
/// plus the `churn-repro` witness re-running schedule 0 twice and
/// requiring a bit-identical outcome.
pub fn run_churn_suite(schedules: usize, base_seed: u64) -> Vec<Verdict> {
    // The harness derives `base + 7919·i + 1`; this suite's published
    // seeds have no `+ 1`.
    let base = base_seed.wrapping_sub(1);
    let mut verdicts = seeded_suite(
        |i| format!("churn-{i:02}"),
        12,
        schedules,
        base,
        |i, v| {
            let p = suite_params(i, v.seed);
            judge_churn_run(v, &p, &run_sim_churn(&p));
        },
    );
    if schedules > 0 {
        let witness = Verdict::new("churn-repro", 12, base_seed);
        verdicts.push(guarded(witness, |v| {
            let p = suite_params(0, v.seed);
            let (a, b) = (run_sim_churn(&p), run_sim_churn(&p));
            if a != b {
                v.problems.push(format!(
                    "same params, different outcomes: fp {:016x} vs {:016x}",
                    a.fingerprint, b.fingerprint
                ));
            }
            // The witness's run columns are the distance between its
            // two soaks: all zero when they agree.
            let apart = [
                a.rounds.abs_diff(b.rounds),
                a.spawned_tasks.abs_diff(b.spawned_tasks),
                a.vanished.abs_diff(b.vanished),
                a.reuses_done.abs_diff(b.reuses_done),
            ];
            v.cells = churn_cells(&p, apart, a.fingerprint);
        }));
    }
    verdicts
}

/// Judges a real-backend storm. Wall-clock runs are nondeterministic;
/// this is the robustness floor, not the sim suite's bit-level
/// invariants. Returns every problem found (empty = pass).
pub fn judge_real_churn(out: &RealChurnOutcome) -> Vec<String> {
    let mut problems = Vec::new();
    if out.rounds == 0 || out.spawned == 0 {
        problems.push(format!(
            "storm never ran: {} round(s), {} spawned",
            out.rounds, out.spawned
        ));
    }
    if out.supervisor_restarts > 0 {
        problems.push(format!(
            "sampling loop panicked {} time(s)",
            out.supervisor_restarts
        ));
    }
    if out.failed_children > 0 {
        problems.push(format!("{} child(ren) failed", out.failed_children));
    }
    // Three files per live task plus /proc/stat and meminfo, and a
    // departed pid's handles gone with the listing that misses it.
    if out.peak_handles > 3 * out.peak_footprint + 2 || out.handles_at_exit > 2 {
        problems.push(format!(
            "file handles outlive their tasks: peak {} over a peak footprint of {}, {} at exit",
            out.peak_handles, out.peak_footprint, out.handles_at_exit
        ));
    }
    if out.reaped != out.spawned {
        problems.push(format!(
            "reaped {} of {} spawned child(ren)",
            out.reaped, out.spawned
        ));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn judged(p: &SimChurnParams, out: &SimChurnOutcome) -> Verdict {
        let mut v = Verdict::new("x", 12, p.churn.seed);
        judge_churn_run(&mut v, p, out);
        v
    }

    #[test]
    fn small_suite_is_clean_and_covers_the_grid() {
        // 6 schedules cover all three rates, two vanish moduli, and one
        // ramp; CI runs the full 20.
        let reports = run_churn_suite(6, 0xC0FE);
        assert_eq!(reports.len(), 7, "6 schedules + the repro witness");
        for r in &reports {
            assert!(r.passed(), "{}", r.render());
        }
        let grid: Vec<SimChurnParams> = reports[..6]
            .iter()
            .enumerate()
            .map(|(i, r)| suite_params(i, r.seed))
            .collect();
        assert_eq!(grid[1].churn.seed, 0xC0FE + 7919, "published seeds");
        assert!(
            grid.iter().any(|p| p.churn.ramp),
            "grid must include a ramp"
        );
        assert!(
            grid.iter().any(|p| p.vanish_mod > 0),
            "grid must include ExitRace schedules"
        );
        let rates: std::collections::BTreeSet<u64> = grid
            .iter()
            .map(|p| p.churn.arrival_rate_hz as u64)
            .collect();
        assert_eq!(rates.len(), SUITE_RATES_HZ.len(), "all rates exercised");
        // The witness ran schedule 0 again and says how far apart its
        // two soaks ended: nowhere.
        let (first, witness) = (&reports[0], &reports[6]);
        assert_eq!(witness.seed, first.seed);
        assert!(first.tally("spawned") > 0 && first.tally("rounds") > 0);
        assert!(witness.cells.contains("   0 rounds      0 spawned"));
        assert_eq!(
            witness.cells.rsplit("fp=").next(),
            first.cells.rsplit("fp=").next(),
            "same fingerprint as schedule 0"
        );
    }

    #[test]
    fn judge_flags_doctored_outcomes() {
        let p = suite_params(0, 1);
        let clean = run_sim_churn(&p);
        assert!(judged(&p, &clean).passed());

        let mut bad = clean.clone();
        bad.supervisor_restarts = 1;
        bad.errors = 3;
        let r = judged(&p, &bad);
        assert_eq!(r.problems.len(), 2, "{r:?}");

        let mut merged = clean.clone();
        merged.reuse_distinct_starttimes = merged.reuse_main_tracks.saturating_sub(1);
        assert!(!judged(&p, &merged).passed());

        let mut leaky = clean.clone();
        leaky.peak_footprint = 1_000_000;
        assert!(!judged(&p, &leaky).passed());

        let mut quarantined = clean;
        quarantined.quarantine_events = 2;
        quarantined.errors_by_kind[SourceErrorKind::Io as usize] = 1;
        let r = judged(&p, &quarantined);
        assert_eq!(r.problems.len(), 2, "{r:?}");
    }

    #[test]
    fn judge_requires_governor_reaction_on_ramp() {
        let p = suite_params(4, 1 + 4 * 7919);
        assert!(p.churn.ramp, "index 4 is the ramp schedule");
        let clean = run_sim_churn(&p);
        assert!(judged(&p, &clean).passed());
        let mut mute = clean;
        mute.governor_changes = 0;
        mute.shed_rounds = 0;
        assert!(!judged(&p, &mute).passed());
    }

    #[test]
    fn an_empty_soak_is_flagged_not_passed() {
        // An impossible config: zero-length run. The driver handles it
        // (no panic), but the judge must flag the empty soak.
        let p = SimChurnParams {
            churn: ChurnConfig {
                duration_us: 0,
                ..ChurnConfig::default()
            },
            ..SimChurnParams::default()
        };
        let r = judged(&p, &run_sim_churn(&p));
        assert!(!r.passed(), "{r:?}");
        assert!(r.problems.iter().any(|p| p.contains("never ran")), "{r:?}");
    }

    #[test]
    fn real_churn_judge_bounds_handles_and_reaping() {
        let clean = RealChurnOutcome {
            rounds: 30,
            spawned: 40,
            reaped: 40,
            peak_footprint: 10,
            peak_handles: 32,
            handles_at_exit: 2,
            ..Default::default()
        };
        assert_eq!(judge_real_churn(&clean), Vec::<String>::new());
        // One handle over `3 × footprint + 2`, or a third one at exit.
        for (peak, at_exit) in [(33, 2), (32, 3)] {
            let leaky = RealChurnOutcome {
                peak_handles: peak,
                handles_at_exit: at_exit,
                ..clean.clone()
            };
            let problems = judge_real_churn(&leaky);
            assert_eq!(problems.len(), 1, "{problems:?}");
            assert!(problems[0].contains("handles outlive their tasks"));
        }
        let unreaped = RealChurnOutcome {
            reaped: 39,
            ..clean.clone()
        };
        assert_eq!(
            judge_real_churn(&unreaped),
            ["reaped 39 of 40 spawned child(ren)"]
        );
        let idle = RealChurnOutcome::default();
        assert!(judge_real_churn(&idle)[0].contains("storm never ran"));
    }
}
