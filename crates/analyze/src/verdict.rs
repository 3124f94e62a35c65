//! The one verdict type every seeded judge fills in, and the harness
//! around the judges: seed derivation and fan-out, the panic guard, the
//! quorum-marker check the two allocation judges share, and the
//! `label: ok | problem…` section the drills print through.
//!
//! A judge owns its summary line: it formats whatever it measured into
//! [`Verdict::cells`] and files the few counts the suites' non-vacuity
//! tests read under a name. Everything else — pass/fail, rendering, the
//! `[ok]`/`[FAIL]` tag, the `  problem:` lines — exists once, here.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The outcome of one judged plan, schedule or seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Plan name (`t1-f00`, `alloc-f03`, `churn-repro` …).
    pub name: String,
    /// The seed the plan ran with.
    pub seed: u64,
    /// The judge's summary of what it measured, already formatted.
    pub cells: String,
    /// Everything that failed; empty means the plan passed.
    pub problems: Vec<String>,
    /// Column the name is padded to in [`Verdict::render`].
    pad: usize,
    tallies: Vec<(&'static str, u64)>,
}

impl Verdict {
    /// An empty (passing) verdict for the judge to fill in.
    pub fn new(name: impl Into<String>, pad: usize, seed: u64) -> Self {
        Verdict {
            name: name.into(),
            seed,
            cells: String::new(),
            problems: Vec::new(),
            pad,
            tallies: Vec::new(),
        }
    }

    /// True when every property the judge checks held.
    pub fn passed(&self) -> bool {
        self.problems.is_empty()
    }

    /// Files a named count (faults injected, rounds degraded …).
    pub fn set_tally(&mut self, key: &'static str, n: u64) {
        self.tallies.push((key, n));
    }

    /// A named count the judge filed; 0 when it filed none by that name.
    pub fn tally(&self, key: &str) -> u64 {
        self.tallies
            .iter()
            .rev()
            .find(|(k, _)| *k == key)
            .map_or(0, |&(_, n)| n)
    }

    /// One summary line plus one line per problem.
    pub fn render(&self) -> String {
        let status = if self.passed() { "ok" } else { "FAIL" };
        let mut out = format!(
            "{:<pad$} seed={:<6} {}",
            self.name,
            self.seed,
            self.cells,
            pad = self.pad
        );
        out.truncate(out.trim_end().len());
        let _ = writeln!(out, "  [{status}]");
        for p in &self.problems {
            let _ = writeln!(out, "  problem: {p}");
        }
        out
    }
}

/// Renders a suite and folds its verdicts: the text, and whether every
/// verdict passed.
pub fn render_suite(verdicts: &[Verdict]) -> (String, bool) {
    let text = verdicts.iter().map(Verdict::render).collect();
    (text, verdicts.iter().all(Verdict::passed))
}

/// Runs `judge` over `verdict`; a panic anywhere inside becomes a
/// problem on the same verdict (with whatever the judge had filed
/// before it) — report every plan, never abort the suite.
pub fn guarded(mut verdict: Verdict, judge: impl FnOnce(&mut Verdict)) -> Verdict {
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| judge(&mut verdict))) {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        verdict.problems.push(format!("panicked: {msg}"));
    }
    verdict
}

/// Runs `n` seeded plans through `judge` on the experiment engine and
/// returns their verdicts in plan order. Plan `i` is named `label(i)`
/// and seeded `base_seed + 7919·i + 1` (wrapping); each judge runs
/// under [`guarded`].
pub fn seeded_suite<L, J>(label: L, pad: usize, n: usize, base_seed: u64, judge: J) -> Vec<Verdict>
where
    L: Fn(usize) -> String + Sync,
    J: Fn(usize, &mut Verdict) + Sync,
{
    let (label, judge) = (&label, &judge);
    zerosum_experiments::parallel::run_jobs(
        (0..n)
            .map(|i| {
                move || {
                    let seed = base_seed
                        .wrapping_add(7919u64.wrapping_mul(i as u64))
                        .wrapping_add(1);
                    guarded(Verdict::new(label(i), pad, seed), |v| judge(i, v))
                }
            })
            .collect(),
        0,
    )
}

/// The honest-degradation check of the allocation judges: every round
/// rendered a summary (one carrying `footer`), and `DEGRADED (k/n
/// nodes)` appears with the right counts exactly when the quorum shrank
/// — never on a full quorum. Files the `degraded_rounds` tally.
pub fn check_quorum_markers(
    v: &mut Verdict,
    summaries: &[String],
    quorums: &[(usize, usize)],
    node_count: usize,
    rounds: u32,
    footer: &str,
) {
    if summaries.len() != rounds as usize {
        v.problems.push(format!(
            "only {}/{rounds} rounds produced an allocation summary",
            summaries.len()
        ));
    }
    let mut degraded_rounds = 0;
    for (r, (summary, &(k, n))) in summaries.iter().zip(quorums).enumerate() {
        if n != node_count {
            v.problems
                .push(format!("round {r}: quorum total {n} != {node_count} nodes"));
        }
        if !summary.contains(footer) {
            v.problems
                .push(format!("round {r}: summary missing its {footer} line"));
        }
        if k < n {
            degraded_rounds += 1;
            let marker = format!("DEGRADED ({k}/{n} nodes)");
            if !summary.contains(&marker) {
                v.problems.push(format!(
                    "round {r}: quorum {k}/{n} but summary lacks {marker:?}"
                ));
            }
        } else if summary.contains("DEGRADED") {
            v.problems.push(format!(
                "round {r}: full quorum but summary claims degradation"
            ));
        }
    }
    v.set_tally("degraded_rounds", degraded_rounds);
}

/// The section a drill prints: `label: ok_text` when it found nothing,
/// else one `label problem: …` line per finding.
pub fn drill_section(label: &str, ok_text: &str, problems: &[String]) -> String {
    if problems.is_empty() {
        return format!("{label}: {ok_text}\n");
    }
    problems
        .iter()
        .map(|p| format!("{label} problem: {p}\n"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_golden_ok_fail_and_caught_panic() {
        let mut v = Verdict::new("t1-f00", 8, 50337);
        v.cells = "  112 faults  dur x1.000".into();
        assert_eq!(
            v.render(),
            "t1-f00   seed=50337    112 faults  dur x1.000  [ok]\n"
        );
        v.problems
            .push("duration ratio 2.000 outside bounds".into());
        assert_eq!(
            v.render(),
            "t1-f00   seed=50337    112 faults  dur x1.000  [FAIL]\n  \
             problem: duration ratio 2.000 outside bounds\n"
        );
        // A judge that panics half-way keeps what it had filed.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let caught = guarded(Verdict::new("alloc-f03", 10, 7), |v| {
            v.set_tally("faulted_nodes", 2);
            panic!("boom");
        });
        std::panic::set_hook(prev);
        assert!(!caught.passed());
        assert_eq!(caught.tally("faulted_nodes"), 2);
        assert_eq!(
            caught.render(),
            "alloc-f03  seed=7  [FAIL]\n  problem: panicked: boom\n"
        );
    }

    #[test]
    fn suite_seeds_and_orders_its_plans() {
        let vs = seeded_suite(
            |i| format!("p{i:02}"),
            4,
            3,
            0xC4A0,
            |i, v| {
                v.set_tally("index", i as u64);
            },
        );
        let seeds: Vec<u64> = vs.iter().map(|v| v.seed).collect();
        assert_eq!(
            seeds,
            [0xC4A0 + 1, 0xC4A0 + 7919 + 1, 0xC4A0 + 2 * 7919 + 1]
        );
        let names: Vec<&str> = vs.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, ["p00", "p01", "p02"]);
        assert_eq!(vs[2].tally("index"), 2);
        assert_eq!(vs[0].tally("never filed"), 0);
        assert_eq!(render_suite(&vs).1, vs.iter().all(Verdict::passed));
    }

    #[test]
    fn quorum_markers_must_match_the_quorum() {
        let full = "TOTAL: 2 node(s)".to_string();
        let degraded = "TOTAL: 1 node(s)\nDEGRADED (1/2 nodes)".to_string();
        let mut v = Verdict::new("x", 4, 1);
        check_quorum_markers(
            &mut v,
            &[full.clone(), degraded.clone()],
            &[(2, 2), (1, 2)],
            2,
            2,
            "TOTAL:",
        );
        assert!(v.passed(), "{v:?}");
        assert_eq!(v.tally("degraded_rounds"), 1);
        // A marker on a full quorum, a missing one on a shrunk quorum,
        // and a missing round are each a problem.
        let mut bad = Verdict::new("x", 4, 1);
        check_quorum_markers(
            &mut bad,
            &[degraded, full],
            &[(2, 2), (1, 2)],
            2,
            3,
            "TOTAL:",
        );
        assert_eq!(bad.problems.len(), 3, "{bad:?}");
    }

    #[test]
    fn drill_section_is_ok_or_one_line_per_problem() {
        assert_eq!(
            drill_section("abnormal-exit drill", "ok (no torn files)", &[]),
            "abnormal-exit drill: ok (no torn files)\n"
        );
        assert_eq!(
            drill_section("churn", "clean", &["a".into(), "b".into()]),
            "churn problem: a\nchurn problem: b\n"
        );
    }
}
