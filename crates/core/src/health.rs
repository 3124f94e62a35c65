//! Sampling-health accounting: the ledger of what the monitor saw,
//! retried, interpolated, dropped, and quarantined.
//!
//! §3.1.1 of the paper requires the monitor to *tolerate* a hostile
//! `/proc`; this module makes the toleration auditable. Every
//! [`zerosum_proc::SourceError`] the monitor receives is tallied by kind
//! in a [`HealthLedger`], and every task-record slot in a sampling round
//! ends in exactly one of: observed ok, recovered by retry, degraded
//! (interpolated from the last good sample), or dropped. The chaos
//! harness reconciles these tallies *exactly* against the fault
//! injector's log — an unexplained error is a bug.
//!
//! What a round remembers per thread until the next is one `TaskRow`
//! of the process's live table ([`ProcessHealth`]).

use crate::config::ResilienceConfig;
use zerosum_proc::{SchedStat, SourceErrorKind, TaskStat, TaskStatus, Tid};

/// Aggregated sampling-health counters for one process (or for the
/// node-level records when held by the monitor itself).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthLedger {
    /// Task records observed cleanly (both `stat` and `status` read).
    pub ok: u64,
    /// Reads that succeeded only after one or more retries.
    pub retried: u64,
    /// Task-record slots filled by last-good-sample interpolation.
    pub degraded: u64,
    /// Task-record slots lost entirely (no last-good sample to fall
    /// back on, or interpolation disabled).
    pub dropped: u64,
    /// Transitions of a tid into quarantine.
    pub quarantine_events: u64,
    /// Re-probe attempts of quarantined tids.
    pub reprobes: u64,
    /// Virtual-time µs of retry backoff charged to the monitor.
    pub backoff_us: u64,
    /// Every [`zerosum_proc::SourceError`] received, by
    /// [`SourceErrorKind::index`] — including each failed retry attempt,
    /// so these totals reconcile 1:1 against an injector's fault log.
    pub errors_by_kind: [u64; 4],
}

impl HealthLedger {
    /// Tallies one received error.
    pub fn note_error(&mut self, kind: SourceErrorKind) {
        // Bounds-tolerant: a kind the array does not know about is
        // dropped rather than panicking inside the sampling loop.
        if let Some(slot) = self.errors_by_kind.get_mut(kind.index()) {
            *slot += 1;
        }
    }

    /// Total errors received, all kinds.
    pub fn errors_total(&self) -> u64 {
        self.errors_by_kind.iter().sum()
    }

    /// Errors of one kind.
    pub fn errors_of(&self, kind: SourceErrorKind) -> u64 {
        self.errors_by_kind.get(kind.index()).copied().unwrap_or(0)
    }

    /// Adds another ledger's tallies into this one (used to aggregate
    /// process ledgers with the node ledger for reports and
    /// reconciliation).
    pub fn merge(&mut self, other: &HealthLedger) {
        self.ok += other.ok;
        self.retried += other.retried;
        self.degraded += other.degraded;
        self.dropped += other.dropped;
        self.quarantine_events += other.quarantine_events;
        self.reprobes += other.reprobes;
        self.backoff_us += other.backoff_us;
        for (mine, theirs) in self.errors_by_kind.iter_mut().zip(other.errors_by_kind) {
            *mine += theirs;
        }
    }

    /// True if nothing abnormal was ever recorded.
    pub fn is_clean(&self) -> bool {
        self.retried == 0
            && self.degraded == 0
            && self.dropped == 0
            && self.quarantine_events == 0
            && self.errors_total() == 0
    }
}

/// Per-tid failure-tracking state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskFailState {
    /// Consecutive sampling rounds in which this tid's reads failed
    /// (saturating — hours of churn must never wrap it).
    pub consecutive: u32,
    /// The tid is quarantined: reads are skipped until re-probe.
    pub quarantined: bool,
    /// Rounds remaining before a quarantined tid is re-probed.
    pub rounds_until_reprobe: u32,
    /// Re-probes that failed since quarantine began (saturating). Each
    /// failure doubles the next sleep window, capped by
    /// [`ResilienceConfig::reprobe_backoff_cap`].
    pub failed_reprobes: u32,
}

impl TaskFailState {
    /// The sleep window after `failed_reprobes` failed re-probes:
    /// exponential backoff from `reprobe_after`, hard-capped at
    /// `reprobe_after * reprobe_backoff_cap` so re-probes are never
    /// starved and no shift can overflow.
    pub(crate) fn reprobe_window(failed_reprobes: u32, cfg: &ResilienceConfig) -> u32 {
        let cap = cfg
            .reprobe_after
            .saturating_mul(cfg.reprobe_backoff_cap.max(1));
        let scale = 1u32 << failed_reprobes.min(31);
        cfg.reprobe_after.saturating_mul(scale).min(cap).max(1)
    }
}

/// One row of a watched process's live table: everything a round keeps
/// about one listed thread until the next — the quarantine state and
/// last good sample [`HealthLedger`] accounts for, and with them the
/// delta gate and the track position, all under one cursor.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct TaskRow {
    pub(crate) tid: Tid,
    /// Position of the tid's open series in the process's
    /// [`crate::lwp::LwpRegistry`], once it has one.
    pub(crate) track: Option<usize>,
    /// `None` until the tid is first planned for a read.
    fail: Option<TaskFailState>,
    /// `schedstat` of the last *fresh* read — the delta-sampling gate:
    /// an unchanged schedstat proves the thread was never dispatched,
    /// so its `stat`/`status` need not be re-read.
    gate: Option<SchedStat>,
    /// The last cleanly observed `(stat, status)` pair.
    good: Option<(TaskStat, TaskStatus)>,
}

impl TaskRow {
    /// The row of a tid the listing shows and the table did not hold;
    /// `track` is the series the tid left behind, if it was here before.
    pub(crate) fn arrival(tid: Tid, track: Option<usize>) -> Self {
        TaskRow {
            tid,
            track,
            ..Default::default()
        }
    }

    /// Called once per round per listed tid, *before* reading it.
    /// Returns `true` if the tid is quarantined and not yet due for a
    /// re-probe — the caller must skip it this round. Returns `false`
    /// when the tid is healthy or due for a re-probe (which is tallied).
    pub(crate) fn should_skip(&mut self, ledger: &mut HealthLedger) -> bool {
        let st = self.fail.get_or_insert_with(TaskFailState::default);
        if !st.quarantined {
            return false;
        }
        if st.rounds_until_reprobe > 0 {
            st.rounds_until_reprobe -= 1;
            return true;
        }
        ledger.reprobes += 1;
        false
    }

    /// The `schedstat` this thread must still show for its last good
    /// sample to stand in for a read: none without such a sample.
    pub(crate) fn delta_reference(&self) -> Option<SchedStat> {
        self.gate.filter(|_| self.good.is_some())
    }

    /// The last cleanly observed `(stat, status)` pair, if any. Delta
    /// sampling re-uses it for threads that provably have not run.
    pub(crate) fn last_good(&self) -> Option<&(TaskStat, TaskStatus)> {
        self.good.as_ref()
    }

    /// Records a clean observation: clears any failure state (ending a
    /// quarantine if the re-probe succeeded) and takes the records as
    /// the new last-good sample — swapped, not copied: the caller's
    /// slot is overwritten by its next read anyway. A `schedstat` that
    /// was read re-arms the delta gate.
    pub(crate) fn record_success(
        &mut self,
        ledger: &mut HealthLedger,
        stat: &mut TaskStat,
        status: &mut TaskStatus,
        schedstat: Option<SchedStat>,
    ) -> &(TaskStat, TaskStatus) {
        ledger.ok += 1;
        self.fail = Some(TaskFailState::default());
        self.gate = schedstat.or(self.gate);
        let good = self.good.get_or_insert_with(Default::default);
        std::mem::swap(&mut good.0, stat);
        std::mem::swap(&mut good.1, status);
        good
    }

    /// Records a failed slot (reads exhausted retries or failed
    /// unretryably). Advances the quarantine state machine and either
    /// returns the last good pair to fill the slot (degraded) or drops it.
    pub(crate) fn record_failure(
        &mut self,
        ledger: &mut HealthLedger,
        cfg: &ResilienceConfig,
    ) -> Option<&(TaskStat, TaskStatus)> {
        let st = self.fail.get_or_insert_with(TaskFailState::default);
        st.consecutive = st.consecutive.saturating_add(1);
        if st.quarantined {
            // A failed re-probe: back to sleep for a longer window —
            // exponential backoff, capped so the tid is still re-probed
            // on a bounded cadence (never starved, never overflowed).
            st.failed_reprobes = st.failed_reprobes.saturating_add(1);
            st.rounds_until_reprobe = TaskFailState::reprobe_window(st.failed_reprobes, cfg);
        } else if st.consecutive >= cfg.quarantine_after {
            st.quarantined = true;
            st.rounds_until_reprobe = cfg.reprobe_after;
            ledger.quarantine_events += 1;
        }
        let pair = self.good.as_ref().filter(|_| cfg.interpolate);
        match pair {
            Some(_) => ledger.degraded += 1,
            None => ledger.dropped += 1,
        }
        pair
    }

    /// Forgets a tid that exited under the read (`NotFound` while still
    /// listed): failure state, last-good sample and gate. The row goes
    /// when the listing drops the tid.
    pub(crate) fn forget(&mut self) {
        *self = TaskRow::arrival(self.tid, self.track);
    }
}

/// The per-process health state: the public [`HealthLedger`] plus the
/// live table behind it — one `TaskRow` per tid of the last listing, in
/// its (ascending) order, so a round walks listing and table together
/// and never looks a tid up. A departed tid's row goes in the join that
/// misses it: the table tracks *concurrent* tasks, not arrivals.
#[derive(Debug, Default)]
pub struct ProcessHealth {
    /// The public tallies.
    pub ledger: HealthLedger,
    pub(crate) rows: Vec<TaskRow>,
}

impl ProcessHealth {
    /// Number of per-tid entries currently held (failure states +
    /// last-good samples) — the footprint churn soaks assert stays
    /// proportional to *concurrent* tasks, not cumulative arrivals.
    pub fn footprint(&self) -> usize {
        let held = |r: &TaskRow| usize::from(r.fail.is_some()) + usize::from(r.good.is_some());
        self.rows.iter().map(held).sum()
    }

    /// Number of delta-gate entries currently held.
    pub(crate) fn gates_held(&self) -> usize {
        self.rows.iter().filter(|r| r.gate.is_some()).count()
    }

    /// Number of tids currently quarantined.
    pub fn quarantined_now(&self) -> usize {
        let quarantined = |r: &&TaskRow| r.fail.is_some_and(|s| s.quarantined);
        self.rows.iter().filter(quarantined).count()
    }
}

#[cfg(test)]
/// The row as the serial oracle's maps see it (`monitor::oracle`).
impl TaskRow {
    pub(crate) fn from_parts(
        tid: Tid,
        track: Option<usize>,
        fail: Option<TaskFailState>,
        gate: Option<SchedStat>,
        good: Option<(TaskStat, TaskStatus)>,
    ) -> Self {
        TaskRow {
            tid,
            track,
            fail,
            gate,
            good,
        }
    }

    #[allow(clippy::type_complexity)]
    pub(crate) fn parts(
        &self,
    ) -> (
        Option<TaskFailState>,
        Option<SchedStat>,
        Option<&(TaskStat, TaskStatus)>,
    ) {
        (self.fail, self.gate, self.last_good())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerosum_proc::TaskState;

    fn cfg() -> ResilienceConfig {
        ResilienceConfig {
            quarantine_after: 3,
            reprobe_after: 2,
            ..Default::default()
        }
    }

    fn stat(tid: Tid) -> TaskStat {
        TaskStat {
            tid,
            comm: "t".into(),
            state: TaskState::Running,
            minflt: 0,
            majflt: 0,
            utime: 5,
            stime: 1,
            nice: 0,
            num_threads: 1,
            processor: 0,
            nswap: 0,
            starttime: 0,
        }
    }

    fn status(tid: Tid) -> TaskStatus {
        TaskStatus {
            name: "t".into(),
            tid,
            tgid: tid,
            state: TaskState::Running,
            vm_rss_kib: 100,
            vm_size_kib: 200,
            vm_hwm_kib: 100,
            cpus_allowed: Default::default(),
            voluntary_ctxt_switches: 0,
            nonvoluntary_ctxt_switches: 0,
        }
    }

    /// A clean read of `tid` folded into `row`.
    fn succeed(row: &mut TaskRow, ledger: &mut HealthLedger, tid: Tid) {
        row.record_success(ledger, &mut stat(tid), &mut status(tid), None);
    }

    #[test]
    fn failure_without_history_drops_with_history_interpolates() {
        let (mut row, mut ledger) = (TaskRow::arrival(9, None), HealthLedger::default());
        assert!(row.record_failure(&mut ledger, &cfg()).is_none());
        succeed(&mut row, &mut ledger, 9);
        let pair = row.record_failure(&mut ledger, &cfg());
        assert_eq!(pair.expect("interpolation").0.utime, 5);
        assert_eq!(ledger.dropped, 1);
        assert_eq!(ledger.degraded, 1);
        assert_eq!(ledger.ok, 1);
    }

    #[test]
    fn interpolation_can_be_disabled() {
        let (mut row, mut ledger) = (TaskRow::arrival(9, None), HealthLedger::default());
        succeed(&mut row, &mut ledger, 9);
        let off = ResilienceConfig {
            interpolate: false,
            ..cfg()
        };
        assert!(row.record_failure(&mut ledger, &off).is_none());
        assert_eq!(ledger.dropped, 1);
    }

    #[test]
    fn success_swaps_the_records_in_and_rearms_the_gate_only_with_a_schedstat() {
        let (mut row, mut ledger) = (TaskRow::arrival(9, None), HealthLedger::default());
        let ss = SchedStat {
            run_ns: 7,
            wait_ns: 1,
            timeslices: 2,
        };
        let (mut st, mut status) = (stat(9), status(9));
        row.record_success(&mut ledger, &mut st, &mut status, Some(ss));
        assert_eq!(
            st,
            TaskStat::default(),
            "the slot got the row's old buffers"
        );
        assert_eq!(row.delta_reference(), Some(ss));
        // A round whose schedstat read failed keeps the older reference.
        st.utime = 6;
        row.record_success(&mut ledger, &mut st, &mut status, None);
        assert_eq!(row.delta_reference(), Some(ss));
        assert_eq!(row.last_good().map(|p| p.0.utime), Some(6));
        assert_eq!(st.utime, 5, "and hands the previous sample back");
        row.forget();
        assert_eq!(row.delta_reference(), None);
        assert!(row.last_good().is_none());
    }

    #[test]
    fn quarantine_engages_after_threshold_and_reprobes() {
        let (mut row, mut ledger) = (TaskRow::arrival(9, None), HealthLedger::default());
        let c = cfg();
        // Three consecutive failures → quarantined.
        for _ in 0..3 {
            assert!(!row.should_skip(&mut ledger));
            row.record_failure(&mut ledger, &c);
        }
        assert_eq!(ledger.quarantine_events, 1);
        assert!(row.fail.is_some_and(|s| s.quarantined));
        // Skipped for reprobe_after rounds, then re-probed.
        assert!(row.should_skip(&mut ledger));
        assert!(row.should_skip(&mut ledger));
        assert!(!row.should_skip(&mut ledger), "due for re-probe");
        assert_eq!(ledger.reprobes, 1);
        // Failed re-probe re-arms a doubled window (backoff).
        row.record_failure(&mut ledger, &c);
        for _ in 0..4 {
            assert!(row.should_skip(&mut ledger));
        }
        assert!(!row.should_skip(&mut ledger));
        // Successful re-probe clears the quarantine.
        succeed(&mut row, &mut ledger, 9);
        assert!(!row.fail.is_some_and(|s| s.quarantined));
        assert!(!row.should_skip(&mut ledger));
        assert_eq!(ledger.quarantine_events, 1, "no re-entry counted yet");
    }

    #[test]
    fn reprobe_backoff_saturates_at_cap_and_never_starves() {
        let (mut row, mut ledger) = (TaskRow::arrival(9, None), HealthLedger::default());
        let c = ResilienceConfig {
            quarantine_after: 1,
            reprobe_after: 2,
            reprobe_backoff_cap: 8,
            ..Default::default()
        };
        row.record_failure(&mut ledger, &c); // quarantined immediately
        let cap_window = c.reprobe_after * c.reprobe_backoff_cap;
        // Hours of churn: 64 failed re-probe cycles. The sleep window
        // doubles (2, 4, 8, 16) then pins at the cap; the counters
        // saturate instead of wrapping, and every cycle still ends in a
        // re-probe.
        for cycle in 0..64u32 {
            let mut skipped = 0u32;
            while row.should_skip(&mut ledger) {
                skipped += 1;
                assert!(
                    skipped <= cap_window,
                    "cycle {cycle}: window exceeded the cap ({skipped} > {cap_window})"
                );
            }
            let expect = (c.reprobe_after << cycle.min(10)).min(cap_window);
            assert_eq!(skipped, expect, "cycle {cycle} window");
            row.record_failure(&mut ledger, &c); // the re-probe fails again
        }
        assert_eq!(ledger.reprobes, 64);
        let st = row.fail.unwrap();
        assert_eq!(st.failed_reprobes, 64);
        assert_eq!(st.rounds_until_reprobe, cap_window);
        // Degenerate configs can't divide by zero, shift out, or starve:
        // the window is always at least one round.
        let degenerate = ResilienceConfig {
            quarantine_after: 1,
            reprobe_after: 0,
            reprobe_backoff_cap: 0,
            ..Default::default()
        };
        assert_eq!(TaskFailState::reprobe_window(u32::MAX, &degenerate), 1);
        assert_eq!(TaskFailState::reprobe_window(0, &degenerate), 1);
    }

    #[test]
    fn the_table_counts_what_its_rows_hold() {
        let mut h = ProcessHealth::default();
        for tid in [3, 5, 9] {
            let mut row = TaskRow::arrival(tid, None);
            assert!(!row.should_skip(&mut h.ledger)); // opens the failure state
            succeed(&mut row, &mut h.ledger, tid);
            h.rows.push(row);
        }
        // A listed tid nobody planned yet (a shed round) holds nothing.
        h.rows.push(TaskRow::arrival(11, None));
        let c = ResilienceConfig {
            quarantine_after: 1,
            ..cfg()
        };
        h.rows[1].record_failure(&mut h.ledger, &c);
        assert_eq!(h.footprint(), 6);
        assert_eq!(h.quarantined_now(), 1);
        assert!(h.rows[1].fail.unwrap().quarantined);
        assert_eq!(h.rows[3].fail, None);
        assert_eq!(h.gates_held(), 0);
        h.rows[0].forget();
        assert_eq!(h.footprint(), 4);
    }

    #[test]
    fn ledger_merges_and_reports_cleanliness() {
        let mut a = HealthLedger::default();
        assert!(a.is_clean());
        a.note_error(SourceErrorKind::Io);
        a.note_error(SourceErrorKind::Io);
        a.note_error(SourceErrorKind::Denied);
        let mut b = HealthLedger {
            ok: 5,
            retried: 1,
            ..Default::default()
        };
        b.merge(&a);
        assert_eq!(b.errors_of(SourceErrorKind::Io), 2);
        assert_eq!(b.errors_total(), 3);
        assert!(!b.is_clean());
    }

    #[test]
    fn forget_clears_state_and_history() {
        let (mut row, mut ledger) = (TaskRow::arrival(9, None), HealthLedger::default());
        succeed(&mut row, &mut ledger, 9);
        row.record_failure(&mut ledger, &cfg());
        row.forget();
        assert!(row.fail.is_none());
        assert!(row.record_failure(&mut ledger, &cfg()).is_none());
    }
}
