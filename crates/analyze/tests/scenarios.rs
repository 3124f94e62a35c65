//! End-to-end checks: the paper's scenarios run traced and come out
//! clean, and deliberately corrupted traces are flagged with precise,
//! event-level diagnostics.

use zerosum_analyze::{check_invariants, check_trace, InvariantKind};
use zerosum_experiments::figures::{fig67_traced, fig8_traced_run};
use zerosum_experiments::tables::{run_table_traced, TableConfig};
use zerosum_sched::{ChargeKind, TraceEvent, TraceRecord};

#[test]
fn table1_trace_is_clean() {
    let (_, trace, audit) = run_table_traced(TableConfig::Table1, 100, 41);
    let rep = check_trace("table1", 41, &trace, &audit);
    assert!(
        trace.len() > 1000,
        "suspiciously small trace: {}",
        trace.len()
    );
    assert!(rep.passed(), "{}", rep.render());
}

#[test]
fn table2_trace_is_clean() {
    let (_, trace, audit) = run_table_traced(TableConfig::Table2, 100, 42);
    let rep = check_trace("table2", 42, &trace, &audit);
    assert!(rep.passed(), "{}", rep.render());
}

#[test]
fn table3_trace_is_clean() {
    let (_, trace, audit) = run_table_traced(TableConfig::Table3, 100, 43);
    let rep = check_trace("table3", 43, &trace, &audit);
    assert!(rep.passed(), "{}", rep.render());
}

#[test]
fn fig67_trace_is_clean() {
    let (_, trace, audit) = fig67_traced(150, 44);
    let rep = check_trace("fig67", 44, &trace, &audit);
    assert!(rep.passed(), "{}", rep.render());
}

#[test]
fn fig8_traces_are_clean() {
    for (name, smt2) in [("fig8-smt1", false), ("fig8-smt2", true)] {
        let (_, trace, audit) = fig8_traced_run(smt2, 60, 45);
        let rep = check_trace(name, 45, &trace, &audit);
        assert!(rep.passed(), "{}", rep.render());
    }
}

/// Injected bug 1: the scheduler "forgets" to charge one jiffy. The
/// invariant engine must localize the damage: the per-CPU account no
/// longer matches the replayed charges, and the victim task's utime or
/// stime counter disagrees with the trace.
#[test]
fn skipped_jiffy_charge_is_flagged_with_diagnostics() {
    let (_, mut trace, audit) = run_table_traced(TableConfig::Table2, 100, 46);
    let idx = trace
        .iter()
        .position(|r| matches!(r.ev, TraceEvent::JiffyCharge { .. }))
        .expect("a charge exists");
    let removed = trace.remove(idx);
    let (tid, cpu) = match removed.ev {
        TraceEvent::JiffyCharge { tid, cpu, .. } => (tid, cpu),
        _ => unreachable!(),
    };
    let v = check_invariants(&trace, &audit);
    // Conservation breaks on exactly the CPU that lost the charge…
    assert!(
        v.iter()
            .any(|x| x.kind == InvariantKind::Conservation
                && x.message.contains(&format!("cpu{cpu}"))),
        "no conservation diagnostic for cpu{cpu}: {v:#?}"
    );
    // …and the victim task's time counter no longer reconciles.
    assert!(
        v.iter().any(|x| x.kind == InvariantKind::CounterMismatch
            && x.message.contains(&format!("task {tid}"))
            && (x.message.contains("utime_us") || x.message.contains("stime_us"))),
        "no counter diagnostic for task {tid}: {v:#?}"
    );
}

/// Injected bug 2: a task is dispatched onto a second CPU in the same
/// tick without ever leaving the first — the classic lost-update / race
/// shape — and then charged a jiffy by a CPU it never ran on. The
/// invariant engine names each exact event: single residency for the
/// dispatch, charge attribution for the foreign charge.
#[test]
fn double_dispatch_and_foreign_charge_are_flagged() {
    let (_, clean, audit) = run_table_traced(TableConfig::Table2, 100, 47);
    // Find a dispatch and re-issue it on a different CPU immediately.
    let (idx, tid, cpu) = clean
        .iter()
        .enumerate()
        .find_map(|(i, r)| match r.ev {
            TraceEvent::Dispatch { tid, cpu } => Some((i, tid, cpu)),
            _ => None,
        })
        .expect("a dispatch exists");
    let other_cpu = audit
        .cpus
        .iter()
        .map(|&(c, ..)| c)
        .find(|&c| c != cpu)
        .expect("a second cpu exists");
    let t_us = clean[idx].t_us;
    let mut trace = clean.clone();
    let ev = TraceEvent::Dispatch {
        tid,
        cpu: other_cpu,
    };
    trace.insert(idx + 1, TraceRecord { t_us, ev });

    let v = check_invariants(&trace, &audit);
    assert!(
        v.iter().any(|x| x.kind == InvariantKind::SingleResidency
            && x.index == Some(idx + 1)
            && x.message.contains(&format!("task {tid}"))),
        "invariant engine missed the double dispatch at trace[{}]: {v:#?}",
        idx + 1
    );

    // A charge from a CPU that never dispatched the task.
    let mut trace = clean;
    let ev = TraceEvent::JiffyCharge {
        tid,
        cpu: other_cpu,
        kind: ChargeKind::User,
        us: 50,
    };
    trace.insert(idx + 1, TraceRecord { t_us, ev });
    let v = check_invariants(&trace, &audit);
    assert!(
        v.iter().any(|x| x.kind == InvariantKind::ChargeAttribution
            && x.index == Some(idx + 1)
            && x.message.contains(&format!("task {tid}"))
            && x.message.contains(&format!("cpu{other_cpu}"))),
        "invariant engine missed the foreign charge at trace[{}]: {v:#?}",
        idx + 1
    );
}
