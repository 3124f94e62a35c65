//! Golden fixtures for the audit passes.
//!
//! Every pass has a `*.bad.rs` fixture (under `tests/fixtures/lint/` at
//! the workspace root) that must fire at exactly the expected lines,
//! and a `*.clean.rs` near-miss twin — the closest legal code — that
//! must stay silent. The pairs pin both the detection and the
//! false-positive boundary of each pass; fixture directories are
//! excluded from the real audit walk.

use std::path::{Path, PathBuf};
use zerosum_analyze::audit::effects::EffectConfig;
use zerosum_analyze::audit::{audit_sources_cfg, audit_sources_with, AuditConfig};
use zerosum_analyze::{audit_sources, audit_workspace, find_workspace_root, AuditReport};

fn workspace_root() -> PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

fn read(name: &str) -> String {
    let path = workspace_root().join("tests/fixtures/lint").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `(fixture stem, audit-as path, pass, expected bad-fixture lines)`:
/// the passes that key on where a file lives, under the shipped
/// configuration.
const AS_PATH_CASES: [(&str, &str, &str, &[usize]); 7] = [
    (
        "panic_hot_path",
        "crates/core/src/monitor.rs",
        "panic-reachable",
        &[4, 8],
    ),
    (
        "print_in_lib",
        "crates/core/src/export.rs",
        "print-in-lib",
        &[3, 4],
    ),
    (
        "source_error_bubble",
        "crates/core/src/monitor.rs",
        "source-error-bubble",
        &[4, 5],
    ),
    (
        "source_error_bubble_closure",
        "crates/core/src/shard.rs",
        "source-error-bubble",
        &[4, 12, 13],
    ),
    // `lwp.rs` is where the clean twin's `samples` and `tracks` are
    // reviewed.
    (
        "growth_monitor",
        "crates/core/src/lwp.rs",
        "unbounded-growth",
        &[4, 7],
    ),
    // The raw string's interior quote must not swallow the test mod or
    // the violation after it.
    (
        "raw_string_test_mod",
        "crates/core/src/lwp.rs",
        "panic-reachable",
        &[7],
    ),
    // Byte strings, raw byte strings, and a nested block comment all
    // carry panic-family text that is not code; only the unwrap at
    // line 14 is.
    (
        "byte_string_nested_comment",
        "crates/core/src/lwp.rs",
        "panic-reachable",
        &[14],
    ),
];

/// What the shipped configuration finds in `src` living at `as_path`.
/// Its allowlists name sites of the real tree, so on a one-file tree
/// every entry is stale — which is not what these pairs pin.
fn audit_as(as_path: &str, src: String) -> Vec<(&'static str, usize)> {
    let report = audit_sources(&[(as_path.to_string(), src)]);
    let real = report
        .findings
        .iter()
        .filter(|f| f.pass != "stale-allowlist");
    real.map(|f| (f.pass, f.line)).collect()
}

#[test]
fn bad_as_path_fixtures_fire_exactly_where_expected() {
    for (stem, as_path, pass, lines) in AS_PATH_CASES {
        let got = audit_as(as_path, read(&format!("{stem}.bad.rs")));
        let want: Vec<(&str, usize)> = lines.iter().map(|&l| (pass, l)).collect();
        assert_eq!(got, want, "{stem}.bad.rs as {as_path}");
    }
}

#[test]
fn clean_as_path_fixtures_stay_silent() {
    for (stem, as_path, _, _) in AS_PATH_CASES {
        let got = audit_as(as_path, read(&format!("{stem}.clean.rs")));
        assert!(got.is_empty(), "{stem}.clean.rs as {as_path}: {got:?}");
    }
}

#[test]
fn shipped_tree_audits_clean() {
    let report = audit_workspace(&workspace_root()).expect("audit");
    assert!(report.clean(), "{}", report.render_with(true));
}

fn audit_one(name: &str, roots: &[(&str, &str, &str)]) -> AuditReport {
    audit_sources_with(&[(name.to_string(), read(name))], roots, &[])
}

#[test]
fn lock_cycle_fixture_pair() {
    let bad = audit_one("lock_cycle.bad.rs", &[]);
    assert!(
        !bad.cycles().is_empty(),
        "AB/BA fixture must report a lock-order cycle: {:?}",
        bad.findings
    );
    let clean = audit_one("lock_cycle.clean.rs", &[]);
    assert!(clean.cycles().is_empty(), "{:?}", clean.findings);
    assert!(
        clean
            .edges
            .iter()
            .any(|e| e.from == "alpha" && e.to == "beta"),
        "consistent ordering still contributes an edge: {:?}",
        clean.edges
    );
}

/// Audits one fixture with no panic roots and the given effect
/// configuration — the entry point for the effect-pass pairs.
fn audit_effects(name: &str, effects: EffectConfig) -> AuditReport {
    audit_sources_cfg(
        &[(name.to_string(), read(name))],
        &AuditConfig {
            effects,
            ..AuditConfig::empty()
        },
    )
}

#[test]
fn hot_path_alloc_fixture_pair() {
    let bad = audit_effects("hot_path_alloc.bad.rs", EffectConfig::empty());
    let hot: Vec<_> = bad
        .findings
        .iter()
        .filter(|f| f.pass == "hot-path-alloc")
        .collect();
    assert_eq!(hot.len(), 1, "{:?}", bad.findings);
    assert_eq!(hot[0].func, "leaf");
    assert_eq!(hot[0].token, "clone");
    assert_eq!(hot[0].witness, vec!["task_stat_into", "helper", "leaf"]);
    let clean = audit_effects("hot_path_alloc.clean.rs", EffectConfig::empty());
    assert!(clean.clean(), "{:?}", clean.findings);
}

#[test]
fn determinism_fixture_pair() {
    let bad = audit_effects(
        "determinism.bad.rs",
        EffectConfig {
            det_roots: &[("determinism.bad.rs", "run_sim")],
            ..EffectConfig::empty()
        },
    );
    let det: Vec<_> = bad
        .findings
        .iter()
        .filter(|f| f.pass == "nondeterminism")
        .collect();
    assert!(
        det.iter()
            .any(|f| f.func == "stamp" && f.token == "Instant::now"),
        "{:?}",
        bad.findings
    );
    assert!(
        det.iter()
            .any(|f| f.func == "run_sim" && f.token == "tasks.iter"),
        "{:?}",
        bad.findings
    );
    let clean = audit_effects(
        "determinism.clean.rs",
        EffectConfig {
            det_roots: &[("determinism.clean.rs", "run_sim")],
            ..EffectConfig::empty()
        },
    );
    assert!(clean.clean(), "{:?}", clean.findings);
}

#[test]
fn blocking_fixture_pair() {
    let bad = audit_effects("blocking.bad.rs", EffectConfig::empty());
    let blocking: Vec<_> = bad
        .findings
        .iter()
        .filter(|f| f.pass == "blocking")
        .collect();
    assert!(
        blocking
            .iter()
            .any(|f| f.func == "drain" && f.token == "alpha:thread::sleep"),
        "{:?}",
        bad.findings
    );
    let via = blocking
        .iter()
        .find(|f| f.token == "alpha:fs::read_to_string")
        .expect("callee-carried blocking finding");
    assert_eq!(via.witness, vec!["drain", "flush"]);
    let clean = audit_effects("blocking.clean.rs", EffectConfig::empty());
    assert!(clean.clean(), "{:?}", clean.findings);
}

#[test]
fn witness_traces_are_stable_across_runs() {
    // The snapshot contract for `--explain`: two independent audits of
    // the same source render byte-identical reports, including the
    // exact shortest-path trace lines.
    let a = audit_effects("hot_path_alloc.bad.rs", EffectConfig::empty()).render_with(true);
    let b = audit_effects("hot_path_alloc.bad.rs", EffectConfig::empty()).render_with(true);
    assert_eq!(a, b, "audit output must be deterministic");
    assert!(
        a.contains("    trace: task_stat_into -> helper -> leaf"),
        "missing witness trace:\n{a}"
    );
}

/// Audits a blocking fixture with its `pump` as the one non-blocking
/// root.
fn audit_pump(name: &str) -> AuditReport {
    audit_effects(
        name,
        EffectConfig {
            watchdog_roots: &[(name, "pump")],
            ..EffectConfig::empty()
        },
    )
}

#[test]
fn blocking_pump_fixture_pair() {
    let bad = audit_pump("blocking_pump.bad.rs");
    assert_eq!(bad.findings.len(), 1, "{:?}", bad.findings);
    let blocked = &bad.findings[0];
    assert_eq!(
        (blocked.pass, blocked.token.as_str(), blocked.func.as_str()),
        ("blocking", "thread::sleep", "drain")
    );
    assert_eq!(blocked.witness, ["pump", "drain"]);
    assert!(
        bad.render_with(true).contains("    trace: pump -> drain"),
        "{}",
        bad.render_with(true)
    );
    let clean = audit_pump("blocking_pump.clean.rs");
    assert!(clean.clean(), "{:?}", clean.findings);
}

#[test]
fn own_method_send_fixture_pair() {
    let bad = audit_pump("own_method_send.bad.rs");
    assert_eq!(bad.findings.len(), 1, "{:?}", bad.findings);
    let chan = &bad.findings[0];
    assert_eq!(
        (chan.pass, chan.token.as_str(), chan.line),
        ("blocking", "send", 14)
    );
    assert_eq!(chan.witness, ["pump", "offer"]);
    // `self.send(` where the impl defines `send` is a call, not a
    // channel op.
    let clean = audit_pump("own_method_send.clean.rs");
    assert!(clean.clean(), "{:?}", clean.findings);
}

#[test]
fn workspace_audit_json_is_byte_identical_across_runs() {
    // The machine-readable contract for CI diffing: two full audits of
    // the real workspace serialize to identical bytes — finding order,
    // lock-order edges, stats, everything.
    let a = audit_workspace(&workspace_root()).expect("audit").to_json();
    let b = audit_workspace(&workspace_root()).expect("audit").to_json();
    assert_eq!(a, b, "audit --json must be deterministic");
}

#[test]
fn panic_reach_fixture_pair() {
    let bad = audit_one(
        "panic_reach.bad.rs",
        &[("panic_reach.bad.rs", "entry", "fixture root")],
    );
    assert!(
        bad.findings
            .iter()
            .any(|f| f.pass == "panic-reachable" && f.func == "inner"),
        "{:?}",
        bad.findings
    );
    let clean = audit_one(
        "panic_reach.clean.rs",
        &[("panic_reach.clean.rs", "entry", "fixture root")],
    );
    assert!(clean.clean(), "{:?}", clean.findings);
}

/// Audits a caller fixture rooted at its `entry`, beside the shared
/// callees living at `crates/apps/src/synthetic.rs`.
fn audit_calling(name: &str) -> AuditReport {
    let callees = "crates/apps/src/synthetic.rs".to_string();
    audit_sources_with(
        &[
            (callees, read("callgraph_callees.rs")),
            (name.to_string(), read(name)),
        ],
        &[(name, "entry", "fixture root")],
        &[],
    )
}

#[test]
fn module_qualifier_fixture_pair() {
    let bad = audit_calling("module_qualifier.bad.rs");
    assert_eq!(bad.findings.len(), 1, "{:?}", bad.findings);
    assert_eq!(bad.findings[0].witness, ["entry", "spawn"]);
    // `thread::spawn` is not the free `spawn` of another module.
    let clean = audit_calling("module_qualifier.clean.rs");
    assert!(clean.clean(), "{:?}", clean.findings);
}

#[test]
fn std_method_names_fixture_pair() {
    let bad = audit_calling("std_method_names.bad.rs");
    let reached: Vec<&str> = bad.findings.iter().map(|f| f.func.as_str()).collect();
    assert_eq!(reached, ["with", "iter"], "{:?}", bad.findings);
    // `.with(` / `.iter(` in a file that never names `Metrics`.
    let clean = audit_calling("std_method_names.clean.rs");
    assert!(clean.clean(), "{:?}", clean.findings);
}
