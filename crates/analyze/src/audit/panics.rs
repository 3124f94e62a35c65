//! Interprocedural panic-reachability analysis.
//!
//! The monitor's contract (§3.1) is that nothing reachable from the
//! sampling supervisor's `catch_unwind` boundary or from the
//! abnormal-exit path should panic: a panic under the supervisor costs
//! a sample round, and a panic on the crash path turns an orderly
//! abnormal-exit report into an abort. This pass computes
//! the functions reachable from those roots over the workspace call
//! graph and reports every `unwrap`/`expect`/`panic!`-family
//! macro/slice-index site not covered by the reviewed allowlist.
//!
//! `unwrap`/`expect` chained directly onto a `write!`/`writeln!` macro
//! are auto-allowed: `fmt::Write` into a `String` is infallible, and
//! the repo's report renderers use that idiom throughout.
//!
//! The frontier is reachability: any *new* function the supervisor can
//! reach is audited automatically, whether or not someone remembered to
//! add its file to a list. The monitor's per-sample files are rooted
//! whole ([`PANIC_ROOT_FILES`]), so a function there is held to the
//! contract before anything calls it.

use super::callgraph::{CallGraph, SiteKind};
use super::lexer::TokKind;
use super::{resolve_roots, Allow, Allowlist, Finding};

/// Reachability roots: `(file_suffix, fn_name, why)`.
///
/// * `sample` — everything under the sampling supervisor's
///   `catch_unwind`: `Monitor::sample` runs the whole round (begin,
///   list, read and fold, end) inside it.
/// * `crash_report`, `write_partial_logs`, `render_process_report` —
///   the abnormal-exit path: the panic hook prints the report, and the
///   wrapper writes a dead child's partial logs and their reports; a
///   panic here loses the record of the exit.
/// * `decode_frame`, `pump_frames` — the collector daemon's
///   hostile-input boundary: frames arrive truncated, corrupted, and
///   version-skewed off the wire, and a panic here kills supervision
///   for the whole allocation.
pub const PANIC_ROOTS: [(&str, &str, &str); 8] = [
    (
        "crates/core/src/monitor.rs",
        "sample",
        "sampling supervisor",
    ),
    (
        "crates/core/src/signal.rs",
        "crash_report",
        "abnormal-exit path",
    ),
    (
        "crates/core/src/export.rs",
        "write_partial_logs",
        "abnormal-exit path: the logs of a child a signal ended",
    ),
    (
        "crates/core/src/report.rs",
        "render_process_report",
        "abnormal-exit path: each partial log's report",
    ),
    (
        "crates/net/src/frame.rs",
        "decode_frame",
        "wire hostile-input boundary",
    ),
    (
        "crates/net/src/collector.rs",
        "pump_frames",
        "collector daemon loop",
    ),
    (
        "crates/apps/src/churn.rs",
        "run_real_churn",
        "real fork/exec storm driver — supervises live child processes",
    ),
    (
        "crates/apps/src/churn.rs",
        "churn_child_main",
        "hidden __churn-child entry — a panic here orphans the storm child",
    ),
];

/// The monitor's per-sample hot-path files: every function in them is a
/// root. A malformed `/proc` line or a closed channel is data, not a
/// crash (§3.1).
pub const PANIC_ROOT_FILES: [&str; 5] = [
    "crates/core/src/monitor.rs",
    "crates/core/src/round.rs",
    "crates/core/src/lwp.rs",
    "crates/core/src/hwt.rs",
    "crates/core/src/feed.rs",
];

/// Reviewed panic-site allowlist: `(file_suffix, fn_name, kind, why)`.
pub const PANIC_ALLOWLIST: [Allow; 1] = [(
    "crates/procfs/src/fault.rs",
    "decide",
    "panic-macro",
    "deliberate chaos injection (scripted FaultKind::Panic, every read form) — the \
     supervisor's catch_unwind is exactly the system under test",
)];

/// Panic-site kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `.unwrap()`
    Unwrap,
    /// `.expect(…)`
    Expect,
    /// `panic!`/`unreachable!`/`todo!`/`unimplemented!`
    PanicMacro,
    /// `expr[…]`
    Index,
}

impl PanicKind {
    /// Stable identifier used in findings and the allowlist.
    pub fn id(self) -> &'static str {
        match self {
            PanicKind::Unwrap => "unwrap",
            PanicKind::Expect => "expect",
            PanicKind::PanicMacro => "panic-macro",
            PanicKind::Index => "index",
        }
    }
}

/// One potential panic site.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// Owning function index.
    pub fn_idx: usize,
    /// Kind of site.
    pub kind: PanicKind,
    /// 1-based line.
    pub line: usize,
}

/// The result of the panic pass.
pub struct PanicAnalysis {
    /// Reachable-and-unallowed sites as findings, plus stale-allowlist
    /// entries.
    pub findings: Vec<Finding>,
    /// Total sites scanned (reachable or not).
    pub sites: usize,
    /// Functions reachable from the roots.
    pub reachable_fns: usize,
}

/// Whether the `.unwrap()`/`.expect(` at ident token `t` is chained
/// directly onto a `write!`/`writeln!` macro invocation.
fn is_write_chained(pf: &super::items::ParsedFile, t: usize) -> bool {
    // Pattern: `write!`/`writeln!` `(` … `)` `.` unwrap/expect — the
    // token before the `.` is the `)` closing the macro's paren group.
    if t < 2 || !pf.is_punct(t - 1, '.') {
        return false;
    }
    if !pf.is_punct(t - 2, ')') {
        return false;
    }
    // Find the matching `(` going backwards.
    let mut depth = 0i32;
    let mut q = t - 2;
    loop {
        match pf.tokens[q].kind {
            TokKind::Punct(')') => depth += 1,
            TokKind::Punct('(') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        if q == 0 {
            return false;
        }
        q -= 1;
    }
    q >= 2
        && pf.is_punct(q - 1, '!')
        && (pf.is_ident(q - 2, "write") || pf.is_ident(q - 2, "writeln"))
}

/// Extracts every potential panic site in non-test functions.
pub fn panic_sites(graph: &CallGraph) -> Vec<PanicSite> {
    let mut out = Vec::new();
    for (fi, node) in graph.fns.iter().enumerate() {
        let pf = &graph.files[node.file_idx];
        for site in &node.sites {
            match site.kind {
                SiteKind::Call => {
                    let kind = match site.name.as_str() {
                        "unwrap" => PanicKind::Unwrap,
                        "expect" => PanicKind::Expect,
                        _ => continue,
                    };
                    // Method position only.
                    if site.token == 0 || !pf.is_punct(site.token - 1, '.') {
                        continue;
                    }
                    if is_write_chained(pf, site.token) {
                        continue;
                    }
                    out.push(PanicSite {
                        fn_idx: fi,
                        kind,
                        line: site.line,
                    });
                }
                SiteKind::Macro => {
                    if matches!(
                        site.name.as_str(),
                        "panic" | "unreachable" | "todo" | "unimplemented"
                    ) {
                        out.push(PanicSite {
                            fn_idx: fi,
                            kind: PanicKind::PanicMacro,
                            line: site.line,
                        });
                    }
                }
                SiteKind::Index => {
                    out.push(PanicSite {
                        fn_idx: fi,
                        kind: PanicKind::Index,
                        line: site.line,
                    });
                }
            }
        }
    }
    out
}

/// Runs the panic pass with the given roots (plus every function of
/// [`PANIC_ROOT_FILES`]) and allowlist.
pub fn analyze_panics(
    graph: &CallGraph,
    roots: &[(&str, &str, &str)],
    allowlist: &[Allow],
) -> PanicAnalysis {
    let mut findings = Vec::new();
    let named = roots.iter().map(|&(file, name, _)| (file, name));
    let mut root_idx = resolve_roots(graph, "panic root", named, &mut findings);
    root_idx.extend(
        (0..graph.fns.len())
            .filter(|&i| PANIC_ROOT_FILES.contains(&graph.fns[i].item.file.as_str())),
    );
    let parents = graph.reach_from(&root_idx);
    let sites = panic_sites(graph);
    let mut allow = Allowlist::new("panic", allowlist);
    let reachable_fns = parents.iter().flatten().count();
    for s in &sites {
        if parents[s.fn_idx].is_none() {
            continue;
        }
        let node = &graph.fns[s.fn_idx];
        if allow.allows(&node.item.file, &node.item.name, s.kind.id()) {
            continue;
        }
        let witness = graph.path_chain(&parents, s.fn_idx);
        findings.push(Finding {
            pass: "panic-reachable",
            file: node.item.file.clone(),
            line: s.line,
            func: node.item.name.clone(),
            token: s.kind.id().to_string(),
            detail: format!(
                "`{}` in `{}` is reachable from a no-panic root via {}",
                s.kind.id(),
                node.item.name,
                witness.join(" -> ")
            ),
            witness,
        });
    }
    allow.stale(&mut findings);
    PanicAnalysis {
        findings,
        sites: sites.len(),
        reachable_fns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::items::parse_file;

    fn graph(srcs: &[(&str, &str)]) -> CallGraph {
        CallGraph::build(srcs.iter().map(|(p, s)| parse_file(p, s)).collect())
    }

    const ROOT: [(&str, &str, &str); 1] = [("a.rs", "root", "test root")];

    #[test]
    fn reachable_unwrap_is_flagged_unreachable_is_not() {
        let g = graph(&[(
            "a.rs",
            "\
fn root(x: Option<u32>) { step(x); }
fn step(x: Option<u32>) -> u32 { x.unwrap() }
fn island(x: Option<u32>) -> u32 { x.unwrap() }
",
        )]);
        let pa = analyze_panics(&g, &ROOT, &[]);
        assert_eq!(pa.findings.len(), 1, "{:?}", pa.findings);
        assert_eq!(pa.findings[0].func, "step");
        assert!(pa.findings[0].detail.contains("root -> step"));
    }

    #[test]
    fn write_chained_unwrap_is_auto_allowed() {
        let g = graph(&[(
            "a.rs",
            "\
fn root(out: &mut String) {
    writeln!(out, \"header {}\", 1).unwrap();
    write!(out, \"x\").unwrap();
    std::fs::read(\"f\").unwrap();
}
",
        )]);
        let pa = analyze_panics(&g, &ROOT, &[]);
        assert_eq!(pa.findings.len(), 1, "{:?}", pa.findings);
        assert_eq!(pa.findings[0].line, 4);
    }

    #[test]
    fn panic_macros_and_indexes_count() {
        let g = graph(&[(
            "a.rs",
            "fn root(v: &[u32]) -> u32 { if v.is_empty() { panic!(\"empty\") } v[0] }",
        )]);
        let pa = analyze_panics(&g, &ROOT, &[]);
        let kinds: Vec<&str> = pa.findings.iter().map(|f| f.token.as_str()).collect();
        assert!(kinds.contains(&"panic-macro"));
        assert!(kinds.contains(&"index"));
    }

    #[test]
    fn allowlist_suppresses_and_stale_entries_fail() {
        let g = graph(&[("a.rs", "fn root(x: Option<u32>) -> u32 { x.unwrap() }")]);
        let allow = [
            ("a.rs", "root", "unwrap", "covered by caller check"),
            ("a.rs", "gone_fn", "unwrap", "this entry is stale"),
        ];
        let pa = analyze_panics(&g, &ROOT, &allow);
        assert_eq!(pa.findings.len(), 1, "{:?}", pa.findings);
        assert_eq!(pa.findings[0].pass, "stale-allowlist");
        assert_eq!(pa.findings[0].func, "gone_fn");
    }

    #[test]
    fn a_root_that_names_no_fn_is_a_finding() {
        let g = graph(&[("a.rs", "fn root(x: Option<u32>) -> u32 { x.unwrap() }")]);
        let roots = [ROOT[0], ("a.rs", "renamed_away", "a root whose fn is gone")];
        let pa = analyze_panics(&g, &roots, &[]);
        let got: Vec<_> = pa
            .findings
            .iter()
            .map(|f| (f.pass, f.func.as_str()))
            .collect();
        assert_eq!(
            got,
            [
                ("unresolved-root", "renamed_away"),
                ("panic-reachable", "root")
            ],
            "{:?}",
            pa.findings
        );
        assert!(pa.findings[0].detail.contains("resolves to no function"));
    }
}
