//! `zsaudit` — the workspace's one source-level checker.
//!
//! A comment/string-correct lexer ([`lexer`]), a lightweight item
//! parser recovering function bodies and test code ([`items`]), a
//! workspace call graph ([`callgraph`]), and the passes over them —
//! the reachability passes, one table of rows ([`effects`]: panic
//! reach, hot-path allocation, determinism, blocking under the
//! watchdog's roots) and the repo rules ([`rules`]: source-error-bubble,
//! unbounded-growth). What `rustc` proves — one writer and
//! one reader per `ShardRing`, no data race, no use of a moved endpoint
//! — is not re-proved here: every crate is `#![forbid(unsafe_code)]`.
//! Nor is what clippy holds: no print in library code (`print_stdout`
//! and `print_stderr` are denied at every library crate root) and no
//! lock in product code (`disallowed_types` in the root `clippy.toml`),
//! so no held range exists to check.
//! See DESIGN.md §10–§11 for the analysis model and its deliberate
//! over-approximations.
//!
//! Every finding carries a witness trace (shortest root→site call
//! chain), surfaced by `zerosum audit --explain` and in `--json`.
//!
//! Any finding fails the audit. The only way to accept a site is a
//! reviewed [`Allowlist`] entry with its reason, and an entry that
//! matches no site any more is itself a finding — as is a named root
//! that resolves to no function or a rooted-file entry that matches no
//! file.

pub mod callgraph;
pub mod effects;
pub mod items;
pub mod lexer;
pub mod rules;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One audit finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Pass identifier.
    pub pass: &'static str,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line (0 when not tied to a line).
    pub line: usize,
    /// Enclosing function (empty for graph-level findings).
    pub func: String,
    /// The offending token/lock/kind — what an [`Allowlist`] entry
    /// names.
    pub token: String,
    /// Human-readable explanation.
    pub detail: String,
    /// Witness trace: the shortest root→site call chain (function
    /// names, root first). Empty for findings with no call path
    /// (stale allowlist entries). Shown by `zerosum audit --explain`
    /// and in `--json`.
    pub witness: Vec<String>,
}

/// One reviewed allowlist entry: `(file_suffix, fn_name, token, why)`.
pub type Allow<'a> = (&'a str, &'a str, &'a str, &'a str);

/// A reviewed suppression list and the record of which entries were
/// used that keeps it honest — the audit's only way to accept a site.
/// An entry that stops matching any site is itself a finding:
/// allowlists must not rot.
pub struct Allowlist<'a> {
    pass: &'a str,
    entries: &'a [Allow<'a>],
    used: Vec<bool>,
}

impl<'a> Allowlist<'a> {
    /// The reviewed `entries` of `pass`, none used yet.
    pub fn new(pass: &'a str, entries: &'a [Allow<'a>]) -> Self {
        Allowlist {
            pass,
            entries,
            used: vec![false; entries.len()],
        }
    }

    /// Whether an entry accepts `token` in `func` of `file`; every
    /// entry that does is marked used.
    pub fn allows(&mut self, file: &str, func: &str, token: &str) -> bool {
        let mut any = false;
        for (used, (f, fun, tok, _)) in self.used.iter_mut().zip(self.entries) {
            if file.ends_with(f) && func == *fun && token == *tok {
                *used = true;
                any = true;
            }
        }
        any
    }

    /// One finding per entry that accepted nothing.
    pub fn stale(&self, findings: &mut Vec<Finding>) {
        let unused = self
            .used
            .iter()
            .zip(self.entries)
            .filter(|(used, _)| !**used);
        for (_, (file, func, token, _)) in unused {
            let named: Vec<&str> = [*file, *func, *token]
                .into_iter()
                .filter(|part| !part.is_empty())
                .collect();
            findings.push(Finding {
                pass: "stale-allowlist",
                file: file.to_string(),
                line: 0,
                func: func.to_string(),
                token: token.to_string(),
                detail: format!(
                    "{} allowlist entry ({}) matches no current site",
                    self.pass,
                    named.join(", ")
                ),
                witness: Vec::new(),
            });
        }
    }
}

/// An `unresolved-root` finding: an entry of `list` that names nothing,
/// the way a dead allowlist row is a `stale-allowlist` one.
fn unresolved(list: &str, file: &str, func: &str, what: &str) -> Finding {
    let named: Vec<&str> = [file, func].into_iter().filter(|p| !p.is_empty()).collect();
    Finding {
        pass: "unresolved-root",
        file: file.to_string(),
        line: 0,
        func: func.to_string(),
        token: list.to_string(),
        detail: format!("{list} entry ({}) {what}", named.join(", ")),
        witness: Vec::new(),
    }
}

/// Aggregate statistics for the report header.
#[derive(Debug, Clone, Copy, Default)]
pub struct AuditStats {
    /// Files scanned.
    pub files: usize,
    /// Non-test functions in the call graph.
    pub fns: usize,
    /// Potential panic sites scanned.
    pub panic_sites: usize,
    /// Functions reachable from the no-panic roots.
    pub reachable_fns: usize,
    /// Direct effect sites extracted (alloc/clock/ambient/blocking).
    pub effect_sites: usize,
    /// Functions reachable from the hot (`_into`) roots.
    pub hot_reachable: usize,
    /// Functions reachable from the determinism roots.
    pub det_reachable: usize,
}

/// The full audit result.
pub struct AuditReport {
    /// All findings, sorted by (pass, file, line, token).
    pub findings: Vec<Finding>,
    /// Header statistics.
    pub stats: AuditStats,
}

impl AuditReport {
    /// Whether the report is clean (no findings at all).
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        self.render_with(false)
    }

    /// Human-readable report; with `explain`, each finding is followed
    /// by its witness trace.
    pub fn render_with(&self, explain: bool) -> String {
        let s = &self.stats;
        let mut out = String::new();
        writeln!(
            out,
            "zsaudit: {} files, {} fns | \
             {} panic sites, {} fns reachable from no-panic roots | \
             {} effect sites, {} hot-reachable, {} det-reachable fns",
            s.files,
            s.fns,
            s.panic_sites,
            s.reachable_fns,
            s.effect_sites,
            s.hot_reachable,
            s.det_reachable
        )
        .unwrap();
        if self.findings.is_empty() {
            writeln!(out, "OK: no findings").unwrap();
            return out;
        }
        let mut last_pass = "";
        for f in &self.findings {
            if f.pass != last_pass {
                writeln!(out, "\n[{}]", f.pass).unwrap();
                last_pass = f.pass;
            }
            // `file:line: `, `file: `, or nothing for an entry naming no file.
            let mut at = f.file.clone();
            if f.line > 0 {
                write!(at, ":{}", f.line).unwrap();
            }
            let sep = if at.is_empty() { "" } else { ": " };
            writeln!(out, "  {at}{sep}{}", f.detail).unwrap();
            if explain && !f.witness.is_empty() {
                writeln!(out, "    trace: {}", f.witness.join(" -> ")).unwrap();
            }
        }
        writeln!(out, "\n{} finding(s)", self.findings.len()).unwrap();
        out
    }

    /// Machine-readable report.
    pub fn to_json(&self) -> String {
        let s = &self.stats;
        let mut out = String::from("{\n  \"schema\": 3,\n");
        writeln!(
            out,
            "  \"stats\": {{\"files\": {}, \"fns\": {}, \
             \"panic_sites\": {}, \"reachable_fns\": {}, \"effect_sites\": {}, \
             \"hot_reachable\": {}, \"det_reachable\": {}}},",
            s.files,
            s.fns,
            s.panic_sites,
            s.reachable_fns,
            s.effect_sites,
            s.hot_reachable,
            s.det_reachable
        )
        .unwrap();
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let witness = f
                .witness
                .iter()
                .map(|w| format!("\"{}\"", esc(w)))
                .collect::<Vec<_>>()
                .join(", ");
            writeln!(
                out,
                "    {{\"pass\": \"{}\", \"file\": \"{}\", \"line\": {}, \"func\": \"{}\", \
                 \"token\": \"{}\", \"detail\": \"{}\", \"witness\": [{}]}}{}",
                esc(f.pass),
                esc(&f.file),
                f.line,
                esc(&f.func),
                esc(&f.token),
                esc(&f.detail),
                witness,
                if i + 1 < self.findings.len() { "," } else { "" }
            )
            .unwrap();
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// JSON string escaping for the hand-rolled writer above.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).unwrap();
            }
            c => out.push(c),
        }
    }
    out
}

/// Runs every pass over in-memory sources: each reachability pass of
/// `passes`, and the repo rules with `growth_allowlist` (reviewed
/// growing fields; the token is the field, the fn is left empty) — the
/// most general entry point.
pub fn audit_sources_cfg(
    sources: &[(String, String)],
    passes: &[effects::Pass],
    growth_allowlist: &[Allow],
) -> AuditReport {
    let parsed: Vec<items::ParsedFile> = sources
        .iter()
        .map(|(p, s)| items::parse_file(p, s))
        .collect();
    let graph = callgraph::CallGraph::build(parsed);
    let sites = effects::effect_sites(&graph);
    let mut findings = rules::analyze_rules(&graph, growth_allowlist);
    let reached: Vec<(&str, usize)> = passes
        .iter()
        .map(|p| (p.id, effects::reach_pass(&graph, &sites, p, &mut findings)))
        .collect();
    let reach = |id: &str| reached.iter().find(|(p, _)| *p == id).map_or(0, |r| r.1);
    let panic_sites = sites
        .iter()
        .flatten()
        .filter(|s| s.bit == effects::Effect::PANIC)
        .count();
    let stats = AuditStats {
        files: graph.files.len(),
        fns: graph.fns.len(),
        panic_sites,
        reachable_fns: reach(effects::PANIC_REACHABLE.id),
        effect_sites: sites.iter().map(Vec::len).sum::<usize>() - panic_sites,
        hot_reachable: reach(effects::HOT_PATH_ALLOC.id),
        det_reachable: reach(effects::NONDETERMINISM.id),
    };
    sort_findings(&mut findings);
    AuditReport { findings, stats }
}

/// Total order over every field that reaches the output, so `--json`
/// bytes are run-to-run stable; duplicates collapse.
fn sort_findings(findings: &mut Vec<Finding>) {
    findings.sort_by(|a, b| {
        (a.pass, &a.file, a.line, &a.token, &a.func, &a.detail)
            .cmp(&(b.pass, &b.file, b.line, &b.token, &b.func, &b.detail))
    });
    findings.dedup_by(|a, b| {
        (a.pass, &a.file, a.line, &a.token, &a.func) == (b.pass, &b.file, b.line, &b.token, &b.func)
    });
}

/// Runs the audit over in-memory sources with the repo's standard roots
/// and allowlists. The repo rules' file lists are constants of that
/// configuration, so here an entry that names no source is an
/// `unresolved-root` finding too.
pub fn audit_sources(sources: &[(String, String)]) -> AuditReport {
    let mut report = audit_sources_cfg(sources, &effects::PASSES, &rules::GROWTH_ALLOWLIST);
    let lists: [(&str, &[&str]); 2] = [
        ("round file", &rules::ROUND_FILES),
        ("monitor-state file", &rules::MONITOR_STATE_FILES),
    ];
    for (list, files) in lists {
        for file in files {
            if sources.iter().all(|(p, _)| p != file) {
                report
                    .findings
                    .push(unresolved(list, file, "", "matches no file"));
            }
        }
    }
    sort_findings(&mut report.findings);
    report
}

/// Locates the workspace root: walks up from `start` to the first
/// directory that holds what [`collect_sources`] walks — a `crates/`
/// directory beside a `Cargo.toml` with a `[workspace]` table line
/// (the text inside a comment, or a lone-package workspace like
/// `benchmark/`, is not one).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    start.ancestors().map(Path::to_path_buf).find(|d| {
        d.join("crates").is_dir()
            && std::fs::read_to_string(d.join("Cargo.toml"))
                .is_ok_and(|text| text.lines().any(|l| l.trim() == "[workspace]"))
    })
}

/// Collects workspace `.rs` sources under `root/crates` and the facade's
/// `root/src`, skipping `target`, VCS, and fixture directories. Paths
/// come back repo-relative with `/` separators.
pub fn collect_sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    walk(&root.join("crates"), &mut files)?;
    if root.join("src").is_dir() {
        walk(&root.join("src"), &mut files)?;
    }
    files.sort();
    let mut out = Vec::with_capacity(files.len());
    for f in files {
        let src = std::fs::read_to_string(&f).map_err(|e| format!("read {}: {e}", f.display()))?;
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .replace('\\', "/");
        out.push((rel, src));
    }
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | ".git" | "fixtures") {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the audit over the workspace rooted at `root`.
pub fn audit_workspace(root: &Path) -> Result<AuditReport, String> {
    let sources = collect_sources(root)?;
    Ok(audit_sources(&sources))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect()
    }

    #[test]
    fn report_renders_and_serializes() {
        let sources = src(&[(
            "crates/x/src/a.rs",
            "\
fn root(v: Option<u32>) {
    v.unwrap();
}
",
        )]);
        let panics = [effects::Pass {
            roots: &[effects::Root::Fn("a.rs", "root")],
            allowlist: &[],
            ..effects::PANIC_REACHABLE
        }];
        let r = audit_sources_cfg(&sources, &panics, &[]);
        assert!(!r.clean());
        let text = r.render();
        assert!(text.contains("[panic-reachable]"), "{text}");
        assert!(!text.contains("locks"), "{text}");
        let json = r.to_json();
        assert!(json.contains("\"token\": \"unwrap\""), "{json}");
        assert!(!json.contains("acquisitions"), "{json}");
    }

    #[test]
    fn a_rooted_file_that_names_no_source_is_a_finding() {
        let r = audit_sources(&src(&[("crates/core/src/monitor.rs", "")]));
        let files: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.pass == "unresolved-root" && f.func.is_empty())
            .map(|f| (f.token.as_str(), f.file.as_str()))
            .collect();
        assert!(files.contains(&("round file", "crates/core/src/round.rs")));
        assert!(files
            .iter()
            .all(|(_, f)| *f != "crates/core/src/monitor.rs"));
        let rooted = effects::PASSES.iter().flat_map(|p| p.roots);
        let listed = rooted
            .filter(|r| matches!(r, effects::Root::Path(_)))
            .count()
            + rules::ROUND_FILES.len()
            + rules::MONITOR_STATE_FILES.len();
        // monitor.rs sits on all three lists.
        assert_eq!(files.len(), listed - 3, "{files:?}");
    }

    #[test]
    fn every_shipped_allowlist_entry_says_why() {
        let lists = effects::PASSES
            .iter()
            .map(|p| p.allowlist)
            .chain([&rules::GROWTH_ALLOWLIST[..]]);
        for (file, func, token, why) in lists.into_iter().flatten() {
            assert!(!why.is_empty(), "({file}, {func}, {token})");
        }
    }
}
