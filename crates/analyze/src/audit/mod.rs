//! `zsaudit` — the workspace's one source-level checker.
//!
//! A comment/string-correct lexer ([`lexer`]), a lightweight item
//! parser recovering function bodies ([`items`]), a workspace call
//! graph ([`callgraph`]), and the passes over them — lock-order
//! analysis ([`locks`]), panic-reachability ([`panics`]), the effect
//! passes ([`effects`]: hot-path allocation, determinism, blocking)
//! and the repo rules ([`rules`]: print-in-lib, source-error-bubble,
//! unbounded-growth). What `rustc` proves — one writer and one reader
//! per shard ring, no data race, no use of a moved endpoint — is not
//! re-proved here: every crate is `#![forbid(unsafe_code)]`.
//! See DESIGN.md §10–§11 for the analysis model and its deliberate
//! over-approximations.
//!
//! Every finding carries a witness trace (shortest root→site call
//! chain), surfaced by `zerosum audit --explain` and in `--json`.
//!
//! Any finding fails the audit. The only way to accept a site is a
//! reviewed [`Allowlist`] entry with its reason, and an entry that
//! matches no site any more is itself a finding.

pub mod callgraph;
pub mod drill;
pub mod effects;
pub mod items;
pub mod lexer;
pub mod locks;
pub mod panics;
pub mod rules;

use std::collections::BTreeSet;
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

/// Aggregate statistics for the report header.
#[derive(Debug, Clone, Copy, Default)]
pub struct AuditStats {
    /// Files scanned.
    pub files: usize,
    /// Non-test functions in the call graph.
    pub fns: usize,
    /// Static lock acquisitions.
    pub acquisitions: usize,
    /// Distinct lock nodes.
    pub locks: usize,
    /// Lock-order edges.
    pub edges: usize,
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
    /// The static lock-order edges (consumed by the sanitizer drill).
    pub edges: Vec<locks::LockEdge>,
    /// Distinct lock node keys.
    pub locks: BTreeSet<String>,
    /// Header statistics.
    pub stats: AuditStats,
}

impl AuditReport {
    /// Whether the report is clean (no findings at all).
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Lock-cycle findings.
    pub fn cycles(&self) -> Vec<&Finding> {
        self.findings
            .iter()
            .filter(|f| f.pass == "lock-cycle")
            .collect()
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
            "zsaudit: {} files, {} fns | {} locks, {} acquisitions, {} edges | \
             {} panic sites, {} fns reachable from no-panic roots | \
             {} effect sites, {} hot-reachable, {} det-reachable fns",
            s.files,
            s.fns,
            s.locks,
            s.acquisitions,
            s.edges,
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
        let mut out = String::from("{\n  \"schema\": 2,\n");
        writeln!(
            out,
            "  \"stats\": {{\"files\": {}, \"fns\": {}, \"acquisitions\": {}, \"locks\": {}, \
             \"edges\": {}, \"panic_sites\": {}, \"reachable_fns\": {}, \"effect_sites\": {}, \
             \"hot_reachable\": {}, \"det_reachable\": {}}},",
            s.files,
            s.fns,
            s.acquisitions,
            s.locks,
            s.edges,
            s.panic_sites,
            s.reachable_fns,
            s.effect_sites,
            s.hot_reachable,
            s.det_reachable
        )
        .unwrap();
        out.push_str("  \"edges\": [\n");
        for (i, e) in self.edges.iter().enumerate() {
            writeln!(
                out,
                "    {{\"from\": \"{}\", \"to\": \"{}\", \"site\": \"{}\"}}{}",
                esc(&e.from),
                esc(&e.to),
                esc(&e.site),
                if i + 1 < self.edges.len() { "," } else { "" }
            )
            .unwrap();
        }
        out.push_str("  ],\n  \"findings\": [\n");
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

/// Full audit configuration: every pass's roots and reviewed
/// allowlists.
#[derive(Debug, Clone, Copy)]
pub struct AuditConfig<'a> {
    /// Panic-reachability roots: `(file_suffix, fn_name, why)`.
    pub panic_roots: &'a [(&'a str, &'a str, &'a str)],
    /// Reviewed panic sites; the token is the site kind.
    pub panic_allowlist: &'a [Allow<'a>],
    /// Reviewed growing fields; the token is the field, the fn is left
    /// empty.
    pub growth_allowlist: &'a [Allow<'a>],
    /// Effect-pass roots and allowlists.
    pub effects: effects::EffectConfig<'a>,
}

impl AuditConfig<'static> {
    /// The repo's standard configuration.
    pub const fn default_repo() -> AuditConfig<'static> {
        AuditConfig {
            panic_roots: &panics::PANIC_ROOTS,
            panic_allowlist: &panics::PANIC_ALLOWLIST,
            growth_allowlist: &rules::GROWTH_ALLOWLIST,
            effects: effects::DEFAULT_EFFECTS,
        }
    }

    /// No roots and no allowlists (the `_into` suffix rule still
    /// applies) — what the fixture tests start from.
    pub const fn empty() -> AuditConfig<'static> {
        AuditConfig {
            panic_roots: &[],
            panic_allowlist: &[],
            growth_allowlist: &[],
            effects: effects::EffectConfig::empty(),
        }
    }
}

/// Runs every pass over in-memory sources with an explicit
/// configuration — the most general entry point.
pub fn audit_sources_cfg(sources: &[(String, String)], cfg: &AuditConfig) -> AuditReport {
    let parsed: Vec<items::ParsedFile> = sources
        .iter()
        .map(|(p, s)| items::parse_file(p, s))
        .collect();
    let graph = callgraph::CallGraph::build(parsed);
    let la = locks::analyze_locks(&graph);
    let pa = panics::analyze_panics(&graph, cfg.panic_roots, cfg.panic_allowlist);
    let ea = effects::analyze_effects(&graph, &la, &cfg.effects);
    let stats = AuditStats {
        files: graph.files.len(),
        fns: graph.fns.len(),
        acquisitions: la.acquisitions.len(),
        locks: la.locks.len(),
        edges: la.edges.len(),
        panic_sites: pa.sites,
        reachable_fns: pa.reachable_fns,
        effect_sites: ea.sites,
        hot_reachable: ea.hot_reachable,
        det_reachable: ea.det_reachable,
    };
    let mut findings: Vec<Finding> = la
        .findings
        .into_iter()
        .chain(pa.findings)
        .chain(ea.findings)
        .chain(rules::analyze_rules(&graph, cfg.growth_allowlist))
        .collect();
    // Total order over every field that reaches the output, so
    // `--json` bytes are run-to-run stable.
    findings.sort_by(|a, b| {
        (a.pass, &a.file, a.line, &a.token, &a.func, &a.detail)
            .cmp(&(b.pass, &b.file, b.line, &b.token, &b.func, &b.detail))
    });
    findings.dedup_by(|a, b| {
        (a.pass, &a.file, a.line, &a.token, &a.func) == (b.pass, &b.file, b.line, &b.token, &b.func)
    });
    AuditReport {
        findings,
        edges: la.edges,
        locks: la.locks,
        stats,
    }
}

/// [`AuditConfig::empty`] plus explicit panic roots and allowlist.
pub fn audit_sources_with(
    sources: &[(String, String)],
    roots: &[(&str, &str, &str)],
    allowlist: &[Allow],
) -> AuditReport {
    let cfg = AuditConfig {
        panic_roots: roots,
        panic_allowlist: allowlist,
        ..AuditConfig::empty()
    };
    audit_sources_cfg(sources, &cfg)
}

/// Runs the audit over in-memory sources with the repo's standard roots
/// and allowlists.
pub fn audit_sources(sources: &[(String, String)]) -> AuditReport {
    audit_sources_cfg(sources, &AuditConfig::default_repo())
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
fn root(x: &M, y: &M, v: Option<u32>) {
    let g = x.alpha.lock();
    let h = y.beta.lock();
    v.unwrap();
}
fn rev(x: &M, y: &M) {
    let h = y.beta.lock();
    let g = x.alpha.lock();
}
",
        )]);
        let r = audit_sources_with(&sources, &[("a.rs", "root", "test")], &[]);
        assert!(!r.clean());
        assert!(!r.cycles().is_empty());
        let text = r.render();
        assert!(text.contains("[lock-cycle]"), "{text}");
        assert!(text.contains("[panic-reachable]"), "{text}");
        let json = r.to_json();
        assert!(json.contains("\"pass\": \"lock-cycle\""), "{json}");
    }

    #[test]
    fn every_shipped_allowlist_entry_says_why() {
        let cfg = AuditConfig::default_repo();
        let lists = [
            cfg.panic_allowlist,
            cfg.growth_allowlist,
            cfg.effects.alloc_allowlist,
            cfg.effects.det_allowlist,
            cfg.effects.blocking_allowlist,
        ];
        for (file, func, token, why) in lists.into_iter().flatten() {
            assert!(!why.is_empty(), "({file}, {func}, {token})");
        }
    }
}
