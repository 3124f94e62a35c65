//! `zerosum lint`: repo-specific source lints for the ZeroSum tree.
//!
//! Four active rules, each encoding a project constraint that `clippy`
//! cannot express:
//!
//! * **no-panic-hot-path** — `unwrap()` / `expect(` are banned in the
//!   monitor's per-sample hot paths (`crates/core/src/monitor.rs`,
//!   `shard.rs`, `lwp.rs`, `hwt.rs`, `feed.rs`). A monitoring tool must never take
//!   down the application it watches (§3.1 of the paper): a malformed
//!   `/proc` line or a closed channel is data, not a crash.
//! * **no-print-in-lib** — `println!` / `eprintln!` are banned in
//!   library code (everything except `src/main.rs`, `src/bin/`,
//!   examples, benches, and tests). Libraries report through return
//!   values or the caller-provided sink; direct prints also panic when
//!   stdio is closed, violating rule one transitively.
//! * **no-source-error-bubble** — bare `?`-propagation of a
//!   [`ProcSource`](zerosum_proc::ProcSource) read error is banned in
//!   the monitor's sampling round (`crates/core/src/monitor.rs`,
//!   `shard.rs`). A
//!   failed `/proc` read is an observation about the observed system —
//!   it must be routed through the `HealthLedger` (retry, interpolate,
//!   quarantine), never allowed to abort the whole sample round.
//! * **no-unbounded-growth-in-monitor** (*note level*) — `.push(` into
//!   a field of long-lived monitor/cluster state is reported unless the
//!   receiver field is on the reviewed allowlist
//!   ([`ALLOWED_GROWTH_FIELDS`]). Monitors run for the life of an
//!   allocation (§2): every unbounded `Vec` time series eventually
//!   exhausts node memory, which is why series storage is built on the
//!   fixed-capacity `Ring`. A push into a new field is how the next
//!   leak starts, so each one gets flagged until it is allowlisted with
//!   a bound argument. Pushes into locals (no `.` in the receiver) are
//!   per-round scratch and not flagged.
//!
//! The rules are line-oriented but run on token-blanked text from the
//! audit lexer ([`crate::audit::lexer`]): comments, string, char, and
//! raw-string literals are blanked with exact line preservation, and
//! `#[cfg(test)]`-gated items are removed by token-level brace matching
//! — so braces inside literals can never miscount, and test code may
//! use `unwrap()` freely. The same token stream drives `zerosum audit`;
//! brace counting and string stripping exist exactly once.

use crate::audit::lexer::{blank_noncode, blank_test_mods};
use std::fmt;
use std::path::{Path, PathBuf};

/// One lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `unwrap()`/`expect(` in a monitor hot-path file.
    NoPanicHotPath,
    /// `println!`/`eprintln!` in library code.
    NoPrintInLib,
    /// Bare `?`-propagation of a `ProcSource` read error in the
    /// monitor's per-sample loop.
    NoSourceErrorBubble,
    /// `.push(` into a non-allowlisted field of long-lived
    /// monitor/cluster state (note level: flags potential unbounded
    /// growth for review).
    NoUnboundedGrowthInMonitor,
}

impl Rule {
    /// The rule's stable identifier, shown in diagnostics.
    pub fn id(self) -> &'static str {
        match self {
            Rule::NoPanicHotPath => "no-panic-hot-path",
            Rule::NoPrintInLib => "no-print-in-lib",
            Rule::NoSourceErrorBubble => "no-source-error-bubble",
            Rule::NoUnboundedGrowthInMonitor => "no-unbounded-growth-in-monitor",
        }
    }

    /// Note-level rules report without failing the lint pass.
    pub fn is_note(self) -> bool {
        self == Rule::NoUnboundedGrowthInMonitor
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct LintViolation {
    /// File the finding is in (relative to the scanned root).
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// The offending token.
    pub token: String,
}

impl fmt::Display for LintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rule.is_note() {
            write!(
                f,
                "{}:{}: [{}] note: `{}` grows long-lived monitor state without a ring bound",
                self.path.display(),
                self.line,
                self.rule.id(),
                self.token
            )
        } else {
            write!(
                f,
                "{}:{}: [{}] `{}` is not allowed here",
                self.path.display(),
                self.line,
                self.rule.id(),
                self.token
            )
        }
    }
}

/// Long-lived state fields the growth rule accepts, each with a known
/// bound: `samples`, `rss_series`, and `gap_times_s` are fixed-capacity
/// rings; `cpus` is one entry per hardware thread; `processes`, `peaks`,
/// `nodes`, and `sup` are one entry per watched rank or node; `tracks`
/// is one per observed LWP; `changes` is one per governor period
/// doubling (bounded by the period ceiling); `transitions` is one per
/// supervision state change; `watched_rss`, `lists` and `plans` are
/// per-round engine scratch reused across rounds (one entry per watch,
/// per live watch, per planned tid).
pub const ALLOWED_GROWTH_FIELDS: [&str; 14] = [
    "changes",
    "cpus",
    "gap_times_s",
    "lists",
    "nodes",
    "peaks",
    "plans",
    "processes",
    "rss_series",
    "samples",
    "sup",
    "tracks",
    "transitions",
    "watched_rss",
];

/// The trailing `a.b.c`-style path ending at byte `col` of
/// `lines[lineno]`, following the chain onto earlier lines when a line
/// opens with `.` (rustfmt splits long receivers that way).
fn receiver_before(lines: &[&str], lineno: usize, col: usize) -> String {
    fn tail(s: &str) -> &str {
        let mut start = s.len();
        for (i, c) in s.char_indices().rev() {
            if c.is_alphanumeric() || c == '_' || c == '.' {
                start = i;
            } else {
                break;
            }
        }
        &s[start..]
    }
    let mut recv = tail(&lines[lineno][..col]).to_string();
    let mut ln = lineno;
    while ln > 0 && (recv.is_empty() || recv.starts_with('.')) {
        ln -= 1;
        let t = tail(lines[ln].trim_end());
        if t.is_empty() {
            break;
        }
        recv.insert_str(0, t);
        if !t.starts_with('.') {
            break;
        }
    }
    recv
}

fn scan_text(rel: &Path, src: &str, rules: &[Rule]) -> Vec<LintViolation> {
    // Token-level blanking: test-gated items first (needs real string
    // tokens to brace-match), then comments and literals.
    let code = blank_noncode(&blank_test_mods(src));
    let lines: Vec<&str> = code.lines().collect();
    let mut out = Vec::new();
    for (lineno, &line) in lines.iter().enumerate() {
        for &rule in rules {
            if rule == Rule::NoUnboundedGrowthInMonitor {
                let Some(col) = line.find(".push(") else {
                    continue;
                };
                let recv = receiver_before(&lines, lineno, col);
                // A dotless receiver is a local (per-round scratch);
                // field pushes are long-lived state and must be on the
                // reviewed allowlist.
                if !recv.contains('.') {
                    continue;
                }
                let field = recv.rsplit('.').next().unwrap_or("");
                if ALLOWED_GROWTH_FIELDS.contains(&field) {
                    continue;
                }
                out.push(LintViolation {
                    path: rel.to_path_buf(),
                    line: lineno + 1,
                    rule,
                    token: format!("{recv}.push"),
                });
                continue;
            }
            if rule == Rule::NoSourceErrorBubble {
                // A `ProcSource` read call with a `?` after its closing
                // paren on the same line: the error skips the ledger.
                const READS: [&str; 7] = [
                    ".system_stat(",
                    ".meminfo(",
                    ".list_tasks(",
                    ".task_stat(",
                    ".task_status(",
                    ".task_schedstat(",
                    ".process_status(",
                ];
                for tok in READS {
                    if let Some(pos) = line.find(tok) {
                        if line[pos..].contains(")?") {
                            out.push(LintViolation {
                                path: rel.to_path_buf(),
                                line: lineno + 1,
                                rule,
                                token: format!("{}..)?", tok.trim_start_matches('.')),
                            });
                        }
                    }
                }
                continue;
            }
            let tokens: &[&str] = match rule {
                Rule::NoPanicHotPath => &[".unwrap()", ".expect("],
                Rule::NoPrintInLib => &["println!", "eprintln!", "print!", "eprint!"],
                Rule::NoSourceErrorBubble | Rule::NoUnboundedGrowthInMonitor => {
                    unreachable!("handled above")
                }
            };
            for tok in tokens {
                // Token-boundary match: `println!` must not also fire
                // inside `eprintln!`, nor `print!` inside `println!`
                // (`.`-prefixed tokens carry their own boundary).
                let hit = line.match_indices(tok).any(|(pos, _)| {
                    let pre_ok = tok.starts_with('.')
                        || pos == 0
                        || !line[..pos]
                            .chars()
                            .next_back()
                            .is_some_and(|c| c.is_alphanumeric() || c == '_');
                    let post = line[pos + tok.len()..].chars().next();
                    let post_ok = tok.ends_with('(')
                        || tok.ends_with(')')
                        || tok.ends_with('!')
                        || !post.is_some_and(|c| c.is_alphanumeric() || c == '_');
                    pre_ok && post_ok
                });
                if hit {
                    out.push(LintViolation {
                        path: rel.to_path_buf(),
                        line: lineno + 1,
                        rule,
                        token: tok.trim_start_matches('.').to_string(),
                    });
                }
            }
        }
    }
    out
}

/// The monitor hot-path files covered by [`Rule::NoPanicHotPath`].
const HOT_PATHS: [&str; 5] = [
    "crates/core/src/monitor.rs",
    "crates/core/src/shard.rs",
    "crates/core/src/lwp.rs",
    "crates/core/src/hwt.rs",
    "crates/core/src/feed.rs",
];

/// Files holding state that lives as long as the monitor itself,
/// covered by [`Rule::NoUnboundedGrowthInMonitor`].
const MONITOR_STATE_PATHS: [&str; 6] = [
    "crates/core/src/monitor.rs",
    "crates/core/src/shard.rs",
    "crates/core/src/cluster.rs",
    "crates/core/src/lwp.rs",
    "crates/core/src/hwt.rs",
    "crates/core/src/memory.rs",
];

fn is_library_source(rel: &Path) -> bool {
    let s = rel.to_string_lossy().replace('\\', "/");
    if !s.starts_with("crates/") && !s.starts_with("src/") {
        return false;
    }
    if s.contains("/bin/") || s.ends_with("/main.rs") || s == "src/main.rs" {
        return false;
    }
    if s.contains("/tests/") || s.contains("/examples/") || s.contains("/benches/") {
        return false;
    }
    s.ends_with(".rs")
}

fn rules_for(rel: &Path) -> Vec<Rule> {
    let s = rel.to_string_lossy().replace('\\', "/");
    let mut rules = Vec::new();
    if HOT_PATHS.contains(&s.as_str()) {
        rules.push(Rule::NoPanicHotPath);
    }
    if MONITOR_STATE_PATHS.contains(&s.as_str()) {
        rules.push(Rule::NoUnboundedGrowthInMonitor);
    }
    if s == "crates/core/src/monitor.rs" || s == "crates/core/src/shard.rs" {
        rules.push(Rule::NoSourceErrorBubble);
    }
    if is_library_source(rel) {
        rules.push(Rule::NoPrintInLib);
    }
    rules
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `fixtures` trees hold deliberately-violating golden files
            // for the lint/audit test suites.
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints one source text as if it lived at `rel` inside the repo.
/// Exposed for testing the rules against seeded violations.
pub fn lint_source(rel: &Path, src: &str) -> Vec<LintViolation> {
    let rules = rules_for(rel);
    if rules.is_empty() {
        return Vec::new();
    }
    scan_text(rel, src, &rules)
}

/// Lints the whole repository rooted at `root`. Returns violations
/// sorted by path and line.
pub fn lint_repo(root: &Path) -> std::io::Result<Vec<LintViolation>> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    let mut out = Vec::new();
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        let rules = rules_for(&rel);
        if rules.is_empty() {
            continue;
        }
        let src = std::fs::read_to_string(&path)?;
        out.extend(scan_text(&rel, &src, &rules));
    }
    out.sort_by(|a, b| a.path.cmp(&b.path).then(a.line.cmp(&b.line)));
    Ok(out)
}

/// Returns the [`ALLOWED_GROWTH_FIELDS`] entries that no longer match
/// any `.push(` receiver field in the monitor-state files — stale
/// allowlist entries that must be pruned (`zerosum lint` fails on
/// them). An allowlist that rots stops being a review record.
pub fn stale_growth_entries(root: &Path) -> std::io::Result<Vec<&'static str>> {
    let mut used: Vec<&'static str> = Vec::new();
    for rel in MONITOR_STATE_PATHS {
        let path = root.join(rel);
        let src = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            // A monitor-state file that no longer exists contributes no
            // uses; its allowlisted fields then report as stale.
            Err(_) => continue,
        };
        let code = blank_noncode(&blank_test_mods(&src));
        let mut rest: &str = &code;
        while let Some(col) = rest.find(".push(") {
            // Walk back over whitespace (rustfmt may split the receiver
            // onto its own line), then take the trailing ident.
            let before = rest[..col].trim_end();
            let field: String = before
                .chars()
                .rev()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            if let Some(entry) = ALLOWED_GROWTH_FIELDS.iter().find(|e| **e == field) {
                if !used.contains(entry) {
                    used.push(entry);
                }
            }
            rest = &rest[col + 6..];
        }
    }
    Ok(ALLOWED_GROWTH_FIELDS
        .iter()
        .filter(|e| !used.contains(e))
        .copied()
        .collect())
}

/// Locates the workspace root: walks up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwrap_in_hot_path_is_flagged() {
        let v = lint_source(
            Path::new("crates/core/src/lwp.rs"),
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::NoPanicHotPath);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn expect_in_hot_path_is_flagged() {
        let v = lint_source(
            Path::new("crates/core/src/feed.rs"),
            "fn f(x: Option<u32>) -> u32 {\n    x.expect(\"boom\")\n}\n",
        );
        assert!(v
            .iter()
            .any(|x| x.rule == Rule::NoPanicHotPath && x.line == 2));
    }

    #[test]
    fn unwrap_outside_hot_path_is_allowed() {
        let v = lint_source(
            Path::new("crates/core/src/config.rs"),
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        );
        assert!(v.is_empty());
    }

    #[test]
    fn unwrap_in_test_mod_is_allowed() {
        let src = "\
fn ok() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        Some(1).unwrap();
    }
}
";
        let v = lint_source(Path::new("crates/core/src/lwp.rs"), src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn println_in_lib_is_flagged_but_not_in_main() {
        let src = "fn f() { println!(\"hi\"); }\n";
        let v = lint_source(Path::new("crates/core/src/monitor.rs"), src);
        assert!(v.iter().any(|x| x.rule == Rule::NoPrintInLib));
        assert!(lint_source(Path::new("crates/cli/src/main.rs"), src).is_empty());
    }

    #[test]
    fn prints_in_comments_and_strings_are_ignored() {
        let src = "\
// println!(\"not code\")
fn f() -> &'static str {
    \"eprintln!(no)\"
}
/* println! */
";
        let v = lint_source(Path::new("crates/core/src/monitor.rs"), src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn source_error_bubble_in_monitor_is_flagged() {
        let src = "\
fn sample(res: &dyn ProcSource, pid: u32) -> SourceResult<()> {
    let stat = res.task_stat(pid, pid)?;
    let _ = stat;
    Ok(())
}
";
        let v = lint_source(Path::new("crates/core/src/monitor.rs"), src);
        assert!(
            v.iter()
                .any(|x| x.rule == Rule::NoSourceErrorBubble && x.line == 2),
            "{v:?}"
        );
        // Same code outside the monitor is fine.
        assert!(lint_source(Path::new("crates/core/src/attach.rs"), src).is_empty());
    }

    #[test]
    fn source_read_routed_through_ledger_is_allowed() {
        let src = "\
fn sample(res: &dyn ProcSource, pid: u32) {
    match res.task_stat(pid, pid) {
        Ok(_) => {}
        Err(_) => {}
    }
    let _ = res.task_schedstat(pid, pid).ok();
}
";
        let v = lint_source(Path::new("crates/core/src/monitor.rs"), src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unallowlisted_state_push_is_a_note() {
        let src = "\
fn observe(&mut self, t_s: f64) {
    self.history.push(t_s);
    self.samples.push(t_s);
    let mut scratch = Vec::new();
    scratch.push(t_s);
}
";
        let v = lint_source(Path::new("crates/core/src/cluster.rs"), src);
        let notes: Vec<_> = v
            .iter()
            .filter(|x| x.rule == Rule::NoUnboundedGrowthInMonitor)
            .collect();
        // `history` is not allowlisted; the ring field `samples` and the
        // local `scratch` are fine.
        assert_eq!(notes.len(), 1, "{v:?}");
        assert_eq!(notes[0].line, 2);
        assert!(notes[0].token.contains("self.history.push"));
        assert!(notes[0].rule.is_note());
        assert!(notes[0].to_string().contains("ring bound"));
        // Outside the monitor-state file set, no note.
        assert!(lint_source(Path::new("crates/core/src/config.rs"), src).is_empty());
    }

    #[test]
    fn growth_rule_follows_rustfmt_split_receivers() {
        let src = "\
fn observe(&mut self) {
    self.deeply.nested
        .event_log
        .push(1);
    self.scratch
        .watched_rss
        .push((1, 2));
}
";
        let v = lint_source(Path::new("crates/core/src/monitor.rs"), src);
        let notes: Vec<_> = v
            .iter()
            .filter(|x| x.rule == Rule::NoUnboundedGrowthInMonitor)
            .collect();
        assert_eq!(notes.len(), 1, "{v:?}");
        assert_eq!(notes[0].line, 4);
        assert!(
            notes[0].token.contains("event_log.push"),
            "{}",
            notes[0].token
        );
    }

    #[test]
    fn raw_string_braces_do_not_derail_test_mod_skipping() {
        // Regression: a raw string with an interior `"` once flipped a
        // textual scanner's quote parity, swallowing everything up to
        // the next plain quote — including the `#[cfg(test)]` attribute
        // and the real violation after the test mod. The token-level
        // blanking lexes the raw string as one literal and gets both
        // right.
        let src = "\
fn banner() -> &'static str { r#\"odd \" quote {\"# }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1).unwrap(); }
}
fn after(x: Option<u32>) -> u32 { x.unwrap() }
";
        let v = lint_source(Path::new("crates/core/src/lwp.rs"), src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 7, "only `after`'s unwrap is real code");
    }

    #[test]
    fn shipped_growth_allowlist_has_no_stale_entries() {
        let root =
            find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
        let stale = stale_growth_entries(&root).expect("scan");
        assert!(stale.is_empty(), "stale ALLOWED_GROWTH_FIELDS: {stale:?}");
    }

    #[test]
    fn shipped_tree_is_clean() {
        let root =
            find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
        let v = lint_repo(&root).expect("lint");
        // Notes are allowed in the shipped tree (one-time setup clones);
        // error-level rules must not fire.
        let errors: Vec<_> = v.iter().filter(|x| !x.rule.is_note()).collect();
        assert!(
            errors.is_empty(),
            "shipped tree has lint violations:\n{}",
            errors
                .iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
