//! The repo rules: two token-shape checks, each a project constraint
//! `clippy` cannot express, run over the token streams the call graph
//! already holds (so test code is out of scope by the same
//! `#[cfg(test)]` tracking every other pass uses). No print in library
//! code is clippy's (`print_stdout` / `print_stderr`, denied at every
//! library crate root), and so is no lock in product code
//! (`disallowed_types` in the root `clippy.toml`).
//!
//! * **source-error-bubble** — a [`PROC_READS`] call whose error a `?`
//!   carries out of a function of the sampling round. A failed `/proc`
//!   read is an observation about the observed system: it goes through
//!   the `HealthLedger` (retry, interpolate, quarantine) and never
//!   aborts the round. A `?` inside the closure handed to `with_retry`
//!   returns to `with_retry`, which is that routing.
//! * **unbounded-growth** — `.push(` into a field of state that lives
//!   as long as the monitor. Monitors run for the life of an allocation
//!   (§2): every unbounded series eventually exhausts node memory, which
//!   is why series storage is the fixed-capacity `Ring`. A push into a
//!   new field is how the next leak starts, so each field is a finding
//!   until [`GROWTH_ALLOWLIST`] records its bound. A receiver without a
//!   `.` is the field of the same name when the fn takes it as a
//!   `&mut Vec<…>` parameter or binds it by destructuring a struct
//!   (`let Monitor { processes, .. } = mon`); any other is a local —
//!   per-round scratch.

use super::callgraph::{CallGraph, FnNode, Site, SiteKind};
use super::items::{FnItem, ParsedFile};
use super::lexer::TokKind;
use super::{Allow, Allowlist, Finding};

/// Every read method of `trait ProcSource` (`crates/procfs/src/source.rs`;
/// a test holds the two equal). Each may block on a stalled `/proc`.
pub const PROC_READS: [&str; 14] = [
    "system_stat",
    "meminfo",
    "list_tasks",
    "task_stat",
    "task_status",
    "task_schedstat",
    "process_status",
    "system_stat_into",
    "list_tasks_into",
    "list_children_into",
    "task_stat_into",
    "task_status_into",
    "task_stat_text",
    "task_status_text",
];

/// The sampling round's files, where a read error may not bubble.
pub(super) const ROUND_FILES: [&str; 2] =
    ["crates/core/src/monitor.rs", "crates/core/src/round.rs"];

/// Files holding state that lives as long as the monitor itself.
pub(super) const MONITOR_STATE_FILES: [&str; 6] = [
    "crates/core/src/monitor.rs",
    "crates/core/src/round.rs",
    "crates/core/src/cluster.rs",
    "crates/core/src/lwp.rs",
    "crates/core/src/hwt.rs",
    "crates/core/src/memory.rs",
];

/// The long-lived fields that may grow, each with the file that pushes
/// it and its bound. The fn is left empty: a field is reviewed once per
/// file, whichever function pushes it.
pub const GROWTH_ALLOWLIST: [Allow; 15] = [
    (
        "crates/core/src/monitor.rs",
        "",
        "changes",
        "one per governor period doubling, bounded by the period ceiling",
    ),
    (
        "crates/core/src/hwt.rs",
        "",
        "cpus",
        "one per hardware thread",
    ),
    (
        "crates/core/src/monitor.rs",
        "",
        "gap_times_s",
        "fixed-capacity ring",
    ),
    ("crates/core/src/cluster.rs", "", "nodes", "one per node"),
    (
        "crates/core/src/memory.rs",
        "",
        "peaks",
        "one per watched rank",
    ),
    (
        "crates/core/src/monitor.rs",
        "",
        "processes",
        "one per watched rank or live descendant, and at most `max_exited_tracks` gone descendants",
    ),
    (
        "crates/core/src/round.rs",
        "",
        "processes",
        "one per watched rank or live descendant, and at most `max_exited_tracks` gone descendants",
    ),
    (
        "crates/core/src/monitor.rs",
        "",
        "rows",
        "one per tid of the watch's latest listing: the join drains every row the listing \
         no longer names",
    ),
    (
        "crates/core/src/round.rs",
        "",
        "rss_series",
        "fixed-capacity ring",
    ),
    (
        "crates/core/src/lwp.rs",
        "",
        "samples",
        "fixed-capacity ring",
    ),
    (
        "crates/core/src/memory.rs",
        "",
        "samples",
        "fixed-capacity ring",
    ),
    ("crates/core/src/cluster.rs", "", "sup", "one per node"),
    (
        "crates/core/src/lwp.rs",
        "",
        "tracks",
        "one per observed LWP",
    ),
    (
        "crates/core/src/cluster.rs",
        "",
        "transitions",
        "one per supervision state change",
    ),
    (
        "crates/core/src/round.rs",
        "",
        "watched_rss",
        "round scratch reused across rounds, one per live watch",
    ),
];

/// The receiver path ending just before the `.` at token `dot`,
/// normalized: `self . matrix` → `self.matrix`, `slots [ i ]` →
/// `slots[_]`, `a :: B` → `a::B`.
fn receiver_path(pf: &ParsedFile, dot: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut k = dot; // token index of `.`; walk back from dot-1
    loop {
        if k == 0 {
            break;
        }
        let p = k - 1;
        match pf.tokens[p].kind {
            TokKind::Ident | TokKind::Num => {
                parts.push(pf.text(p).to_string());
                // Continue if preceded by `.` or `::`.
                if p >= 1 && pf.is_punct(p - 1, '.') {
                    parts.push(".".into());
                    k = p - 1;
                    continue;
                }
                if p >= 2 && pf.is_punct(p - 1, ':') && pf.is_punct(p - 2, ':') {
                    parts.push("::".into());
                    k = p - 2;
                    continue;
                }
                break;
            }
            TokKind::Punct(close @ (']' | ')')) => {
                // Skip the index group or the call's arguments, emit a
                // placeholder, and keep walking (`foo().x` is `foo().x`).
                let open = if close == ']' { '[' } else { '(' };
                let mut depth = 0usize;
                let mut q = p;
                loop {
                    match pf.tokens[q].kind {
                        TokKind::Punct(c) if c == close => depth += 1,
                        TokKind::Punct(c) if c == open => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if q == 0 {
                        break;
                    }
                    q -= 1;
                }
                parts.push(if close == ']' { "[_]" } else { "()" }.into());
                k = q;
                continue;
            }
            _ => break,
        }
    }
    parts.reverse();
    parts.concat()
}

/// The last meaningful segment of a normalized receiver path
/// (`self.scratch.watched_rss` → `watched_rss`; `jw` → `jw`).
fn last_segment(path: &str) -> &str {
    path.rsplit('.')
        .find(|s| !s.is_empty() && *s != "[_]" && *s != "()")
        .unwrap_or(path)
        .trim_end_matches("[_]")
        .trim_end_matches("()")
}

/// The bare names that stand for the field of the same name in `item`:
/// each `name: &mut Vec<…>` parameter (a caller hands in its field) and
/// each shorthand field of a `let Type { name, .. } = …` in its body.
fn field_names<'a>(pf: &'a ParsedFile, item: &FnItem) -> Vec<&'a str> {
    let ident = |t: usize| pf.tokens.get(t).is_some_and(|k| k.kind == TokKind::Ident);
    let open = item.body.start.saturating_sub(1);
    let sig = (0..open).rfind(|&t| pf.is_ident(t, "fn") && pf.is_ident(t + 1, &item.name));
    let mut out: Vec<&str> = (sig.unwrap_or(open)..open)
        .filter(|&t| ident(t) && pf.is_punct(t + 1, ':') && pf.is_punct(t + 2, '&'))
        .filter(|&t| pf.is_ident(t + 3, "mut") && pf.is_ident(t + 4, "Vec"))
        .map(|t| pf.text(t))
        .collect();
    for t in item.body.clone() {
        let typed = pf.text(t + 1).starts_with(char::is_uppercase);
        if !(pf.is_ident(t, "let") && typed && pf.is_punct(t + 2, '{')) {
            continue;
        }
        let mut depth = 0usize;
        for k in t + 3..pf.matching_brace(t + 2) {
            match pf.tokens[k].kind {
                TokKind::Punct('(' | '[' | '{') => depth += 1,
                TokKind::Punct(')' | ']' | '}') => depth -= 1,
                _ => {}
            }
            let after =
                pf.is_punct(k - 1, '{') || pf.is_punct(k - 1, ',') || pf.is_ident(k - 1, "mut");
            let before = pf.is_punct(k + 1, ',') || pf.is_punct(k + 1, '}');
            if depth == 0 && ident(k) && after && before {
                out.push(pf.text(k));
            }
        }
    }
    out
}

/// Whether the error of the read call at `site` leaves `node`: a `?`
/// follows the call or the method chain hanging off it
/// (`.meminfo().map(..)?`), outside any closure handed to `with_retry`.
fn bubbles(pf: &ParsedFile, node: &FnNode, site: &Site) -> bool {
    let mut end = pf.matching_paren(site.token + 1);
    while pf.is_punct(end + 1, '.') && pf.is_punct(end + 3, '(') {
        end = pf.matching_paren(end + 3);
    }
    pf.is_punct(end + 1, '?')
        && !node.sites.iter().any(|w| {
            w.kind == SiteKind::Call
                && w.name == "with_retry"
                && in_closure_arg(pf, w.token + 1, site.token)
        })
}

/// Whether token `site` lies in a closure argument of the call whose
/// `(` is token `open`: the argument holding it starts with `|` or
/// `move` (`with_retry`'s closure takes no parameters, so every `,`
/// outside brackets separates two arguments).
fn in_closure_arg(pf: &ParsedFile, open: usize, site: usize) -> bool {
    if !(open..pf.matching_paren(open)).contains(&site) {
        return false;
    }
    let (mut depth, mut arg) = (0usize, open + 1);
    for t in open + 1..site {
        match pf.tokens[t].kind {
            TokKind::Punct('(' | '[' | '{') => depth += 1,
            TokKind::Punct(')' | ']' | '}') => depth -= 1,
            TokKind::Punct(',') if depth == 0 => arg = t + 1,
            _ => {}
        }
    }
    pf.is_punct(arg, '|') || pf.is_ident(arg, "move")
}

/// Runs the two rules over every non-test function and item.
pub fn analyze_rules(graph: &CallGraph, growth_allowlist: &[Allow]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut growth = Allowlist::new("unbounded-growth", growth_allowlist);
    for node in &graph.fns {
        let file = node.item.file.as_str();
        let round = ROUND_FILES.contains(&file);
        let state = MONITOR_STATE_FILES.contains(&file);
        let pf = &graph.files[node.file_idx];
        let mut report = |pass, site: &Site, token: &str, detail: String| {
            findings.push(Finding {
                pass,
                file: file.to_string(),
                line: site.line,
                func: node.item.name.clone(),
                token: token.to_string(),
                detail,
                witness: vec![node.item.name.clone()],
            });
        };
        for s in &node.sites {
            let name = s.name.as_str();
            match s.kind {
                SiteKind::Call
                    if s.method && round && PROC_READS.contains(&name) && bubbles(pf, node, s) =>
                {
                    report(
                        "source-error-bubble",
                        s,
                        name,
                        format!(
                            "`.{name}(..)?` lets a /proc read error abort `{}`: route it \
                             through the health ledger",
                            node.item.name
                        ),
                    )
                }
                SiteKind::Call if s.method && state && name == "push" => {
                    let path = receiver_path(pf, s.token - 1);
                    let field = last_segment(&path);
                    let long_lived =
                        path.contains('.') || field_names(pf, &node.item).contains(&path.as_str());
                    if long_lived && !growth.allows(file, "", field) {
                        report(
                            "unbounded-growth",
                            s,
                            field,
                            format!(
                                "`{path}.push` grows long-lived monitor state: field `{field}` \
                                 has no reviewed bound"
                            ),
                        );
                    }
                }
                _ => {}
            }
        }
    }
    growth.stale(&mut findings);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{find_workspace_root, items};
    use std::path::Path;

    #[test]
    fn proc_reads_are_the_trait_methods() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("root");
        let file = "crates/procfs/src/source.rs";
        let src = std::fs::read_to_string(root.join(file)).expect("source.rs");
        let pf = items::parse_file(file, &src);
        let at = (0..pf.tokens.len())
            .find(|&i| pf.is_ident(i, "trait") && pf.is_ident(i + 1, "ProcSource"))
            .expect("trait ProcSource");
        let open = (at..pf.tokens.len())
            .find(|&i| pf.is_punct(i, '{'))
            .expect("trait body");
        let methods: Vec<&str> = (open..pf.matching_brace(open))
            .filter(|&i| pf.is_ident(i, "fn") && pf.tokens[i + 1].kind == TokKind::Ident)
            .map(|i| pf.text(i + 1))
            .collect();
        assert_eq!(methods, PROC_READS);
    }
}
