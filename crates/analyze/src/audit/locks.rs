//! Interprocedural lock-order analysis.
//!
//! Extracts every blocking lock acquisition (`.lock()`, `.read()`,
//! `.write()` — empty-parens only, which cleanly excludes
//! `io::Read::read(buf)`/`io::Write::write(buf)` — plus `.try_lock()`,
//! which cannot *block* but does *hold*), keys each by its receiver
//! path, propagates held-lock sets through the call graph, and reports
//! **lock-cycle** — a cycle in the lock-order graph (potential
//! deadlock); no allowlist accepts one. What may not *happen* while a
//! lock is held (sleep, file IO, join, channel op, `/proc` read) is the
//! `blocking` pass's question ([`super::effects`]), asked over the
//! acquisitions and held ranges computed here.
//!
//! Receiver paths are resolved to sanitizer names where possible: a
//! `Tracked::new("name", …)` initializer binds its receiver ident to
//! `name`, and `Arc::clone`/`&`-alias `let`s propagate the binding —
//! so the static graph speaks the same node language the runtime
//! sanitizer ([`zerosum_core::sync`]) records.

use super::callgraph::{CallGraph, SiteKind};
use super::items::ParsedFile;
use super::lexer::TokKind;
use super::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// The file whose interior lock use is the *implementation* of the
/// sanitizer itself: `Tracked` wraps a Mutex and the edge recorder
/// serializes on one. Modeling those interior acquisitions would merge
/// every tracked lock into one node; acquisitions are modeled at
/// `Tracked` call sites instead.
const SANITIZER_IMPL_FILE: &str = "crates/core/src/sync.rs";

/// One static lock acquisition.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Graph node key: the sanitizer name if resolvable, else the
    /// normalized receiver path.
    pub lock: String,
    /// Owning function (index into the call graph).
    pub fn_idx: usize,
    /// Token index of the method-name token (or wrapper-call ident).
    pub token: usize,
    /// 1-based line.
    pub line: usize,
    /// `try_lock` — holds but cannot block.
    pub non_blocking: bool,
    /// Token index one past which the guard is live (exclusive).
    pub held_until: usize,
}

/// One lock-order edge: `from` is held while `to` is acquired.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// The held lock.
    pub from: String,
    /// The acquired lock.
    pub to: String,
    /// `file:line` of the inner acquisition (or the call leading to it).
    pub site: String,
    /// Callee name when the inner acquisition is interprocedural.
    pub via: Option<String>,
}

/// The result of the lock pass.
pub struct LockAnalysis {
    /// Every acquisition found.
    pub acquisitions: Vec<Acquisition>,
    /// Deduplicated lock-order edges.
    pub edges: Vec<LockEdge>,
    /// Distinct lock node keys.
    pub locks: BTreeSet<String>,
    /// Findings (lock-order cycles).
    pub findings: Vec<Finding>,
}

pub(crate) fn is_sanitizer_impl(file: &str) -> bool {
    file.ends_with(SANITIZER_IMPL_FILE)
}

/// Builds the `receiver ident -> sanitizer name` map for one file:
/// `Tracked::new("name", …)` / `TrackedRw::new("name", …)` initializer
/// bindings plus one round of `Arc::clone`/`.clone()`/`&`-alias `let`
/// propagation.
fn tracked_names(pf: &ParsedFile) -> BTreeMap<String, String> {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let toks = &pf.tokens;
    for i in 0..toks.len() {
        if !(pf.is_ident(i, "Tracked") || pf.is_ident(i, "TrackedRw")) {
            continue;
        }
        // `Tracked :: new (  "name"` (same shape for `TrackedRw`)
        if !(pf.is_punct(i + 1, ':')
            && pf.is_punct(i + 2, ':')
            && pf.is_ident(i + 3, "new")
            && pf.is_punct(i + 4, '('))
        {
            continue;
        }
        let Some(name_tok) = toks.get(i + 5) else {
            continue;
        };
        if name_tok.kind != TokKind::Str {
            continue;
        }
        let name = name_tok.str_contents(&pf.src).to_string();
        if let Some(ident) = binding_target(pf, i) {
            map.insert(ident, name);
        }
    }
    // Alias propagation (two rounds, enough for let-chains the repo
    // idiom produces: `let alias = Arc::clone(&orig);`).
    for _ in 0..2 {
        let mut added: Vec<(String, String)> = Vec::new();
        for i in 0..toks.len() {
            if !pf.is_ident(i, "let") {
                continue;
            }
            let mut j = i + 1;
            if pf.is_ident(j, "mut") {
                j += 1;
            }
            if toks.get(j).map(|t| t.kind) != Some(TokKind::Ident) {
                continue;
            }
            let target = pf.text(j).to_string();
            if !pf.is_punct(j + 1, '=') {
                continue;
            }
            // Source ident: last path segment before the terminating `;`.
            let mut src_ident: Option<String> = None;
            let mut k = j + 2;
            let mut clone_like = false;
            while k < toks.len() && !pf.is_punct(k, ';') {
                if toks[k].kind == TokKind::Ident {
                    let t = pf.text(k);
                    if t == "clone" {
                        clone_like = true;
                    } else if !matches!(t, "Arc" | "Box" | "Rc") {
                        src_ident = Some(t.to_string());
                    }
                }
                k += 1;
            }
            // Plain `let a = &b;` aliases too.
            let borrow_like = pf.is_punct(j + 2, '&');
            if !(clone_like || borrow_like) {
                continue;
            }
            if let Some(srcn) = src_ident {
                if let Some(name) = map.get(&srcn) {
                    added.push((target, name.clone()));
                }
            }
        }
        // Struct-literal field inits: `S { field: <expr mentioning a
        // tracked ident> }` aliases `field` to that ident's name, so
        // `self.field.lock()` resolves like the original binding.
        for i in 2..toks.len() {
            if !pf.is_punct(i, ':')
                || pf.is_punct(i + 1, ':')
                || toks[i - 1].kind != TokKind::Ident
                || !(pf.is_punct(i - 2, '{') || pf.is_punct(i - 2, ','))
            {
                continue;
            }
            let target = pf.text(i - 1).to_string();
            let mut depth = 0i32;
            let mut k = i + 1;
            while k < toks.len() {
                match toks[k].kind {
                    TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    TokKind::Punct(',') if depth == 0 => break,
                    TokKind::Ident => {
                        let t = pf.text(k);
                        if !matches!(t, "Arc" | "Box" | "Rc" | "clone" | "new" | "mut") {
                            if let Some(name) = map.get(t) {
                                added.push((target.clone(), name.clone()));
                            }
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
        }
        for (k, v) in added {
            map.entry(k).or_insert(v);
        }
    }
    map
}

/// What a `Tracked::new` at token `t` initializes: scans backwards for
/// a `let`/`static` binding or a struct-literal field init.
fn binding_target(pf: &ParsedFile, t: usize) -> Option<String> {
    let lo = t.saturating_sub(40);
    let mut k = t;
    while k > lo {
        k -= 1;
        match pf.tokens[k].kind {
            TokKind::Punct('=') => {
                // Walk further back to the `let`/`static` keyword, then
                // take the ident after it (skipping `mut`).
                let mut b = k;
                while b > lo {
                    b -= 1;
                    if pf.is_ident(b, "let") || pf.is_ident(b, "static") {
                        let mut n = b + 1;
                        if pf.is_ident(n, "mut") {
                            n += 1;
                        }
                        if pf.tokens.get(n).map(|x| x.kind) == Some(TokKind::Ident) {
                            return Some(pf.text(n).to_string());
                        }
                        return None;
                    }
                    if matches!(pf.tokens[b].kind, TokKind::Punct(';') | TokKind::Punct('{')) {
                        return None;
                    }
                }
                return None;
            }
            TokKind::Punct(':') => {
                // `field: Arc::new(Tracked::new(…))` — but not `::`.
                if k > 0 && pf.is_punct(k - 1, ':') || pf.is_punct(k + 1, ':') {
                    continue;
                }
                if k > 1
                    && pf.tokens[k - 1].kind == TokKind::Ident
                    && (pf.is_punct(k - 2, '{') || pf.is_punct(k - 2, ','))
                {
                    return Some(pf.text(k - 1).to_string());
                }
            }
            TokKind::Punct(';') | TokKind::Punct('}') => return None,
            _ => {}
        }
    }
    None
}

/// The receiver path ending just before the `.` at token `dot`,
/// normalized: `self . matrix` → `self.matrix`, `slots [ i ]` →
/// `slots[_]`, `a :: B` → `a::B`.
pub(crate) fn receiver_path(pf: &ParsedFile, dot: usize) -> String {
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
            TokKind::Punct(']') => {
                // Skip the index group, emit a placeholder.
                let mut depth = 0usize;
                let mut q = p;
                loop {
                    match pf.tokens[q].kind {
                        TokKind::Punct(']') => depth += 1,
                        TokKind::Punct('[') => {
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
                parts.push("[_]".into());
                k = q;
                continue;
            }
            TokKind::Punct(')') => {
                // Call-result receiver: skip to the matching `(` and
                // keep walking (captures `foo().lock()` as `foo()`).
                let mut depth = 0usize;
                let mut q = p;
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
                        break;
                    }
                    q -= 1;
                }
                parts.push("()".into());
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
pub(crate) fn last_segment(path: &str) -> &str {
    path.rsplit('.')
        .find(|s| !s.is_empty() && *s != "[_]" && *s != "()")
        .unwrap_or(path)
        .trim_end_matches("[_]")
        .trim_end_matches("()")
}

/// The first argument's receiver path inside `wrapper( arg, … )` where
/// `open` is the `(` token: strips leading `&`/`mut`.
fn first_arg_path(pf: &ParsedFile, open: usize) -> String {
    let mut k = open + 1;
    while pf.is_punct(k, '&') || pf.is_ident(k, "mut") {
        k += 1;
    }
    // Find the end of the first argument (`,` or `)` at depth 0), then
    // reuse receiver_path by pointing at a virtual dot past it.
    let mut depth = 0i32;
    let mut end = k;
    while end < pf.tokens.len() {
        match pf.tokens[end].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            TokKind::Punct(',') if depth == 0 => break,
            _ => {}
        }
        end += 1;
    }
    receiver_path(pf, end)
}

/// Lock key for a receiver path: resolve the last plain segment via the
/// tracked-name map; otherwise the segment itself. Keying by the final
/// field/variable name deliberately merges `self.data`, `data`, and
/// `shared.data` into one node — without type information that is the
/// only way an interprocedural order graph coheres, and in this
/// workspace distinct locks have distinct field names.
fn lock_key(
    path: &str,
    local: &BTreeMap<String, String>,
    global: &BTreeMap<String, String>,
) -> String {
    let last = path
        .rsplit(['.'])
        .find(|s| !s.is_empty() && *s != "[_]" && *s != "()")
        .unwrap_or(path);
    let last = last.rsplit("::").next().unwrap_or(last);
    // `slots[_]` / `mk()` → the underlying binding name.
    let trimmed = last.trim_end_matches("[_]").trim_end_matches("()");
    let last = if trimmed.is_empty() { last } else { trimmed };
    // The owning file's bindings shadow other files': two files may
    // `let shared = Tracked::new(…)` under different sanitizer names.
    if let Some(n) = local.get(last) {
        return n.clone();
    }
    if let Some(n) = global.get(last) {
        return n.clone();
    }
    last.to_string()
}

/// Whether the statement containing token `t` is a `let` binding:
/// scans back to the nearest `;`/`{`/`}` and checks the first token.
fn is_let_bound(pf: &ParsedFile, t: usize, body_start: usize) -> bool {
    let mut k = t;
    while k > body_start {
        k -= 1;
        match pf.tokens[k].kind {
            TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}') => {
                return pf.is_ident(k + 1, "let");
            }
            _ => {}
        }
    }
    pf.is_ident(body_start, "let")
}

/// How long the guard from an acquisition at token `t` lives:
/// a `let`-bound guard to the end of the innermost enclosing block, a
/// temporary to the end of the statement.
fn held_until(pf: &ParsedFile, t: usize, body: &std::ops::Range<usize>) -> usize {
    if is_let_bound(pf, t, body.start) {
        // Innermost `{` enclosing `t` within the body.
        let mut stack: Vec<usize> = Vec::new();
        for i in body.clone() {
            match pf.tokens[i].kind {
                TokKind::Punct('{') => stack.push(i),
                TokKind::Punct('}') => {
                    if let Some(open) = stack.pop() {
                        if open < t && t < i {
                            return i;
                        }
                    }
                }
                _ => {}
            }
        }
        body.end
    } else {
        // End of statement: next `;` at depth 0 relative to `t`.
        let mut depth = 0i32;
        let mut i = t;
        while i < body.end {
            match pf.tokens[i].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                    depth -= 1;
                    if depth < 0 {
                        return i;
                    }
                }
                TokKind::Punct(';') if depth <= 0 => return i,
                _ => {}
            }
            i += 1;
        }
        body.end
    }
}

/// Runs the lock pass over a built call graph.
pub fn analyze_locks(graph: &CallGraph) -> LockAnalysis {
    // Tracked-name maps: one per file (bindings are file-scoped) plus a
    // global fallback for cross-file idents.
    let file_names: Vec<BTreeMap<String, String>> = graph.files.iter().map(tracked_names).collect();
    let mut names: BTreeMap<String, String> = BTreeMap::new();
    for m in &file_names {
        for (k, v) in m {
            names.entry(k.clone()).or_insert(v.clone());
        }
    }

    // Pass A: direct acquisitions per function; classify wrappers.
    let mut direct: Vec<Vec<Acquisition>> = vec![Vec::new(); graph.fns.len()];
    let mut wrapper_fns: BTreeSet<String> = BTreeSet::new();
    for (fi, node) in graph.fns.iter().enumerate() {
        let pf = &graph.files[node.file_idx];
        if is_sanitizer_impl(&node.item.file) {
            continue;
        }
        for t in node.item.body.clone() {
            if !matches!(pf.tokens[t].kind, TokKind::Ident) {
                continue;
            }
            let name = pf.text(t);
            let blocking = matches!(name, "lock" | "read" | "write");
            let non_blocking = name == "try_lock";
            if !blocking && !non_blocking {
                continue;
            }
            // `.name ( )` with empty parens; `try_lock()` likewise.
            if !(t >= 1
                && pf.is_punct(t - 1, '.')
                && pf.is_punct(t + 1, '(')
                && pf.is_punct(t + 2, ')'))
            {
                continue;
            }
            let path = receiver_path(pf, t - 1);
            if path.is_empty() {
                continue;
            }
            // A bare parameter receiver marks a lock-wrapper helper:
            // its acquisition is attributed to call sites instead.
            if node.item.params.iter().any(|p| p == &path) {
                wrapper_fns.insert(node.item.name.clone());
                continue;
            }
            let key = lock_key(&path, &file_names[node.file_idx], &names);
            let until = held_until(pf, t, &node.item.body);
            direct[fi].push(Acquisition {
                lock: key,
                fn_idx: fi,
                token: t,
                line: pf.tokens[t].line,
                non_blocking,
                held_until: until,
            });
        }
    }

    // Pass B: wrapper-call acquisitions (`lock_unpoisoned(&self.data)`).
    for (fi, node) in graph.fns.iter().enumerate() {
        let pf = &graph.files[node.file_idx];
        if is_sanitizer_impl(&node.item.file) {
            continue;
        }
        for site in &node.sites {
            if site.kind != SiteKind::Call || !wrapper_fns.contains(&site.name) {
                continue;
            }
            let open = site.token + 1;
            let path = first_arg_path(pf, open);
            if path.is_empty() {
                continue;
            }
            let key = lock_key(&path, &file_names[node.file_idx], &names);
            let until = held_until(pf, site.token, &node.item.body);
            direct[fi].push(Acquisition {
                lock: key,
                fn_idx: fi,
                token: site.token,
                line: site.line,
                non_blocking: false,
                held_until: until,
            });
        }
    }
    for v in &mut direct {
        v.sort_by_key(|a| a.token);
    }

    // Transitive may-acquire, by fixpoint over the (over-approximate)
    // call graph. Wrapper helpers contribute nothing themselves — their
    // effect lives at call sites.
    let n = graph.fns.len();
    let mut acq: Vec<BTreeSet<String>> = (0..n)
        .map(|i| direct[i].iter().map(|a| a.lock.clone()).collect())
        .collect();
    loop {
        let mut changed = false;
        for i in 0..n {
            for &cal in &graph.fns[i].callees {
                if cal == i {
                    continue;
                }
                if !acq[cal].is_empty() {
                    let add: Vec<String> = acq[cal]
                        .iter()
                        .filter(|l| !acq[i].contains(*l))
                        .cloned()
                        .collect();
                    if !add.is_empty() {
                        acq[i].extend(add);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Edge extraction.
    let mut edges: BTreeMap<(String, String), LockEdge> = BTreeMap::new();
    let mut locks: BTreeSet<String> = BTreeSet::new();
    for (fi, node) in graph.fns.iter().enumerate() {
        for a in &direct[fi] {
            locks.insert(a.lock.clone());
            let range = (a.token + 1)..a.held_until;
            // Other direct acquisitions while held.
            for b in &direct[fi] {
                if b.token > a.token && range.contains(&b.token) {
                    edges
                        .entry((a.lock.clone(), b.lock.clone()))
                        .or_insert(LockEdge {
                            from: a.lock.clone(),
                            to: b.lock.clone(),
                            site: format!("{}:{}", node.item.file, b.line),
                            via: None,
                        });
                }
            }
            // Calls while held: callee transitive effects.
            for site in &node.sites {
                if site.kind != SiteKind::Call || !range.contains(&site.token) {
                    continue;
                }
                if site.token == a.token {
                    continue; // the acquisition itself
                }
                for cal in graph.resolve_site(node.file_idx, site) {
                    for b in acq[cal].iter() {
                        edges
                            .entry((a.lock.clone(), b.clone()))
                            .or_insert(LockEdge {
                                from: a.lock.clone(),
                                to: b.clone(),
                                site: format!("{}:{}", node.item.file, site.line),
                                via: Some(site.name.clone()),
                            });
                    }
                }
            }
        }
    }

    let edge_list: Vec<LockEdge> = edges.into_values().collect();
    LockAnalysis {
        acquisitions: direct.into_iter().flatten().collect(),
        findings: find_cycles(&edge_list),
        edges: edge_list,
        locks,
    }
}

/// Cycle findings: strongly connected components of the lock graph
/// with more than one node, plus self-loops.
fn find_cycles(edges: &[LockEdge]) -> Vec<Finding> {
    let mut adj: BTreeMap<&str, Vec<&LockEdge>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.from.as_str()).or_default().push(e);
    }
    let mut findings = Vec::new();
    // Self-loops first.
    for e in edges {
        if e.from == e.to {
            findings.push(Finding {
                pass: "lock-cycle",
                file: e.site.split(':').next().unwrap_or("").to_string(),
                line: e
                    .site
                    .rsplit(':')
                    .next()
                    .and_then(|l| l.parse().ok())
                    .unwrap_or(0),
                func: String::new(),
                token: e.from.clone(),
                detail: format!(
                    "lock `{}` may be re-acquired while already held (at {}) — \
                     std::sync::Mutex is not reentrant",
                    e.from, e.site
                ),
                witness: vec![e.from.clone(), e.from.clone()],
            });
        }
    }
    // Multi-node cycles: DFS from every node looking for a path back.
    let nodes: BTreeSet<&str> = edges
        .iter()
        .flat_map(|e| [e.from.as_str(), e.to.as_str()])
        .collect();
    let mut reported: BTreeSet<String> = BTreeSet::new();
    for &start in &nodes {
        let mut stack: Vec<(&str, Vec<&str>)> = vec![(start, vec![start])];
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        while let Some((cur, path)) = stack.pop() {
            for e in adj.get(cur).map(|v| v.as_slice()).unwrap_or(&[]) {
                let next = e.to.as_str();
                if next == start && path.len() > 1 {
                    // Canonical form so each cycle is reported once.
                    let mut canon: Vec<&str> = path.clone();
                    canon.sort_unstable();
                    let key = canon.join("|");
                    if reported.insert(key) {
                        findings.push(Finding {
                            pass: "lock-cycle",
                            file: e.site.split(':').next().unwrap_or("").to_string(),
                            line: e
                                .site
                                .rsplit(':')
                                .next()
                                .and_then(|l| l.parse().ok())
                                .unwrap_or(0),
                            func: String::new(),
                            token: path.join(" -> "),
                            detail: format!(
                                "lock-order cycle: {} -> {} (edge at {})",
                                path.join(" -> "),
                                start,
                                e.site
                            ),
                            witness: path.iter().map(|s| s.to_string()).collect(),
                        });
                    }
                } else if !seen.contains(next) && next != start {
                    seen.insert(next);
                    let mut p = path.clone();
                    p.push(next);
                    stack.push((next, p));
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::items::parse_file;

    fn run(srcs: &[(&str, &str)]) -> LockAnalysis {
        let graph = CallGraph::build(srcs.iter().map(|(p, s)| parse_file(p, s)).collect());
        analyze_locks(&graph)
    }

    #[test]
    fn nested_acquisition_makes_an_edge_and_reverse_makes_a_cycle() {
        let la = run(&[(
            "a.rs",
            "\
fn ab(x: &M, y: &M) {
    let g = x.alpha.lock();
    let h = y.beta.lock();
}
fn ba(x: &M, y: &M) {
    let h = y.beta.lock();
    let g = x.alpha.lock();
}
",
        )]);
        assert!(la.edges.iter().any(|e| e.from == "alpha" && e.to == "beta"));
        assert!(la.edges.iter().any(|e| e.from == "beta" && e.to == "alpha"));
        assert!(
            la.findings.iter().any(|f| f.pass == "lock-cycle"),
            "{:?}",
            la.findings.iter().map(|f| &f.detail).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sequential_statement_guards_do_not_edge() {
        let la = run(&[(
            "a.rs",
            "\
fn seq(x: &M, y: &M) {
    x.alpha.lock().push(1);
    y.beta.lock().push(2);
}
",
        )]);
        assert!(la.edges.is_empty(), "{:?}", la.edges);
        assert!(la.findings.is_empty());
    }

    #[test]
    fn interprocedural_edge_through_callee() {
        let la = run(&[(
            "a.rs",
            "\
fn outer(x: &M) {
    let g = x.alpha.lock();
    helper();
}
fn helper() {
    GLOBAL.beta.lock().push(1);
}
",
        )]);
        assert!(
            la.edges
                .iter()
                .any(|e| e.from == "alpha" && e.to == "beta" && e.via.is_some()),
            "{:?}",
            la.edges
        );
    }

    #[test]
    fn wrapper_helpers_resolve_to_callsite_receivers() {
        let la = run(&[(
            "a.rs",
            "\
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
fn user(s: &S) {
    let g = lock_unpoisoned(&s.gamma);
    let h = lock_unpoisoned(&s.delta);
}
",
        )]);
        assert!(la.locks.contains("gamma"), "{:?}", la.locks);
        assert!(
            la.edges
                .iter()
                .any(|e| e.from == "gamma" && e.to == "delta"),
            "{:?}",
            la.edges
        );
        // No phantom `m` lock from the wrapper's own body.
        assert!(!la.locks.contains("m"));
    }

    #[test]
    fn tracked_names_bind_static_let_and_field() {
        let la = run(&[(
            "a.rs",
            "\
static REG: Tracked<Vec<u32>> = Tracked::new(\"mod.reg\", Vec::new());
struct S { data: Arc<Tracked<u32>> }
fn build() -> S {
    let shared = Arc::new(Tracked::new(\"mod.shared\", 0));
    let alias = Arc::clone(&shared);
    alias.lock();
    S { data: shared }
}
fn use_all(s: &S) {
    let a = REG.lock();
    s.data.lock();
}
",
        )]);
        assert!(la.locks.contains("mod.reg"), "{:?}", la.locks);
        assert!(la.locks.contains("mod.shared"), "{:?}", la.locks);
        assert!(
            la.edges
                .iter()
                .any(|e| e.from == "mod.reg" && e.to == "mod.shared"),
            "{:?}",
            la.edges
        );
    }

    #[test]
    fn try_lock_holds_but_io_write_with_args_does_not_match() {
        let la = run(&[(
            "a.rs",
            "\
fn t(x: &M, y: &M, out: &mut File) {
    let Ok(g) = x.alpha.try_lock() else { return };
    let h = y.beta.lock();
    out.write(buf);
}
",
        )]);
        assert!(la.edges.iter().any(|e| e.from == "alpha" && e.to == "beta"));
        assert!(!la.locks.contains("out"), "{:?}", la.locks);
    }
}
