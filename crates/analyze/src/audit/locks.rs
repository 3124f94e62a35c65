//! Lock acquisitions and their held ranges.
//!
//! Extracts every lock acquisition (`.lock()`, `.read()`, `.write()` —
//! empty-parens only, which cleanly excludes
//! `io::Read::read(buf)`/`io::Write::write(buf)` — plus `.try_lock()`,
//! which cannot *block* but does *hold*), keys each by its receiver
//! path, and computes how long its guard lives. What may not *happen*
//! while a guard is live — sleep, file IO, join, channel op, `/proc`
//! read, or another blocking acquisition — is the `blocking` pass's
//! question ([`super::effects`]), asked over the acquisitions and held
//! ranges computed here. No lock is taken under a guard, so no lock
//! order exists to get wrong: that rule is stronger than a cycle-free
//! order graph and needs none.
//!
//! A lock is keyed by the last plain segment of its receiver path
//! (`self.data`, `shared.data` and `data` are one key `data`; a
//! `static REG` is `REG`). Nothing checks locks at run time.

use super::callgraph::{CallGraph, SiteKind};
use super::items::ParsedFile;
use super::lexer::TokKind;
use std::collections::BTreeSet;

/// The file that implements `TrackedRw`: its `read` / `write` are
/// `self.inner.read()` / `self.inner.write()`. Modeling those interior
/// acquisitions would make every call site reach one `inner` key;
/// acquisitions are modeled at the call sites instead.
const LOCK_IMPL_FILE: &str = "crates/core/src/sync.rs";

/// One static lock acquisition.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Lock key: the last plain segment of the receiver path.
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

/// The result of the lock pass.
pub struct LockAnalysis {
    /// Every acquisition found.
    pub acquisitions: Vec<Acquisition>,
    /// Distinct lock keys.
    pub locks: BTreeSet<String>,
}

fn is_lock_impl(file: &str) -> bool {
    file.ends_with(LOCK_IMPL_FILE)
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

/// Lock key for a receiver path: its last plain segment. Keying by
/// the final field/variable name deliberately merges `self.data`,
/// `data`, and `shared.data` into one key — without type information
/// that is the only way a lock taken in one function is recognised in
/// another, and in this workspace distinct locks have distinct field
/// names.
fn lock_key(path: &str) -> String {
    let last = last_segment(path);
    last.rsplit("::").next().unwrap_or(last).to_string()
}

/// Whether the acquisition call at token `t` (its `(` at `t + 1`) is
/// bound as a guard: a `let` statement whose initializer does not
/// consume it. After the call only `unwrap` / `expect` /
/// `unwrap_or_else` may follow; a guard that is dereferenced (`*…`),
/// indexed or handed to a method (`.take()`, `.len()`) is a temporary
/// and is dropped at the `;`. Shapes neither rule names (a guard passed
/// to a function, a tuple of guards) stay bound: the pass
/// over-approximates.
fn binds_guard(pf: &ParsedFile, t: usize, body_start: usize) -> bool {
    // The statement's first token: the one after the nearest `;{}`.
    let start = (body_start..t)
        .rev()
        .find(|&k| [';', '{', '}'].iter().any(|&c| pf.is_punct(k, c)))
        .map_or(body_start, |k| k + 1);
    let eq = (start..t).find(|&k| pf.is_punct(k, '='));
    if !pf.is_ident(start, "let") || eq.is_some_and(|eq| pf.is_punct(eq + 1, '*')) {
        return false;
    }
    let mut k = pf.matching_paren(t + 1) + 1;
    while pf.is_punct(k, '.')
        && ["unwrap", "expect", "unwrap_or_else"]
            .iter()
            .any(|m| pf.is_ident(k + 1, m))
        && pf.is_punct(k + 2, '(')
    {
        k = pf.matching_paren(k + 2) + 1;
    }
    !(pf.is_punct(k, '.') || pf.is_punct(k, '['))
}

/// How long the guard from an acquisition at token `t` lives:
/// a bound guard ([`binds_guard`]) to the end of the innermost
/// enclosing block, a temporary to the end of the statement.
fn held_until(pf: &ParsedFile, t: usize, body: &std::ops::Range<usize>) -> usize {
    if binds_guard(pf, t, body.start) {
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
    // Pass A: direct acquisitions; classify wrappers.
    let mut acquisitions: Vec<Acquisition> = Vec::new();
    let mut wrapper_fns: BTreeSet<String> = BTreeSet::new();
    for (fi, node) in graph.fns.iter().enumerate() {
        let pf = &graph.files[node.file_idx];
        if is_lock_impl(&node.item.file) {
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
            let key = lock_key(&path);
            let until = held_until(pf, t, &node.item.body);
            acquisitions.push(Acquisition {
                lock: key,
                fn_idx: fi,
                token: t,
                line: pf.tokens[t].line,
                non_blocking,
                held_until: until,
            });
        }
    }

    // Pass B: wrapper-call acquisitions (`lock_recovering(&self.data)`).
    for (fi, node) in graph.fns.iter().enumerate() {
        let pf = &graph.files[node.file_idx];
        if is_lock_impl(&node.item.file) {
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
            let key = lock_key(&path);
            let until = held_until(pf, site.token, &node.item.body);
            acquisitions.push(Acquisition {
                lock: key,
                fn_idx: fi,
                token: site.token,
                line: site.line,
                non_blocking: false,
                held_until: until,
            });
        }
    }
    LockAnalysis {
        locks: acquisitions.iter().map(|a| a.lock.clone()).collect(),
        acquisitions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::effects::{analyze_effects, EffectConfig};
    use crate::audit::items::parse_file;

    fn run(src: &str) -> (LockAnalysis, Vec<(String, String)>) {
        let graph = CallGraph::build(vec![parse_file("a.rs", src)]);
        let la = analyze_locks(&graph);
        let ea = analyze_effects(&graph, &la, &EffectConfig::empty());
        let nested = ea
            .findings
            .iter()
            .filter(|f| f.pass == "blocking")
            .map(|f| (f.func.clone(), f.token.clone()))
            .collect();
        (la, nested)
    }

    fn pair(func: &str, token: &str) -> (String, String) {
        (func.to_string(), token.to_string())
    }

    /// One nesting in one order is already a finding: no second function
    /// taking the pair the other way round is needed.
    #[test]
    fn a_lock_taken_under_a_guard_is_a_finding() {
        let (_, nested) = run("\
fn ab(x: &M, y: &M) {
    let g = x.alpha.lock();
    let h = y.beta.lock();
}
");
        assert_eq!(nested, [pair("ab", "alpha:beta")]);
    }

    #[test]
    fn a_lock_taken_by_a_callee_under_a_guard_is_a_finding() {
        let (_, nested) = run("\
fn outer(x: &M) {
    let g = x.alpha.lock();
    helper();
}
fn helper() {
    GLOBAL.beta.lock().push(1);
}
");
        assert_eq!(nested, [pair("outer", "alpha:beta")]);
    }

    #[test]
    fn a_self_reacquire_is_a_finding() {
        let (_, nested) = run("\
fn twice(x: &M) {
    let g = x.alpha.lock().unwrap();
    let h = x.alpha.lock().unwrap();
}
");
        assert_eq!(nested, [pair("twice", "alpha:alpha")]);
    }

    /// A `lock_recovering`-style helper takes its lock at each call
    /// site, on the call's first argument; its own body holds nothing.
    #[test]
    fn a_wrapper_call_under_a_guard_is_a_finding() {
        let (la, nested) = run("\
fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
fn user(s: &S) {
    let g = lock_recovering(&s.gamma);
    let h = lock_recovering(&s.delta);
}
");
        assert_eq!(nested, [pair("user", "gamma:delta")]);
        assert!(!la.locks.contains("m"), "{:?}", la.locks);
    }

    /// `try_lock` cannot block, so taking it under a guard is no
    /// finding; the guard it returns still holds, so a blocking lock
    /// under it is one.
    #[test]
    fn try_lock_under_a_guard_is_not_a_finding_but_holds() {
        let (la, nested) = run("\
fn probe(x: &M, y: &M) {
    let g = x.alpha.lock();
    let Ok(h) = y.beta.try_lock() else { return };
}
fn held(x: &M, y: &M, out: &mut File) {
    let Ok(g) = x.alpha.try_lock() else { return };
    let h = y.beta.lock();
    out.write(buf);
}
");
        assert_eq!(nested, [pair("held", "alpha:beta")]);
        assert!(!la.locks.contains("out"), "{:?}", la.locks);
    }

    #[test]
    fn sequential_statement_guards_do_not_nest() {
        let (_, nested) = run("\
fn seq(x: &M, y: &M) {
    x.alpha.lock().push(1);
    y.beta.lock().push(2);
}
");
        assert!(nested.is_empty(), "{nested:?}");
    }

    /// A `let` whose initializer consumes the guard binds no guard: it
    /// is a temporary, dropped at the `;`.
    #[test]
    fn a_consumed_guard_ends_at_the_statement() {
        let (la, nested) = run("\
fn take(slots: &[M], results: &[M], i: usize) {
    let job = slots[i].lock().expect(\"slot\").take().expect(\"job\");
    let n = *results[i].lock().unwrap();
    let len = slots[i].lock().unwrap_or_else(PoisonError::into_inner).len();
    *results[i].lock().expect(\"result\") = Some(job);
}
");
        assert_eq!(la.acquisitions.len(), 4);
        assert!(nested.is_empty(), "{nested:?}");
    }

    /// A `let` that binds the guard itself — nothing after the
    /// acquisition but `unwrap` / `expect` / `unwrap_or_else` — holds
    /// it to the end of the block.
    #[test]
    fn a_bound_guard_holds_to_the_end_of_the_block() {
        for bind in [
            "let g = m.alpha.lock().unwrap();",
            "let g = m.alpha.lock().expect(\"alpha\");",
            "let mut g = m.alpha.lock().unwrap_or_else(PoisonError::into_inner);",
            "let g = lock_recovering(&m.alpha);",
        ] {
            let (_, nested) = run(&format!(
                "\
fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {{
    m.lock().unwrap_or_else(PoisonError::into_inner)
}}
fn hold(m: &M) {{
    {bind}
    let n = m.beta.lock().unwrap().len();
}}
"
            ));
            assert_eq!(nested, [pair("hold", "alpha:beta")], "{bind}");
        }
    }

    /// A lock is keyed by its receiver's last plain segment: `s.data`
    /// in one function and `data` in another are one key, and a
    /// `static` is its own name.
    #[test]
    fn locks_are_keyed_by_their_receiver() {
        let (la, nested) = run("\
static REG: Mutex<Vec<u32>> = Mutex::new(Vec::new());
fn build() {
    let data = Mutex::new(0);
    data.lock();
}
fn use_all(s: &S) {
    let a = REG.lock();
    s.data.lock();
}
");
        assert_eq!(
            la.locks.iter().map(String::as_str).collect::<Vec<_>>(),
            ["REG", "data"]
        );
        assert_eq!(nested, [pair("use_all", "REG:data")]);
    }
}
