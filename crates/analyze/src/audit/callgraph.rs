//! Workspace call graph over the recovered items.
//!
//! Edges are found by scanning each function body for call-shaped token
//! patterns and resolved **by bare name**: a call `foo(…)` or `.foo(…)`
//! points at every non-test workspace function named `foo`. This is a
//! deliberate over-approximation (no type information), conservative
//! for both audit passes: reachability and held-lock propagation can
//! only grow, never silently shrink. Calls that resolve to nothing
//! (std, closures, field accesses) drop out.

use super::items::{FnItem, ParsedFile};
use super::lexer::TokKind;
use std::collections::HashMap;

/// What kind of site a body scan found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// `name(…)` or `.name(…)` — a call.
    Call,
    /// `name!(…)` — a macro invocation.
    Macro,
    /// `expr[…]` — an index expression (potential panic).
    Index,
}

/// One site inside a function body.
#[derive(Debug, Clone)]
pub struct Site {
    /// Call/macro name (empty for `Index`).
    pub name: String,
    /// Site kind.
    pub kind: SiteKind,
    /// Token index in the owning file's stream.
    pub token: usize,
    /// 1-based source line.
    pub line: usize,
    /// `.name(…)` — a method-shaped call. Resolves only to functions
    /// defined in `impl` blocks, which prunes the worst bare-name
    /// over-approximation (a `.run()` method call must not alias a
    /// free `run`).
    pub method: bool,
    /// Last path segment before the call, when path-qualified:
    /// `NodeSim::new(…)` → `Some("NodeSim")`, with `Self` resolved to
    /// the enclosing impl type. A type-like (capitalized) qualifier
    /// restricts resolution to that impl's functions — so `Vec::new()`
    /// resolves to nothing instead of every workspace constructor. A
    /// module-like qualifier restricts to that module's free functions.
    pub qualifier: Option<String>,
}

/// A function in the graph: its item plus extracted sites.
pub struct FnNode {
    /// The parsed item.
    pub item: FnItem,
    /// Which [`ParsedFile`] the item lives in.
    pub file_idx: usize,
    /// All call/macro/index sites in the body, in token order.
    pub sites: Vec<Site>,
    /// Resolved callees (indices into the graph), deduplicated.
    pub callees: Vec<usize>,
}

/// The workspace call graph.
pub struct CallGraph {
    /// Every parsed file, indexable by [`FnNode::file_idx`].
    pub files: Vec<ParsedFile>,
    /// Every non-test function.
    pub fns: Vec<FnNode>,
    by_name: HashMap<String, Vec<usize>>,
    /// Every identifier appearing in each file — the mention filter
    /// for std-colliding call names.
    file_idents: Vec<std::collections::HashSet<String>>,
}

/// Keywords that look like calls when followed by `(`, or like an
/// indexed value when followed by `[` (`let [a, b] = pair`,
/// `for x in [1, 2]`, `return [lo, hi]`, a closure's `|b: &mut [T]|`).
const KEYWORDS: [&str; 17] = [
    "if", "while", "for", "match", "loop", "return", "break", "continue", "move", "in", "as",
    "where", "else", "let", "fn", "unsafe", "mut",
];

/// Call names that collide with ubiquitous std/prelude methods
/// (`"4".parse()`, `Vec::new()`, `guard.clone()`, `drop(g)`, …). A
/// bare-name edge for one of these drowns the graph in false paths —
/// one `.parse()` in a sampling root would make every constructor in
/// the workspace "hot". For these names only, a call resolves to an
/// `impl`-block function solely when the impl's *type name is
/// mentioned in the calling file* — `dir.display()` in `linux.rs`
/// stops aliasing `FnItem::display`, while `state.clone()` in a file
/// that names the type keeps its true edge. Distinctive workspace
/// names (`list_tasks_into`, `sample`, …) are untouched, so
/// trait-object dispatch stays over-approximated in the safe
/// direction.
const STD_COLLISIONS: [&str; 29] = [
    "parse",
    "new",
    "default",
    "clone",
    "drop",
    "is_empty",
    "len",
    "get",
    "set",
    "insert",
    "remove",
    "push",
    "pop",
    "join",
    "next",
    "with_capacity",
    "display",
    "is_some",
    "is_none",
    "all",
    "any",
    "count",
    "contains",
    "find",
    "add",
    "write",
    "read",
    "with",
    "iter",
];

/// What every workspace crate's name starts with. `zerosum_apps::f` is
/// a re-export whose file the path does not say.
const WORKSPACE_CRATE_PREFIX: &str = "zerosum";

/// Whether a bare-name candidate `target` is a plausible callee for
/// `site`, given the set of identifiers appearing in the caller's
/// file. Three refinements prune false edges, checked in order:
///
/// 1. **Qualifier.** A `Q::name(…)` call with a capitalized `Q`
///    (`Self` already rewritten to the enclosing impl type) resolves
///    only to functions in `impl Q` — so `Vec::new()` aliases no
///    workspace constructor. A lowercase, module-like qualifier
///    resolves only to free functions of that module
///    ([`in_module`]): `thread::spawn` and `fs::read_dir` name no
///    workspace module and resolve to nothing.
/// 2. **Method shape.** `x.name(…)` resolves only to `impl`-block
///    functions.
/// 3. **[`STD_COLLISIONS`] mention filter.** For ubiquitous names, an
///    impl-block candidate survives only when its type name is
///    mentioned somewhere in the calling file.
fn site_targets(
    target: &FnNode,
    caller_idents: &std::collections::HashSet<String>,
    s: &Site,
) -> bool {
    if let Some(q) = &s.qualifier {
        let typelike = q.chars().next().is_some_and(|c| c.is_ascii_uppercase());
        return if typelike {
            target.item.impl_type.as_deref() == Some(q.as_str())
        } else {
            target.item.impl_type.is_none() && in_module(&target.item, q)
        };
    }
    if s.method && target.item.impl_type.is_none() {
        return false;
    }
    if !STD_COLLISIONS.contains(&s.name.as_str()) {
        return true;
    }
    match &target.item.impl_type {
        Some(t) => caller_idents.contains(t),
        None => true,
    }
}

/// Whether the free function `item` may be what `q::name(…)` calls: its
/// file is `q.rs` or `q/mod.rs`, or it sits in an inline `mod q { … }`.
/// `self`/`super`/`crate` and a workspace crate name name no file, so
/// they keep every free function of that name.
fn in_module(item: &FnItem, q: &str) -> bool {
    if matches!(q, "self" | "super" | "crate") || q.starts_with(WORKSPACE_CRATE_PREFIX) {
        return true;
    }
    let mut dirs = item.file.rsplit('/');
    let mut stem = dirs.next().and_then(|f| f.strip_suffix(".rs"));
    if stem == Some("mod") {
        stem = dirs.next();
    }
    stem == Some(q) || item.module.as_deref() == Some(q)
}

/// Extracts call/macro/index sites from one body range.
pub fn body_sites(pf: &ParsedFile, item: &FnItem) -> Vec<Site> {
    let mut out = Vec::new();
    for i in item.body.clone() {
        let tok = &pf.tokens[i];
        match tok.kind {
            TokKind::Ident => {
                let name = pf.text(i);
                if KEYWORDS.contains(&name) {
                    continue;
                }
                if pf.is_punct(i + 1, '!') {
                    out.push(Site {
                        name: name.to_string(),
                        kind: SiteKind::Macro,
                        token: i,
                        line: tok.line,
                        method: false,
                        qualifier: None,
                    });
                } else if pf.is_punct(i + 1, '(') {
                    let qualifier = if i >= 3
                        && pf.is_punct(i - 1, ':')
                        && pf.is_punct(i - 2, ':')
                        && pf.tokens[i - 3].kind == TokKind::Ident
                    {
                        let q = pf.text(i - 3);
                        let q = if q == "Self" {
                            item.impl_type.as_deref().unwrap_or(q)
                        } else {
                            q
                        };
                        Some(q.to_string())
                    } else {
                        None
                    };
                    out.push(Site {
                        name: name.to_string(),
                        kind: SiteKind::Call,
                        token: i,
                        line: tok.line,
                        method: i > 0 && pf.is_punct(i - 1, '.'),
                        qualifier,
                    });
                }
            }
            TokKind::Punct('[') => {
                // Index expression: `[` directly after a value-shaped
                // token (identifier, `)`, or `]`). Type positions are
                // preceded by punctuation like `:`, `<`, `&`, `(`; a
                // keyword opens an array expression or a pattern.
                let prev_value =
                    i.checked_sub(1)
                        .is_some_and(|p| match pf.tokens.get(p).map(|t| &t.kind) {
                            Some(TokKind::Ident) => !KEYWORDS.contains(&pf.text(p)),
                            Some(TokKind::Punct(')' | ']')) => true,
                            _ => false,
                        });
                if prev_value {
                    out.push(Site {
                        name: String::new(),
                        kind: SiteKind::Index,
                        token: i,
                        line: tok.line,
                        method: false,
                        qualifier: None,
                    });
                }
            }
            _ => {}
        }
    }
    out
}

impl CallGraph {
    /// Builds the graph over `files`, keeping only non-test functions.
    pub fn build(files: Vec<ParsedFile>) -> CallGraph {
        let mut fns = Vec::new();
        for (file_idx, pf) in files.iter().enumerate() {
            for item in &pf.fns {
                if item.is_test {
                    continue;
                }
                let sites = body_sites(pf, item);
                fns.push(FnNode {
                    item: item.clone(),
                    file_idx,
                    sites,
                    callees: Vec::new(),
                });
            }
        }
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.item.name.clone()).or_default().push(i);
        }
        let file_idents: Vec<std::collections::HashSet<String>> = files
            .iter()
            .map(|pf| {
                pf.tokens
                    .iter()
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text(&pf.src).to_string())
                    .collect()
            })
            .collect();
        let callee_sets: Vec<Vec<usize>> = fns
            .iter()
            .map(|f| {
                let mut callees: Vec<usize> = f
                    .sites
                    .iter()
                    .filter(|s| s.kind == SiteKind::Call)
                    .flat_map(|s| {
                        by_name
                            .get(&s.name)
                            .map(|v| {
                                v.iter()
                                    .copied()
                                    .filter(|&i| site_targets(&fns[i], &file_idents[f.file_idx], s))
                                    .collect::<Vec<usize>>()
                            })
                            .unwrap_or_default()
                    })
                    .collect();
                callees.sort_unstable();
                callees.dedup();
                callees
            })
            .collect();
        for (f, callees) in fns.iter_mut().zip(callee_sets) {
            f.callees = callees;
        }
        CallGraph {
            files,
            fns,
            by_name,
            file_idents,
        }
    }

    /// Functions named `name`.
    pub fn named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Resolves one call site from `caller_file`: bare-name lookup
    /// pruned by the qualifier, method-shape, and [`STD_COLLISIONS`]
    /// mention filters (see [`site_targets`]).
    pub fn resolve_site(&self, caller_file: usize, site: &Site) -> Vec<usize> {
        self.named(&site.name)
            .iter()
            .copied()
            .filter(|&i| site_targets(&self.fns[i], &self.file_idents[caller_file], site))
            .collect()
    }

    /// Indices of functions matching `(file_suffix, fn_name)`.
    pub fn matching(&self, file_suffix: &str, name: &str) -> Vec<usize> {
        self.named(name)
            .iter()
            .copied()
            .filter(|&i| self.fns[i].item.file.ends_with(file_suffix))
            .collect()
    }

    /// Breadth-first reachability from `roots`; returns, per function,
    /// `Some(parent)` (`usize::MAX` for a root) when reachable.
    pub fn reach_from(&self, roots: &[usize]) -> Vec<Option<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.fns.len()];
        let mut queue: std::collections::VecDeque<usize> = Default::default();
        for &r in roots {
            if parent[r].is_none() {
                parent[r] = Some(usize::MAX);
                queue.push_back(r);
            }
        }
        while let Some(i) = queue.pop_front() {
            for &c in &self.fns[i].callees {
                if parent[c].is_none() {
                    parent[c] = Some(i);
                    queue.push_back(c);
                }
            }
        }
        parent
    }

    /// The shortest root→target call chain (function names, root first)
    /// using the parent map from [`CallGraph::reach_from`]. BFS parent
    /// maps make this a shortest path, so it is a stable *witness
    /// trace* for findings. Capped at 12 hops.
    pub fn path_chain(&self, parents: &[Option<usize>], target: usize) -> Vec<String> {
        let mut chain = vec![target];
        let mut cur = target;
        while let Some(Some(p)) = parents.get(cur) {
            if *p == usize::MAX || chain.len() > 12 {
                break;
            }
            chain.push(*p);
            cur = *p;
        }
        chain.reverse();
        chain
            .iter()
            .map(|&i| self.fns[i].item.name.clone())
            .collect()
    }

    /// A readable call path `root -> … -> target` using the parent map
    /// from [`CallGraph::reach_from`].
    pub fn path_to(&self, parents: &[Option<usize>], target: usize) -> String {
        self.path_chain(parents, target).join(" -> ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::items::parse_file;

    fn graph(srcs: &[(&str, &str)]) -> CallGraph {
        CallGraph::build(srcs.iter().map(|(p, s)| parse_file(p, s)).collect())
    }

    #[test]
    fn resolves_free_and_method_calls_by_name() {
        let g = graph(&[(
            "a.rs",
            "\
fn root() { helper(); obj.method_b(); }
fn helper() { leaf() }
fn leaf() {}
struct S;
impl S { fn method_b(&self) { leaf() } }
",
        )]);
        let root = g.matching("a.rs", "root")[0];
        let names: Vec<&str> = g.fns[root]
            .callees
            .iter()
            .map(|&i| g.fns[i].item.name.as_str())
            .collect();
        assert!(names.contains(&"helper"));
        assert!(names.contains(&"method_b"));
        let reach = g.reach_from(&[root]);
        let leaf = g.matching("a.rs", "leaf")[0];
        assert!(reach[leaf].is_some());
        assert!(g.path_to(&reach, leaf).starts_with("root -> "));
    }

    #[test]
    fn module_qualifier_resolves_inside_the_named_module_only() {
        let g = graph(&[
            (
                "crates/x/src/role.rs",
                "\
fn enter() { record::entered(); thread::spawn(|| {}); zerosum_x::launch(1); }
mod record { pub fn entered() {} }
",
            ),
            (
                "crates/x/src/synthetic.rs",
                "pub fn entered() {}\npub fn spawn(n: u32) {}\npub fn launch(n: u32) {}\n",
            ),
        ]);
        let enter = g.matching("role.rs", "enter")[0];
        let callees: Vec<String> = g.fns[enter]
            .callees
            .iter()
            .map(|&i| g.fns[i].item.display())
            .collect();
        // The inline module's fn, and what a crate-level path may
        // re-export — not std's `thread::spawn`, not another file's
        // `entered`.
        assert_eq!(
            callees,
            [
                "crates/x/src/role.rs:entered",
                "crates/x/src/synthetic.rs:launch"
            ]
        );
    }

    #[test]
    fn test_fns_are_excluded() {
        let g = graph(&[(
            "a.rs",
            "#[cfg(test)]\nmod tests { fn t() { danger() } }\nfn danger() {}\n",
        )]);
        assert!(g.named("t").is_empty());
        assert_eq!(g.named("danger").len(), 1);
    }

    #[test]
    fn array_patterns_and_literals_after_keywords_are_not_index_sites() {
        let g = graph(&[(
            "a.rs",
            "fn f(p: (u32, u32)) -> u32 { let [a, b] = [p.0, p.1]; for x in [a, b] { g(x) } let n = |s: &mut [u32]| s.len(); match [a, b] { [0, y] => y, _ => a } }",
        )]);
        let f = g.matching("a.rs", "f")[0];
        assert!(g.fns[f].sites.iter().all(|s| s.kind != SiteKind::Index));
    }

    #[test]
    fn macros_and_indexes_are_sites_not_calls() {
        let g = graph(&[("a.rs", "fn f(v: &[u32]) -> u32 { panic!(\"x\"); v[0] }")]);
        let f = g.matching("a.rs", "f")[0];
        let kinds: Vec<SiteKind> = g.fns[f].sites.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&SiteKind::Macro));
        assert!(kinds.contains(&SiteKind::Index));
        // `&[u32]` in the signature is not an index site.
        assert_eq!(
            g.fns[f]
                .sites
                .iter()
                .filter(|s| s.kind == SiteKind::Index)
                .count(),
            1
        );
    }
}
