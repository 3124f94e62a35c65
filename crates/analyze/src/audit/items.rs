//! A lightweight item parser: recovers `fn` items, their bodies, and
//! their call and panic sites from the token stream.
//!
//! This is *not* a Rust parser. It tracks exactly enough structure for
//! the interprocedural passes:
//!
//! * function items with name, enclosing `impl` type, body token
//!   range, and whether they are test code (`#[test]` or inside a
//!   `#[cfg(test)]` module);
//! * call expressions inside bodies (`name(…)`, `path::name(…)`,
//!   `.name(…)` — resolved later by bare name);
//! * macro invocations (`name!…`);
//! * index expressions (`expr[…]` — a potential panic site).
//!
//! Known approximations (see DESIGN.md §10): nested `fn`s and closures
//! are attributed to the enclosing item's body, calls are keyed by bare
//! name only, and trait-object/closure indirect calls are invisible.

use super::lexer::{lex, TokKind, Token};
use std::ops::Range;

/// A recovered function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl` type name, when inside an `impl` block.
    pub impl_type: Option<String>,
    /// Innermost enclosing inline `mod name { … }`, when inside one.
    pub module: Option<String>,
    /// Repo-relative file (as given to [`parse_file`]).
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token index range of the body, **excluding** the outer braces.
    pub body: Range<usize>,
    /// True for `#[test]` functions and anything inside a
    /// `#[cfg(test)]` module.
    pub is_test: bool,
}

impl FnItem {
    /// `file:Type::name`-style display identifier.
    pub fn display(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{}:{}::{}", self.file, t, self.name),
            None => format!("{}:{}", self.file, self.name),
        }
    }
}

/// One parsed file: the token stream (comments stripped) plus the
/// recovered items.
pub struct ParsedFile {
    /// Repo-relative path.
    pub file: String,
    /// The source text (needed to read token spans).
    pub src: String,
    /// Comment-free token stream.
    pub tokens: Vec<Token>,
    /// Recovered function items, in source order.
    pub fns: Vec<FnItem>,
}

impl ParsedFile {
    /// The text of token `i`.
    pub fn text(&self, i: usize) -> &str {
        self.tokens[i].text(&self.src)
    }

    /// True if token `i` is the identifier `name`.
    pub fn is_ident(&self, i: usize, name: &str) -> bool {
        self.tokens
            .get(i)
            .map(|t| t.kind == TokKind::Ident && t.text(&self.src) == name)
            .unwrap_or(false)
    }

    /// True if token `i` is the punctuation `c`.
    pub fn is_punct(&self, i: usize, c: char) -> bool {
        self.tokens
            .get(i)
            .map(|t| t.kind == TokKind::Punct(c))
            .unwrap_or(false)
    }

    /// Line of token `i`.
    pub fn line(&self, i: usize) -> usize {
        self.tokens.get(i).map(|t| t.line).unwrap_or(0)
    }

    /// Index of the matching `}` for the `{` at token `open` (or the
    /// last token if unbalanced).
    pub fn matching_brace(&self, open: usize) -> usize {
        self.matching(open, '{', '}')
    }

    /// Index of the matching `)` for the `(` at token `open` (or the
    /// last token if unbalanced).
    pub fn matching_paren(&self, open: usize) -> usize {
        self.matching(open, '(', ')')
    }

    fn matching(&self, open: usize, left: char, right: char) -> usize {
        let mut depth = 0usize;
        for i in open..self.tokens.len() {
            match self.tokens[i].kind {
                TokKind::Punct(c) if c == left => depth += 1,
                TokKind::Punct(c) if c == right => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
        }
        self.tokens.len().saturating_sub(1)
    }
}

/// Scope tracked while walking the token stream.
#[derive(Debug, Clone)]
struct Scope {
    close: usize,
    is_test: bool,
    impl_type: Option<String>,
    module: Option<String>,
}

/// Parses `src` (living at repo-relative `file`) into items.
pub fn parse_file(file: &str, src: &str) -> ParsedFile {
    let tokens: Vec<Token> = lex(src)
        .into_iter()
        .filter(|t| t.kind != TokKind::Comment)
        .collect();
    let mut pf = ParsedFile {
        file: file.to_string(),
        src: src.to_string(),
        tokens,
        fns: Vec::new(),
    };
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending_test = false; // #[test] / #[cfg(test)] seen for next item
    let mut pending_impl: Option<String> = None; // impl header parsed, awaiting `{`
    let mut i = 0usize;
    while i < pf.tokens.len() {
        // Leave scopes whose close brace we've passed.
        while scopes.last().map(|s| i > s.close).unwrap_or(false) {
            scopes.pop();
        }
        // Attributes: detect test-gating ones, skip all of them.
        if pf.is_punct(i, '#') {
            if let Some((end, kind)) = classify_attr(&pf, i) {
                if kind != AttrKind::Other {
                    pending_test = true;
                }
                i = end;
                continue;
            }
        }
        if pf.is_ident(i, "impl") {
            // Recover the implemented type: the first type name after
            // `for` if present, else the first after the generics.
            let (ty, at) = parse_impl_header(&pf, i);
            pending_impl = ty;
            i = at;
            continue;
        }
        if pf.is_ident(i, "mod") {
            // `mod name {` opens a scope inheriting the test flag.
            let mut j = i + 1;
            while j < pf.tokens.len() && !pf.is_punct(j, '{') && !pf.is_punct(j, ';') {
                j += 1;
            }
            if pf.is_punct(j, '{') {
                let close = pf.matching_brace(j);
                let outer_test = scopes.last().map(|s| s.is_test).unwrap_or(false);
                scopes.push(Scope {
                    close,
                    is_test: pending_test || outer_test,
                    impl_type: None,
                    module: Some(pf.text(i + 1).to_string()),
                });
            }
            pending_test = false;
            i = j + 1;
            continue;
        }
        if pf.is_ident(i, "fn") {
            let outer_test = scopes.iter().any(|s| s.is_test);
            let in_test = pending_test || outer_test;
            pending_test = false;
            if let Some((item, next)) = parse_fn(&pf, i, in_test, &scopes) {
                pf.fns.push(item);
                i = next;
                continue;
            }
            i += 1;
            continue;
        }
        if pf.is_punct(i, '{') {
            let close = pf.matching_brace(i);
            // A gated `impl` gates its whole body, as a gated `mod` does.
            let gated = pending_impl.is_some() && std::mem::take(&mut pending_test);
            let outer_test = scopes.last().map(|s| s.is_test).unwrap_or(false);
            scopes.push(Scope {
                close,
                is_test: gated || outer_test,
                impl_type: pending_impl
                    .take()
                    .or_else(|| scopes.last().and_then(|s| s.impl_type.clone())),
                module: None,
            });
            i += 1;
            continue;
        }
        if pending_test && starts_item(&pf, i) {
            pending_test = false;
        }
        i += 1;
    }
    pf
}

/// Whether token `i` starts a non-fn item that would consume a pending
/// test attribute (`use`, `static`, `const`, `struct`, …).
fn starts_item(pf: &ParsedFile, i: usize) -> bool {
    ["use", "static", "const", "struct", "enum", "type", "trait"]
        .iter()
        .any(|k| pf.is_ident(i, k))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttrKind {
    Test,
    Other,
}

/// If token `i` starts an attribute, returns (one past `]`, kind).
fn classify_attr(pf: &ParsedFile, i: usize) -> Option<(usize, AttrKind)> {
    if !pf.is_punct(i, '#') {
        return None;
    }
    let mut j = i + 1;
    if pf.is_punct(j, '!') {
        j += 1;
    }
    if !pf.is_punct(j, '[') {
        return None;
    }
    let open = j;
    let mut depth = 0usize;
    let mut end = None;
    while j < pf.tokens.len() {
        match pf.tokens[j].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    end = Some(j + 1);
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    let end = end?;
    // `#[test]`
    if pf.is_ident(open + 1, "test") && pf.is_punct(open + 2, ']') {
        return Some((end, AttrKind::Test));
    }
    // `#[cfg(test)]` / `#[cfg(all(test, …))]`
    if pf.is_ident(open + 1, "cfg") && pf.is_punct(open + 2, '(') {
        if pf.is_ident(open + 3, "test") {
            return Some((end, AttrKind::Test));
        }
        if pf.is_ident(open + 3, "all")
            && pf.is_punct(open + 4, '(')
            && pf.is_ident(open + 5, "test")
        {
            return Some((end, AttrKind::Test));
        }
    }
    Some((end, AttrKind::Other))
}

/// Parses an `impl` header starting at token `i` (`impl`), returning
/// the implemented type name and the index of the opening `{`.
fn parse_impl_header(pf: &ParsedFile, i: usize) -> (Option<String>, usize) {
    let mut j = i + 1;
    let mut angle = 0i32;
    let mut first_ty: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    while j < pf.tokens.len() {
        match pf.tokens[j].kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => angle -= 1,
            TokKind::Punct('{') if angle <= 0 => break,
            TokKind::Punct(';') if angle <= 0 => break,
            TokKind::Ident if angle <= 0 => {
                let t = pf.text(j);
                if t == "for" {
                    saw_for = true;
                } else if t == "where" {
                    // Type name comes before the where clause.
                } else if saw_for {
                    if after_for.is_none() {
                        after_for = Some(t.to_string());
                    }
                } else if first_ty.is_none() && t != "dyn" {
                    first_ty = Some(t.to_string());
                } else {
                    // Later path segments win: `impl fmt::Display for X`
                    // keeps X via after_for; `impl zerosum::Monitor`
                    // keeps the last segment.
                    if !saw_for && pf.is_punct(j.wrapping_sub(1), ':') {
                        first_ty = Some(t.to_string());
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    (after_for.or(first_ty), j)
}

/// Parses a `fn` item starting at token `i` (`fn`). Returns the item
/// and the index to continue scanning from (just after the opening
/// brace so nested scopes are still walked).
fn parse_fn(pf: &ParsedFile, i: usize, is_test: bool, scopes: &[Scope]) -> Option<(FnItem, usize)> {
    let name_tok = i + 1;
    if pf.tokens.get(name_tok)?.kind != TokKind::Ident {
        return None;
    }
    let name = pf.text(name_tok).to_string();
    // Walk the signature: skip generics `<…>` and the parameter list,
    // then find the body `{` (or `;` for a bodyless declaration).
    let mut j = name_tok + 1;
    // Generics.
    if pf.is_punct(j, '<') {
        let mut angle = 0i32;
        while j < pf.tokens.len() {
            match pf.tokens[j].kind {
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') => {
                    angle -= 1;
                    if angle == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    // Parameters (a struct pattern's braces are not the body).
    if pf.is_punct(j, '(') {
        j = pf.matching_paren(j);
    }
    // Find body `{` (skipping return type / where clause) or `;`.
    let mut angle = 0i32;
    while j < pf.tokens.len() {
        match pf.tokens[j].kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => angle = (angle - 1).max(0),
            TokKind::Punct('{') if angle == 0 => break,
            TokKind::Punct(';') if angle == 0 => {
                // Bodyless (trait method declaration).
                return None;
            }
            _ => {}
        }
        j += 1;
    }
    if j >= pf.tokens.len() {
        return None;
    }
    let open = j;
    let close = pf.matching_brace(open);
    let impl_type = scopes.iter().rev().find_map(|s| s.impl_type.clone());
    let module = scopes.iter().rev().find_map(|s| s.module.clone());
    Some((
        FnItem {
            name,
            impl_type,
            module,
            file: pf.file.clone(),
            line: pf.tokens[i].line,
            body: (open + 1)..close,
            is_test,
        },
        open + 1,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_fns_with_bodies() {
        let src = "\
fn free(a: u32, mut b: &str) -> u32 { a }
struct S;
impl S {
    pub fn method(&self, x: Option<u32>) -> u32 { x.unwrap() }
}
impl std::fmt::Display for S {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }
}
";
        let pf = parse_file("a.rs", src);
        let names: Vec<(String, Option<String>)> = pf
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.impl_type.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free".into(), None),
                ("method".into(), Some("S".into())),
                ("fmt".into(), Some("S".into())),
            ]
        );
    }

    #[test]
    fn test_fns_and_test_mods_are_marked() {
        let src = "\
fn live() {}
#[test]
fn unit() {}
#[cfg(test)]
mod tests {
    fn helper() {}
    #[test]
    fn t() {}
}
";
        let pf = parse_file("a.rs", src);
        let by_name: Vec<(String, bool)> =
            pf.fns.iter().map(|f| (f.name.clone(), f.is_test)).collect();
        assert_eq!(
            by_name,
            vec![
                ("live".into(), false),
                ("unit".into(), true),
                ("helper".into(), true),
                ("t".into(), true),
            ]
        );
    }

    #[test]
    fn test_gating_follows_the_attribute_not_the_text() {
        let src = "\
#[cfg(not(test))]
fn shipped() {}
#[cfg(all(test, feature = \"x\"))]
mod gated { fn inside() {} }
#[cfg(test)]
use std::collections::HashMap;
fn after_use() {}
#[cfg(test)]
mod tests {
    fn braces() { let weird = \"}}}{\"; let raw = r\"\\\"; }
}
fn after_mod() {}
#[cfg(test)]
impl Probe { fn first(&self) {} fn second(&self) {} }
impl Probe { fn shipped_method(&self) {} }
";
        let pf = parse_file("a.rs", src);
        let by_name: Vec<(&str, bool)> = pf
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.is_test))
            .collect();
        assert_eq!(
            by_name,
            [
                ("shipped", false),
                ("inside", true),
                ("after_use", false),
                ("braces", true),
                ("after_mod", false),
                ("first", true),
                ("second", true),
                ("shipped_method", false),
            ]
        );
    }

    #[test]
    fn generics_where_clauses_and_nested_braces() {
        let src = "\
pub fn run<T, F>(jobs: Vec<F>, workers: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let x = if workers > 0 { 1 } else { 2 };
    inner(x)
}
fn inner(v: usize) -> usize { v }
";
        let pf = parse_file("a.rs", src);
        assert_eq!(pf.fns.len(), 2);
        assert_eq!(pf.fns[0].name, "run");
        // Body range covers the call to `inner`.
        let body_text: Vec<&str> = pf.fns[0].body.clone().map(|k| pf.text(k)).collect();
        assert!(body_text.contains(&"inner"));
    }

    #[test]
    fn trait_decls_without_bodies_are_skipped() {
        let src = "trait T { fn decl(&self) -> u32; fn with_default(&self) -> u32 { 1 } }";
        let pf = parse_file("a.rs", src);
        assert_eq!(pf.fns.len(), 1);
        assert_eq!(pf.fns[0].name, "with_default");
    }
}
