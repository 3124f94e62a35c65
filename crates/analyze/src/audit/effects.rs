//! Interprocedural effect analysis.
//!
//! Extracts each function's *direct effect sites* — allocation,
//! wall-clock reads, ambient entropy/thread-id reads, unordered-map
//! iteration, and blocking (sleep, channel ops, thread join) — from the
//! shared token stream, and runs three reachability passes over the
//! workspace call graph, each a set of roots and the effects no function
//! they reach may carry:
//!
//! * **hot-path-alloc** — any allocation effect reachable from the
//!   `_into` sampling-round roots fails. This turns the zero-alloc
//!   sampling discipline (DESIGN.md §4) into a CI-enforced
//!   *reachability* property: a `format!` three calls below a
//!   `task_stat_into` is caught.
//! * **nondeterminism** — wall-clock, entropy, and unordered-iteration
//!   effects reachable from the sim/experiment roots, statically
//!   protecting the bit-identical survivor-equality differentials.
//! * **blocking** — the one "don't block here" pass: a sleep, channel op
//!   or join reachable from the non-blocking roots (the
//!   deadline-watchdog scope of `Monitor::sample` and the collector's
//!   pump loop, `Collector::pump_frames`) stalls a round somebody is
//!   waiting on. File IO and `/proc` reads are not effects here: they
//!   *are* the measured work of a sampling round, and stalls there are
//!   the watchdog's own job. No lock is left to hold across anything —
//!   naming one in product code is the `lock-in-product` repo rule
//!   ([`super::rules`]).
//!
//! Reachability is one breadth-first walk per pass, so recursive and
//! mutually recursive functions need no fixpoint. Every finding carries a
//! **witness trace**: the shortest root→site call chain recovered from
//! the BFS parent map (surfaced by `zerosum audit --explain`).

use super::callgraph::CallGraph;
use super::items::{FnItem, ParsedFile};
use super::lexer::TokKind;
use super::{resolve_roots, Allow, Allowlist, Finding};
use std::collections::BTreeSet;

/// The effect kinds, one bit each: a site carries one, a pass's mask
/// names those it polices.
pub struct Effect;

impl Effect {
    /// Heap allocation (`clone`, `to_string`, `format!`, `collect`, …).
    pub const ALLOC: u16 = 1 << 0;
    /// Wall-clock read (`Instant::now`, `SystemTime::now`).
    pub const WALL_CLOCK: u16 = 1 << 1;
    /// Ambient entropy / identity (`thread::current`, `process::id`,
    /// `thread_rng`, `from_entropy`, `RandomState`).
    pub const AMBIENT: u16 = 1 << 2;
    /// Iteration over a `HashMap`/`HashSet` (arbitrary order).
    pub const UNORDERED_ITER: u16 = 1 << 3;
    /// `thread::sleep`/`park`.
    pub const BLOCK_SLEEP: u16 = 1 << 4;
    /// Blocking channel op (`send`, `recv`, `recv_timeout`).
    pub const BLOCK_CHAN: u16 = 1 << 5;
    /// `.join()` on a thread handle.
    pub const BLOCK_JOIN: u16 = 1 << 6;
}

/// Effects the determinism pass polices.
pub const DET_MASK: u16 = Effect::WALL_CLOCK | Effect::AMBIENT | Effect::UNORDERED_ITER;
/// Effects the blocking pass polices under its non-blocking roots.
pub const WATCHDOG_MASK: u16 = Effect::BLOCK_SLEEP | Effect::BLOCK_CHAN | Effect::BLOCK_JOIN;

/// One direct effect site inside a function body.
#[derive(Debug, Clone)]
pub struct EffectSite {
    /// Which effect (a single [`Effect`] bit).
    pub bit: u16,
    /// 1-based source line.
    pub line: usize,
    /// Stable site token (`clone`, `format!`, `Vec::new`,
    /// `Instant::now`, `states.values`, `thread::sleep`, …) — what an
    /// allowlist row names.
    pub token: String,
}

/// Configuration for the three effect passes: roots and reviewed
/// allowlists.
#[derive(Debug, Clone, Copy)]
pub struct EffectConfig<'a> {
    /// Every non-test fn whose name ends with this suffix is a hot
    /// root (the `_into` sampling-round family).
    pub hot_root_suffix: &'a str,
    /// Extra hot roots: `(file_suffix, fn_name)`.
    pub hot_roots: &'a [(&'a str, &'a str)],
    /// Reviewed allocation sites reachable from hot roots.
    pub alloc_allowlist: &'a [Allow<'a>],
    /// Every fn in a file starting with one of these prefixes is a
    /// determinism root (the simulator).
    pub det_root_prefixes: &'a [&'a str],
    /// Named determinism roots: `(file_suffix, fn_name)` — the
    /// experiment drivers whose outputs must be bit-identical.
    pub det_roots: &'a [(&'a str, &'a str)],
    /// Reviewed nondeterministic sites reachable from det roots.
    pub det_allowlist: &'a [Allow<'a>],
    /// The non-blocking roots — the deadline-watchdog scope and the
    /// pump loops: `(file_suffix, fn_name)`.
    pub watchdog_roots: &'a [(&'a str, &'a str)],
    /// Reviewed blocking sites under the non-blocking roots.
    pub blocking_allowlist: &'a [Allow<'a>],
}

impl EffectConfig<'static> {
    /// A config with the `_into` suffix rule but no named roots and no
    /// allowlists — the fixture-test entry point.
    pub const fn empty() -> EffectConfig<'static> {
        EffectConfig {
            hot_root_suffix: "_into",
            hot_roots: &[],
            alloc_allowlist: &[],
            det_root_prefixes: &[],
            det_roots: &[],
            det_allowlist: &[],
            watchdog_roots: &[],
            blocking_allowlist: &[],
        }
    }
}

/// The repo's standard effect configuration.
pub const DEFAULT_EFFECTS: EffectConfig<'static> = EffectConfig {
    hot_root_suffix: "_into",
    // The round runs every period; allocation there is contention by
    // another name.
    hot_roots: &[("crates/core/src/round.rs", "round")],
    alloc_allowlist: &DEFAULT_ALLOC_ALLOWLIST,
    det_root_prefixes: &["crates/sched/src/"],
    det_roots: &[
        ("crates/experiments/src/tables.rs", "run_table"),
        ("crates/experiments/src/tables.rs", "run_table_configured"),
        ("crates/experiments/src/tables.rs", "run_table_traced"),
        ("crates/experiments/src/tables.rs", "run_table_chaos"),
        (
            "crates/experiments/src/transport_chaos.rs",
            "run_transport_chaos",
        ),
        (
            "crates/experiments/src/transport_chaos.rs",
            "run_transport_chaos_with_plan",
        ),
        // The open-system churn pair: the schedule generator and the
        // sim-backend soak must be pure functions of their config (the
        // CI suite requires bit-identical repro). The real-backend
        // driver (`run_real_churn`) is wall-clock paced by design and
        // must NOT be rooted here.
        ("crates/apps/src/churn.rs", "generate_schedule"),
        ("crates/experiments/src/churn.rs", "run_sim_churn"),
        ("crates/experiments/src/parallel.rs", "run_jobs"),
        ("crates/experiments/src/figures.rs", "fig5"),
        ("crates/experiments/src/figures.rs", "fig67"),
        ("crates/experiments/src/figures.rs", "fig67_traced"),
        ("crates/experiments/src/figures.rs", "fig8"),
        ("crates/experiments/src/sweep.rs", "sweep_cpus_per_task"),
    ],
    det_allowlist: &DEFAULT_DET_ALLOWLIST,
    watchdog_roots: &[
        ("crates/core/src/monitor.rs", "sample"),
        ("crates/net/src/collector.rs", "pump_frames"),
    ],
    blocking_allowlist: &DEFAULT_BLOCKING_ALLOWLIST,
};

/// Reviewed allocation sites reachable from the `_into` roots:
/// `(file_suffix, fn, token, why)`. Every entry is either an error /
/// fallback path that never runs on a healthy sample round, or a
/// deliberate cache in the chaos-injection layer.
pub const DEFAULT_ALLOC_ALLOWLIST: [Allow; 23] = [
    // FaultInjector keeps a last-good clone of each view so chaos
    // decisions can serve stale data (§ fault model); the cache *is*
    // the feature, and the injector wraps sources only in drills.
    (
        "crates/procfs/src/fault.rs",
        "system_stat",
        "clone",
        "last-good cache, chaos layer",
    ),
    (
        "crates/procfs/src/fault.rs",
        "list_tasks",
        "clone",
        "last-good cache, chaos layer",
    ),
    (
        "crates/procfs/src/fault.rs",
        "task_stat",
        "clone",
        "last-good cache, chaos layer",
    ),
    (
        "crates/procfs/src/fault.rs",
        "task_status",
        "clone",
        "last-good cache, chaos layer",
    ),
    // Derived `Clone` impls on the view structs — reached only through
    // the fault injector's last-good cache above.
    (
        "crates/procfs/src/types.rs",
        "clone",
        "clone",
        "derived Clone, fault-cache only",
    ),
    (
        "crates/topology/src/cpuset.rs",
        "clone",
        "clone",
        "derived Clone, fault-cache only",
    ),
    // Error-path message formatting: runs only when a /proc read or
    // parse fails, never on the healthy sampling path.
    (
        "crates/procfs/src/linux.rs",
        "classify_read_error",
        "to_string",
        "error path only",
    ),
    (
        "crates/procfs/src/parse.rs",
        "system_stat_into",
        "format!",
        "parse-error path only",
    ),
    (
        "crates/procfs/src/parse.rs",
        "parse_cpu_times",
        "format!",
        "parse-error path only",
    ),
    (
        "crates/procfs/src/parse.rs",
        "stat_view",
        "format!",
        "parse-error path only",
    ),
    (
        "crates/procfs/src/parse.rs",
        "status_into",
        "format!",
        "parse-error path only",
    ),
    // Owning `list_tasks` fallbacks: the default-trait shims allocate a
    // fresh Vec by contract; hot callers use `list_tasks_into`.
    (
        "crates/procfs/src/linux.rs",
        "list_tasks",
        "Vec::new",
        "owning fallback, cold callers only",
    ),
    (
        "crates/sched/src/proc_source.rs",
        "list_tasks",
        "Vec::new",
        "owning fallback, cold callers only",
    ),
    // The memory drill's synthetic node materializes fresh proc views
    // per round by design — it models a remote node, not the in-process
    // hot path.
    (
        "crates/analyze/src/memory_drill.rs",
        "list_tasks",
        "vec!",
        "sim materializes views",
    ),
    (
        "crates/analyze/src/memory_drill.rs",
        "task_stat",
        "to_string",
        "sim materializes views",
    ),
    (
        "crates/analyze/src/memory_drill.rs",
        "task_status",
        "to_string",
        "sim materializes views",
    ),
    // The round root: the parsers and the task read only allocate when
    // a read or parse fails — message formatting off the healthy path.
    (
        "crates/procfs/src/parse.rs",
        "schedstat",
        "format!",
        "parse-error path only",
    ),
    (
        "crates/core/src/round.rs",
        "read_task",
        "to_string",
        "parse-error path only",
    ),
    // The handle cache gives a pid its slot vector the first time the
    // pid is listed; a steady population compares tids and returns.
    (
        "crates/procfs/src/linux.rs",
        "sweep",
        "Vec::with_capacity",
        "first listing of a pid only",
    ),
    // The round's prologue and epilogue: the first `/proc/stat` is kept
    // whole, and a snapshot is built only while somebody subscribes to
    // the feed.
    (
        "crates/core/src/hwt.rs",
        "observe",
        "clone",
        "first round only; later rounds `clone_from` into the kept snapshot",
    ),
    (
        "crates/core/src/feed.rs",
        "snapshot_of",
        "collect",
        "only with a live subscriber; the snapshot is what the subscriber receives",
    ),
    // Capacity-0 constructors: `String::new`/`Vec::new`/`HashSet::new`
    // do not touch the allocator until first growth, and the rows they
    // seed are created once per thread, not once per round.
    (
        "crates/stats/src/ring.rs",
        "with_capacity",
        "Vec::new",
        "capacity-0, reserves lazily",
    ),
    // Fold-side bookkeeping: clones happen on first observation of a
    // tid or on an affinity change — never on the steady-state healthy
    // round. (The last-good pair is swapped in and lent out, not cloned.)
    (
        "crates/core/src/lwp.rs",
        "observe_at",
        "clone",
        "first observation / affinity change only",
    ),
];

/// Reviewed nondeterministic sites reachable from the sim/experiment
/// roots: `(file_suffix, fn, token, why)`.
pub const DEFAULT_DET_ALLOWLIST: [Allow; 0] = [];

/// Reviewed blocking sites under the non-blocking roots:
/// `(file_suffix, fn, token, why)`, the token being the effect. Empty:
/// nothing the watchdog waits on sleeps, joins or waits on a channel.
pub const DEFAULT_BLOCKING_ALLOWLIST: [Allow; 0] = [];

/// The result of the effect pass.
pub struct EffectAnalysis {
    /// Findings across the three passes plus stale-allowlist entries.
    pub findings: Vec<Finding>,
    /// Total direct effect sites extracted.
    pub sites: usize,
    /// Functions reachable from the hot (`_into`) roots.
    pub hot_reachable: usize,
    /// Functions reachable from the determinism roots.
    pub det_reachable: usize,
}

/// Method names that allocate when called in method position.
const ALLOC_METHODS: [&str; 6] = [
    "clone",
    "to_string",
    "to_owned",
    "to_vec",
    "to_path_buf",
    "into_owned",
];

/// Owner types whose `new`/`with_capacity`/`from` allocate.
const ALLOC_TYPES: [&str; 9] = [
    "Vec", "String", "Box", "PathBuf", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "VecDeque",
];

/// Iteration methods with arbitrary order on a hash container.
const ITER_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "retain",
];

/// Whether the ident at `t` begins a call's argument list, allowing a
/// turbofish: `ident (` or `ident :: < … > (`. The call-graph site
/// scanner only matches the bare form, so `collect::<Vec<_>>()` needs
/// this dedicated check.
fn call_open(pf: &ParsedFile, t: usize) -> bool {
    if pf.is_punct(t + 1, '(') {
        return true;
    }
    if !(pf.is_punct(t + 1, ':') && pf.is_punct(t + 2, ':') && pf.is_punct(t + 3, '<')) {
        return false;
    }
    let mut depth = 0i32;
    let mut i = t + 3;
    while i < pf.tokens.len() {
        match pf.tokens[i].kind {
            TokKind::Punct('<') => depth += 1,
            TokKind::Punct('>') => {
                depth -= 1;
                if depth == 0 {
                    return pf.is_punct(i + 1, '(');
                }
            }
            TokKind::Punct(';') | TokKind::Punct('{') => return false,
            _ => {}
        }
        i += 1;
    }
    false
}

/// Identifiers bound to `HashMap`/`HashSet` values in one file, from
/// type ascriptions (`states: HashMap<…>` — struct fields, params,
/// typed lets) and `let x = HashMap::new()` initializers. `BTreeMap`
/// and friends never enter the set: their iteration order is defined.
fn unordered_bindings(pf: &ParsedFile) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let toks = &pf.tokens;
    for i in 0..toks.len() {
        if !(pf.is_ident(i, "HashMap") || pf.is_ident(i, "HashSet")) {
            continue;
        }
        if pf.is_punct(i + 1, '<') {
            // Walk back over `&`, `:` and path segments to the binding
            // ident: `states : std :: collections :: HashMap <`.
            let mut j = i;
            while j > 0 {
                let p = j - 1;
                let skip = pf.is_punct(p, ':')
                    || pf.is_punct(p, '&')
                    || pf.is_ident(p, "std")
                    || pf.is_ident(p, "collections")
                    || pf.is_ident(p, "mut");
                if !skip {
                    break;
                }
                j = p;
            }
            if j >= 1
                && toks[j - 1].kind == TokKind::Ident
                && !(j >= 2 && pf.is_punct(j - 2, ':'))
                && j < i
            {
                out.insert(pf.text(j - 1).to_string());
            }
        }
        if pf.is_punct(i + 1, ':') && pf.is_punct(i + 2, ':') {
            // `let [mut] x = HashMap::new(…)` — scan back to the
            // statement start and take the `let` target.
            let mut k = i;
            while k > 0 {
                k -= 1;
                if matches!(
                    toks[k].kind,
                    TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}')
                ) {
                    let mut n = k + 1;
                    if pf.is_ident(n, "let") {
                        n += 1;
                        if pf.is_ident(n, "mut") {
                            n += 1;
                        }
                        if toks.get(n).map(|t| t.kind) == Some(TokKind::Ident) {
                            out.insert(pf.text(n).to_string());
                        }
                    }
                    break;
                }
            }
        }
    }
    out
}

/// Whether the method call at `t` is `self.name(…)` inside an `impl`
/// block of this file that defines `name` — the type's own method
/// (`NodeAgent::send` encodes a frame and hands it to the link), not
/// the std channel op it shares a name with. The call graph follows the
/// call, so whatever the method does is still seen.
fn own_method(pf: &ParsedFile, item: &FnItem, t: usize) -> bool {
    let on_self = t >= 2 && pf.is_ident(t - 2, "self") && !(t >= 3 && pf.is_punct(t - 3, '.'));
    on_self
        && item.impl_type.is_some()
        && pf
            .fns
            .iter()
            .any(|f| f.impl_type == item.impl_type && f.name == pf.text(t))
}

/// Extracts the direct effect sites of one function body.
fn body_effect_sites(
    pf: &ParsedFile,
    item: &FnItem,
    unordered: &BTreeSet<String>,
) -> Vec<EffectSite> {
    let mut out = Vec::new();
    let mut push = |bit: u16, line: usize, token: String| {
        out.push(EffectSite { bit, line, token });
    };
    for t in item.body.clone() {
        if pf.tokens[t].kind != TokKind::Ident {
            continue;
        }
        let name = pf.text(t);
        let line = pf.tokens[t].line;
        // Macros.
        if pf.is_punct(t + 1, '!') {
            if matches!(name, "format" | "vec") {
                push(Effect::ALLOC, line, format!("{name}!"));
            }
            continue;
        }
        let method = t >= 1 && pf.is_punct(t - 1, '.');
        let path_q = if t >= 3
            && pf.is_punct(t - 1, ':')
            && pf.is_punct(t - 2, ':')
            && pf.tokens[t - 3].kind == TokKind::Ident
        {
            Some(pf.text(t - 3))
        } else {
            None
        };
        if method {
            if ALLOC_METHODS.contains(&name) && call_open(pf, t) {
                push(Effect::ALLOC, line, name.to_string());
            } else if name == "collect" && call_open(pf, t) {
                push(Effect::ALLOC, line, "collect".into());
            } else if name == "join" && pf.is_punct(t + 1, '(') {
                if pf.is_punct(t + 2, ')') {
                    push(Effect::BLOCK_JOIN, line, "join".into());
                } else {
                    // `path.join(seg)` / `slice.join(sep)` allocate.
                    push(Effect::ALLOC, line, "join".into());
                }
            } else if matches!(name, "recv" | "recv_timeout" | "send")
                && pf.is_punct(t + 1, '(')
                && !own_method(pf, item, t)
            {
                push(Effect::BLOCK_CHAN, line, name.to_string());
            } else if ITER_METHODS.contains(&name)
                && pf.is_punct(t + 1, '(')
                && t >= 2
                && pf.tokens[t - 2].kind == TokKind::Ident
            {
                let recv = pf.text(t - 2);
                if unordered.contains(recv) {
                    push(Effect::UNORDERED_ITER, line, format!("{recv}.{name}"));
                }
            }
        } else if let Some(q) = path_q {
            match (q, name) {
                ("Instant" | "SystemTime", "now") => {
                    push(Effect::WALL_CLOCK, line, format!("{q}::now"));
                }
                ("thread", "sleep" | "park" | "park_timeout") if pf.is_punct(t + 1, '(') => {
                    push(Effect::BLOCK_SLEEP, line, format!("thread::{name}"));
                }
                ("thread", "current") => {
                    push(Effect::AMBIENT, line, "thread::current".into());
                }
                ("process", "id") => {
                    push(Effect::AMBIENT, line, "process::id".into());
                }
                ("RandomState", "new") => {
                    push(Effect::AMBIENT, line, "RandomState::new".into());
                }
                (owner, "new" | "with_capacity" | "from")
                    if ALLOC_TYPES.contains(&owner) && call_open(pf, t) =>
                {
                    push(Effect::ALLOC, line, format!("{q}::{name}"));
                }
                _ => {}
            }
        }
        if matches!(name, "thread_rng" | "from_entropy") && pf.is_punct(t + 1, '(') {
            push(Effect::AMBIENT, line, name.to_string());
        }
        // `for x in map { … }` — hash-container iteration without a
        // method call.
        if name == "for" && !method {
            let mut depth = 0i32;
            let mut in_at = None;
            let mut i = t + 1;
            while i < pf.tokens.len() {
                match pf.tokens[i].kind {
                    TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                    TokKind::Punct('{') if depth == 0 => break,
                    TokKind::Ident if depth == 0 && pf.is_ident(i, "in") => {
                        in_at = Some(i);
                    }
                    _ => {}
                }
                i += 1;
            }
            if let Some(start) = in_at {
                let mut last_ident: Option<&str> = None;
                let mut has_call = false;
                for j in start + 1..i {
                    match pf.tokens[j].kind {
                        TokKind::Ident => last_ident = Some(pf.text(j)),
                        TokKind::Punct('(') => has_call = true,
                        _ => {}
                    }
                }
                if !has_call {
                    if let Some(id) = last_ident {
                        if unordered.contains(id) {
                            push(
                                Effect::UNORDERED_ITER,
                                pf.tokens[t].line,
                                format!("{id}.for-in"),
                            );
                        }
                    }
                }
            }
        }
    }
    out
}

/// Extracts direct effect sites for every function in the graph.
pub fn effect_sites(graph: &CallGraph) -> Vec<Vec<EffectSite>> {
    let unordered: Vec<BTreeSet<String>> = graph.files.iter().map(unordered_bindings).collect();
    graph
        .fns
        .iter()
        .map(|node| {
            let pf = &graph.files[node.file_idx];
            body_effect_sites(pf, &node.item, &unordered[node.file_idx])
        })
        .collect()
}

/// Names of the effect bits in `mask`, for human-readable details.
pub fn bit_name(bit: u16) -> &'static str {
    match bit {
        Effect::ALLOC => "alloc",
        Effect::WALL_CLOCK => "wall-clock",
        Effect::AMBIENT => "ambient",
        Effect::UNORDERED_ITER => "unordered-iter",
        Effect::BLOCK_SLEEP => "sleep",
        Effect::BLOCK_CHAN => "channel",
        Effect::BLOCK_JOIN => "join",
        _ => "effect",
    }
}

/// One reachability pass: report every direct site with a bit in
/// `mask` inside a function reachable from `roots` that `allow` does
/// not accept. Returns how many functions are reachable.
#[allow(clippy::too_many_arguments)]
fn reach_pass(
    graph: &CallGraph,
    sites: &[Vec<EffectSite>],
    roots: &[usize],
    mask: u16,
    pass: &'static str,
    scope: &str,
    allow: &mut Allowlist,
    findings: &mut Vec<Finding>,
) -> usize {
    let parents = graph.reach_from(roots);
    let mut reachable = 0usize;
    for (fi, p) in parents.iter().enumerate() {
        if p.is_none() {
            continue;
        }
        reachable += 1;
        let node = &graph.fns[fi];
        for s in &sites[fi] {
            if s.bit & mask == 0 {
                continue;
            }
            if allow.allows(&node.item.file, &node.item.name, &s.token) {
                continue;
            }
            let witness = graph.path_chain(&parents, fi);
            findings.push(Finding {
                pass,
                file: node.item.file.clone(),
                line: s.line,
                func: node.item.name.clone(),
                token: s.token.clone(),
                detail: format!(
                    "{} effect `{}` in `{}` is reachable from {} via {}",
                    bit_name(s.bit),
                    s.token,
                    node.item.name,
                    scope,
                    witness.join(" -> ")
                ),
                witness,
            });
        }
    }
    reachable
}

/// Runs the effect passes over a built call graph.
pub fn analyze_effects(graph: &CallGraph, cfg: &EffectConfig) -> EffectAnalysis {
    let sites = effect_sites(graph);
    let mut findings: Vec<Finding> = Vec::new();

    // Pass 1: hot-path allocation.
    let mut hot_roots: Vec<usize> = Vec::new();
    if !cfg.hot_root_suffix.is_empty() {
        hot_roots.extend(
            (0..graph.fns.len()).filter(|&i| graph.fns[i].item.name.ends_with(cfg.hot_root_suffix)),
        );
    }
    let named = cfg.hot_roots.iter().copied();
    hot_roots.extend(resolve_roots(graph, "hot root", named, &mut findings));
    let mut allow = Allowlist::new("hot-path-alloc", cfg.alloc_allowlist);
    let hot_reachable = reach_pass(
        graph,
        &sites,
        &hot_roots,
        Effect::ALLOC,
        "hot-path-alloc",
        "the sampling-round roots",
        &mut allow,
        &mut findings,
    );
    allow.stale(&mut findings);

    // Pass 2: determinism.
    let mut det_roots: Vec<usize> = Vec::new();
    for (fi, node) in graph.fns.iter().enumerate() {
        if cfg
            .det_root_prefixes
            .iter()
            .any(|p| node.item.file.starts_with(p))
        {
            det_roots.push(fi);
        }
    }
    let named = cfg.det_roots.iter().copied();
    det_roots.extend(resolve_roots(graph, "det root", named, &mut findings));
    let mut allow = Allowlist::new("nondeterminism", cfg.det_allowlist);
    let det_reachable = reach_pass(
        graph,
        &sites,
        &det_roots,
        DET_MASK,
        "nondeterminism",
        "the sim/experiment roots",
        &mut allow,
        &mut findings,
    );
    allow.stale(&mut findings);

    // Pass 3: blocking under the non-blocking roots.
    let named = cfg.watchdog_roots.iter().copied();
    let wd_roots = resolve_roots(graph, "watchdog root", named, &mut findings);
    let mut allow = Allowlist::new("blocking", cfg.blocking_allowlist);
    reach_pass(
        graph,
        &sites,
        &wd_roots,
        WATCHDOG_MASK,
        "blocking",
        "a non-blocking root",
        &mut allow,
        &mut findings,
    );
    allow.stale(&mut findings);

    EffectAnalysis {
        findings,
        sites: sites.iter().map(Vec::len).sum(),
        hot_reachable,
        det_reachable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::items::parse_file;

    fn graph(srcs: &[(&str, &str)]) -> CallGraph {
        CallGraph::build(srcs.iter().map(|(p, s)| parse_file(p, s)).collect())
    }

    fn run(srcs: &[(&str, &str)], cfg: &EffectConfig) -> EffectAnalysis {
        analyze_effects(&graph(srcs), cfg)
    }

    #[test]
    fn extraction_classifies_each_effect_kind() {
        let g = graph(&[(
            "a.rs",
            "\
fn f(m: &HashMap<u32, u32>, rx: &Receiver<u32>) {
    let s = x.to_string();
    let v: Vec<u32> = it.collect::<Vec<u32>>();
    let t0 = Instant::now();
    let me = thread::current();
    for (k, v) in m {}
    thread::sleep(d);
    let msg = rx.recv();
    handle.join();
    let label = format!(\"x{}\", 1);
}
",
        )]);
        let sites = effect_sites(&g);
        let bits: Vec<u16> = sites[0].iter().map(|s| s.bit).collect();
        for expect in [
            Effect::ALLOC,
            Effect::WALL_CLOCK,
            Effect::AMBIENT,
            Effect::UNORDERED_ITER,
            Effect::BLOCK_SLEEP,
            Effect::BLOCK_CHAN,
            Effect::BLOCK_JOIN,
        ] {
            assert!(bits.contains(&expect), "missing bit {expect}: {sites:?}");
        }
        // Turbofish collect was caught.
        assert!(sites[0].iter().any(|s| s.token == "collect"));
    }

    #[test]
    fn btreemap_iteration_is_ordered_and_not_flagged() {
        let g = graph(&[(
            "a.rs",
            "\
fn f(m: &BTreeMap<u32, u32>, h: HashMap<u32, u32>) {
    for x in m {}
    let n = h.values().count();
}
",
        )]);
        let sites = effect_sites(&g);
        let unordered: Vec<&EffectSite> = sites[0]
            .iter()
            .filter(|s| s.bit == Effect::UNORDERED_ITER)
            .collect();
        assert_eq!(unordered.len(), 1, "{unordered:?}");
        assert_eq!(unordered[0].token, "h.values");
    }

    #[test]
    fn hot_path_alloc_flags_reachable_allocation_with_witness() {
        let ea = run(
            &[(
                "crates/x/src/a.rs",
                "\
fn task_stat_into(buf: &mut String) { helper(buf); }
fn helper(buf: &mut String) { leaf(buf); }
fn leaf(buf: &mut String) { let s = buf.clone(); }
fn island() { let v = Vec::new(); }
",
            )],
            &EffectConfig::empty(),
        );
        let hot: Vec<&Finding> = ea
            .findings
            .iter()
            .filter(|f| f.pass == "hot-path-alloc")
            .collect();
        assert_eq!(hot.len(), 1, "{:?}", ea.findings);
        assert_eq!(hot[0].func, "leaf");
        assert_eq!(
            hot[0].witness,
            vec!["task_stat_into", "helper", "leaf"],
            "witness should be the shortest root->site chain"
        );
    }

    #[test]
    fn determinism_pass_uses_named_roots() {
        let cfg = EffectConfig {
            det_roots: &[("a.rs", "run_sim")],
            ..EffectConfig::empty()
        };
        let ea = run(
            &[(
                "a.rs",
                "\
fn run_sim() { step(); }
fn step() { let t = Instant::now(); }
fn unrelated() { let t = SystemTime::now(); }
",
            )],
            &cfg,
        );
        let det: Vec<&Finding> = ea
            .findings
            .iter()
            .filter(|f| f.pass == "nondeterminism")
            .collect();
        assert_eq!(det.len(), 1, "{:?}", ea.findings);
        assert_eq!(det[0].func, "step");
        assert_eq!(det[0].token, "Instant::now");
    }

    #[test]
    fn watchdog_scope_flags_sleep_and_join() {
        let cfg = EffectConfig {
            watchdog_roots: &[("a.rs", "sample_inner")],
            ..EffectConfig::empty()
        };
        let ea = run(
            &[(
                "a.rs",
                "\
fn sample_inner() { wait(); }
fn wait() { thread::sleep(d); handle.join(); }
",
            )],
            &cfg,
        );
        let tokens: Vec<&str> = ea
            .findings
            .iter()
            .filter(|f| f.pass == "blocking")
            .map(|f| f.token.as_str())
            .collect();
        assert!(tokens.contains(&"thread::sleep"), "{:?}", ea.findings);
        assert!(tokens.contains(&"join"), "{:?}", ea.findings);
    }

    #[test]
    fn allowlist_suppresses_and_stale_entry_fails() {
        let allow = [
            ("a.rs", "leaf", "clone", "scratch-buffer clone, reviewed"),
            ("a.rs", "gone", "clone", "stale"),
        ];
        let cfg = EffectConfig {
            alloc_allowlist: &allow,
            ..EffectConfig::empty()
        };
        let ea = run(
            &[(
                "a.rs",
                "fn read_into(b: &B) { leaf(b); }\nfn leaf(b: &B) { let c = b.clone(); }\n",
            )],
            &cfg,
        );
        assert!(
            !ea.findings.iter().any(|f| f.pass == "hot-path-alloc"),
            "{:?}",
            ea.findings
        );
        let stale: Vec<&Finding> = ea
            .findings
            .iter()
            .filter(|f| f.pass == "stale-allowlist")
            .collect();
        assert_eq!(stale.len(), 1, "{:?}", ea.findings);
        assert_eq!(stale[0].func, "gone");
    }

    #[test]
    fn blocking_allowlist_accepts_a_watchdog_site_and_a_stale_row_fails() {
        let allow = [
            ("a.rs", "wait", "thread::sleep", "reviewed"),
            ("a.rs", "gone", "thread::sleep", "names no site"),
        ];
        let cfg = EffectConfig {
            watchdog_roots: &[("a.rs", "sample_inner")],
            blocking_allowlist: &allow,
            ..EffectConfig::empty()
        };
        let ea = run(
            &[(
                "a.rs",
                "fn sample_inner() { wait(); }\nfn wait() { thread::sleep(d); }\n",
            )],
            &cfg,
        );
        assert_eq!(ea.findings.len(), 1, "{:?}", ea.findings);
        let stale = &ea.findings[0];
        assert_eq!(
            (stale.pass, stale.func.as_str()),
            ("stale-allowlist", "gone")
        );
    }

    #[test]
    fn reachability_crosses_self_and_mutual_recursion() {
        let cfg = EffectConfig {
            watchdog_roots: &[("a.rs", "sample_inner")],
            ..EffectConfig::empty()
        };
        let ea = run(
            &[(
                "a.rs",
                "\
fn sample_inner() { selfrec(3); ping(3); }
fn selfrec(n: u32) { if n > 0 { selfrec(n - 1); } handle.join(); }
fn ping(n: u32) { pong(n); }
fn pong(n: u32) { if n > 0 { ping(n - 1); } thread::sleep(d); }
",
            )],
            &cfg,
        );
        let got: Vec<(&str, Vec<String>)> = ea
            .findings
            .iter()
            .map(|f| (f.token.as_str(), f.witness.clone()))
            .collect();
        let chain = |c: &[&str]| c.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        assert_eq!(
            got,
            [
                ("join", chain(&["sample_inner", "selfrec"])),
                ("thread::sleep", chain(&["sample_inner", "ping", "pong"])),
            ]
        );
    }
}
