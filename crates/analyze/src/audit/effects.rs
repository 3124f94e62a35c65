//! Interprocedural reachability: the audit's four passes, one table.
//!
//! Extracts each function's *direct sites* — panic sites, allocation,
//! wall-clock reads, ambient entropy/thread-id reads, unordered-map
//! iteration, and blocking (sleep, channel ops, thread join) — from the
//! shared token stream, and runs every row of [`PASSES`] over the
//! workspace call graph through one [`reach_pass`]: a row is a set of
//! roots and the site kinds no function they reach may carry.
//!
//! * **panic-reachable** — the monitor's contract (§3.1): nothing
//!   reachable from the sampling supervisor's `catch_unwind` boundary
//!   or from the abnormal-exit path panics. A panic under the
//!   supervisor costs a sample round, and a panic on the crash path
//!   turns an orderly abnormal-exit report into an abort. The monitor's
//!   per-sample files are rooted whole, so a function there is held to
//!   the contract before anything calls it. `unwrap`/`expect` chained
//!   directly onto a `write!`/`writeln!` macro is no site: `fmt::Write`
//!   into a `String` is infallible, and the report renderers use that
//!   idiom throughout.
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
//!   naming one in product code is a clippy `disallowed_types` finding
//!   (the root `clippy.toml`).
//!
//! Reachability is one breadth-first walk per pass, so recursive and
//! mutually recursive functions need no fixpoint, and any *new*
//! function a root reaches is audited the moment the call appears.
//! Every finding carries a **witness trace**: the shortest root→site
//! call chain recovered from the BFS parent map (surfaced by `zerosum
//! audit --explain`).

use super::callgraph::{CallGraph, Site, SiteKind};
use super::items::{FnItem, ParsedFile};
use super::lexer::TokKind;
use super::{unresolved, Allow, Allowlist, Finding};
use std::collections::BTreeSet;

/// The site kinds, one bit each: a site carries one, a pass's mask
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
    /// A potential panic: `.unwrap()` / `.expect(…)` (token `unwrap` /
    /// `expect`), `panic!`/`unreachable!`/`todo!`/`unimplemented!`
    /// (`panic-macro`), `expr[…]` (`index`).
    pub const PANIC: u16 = 1 << 7;
}

/// One direct site inside a function body.
#[derive(Debug, Clone)]
pub struct EffectSite {
    /// Which kind (a single [`Effect`] bit).
    pub bit: u16,
    /// 1-based source line.
    pub line: usize,
    /// Stable site token (`clone`, `format!`, `Vec::new`,
    /// `Instant::now`, `states.values`, `thread::sleep`, `unwrap`,
    /// `index`, …) — what an allowlist row names.
    pub token: String,
}

/// Where a pass's roots are: the three shapes of a root list entry.
#[derive(Debug, Clone, Copy)]
pub enum Root<'a> {
    /// `(file_suffix, fn_name)`: the functions so named. One that
    /// resolves to none is an `unresolved-root` finding.
    Fn(&'a str, &'a str),
    /// Every function of every file whose path starts with this: a
    /// rooted file, or a directory. One that matches no file is an
    /// `unresolved-root` finding.
    Path(&'a str),
    /// Every function whose name ends with this.
    Suffix(&'a str),
}

/// One reachability pass: a row of [`PASSES`].
#[derive(Debug, Clone, Copy)]
pub struct Pass<'a> {
    /// The pass id its findings carry.
    pub id: &'static str,
    /// The [`Effect`] bits no function reachable from a root may carry.
    pub mask: u16,
    /// The roots, walked in this order.
    pub roots: &'a [Root<'a>],
    /// Reviewed sites: `(file_suffix, fn, token, why)`.
    pub allowlist: &'a [Allow<'a>],
    /// What an `unresolved-root` finding calls the root list.
    pub root_label: &'static str,
    /// What a `stale-allowlist` finding calls the allowlist.
    pub allow_label: &'static str,
    /// How a finding names the roots it was reached from.
    pub scope: &'static str,
}

/// Everything under the sampling supervisor's `catch_unwind`
/// (`Monitor::sample` runs the whole round inside it) and every
/// function of the monitor's per-sample files: a malformed `/proc` line
/// or a closed channel is data, not a crash. The abnormal-exit path:
/// the panic hook prints `crash_report`, and the wrapper writes a dead
/// child's partial logs and their reports — a panic there loses the
/// record of the exit. The collector daemon's hostile-input boundary:
/// frames arrive truncated, corrupted and version-skewed off the wire,
/// and a panic in `decode_frame` or `pump_frames` kills supervision for
/// the whole allocation. The real fork/exec storm parent, which
/// supervises live children, and the hidden `__churn-child` entry,
/// whose panic orphans the storm child.
pub const PANIC_REACHABLE: Pass<'static> = Pass {
    id: "panic-reachable",
    mask: Effect::PANIC,
    roots: &[
        Root::Fn("crates/core/src/monitor.rs", "sample"),
        Root::Fn("crates/core/src/signal.rs", "crash_report"),
        Root::Fn("crates/core/src/export.rs", "write_partial_logs"),
        Root::Fn("crates/core/src/report.rs", "render_process_report"),
        Root::Fn("crates/net/src/frame.rs", "decode_frame"),
        Root::Fn("crates/net/src/collector.rs", "pump_frames"),
        Root::Fn("crates/apps/src/churn.rs", "churn_storm_main"),
        Root::Fn("crates/apps/src/churn.rs", "churn_child_main"),
        Root::Path("crates/core/src/hwt.rs"),
        Root::Path("crates/core/src/lwp.rs"),
        Root::Path("crates/core/src/monitor.rs"),
        Root::Path("crates/core/src/round.rs"),
    ],
    allowlist: &[(
        "crates/procfs/src/fault.rs",
        "decide",
        "panic-macro",
        "deliberate chaos injection (scripted FaultKind::Panic, every read form) — the \
         supervisor's catch_unwind is exactly the system under test",
    )],
    root_label: "panic root",
    allow_label: "panic",
    scope: "a no-panic root",
};

/// The `_into` sampling-round family, and the round itself: it runs
/// every period, and allocation there is contention by another name.
pub const HOT_PATH_ALLOC: Pass<'static> = Pass {
    id: "hot-path-alloc",
    mask: Effect::ALLOC,
    roots: &[
        Root::Suffix("_into"),
        Root::Fn("crates/core/src/round.rs", "round"),
    ],
    allowlist: &ALLOC_ALLOWLIST,
    root_label: "hot root",
    allow_label: "hot-path-alloc",
    scope: "the sampling-round roots",
};

/// The simulator, whole, and the experiment drivers whose outputs must
/// be bit-identical. The open-system churn pair is here — the schedule
/// generator and the sim-backend soak must be pure functions of their
/// config (the CI suite requires bit-identical repro) — and the
/// real storm parent (`churn_storm_main`), wall-clock paced by design,
/// must NOT be.
pub const NONDETERMINISM: Pass<'static> = Pass {
    id: "nondeterminism",
    mask: Effect::WALL_CLOCK | Effect::AMBIENT | Effect::UNORDERED_ITER,
    roots: &[
        Root::Path("crates/sched/src/"),
        Root::Fn("crates/experiments/src/tables.rs", "run_table"),
        Root::Fn("crates/experiments/src/tables.rs", "run_table_configured"),
        Root::Fn("crates/experiments/src/tables.rs", "run_table_traced"),
        Root::Fn("crates/experiments/src/tables.rs", "run_table_chaos"),
        Root::Fn(
            "crates/experiments/src/transport_chaos.rs",
            "run_transport_chaos",
        ),
        Root::Fn(
            "crates/experiments/src/transport_chaos.rs",
            "run_transport_chaos_with_plan",
        ),
        Root::Fn("crates/apps/src/churn.rs", "generate_schedule"),
        Root::Fn("crates/experiments/src/churn.rs", "run_sim_churn"),
        Root::Fn("crates/experiments/src/parallel.rs", "run_jobs"),
        Root::Fn("crates/experiments/src/figures.rs", "fig5"),
        Root::Fn("crates/experiments/src/figures.rs", "fig67"),
        Root::Fn("crates/experiments/src/figures.rs", "fig67_traced"),
        Root::Fn("crates/experiments/src/figures.rs", "fig8"),
        Root::Fn("crates/experiments/src/sweep.rs", "sweep_cpus_per_task"),
    ],
    allowlist: &[],
    root_label: "det root",
    allow_label: "nondeterminism",
    scope: "the sim/experiment roots",
};

/// The non-blocking roots: the deadline-watchdog scope and the
/// collector's pump loop. Nothing the watchdog waits on sleeps, joins
/// or waits on a channel, so the allowlist is empty.
pub const BLOCKING: Pass<'static> = Pass {
    id: "blocking",
    mask: Effect::BLOCK_SLEEP | Effect::BLOCK_CHAN | Effect::BLOCK_JOIN,
    roots: &[
        Root::Fn("crates/core/src/monitor.rs", "sample"),
        Root::Fn("crates/net/src/collector.rs", "pump_frames"),
    ],
    allowlist: &[],
    root_label: "watchdog root",
    allow_label: "blocking",
    scope: "a non-blocking root",
};

/// The audit's reachability passes.
pub const PASSES: [Pass<'static>; 4] = [PANIC_REACHABLE, HOT_PATH_ALLOC, NONDETERMINISM, BLOCKING];

/// Reviewed allocation sites reachable from the `_into` roots:
/// `(file_suffix, fn, token, why)`. Every entry is either an error /
/// fallback path that never runs on a healthy sample round, or a
/// deliberate cache in the chaos-injection layer.
pub const ALLOC_ALLOWLIST: [Allow; 25] = [
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
    // The round's prologue: the first `/proc/stat` is kept whole.
    (
        "crates/core/src/hwt.rs",
        "observe",
        "clone",
        "first round only; later rounds `clone_from` into the kept snapshot",
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
    // Watch birth: the list step adopts a child no watch holds, and a
    // live source names a new child only after `/proc/stat`'s
    // `processes` moved — the fork-clock gate; a quiet node's rounds
    // reuse the last answer and adopt nothing. The capacity-0 `Vec::new`s
    // allocate nothing until they grow.
    (
        "crates/core/src/round.rs",
        "adopt",
        "clone",
        "watch birth: fork-clock gate",
    ),
    (
        "crates/core/src/monitor.rs",
        "new",
        "clone",
        "watch birth: fork-clock gate",
    ),
    (
        "crates/core/src/monitor.rs",
        "new",
        "Vec::new",
        "watch birth: fork-clock gate",
    ),
    (
        "crates/core/src/lwp.rs",
        "with_capacity_and_period",
        "Vec::new",
        "watch birth: fork-clock gate",
    ),
    (
        "crates/procfs/src/linux.rs",
        "sweep",
        "Vec::new",
        "first listing of a pid only",
    ),
    // A kernel without `children` files: said once, never asked again.
    (
        "crates/procfs/src/linux.rs",
        "list_children_into",
        "format!",
        "error path only",
    ),
];

/// Whether the `.unwrap()`/`.expect(` at ident token `t` is chained
/// directly onto a `write!`/`writeln!` macro invocation.
fn is_write_chained(pf: &ParsedFile, t: usize) -> bool {
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

/// The panic site a call-graph site is, if any: a method-position
/// `.unwrap()`/`.expect(` not chained onto a `write!`, a `panic!`-family
/// macro, an index.
fn panic_site(pf: &ParsedFile, site: &Site) -> Option<EffectSite> {
    let token = match (site.kind, site.name.as_str()) {
        (SiteKind::Call, name @ ("unwrap" | "expect"))
            if site.method && !is_write_chained(pf, site.token) =>
        {
            name
        }
        (SiteKind::Macro, "panic" | "unreachable" | "todo" | "unimplemented") => "panic-macro",
        (SiteKind::Index, _) => "index",
        _ => return None,
    };
    Some(EffectSite {
        bit: Effect::PANIC,
        line: site.line,
        token: token.to_string(),
    })
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

/// Extracts the direct sites of every function in the graph: its
/// effect sites from the token stream, then its panic sites from the
/// call graph's call, macro and index sites.
pub fn effect_sites(graph: &CallGraph) -> Vec<Vec<EffectSite>> {
    let unordered: Vec<BTreeSet<String>> = graph.files.iter().map(unordered_bindings).collect();
    graph
        .fns
        .iter()
        .map(|node| {
            let pf = &graph.files[node.file_idx];
            let mut sites = body_effect_sites(pf, &node.item, &unordered[node.file_idx]);
            sites.extend(node.sites.iter().filter_map(|s| panic_site(pf, s)));
            sites
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

/// Runs one row of the table: resolves its roots, walks the call graph
/// from them, and reports every site of the row's mask in a reachable
/// function that the row's allowlist does not accept, then every
/// allowlist entry that accepted nothing. A named root that resolves to
/// no function, or a path that matches no file, is an
/// `unresolved-root` finding: a deleted or renamed root would otherwise
/// take its pass's scope with it, silently. Returns how many functions
/// are reachable.
pub fn reach_pass(
    graph: &CallGraph,
    sites: &[Vec<EffectSite>],
    pass: &Pass,
    findings: &mut Vec<Finding>,
) -> usize {
    let mut roots: Vec<usize> = Vec::new();
    for &root in pass.roots {
        let fns = 0..graph.fns.len();
        match root {
            Root::Fn(file, name) => {
                let found = graph.matching(file, name);
                if found.is_empty() {
                    findings.push(unresolved(
                        pass.root_label,
                        file,
                        name,
                        "resolves to no function",
                    ));
                }
                roots.extend(found);
            }
            Root::Path(prefix) => {
                if !graph.files.iter().any(|pf| pf.file.starts_with(prefix)) {
                    let list = format!("{} file", pass.root_label);
                    findings.push(unresolved(&list, prefix, "", "matches no file"));
                }
                roots.extend(fns.filter(|&i| graph.fns[i].item.file.starts_with(prefix)));
            }
            Root::Suffix(suffix) => {
                roots.extend(fns.filter(|&i| graph.fns[i].item.name.ends_with(suffix)));
            }
        }
    }
    let parents = graph.reach_from(&roots);
    let mut allow = Allowlist::new(pass.allow_label, pass.allowlist);
    let mut reachable = 0usize;
    for (fi, p) in parents.iter().enumerate() {
        if p.is_none() {
            continue;
        }
        reachable += 1;
        let node = &graph.fns[fi];
        for s in &sites[fi] {
            if s.bit & pass.mask == 0 {
                continue;
            }
            if allow.allows(&node.item.file, &node.item.name, &s.token) {
                continue;
            }
            let witness = graph.path_chain(&parents, fi);
            let kind = match s.bit {
                Effect::PANIC => String::new(),
                bit => format!("{} effect ", bit_name(bit)),
            };
            findings.push(Finding {
                pass: pass.id,
                file: node.item.file.clone(),
                line: s.line,
                func: node.item.name.clone(),
                token: s.token.clone(),
                detail: format!(
                    "{kind}`{}` in `{}` is reachable from {} via {}",
                    s.token,
                    node.item.name,
                    pass.scope,
                    witness.join(" -> ")
                ),
                witness,
            });
        }
    }
    allow.stale(findings);
    reachable
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::items::parse_file;
    use crate::audit::{audit_sources_cfg, AuditReport};

    fn graph(srcs: &[(&str, &str)]) -> CallGraph {
        CallGraph::build(srcs.iter().map(|(p, s)| parse_file(p, s)).collect())
    }

    fn run(srcs: &[(&str, &str)], passes: &[Pass]) -> AuditReport {
        let sources: Vec<(String, String)> = srcs
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        audit_sources_cfg(&sources, passes, &[])
    }

    /// A one-row table: the shipped row `pass` with `roots` and
    /// `allowlist` in place of its own.
    fn rooted<'a>(pass: Pass, roots: &'a [Root<'a>], allowlist: &'a [Allow<'a>]) -> [Pass<'a>; 1] {
        [Pass {
            roots,
            allowlist,
            ..pass
        }]
    }

    const INTO: [Root; 1] = [Root::Suffix("_into")];

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
            &rooted(HOT_PATH_ALLOC, &INTO, &[]),
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
        let cfg = rooted(NONDETERMINISM, &[Root::Fn("a.rs", "run_sim")], &[]);
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
        let cfg = rooted(BLOCKING, &[Root::Fn("a.rs", "sample_inner")], &[]);
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
        let cfg = rooted(HOT_PATH_ALLOC, &INTO, &allow);
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
        let cfg = rooted(BLOCKING, &[Root::Fn("a.rs", "sample_inner")], &allow);
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
        let cfg = rooted(BLOCKING, &[Root::Fn("a.rs", "sample_inner")], &[]);
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

    const ROOT: [Root; 1] = [Root::Fn("a.rs", "root")];

    #[test]
    fn reachable_unwrap_is_flagged_unreachable_is_not() {
        let pa = run(
            &[(
                "a.rs",
                "\
fn root(x: Option<u32>) { step(x); }
fn step(x: Option<u32>) -> u32 { x.unwrap() }
fn island(x: Option<u32>) -> u32 { x.unwrap() }
",
            )],
            &rooted(PANIC_REACHABLE, &ROOT, &[]),
        );
        assert_eq!(pa.findings.len(), 1, "{:?}", pa.findings);
        assert_eq!(pa.findings[0].func, "step");
        assert!(pa.findings[0].detail.contains("root -> step"));
    }

    #[test]
    fn write_chained_unwrap_is_auto_allowed() {
        let pa = run(
            &[(
                "a.rs",
                "\
fn root(out: &mut String) {
    writeln!(out, \"header {}\", 1).unwrap();
    write!(out, \"x\").unwrap();
    std::fs::read(\"f\").unwrap();
}
",
            )],
            &rooted(PANIC_REACHABLE, &ROOT, &[]),
        );
        assert_eq!(pa.findings.len(), 1, "{:?}", pa.findings);
        assert_eq!(pa.findings[0].line, 4);
    }

    #[test]
    fn panic_macros_and_indexes_count() {
        let pa = run(
            &[(
                "a.rs",
                "fn root(v: &[u32]) -> u32 { if v.is_empty() { panic!(\"empty\") } v[0] }",
            )],
            &rooted(PANIC_REACHABLE, &ROOT, &[]),
        );
        let kinds: Vec<&str> = pa.findings.iter().map(|f| f.token.as_str()).collect();
        assert!(kinds.contains(&"panic-macro"));
        assert!(kinds.contains(&"index"));
    }

    #[test]
    fn panic_allowlist_suppresses_and_stale_entries_fail() {
        let allow = [
            ("a.rs", "root", "unwrap", "covered by caller check"),
            ("a.rs", "gone_fn", "unwrap", "this entry is stale"),
        ];
        let pa = run(
            &[("a.rs", "fn root(x: Option<u32>) -> u32 { x.unwrap() }")],
            &rooted(PANIC_REACHABLE, &ROOT, &allow),
        );
        assert_eq!(pa.findings.len(), 1, "{:?}", pa.findings);
        assert_eq!(pa.findings[0].pass, "stale-allowlist");
        assert_eq!(pa.findings[0].func, "gone_fn");
    }

    #[test]
    fn a_root_that_names_no_fn_is_a_finding() {
        let g = graph(&[("a.rs", "fn root(x: Option<u32>) -> u32 { x.unwrap() }")]);
        let roots = [ROOT[0], Root::Fn("a.rs", "renamed_away")];
        let [pass] = rooted(PANIC_REACHABLE, &roots, &[]);
        let mut findings = Vec::new();
        reach_pass(&g, &effect_sites(&g), &pass, &mut findings);
        let pa = AuditReport {
            findings,
            stats: Default::default(),
        };
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
