//! Interprocedural effect analysis.
//!
//! Extracts a per-function *direct effect set* — allocation,
//! wall-clock reads, ambient entropy/thread-id reads, unordered-map
//! iteration, and blocking (sleep, channel ops, file IO, thread join,
//! `/proc` reads) — from the shared token stream, propagates it to a
//! fixpoint over the workspace call graph, and drives three passes off
//! the summaries:
//!
//! * **hot-path-alloc** — any allocation effect reachable from the
//!   `_into` sampling-round roots fails. This turns the zero-alloc
//!   sampling discipline (DESIGN.md §4) into a CI-enforced
//!   *reachability* property: a `format!` three calls below a
//!   `task_stat_into` is caught.
//! * **nondeterminism** — wall-clock, entropy, and unordered-iteration
//!   effects reachable from the sim/experiment roots, statically
//!   protecting the bit-identical survivor-equality differentials.
//! * **blocking** — the one "don't block here" pass, over two kinds of
//!   scope: the non-blocking roots (the deadline-watchdog scope of
//!   `Monitor::sample` and the two pump loops, `shard_loop` and
//!   `Collector::pump_frames`), where a sleep, channel op or join
//!   stalls a round somebody is waiting on; and every held range of a
//!   lock, where those and file IO and `/proc` reads turn the lock
//!   into a convoy. One allowlist holds every reviewed site.
//!
//! The summary domain is a bitset lattice ([`EffectSet`]) ordered by
//! inclusion; propagation is monotone (a step only ORs bits in), so the
//! fixpoint exists and terminates on recursive/cyclic SCCs — each of
//! the `n` summaries can grow at most 9 times. Every finding carries a
//! **witness trace**: the shortest root→site call chain recovered from
//! the BFS parent map (surfaced by `zerosum audit --explain`).

use super::callgraph::{CallGraph, SiteKind};
use super::items::{FnItem, ParsedFile};
use super::lexer::TokKind;
use super::locks::{is_sanitizer_impl, LockAnalysis};
use super::rules::PROC_READS;
use super::{Allow, Allowlist, Finding};
use std::collections::BTreeSet;

/// A set of effects: a bitmask lattice ordered by inclusion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EffectSet(pub u16);

impl EffectSet {
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
    /// File IO (`File::open`, `fs::read_to_string`, `.read_to_string(`).
    pub const BLOCK_IO: u16 = 1 << 6;
    /// `.join()` on a thread handle.
    pub const BLOCK_JOIN: u16 = 1 << 7;
    /// A `ProcSource` read ([`PROC_READS`]): a stalled `/proc` (§3.1)
    /// must never extend a critical section other threads wait on.
    pub const PROC_READ: u16 = 1 << 8;

    /// The empty set (lattice bottom).
    pub const fn empty() -> EffectSet {
        EffectSet(0)
    }

    /// Least upper bound.
    pub fn union(self, other: EffectSet) -> EffectSet {
        EffectSet(self.0 | other.0)
    }

    /// Whether any bit of `mask` is present.
    pub fn intersects(self, mask: u16) -> bool {
        self.0 & mask != 0
    }

    /// Inclusion order: `self ⊆ other`.
    pub fn le(self, other: EffectSet) -> bool {
        self.0 & other.0 == self.0
    }
}

/// Effects the determinism pass polices.
pub const DET_MASK: u16 = EffectSet::WALL_CLOCK | EffectSet::AMBIENT | EffectSet::UNORDERED_ITER;
/// Effects the blocking pass polices under its non-blocking roots.
/// File IO and `/proc` reads are excluded deliberately: they *are* the
/// measured work of a sampling round, and stalls there are the
/// watchdog's own job.
pub const WATCHDOG_MASK: u16 =
    EffectSet::BLOCK_SLEEP | EffectSet::BLOCK_CHAN | EffectSet::BLOCK_JOIN;
/// Effects the blocking pass polices while a lock is held: everything
/// that can park the holder. Nested locks are the cycle pass's domain.
pub const HELD_MASK: u16 = WATCHDOG_MASK | EffectSet::BLOCK_IO | EffectSet::PROC_READ;

/// One direct effect site inside a function body.
#[derive(Debug, Clone)]
pub struct EffectSite {
    /// Which effect (a single [`EffectSet`] bit).
    pub bit: u16,
    /// Token index in the owning file's stream.
    pub tok: usize,
    /// 1-based source line.
    pub line: usize,
    /// Stable site token (`clone`, `format!`, `Vec::new`,
    /// `Instant::now`, `states.values`, `thread::sleep`, …) — part of
    /// the baseline key.
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
    /// Reviewed blocking findings (under a root or under a lock).
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
    // The round and its pump run every period on every shard;
    // allocation there is contention by another name. (`round` reaches
    // the pump only through its `trip` closure, which the graph cannot
    // see, so the pump is a root of its own.)
    hot_roots: &[
        ("crates/core/src/shard.rs", "process_batch"),
        ("crates/core/src/shard.rs", "round"),
    ],
    alloc_allowlist: &DEFAULT_ALLOC_ALLOWLIST,
    det_root_prefixes: &["crates/sched/src/"],
    det_roots: &[
        ("crates/experiments/src/tables.rs", "run_table"),
        ("crates/experiments/src/tables.rs", "run_table_configured"),
        ("crates/experiments/src/tables.rs", "run_table_traced"),
        ("crates/experiments/src/tables.rs", "run_table_chaos"),
        (
            "crates/experiments/src/cluster_chaos.rs",
            "run_cluster_chaos",
        ),
        (
            "crates/experiments/src/cluster_chaos.rs",
            "run_cluster_chaos_with_plan",
        ),
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
        ("crates/core/src/shard.rs", "shard_loop"),
        ("crates/net/src/collector.rs", "pump_frames"),
    ],
    blocking_allowlist: &DEFAULT_BLOCKING_ALLOWLIST,
};

/// Reviewed allocation sites reachable from the `_into` roots:
/// `(file_suffix, fn, token, why)`. Every entry is either an error /
/// fallback path that never runs on a healthy sample round, or a
/// deliberate cache in the chaos-injection layer.
pub const DEFAULT_ALLOC_ALLOWLIST: [Allow; 27] = [
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
    (
        "crates/procfs/src/fault.rs",
        "system_stat_into",
        "clone",
        "last-good cache, chaos layer",
    ),
    (
        "crates/procfs/src/fault.rs",
        "list_tasks_into",
        "clone",
        "last-good cache, chaos layer",
    ),
    (
        "crates/procfs/src/fault.rs",
        "task_stat_text",
        "to_owned",
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
    // The cluster-chaos sim materializes fresh proc views per step by
    // design — it models a remote node, not the in-process hot path.
    (
        "crates/analyze/src/cluster_chaos.rs",
        "list_tasks",
        "vec!",
        "sim materializes views",
    ),
    (
        "crates/analyze/src/cluster_chaos.rs",
        "task_stat",
        "to_string",
        "sim materializes views",
    ),
    (
        "crates/analyze/src/cluster_chaos.rs",
        "task_status",
        "to_string",
        "sim materializes views",
    ),
    // Round roots (`process_batch`/`round`): the parsers and the batch
    // body only allocate when a read or parse fails — message
    // formatting off the healthy path.
    (
        "crates/procfs/src/parse.rs",
        "schedstat",
        "format!",
        "parse-error path only",
    ),
    (
        "crates/core/src/shard.rs",
        "run_batch",
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
    // whole, a watch's list slot is made once, and a snapshot is built
    // only while somebody subscribes to the feed.
    (
        "crates/core/src/hwt.rs",
        "observe",
        "clone",
        "first round only; later rounds `clone_from` into the kept snapshot",
    ),
    (
        "crates/core/src/shard.rs",
        "default",
        "Vec::new",
        "capacity-0, and a list slot is made once per watch, not per round",
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

/// Reviewed blocking findings: `(file_suffix, fn, token, why)`. Under a
/// non-blocking root the token is the effect; under a lock it is
/// `lock:effect`, the effect being the nearest blocking site the held
/// call reaches — for a `sample` call the round's first `/proc` read,
/// the listing in `run_batch`.
pub const DEFAULT_BLOCKING_ALLOWLIST: [Allow; 4] = [
    (
        "crates/core/src/attach.rs",
        "start_with",
        "core.attach.monitor:list_tasks_into",
        "the monitor thread owns the monitor lock for the whole sampling round by design; \
         the only contenders (with_monitor, stop) are steering/shutdown paths",
    ),
    (
        "crates/core/src/attach.rs",
        "stop",
        "core.attach.monitor:list_tasks_into",
        "final sample after the sampler thread has been joined; the lock is uncontended",
    ),
    (
        "crates/analyze/src/chaos.rs",
        "abnormal_exit_drill",
        "analyze.chaos.flush_monitor:fs::create_dir_all",
        "drill-only crash flush; single-threaded harness, no contention",
    ),
    (
        "crates/core/src/shard.rs",
        "shard_loop",
        "thread::park",
        "idle wait by design; the driver unparks the pump on every dispatch and at shutdown",
    ),
];

/// The result of the effect pass.
pub struct EffectAnalysis {
    /// Findings across the three passes plus stale-allowlist entries.
    pub findings: Vec<Finding>,
    /// Fixpoint summaries, indexed like `graph.fns`.
    pub summaries: Vec<EffectSet>,
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

/// `std::fs` free functions that hit the filesystem.
const FS_OPS: [&str; 10] = [
    "read_to_string",
    "read",
    "read_dir",
    "write",
    "create_dir_all",
    "remove_file",
    "remove_dir_all",
    "rename",
    "copy",
    "metadata",
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
    let mut push = |bit: u16, tok: usize, line: usize, token: String| {
        out.push(EffectSite {
            bit,
            tok,
            line,
            token,
        });
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
                push(EffectSet::ALLOC, t, line, format!("{name}!"));
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
                push(EffectSet::ALLOC, t, line, name.to_string());
            } else if name == "collect" && call_open(pf, t) {
                push(EffectSet::ALLOC, t, line, "collect".into());
            } else if name == "join" && pf.is_punct(t + 1, '(') {
                if pf.is_punct(t + 2, ')') {
                    push(EffectSet::BLOCK_JOIN, t, line, "join".into());
                } else {
                    // `path.join(seg)` / `slice.join(sep)` allocate.
                    push(EffectSet::ALLOC, t, line, "join".into());
                }
            } else if matches!(name, "recv" | "recv_timeout" | "send")
                && pf.is_punct(t + 1, '(')
                && !own_method(pf, item, t)
            {
                push(EffectSet::BLOCK_CHAN, t, line, name.to_string());
            } else if PROC_READS.contains(&name) && pf.is_punct(t + 1, '(') {
                push(EffectSet::PROC_READ, t, line, name.to_string());
            } else if matches!(name, "read_to_string" | "read_line" | "sync_all")
                && pf.is_punct(t + 1, '(')
            {
                push(EffectSet::BLOCK_IO, t, line, name.to_string());
            } else if ITER_METHODS.contains(&name)
                && pf.is_punct(t + 1, '(')
                && t >= 2
                && pf.tokens[t - 2].kind == TokKind::Ident
            {
                let recv = pf.text(t - 2);
                if unordered.contains(recv) {
                    push(EffectSet::UNORDERED_ITER, t, line, format!("{recv}.{name}"));
                }
            }
        } else if let Some(q) = path_q {
            match (q, name) {
                ("Instant" | "SystemTime", "now") => {
                    push(EffectSet::WALL_CLOCK, t, line, format!("{q}::now"));
                }
                ("File", "open" | "create") if pf.is_punct(t + 1, '(') => {
                    push(EffectSet::BLOCK_IO, t, line, format!("File::{name}"));
                }
                ("fs", op) if FS_OPS.contains(&op) && pf.is_punct(t + 1, '(') => {
                    push(EffectSet::BLOCK_IO, t, line, format!("fs::{name}"));
                }
                ("thread", "sleep" | "park" | "park_timeout") if pf.is_punct(t + 1, '(') => {
                    push(EffectSet::BLOCK_SLEEP, t, line, format!("thread::{name}"));
                }
                ("thread", "current") => {
                    push(EffectSet::AMBIENT, t, line, "thread::current".into());
                }
                ("process", "id") => {
                    push(EffectSet::AMBIENT, t, line, "process::id".into());
                }
                ("RandomState", "new") => {
                    push(EffectSet::AMBIENT, t, line, "RandomState::new".into());
                }
                (owner, "new" | "with_capacity" | "from")
                    if ALLOC_TYPES.contains(&owner) && call_open(pf, t) =>
                {
                    push(EffectSet::ALLOC, t, line, format!("{q}::{name}"));
                }
                _ => {}
            }
        }
        if matches!(name, "thread_rng" | "from_entropy") && pf.is_punct(t + 1, '(') {
            push(EffectSet::AMBIENT, t, line, name.to_string());
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
                                EffectSet::UNORDERED_ITER,
                                t,
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

/// Extracts direct effect sites for every function in the graph. The
/// sanitizer implementation files are skipped, consistent with the lock
/// pass: their thread-id bookkeeping is the *mechanism* of the runtime
/// sanitizer, not an effect of the code under audit.
pub fn effect_sites(graph: &CallGraph) -> Vec<Vec<EffectSite>> {
    let unordered: Vec<BTreeSet<String>> = graph.files.iter().map(unordered_bindings).collect();
    graph
        .fns
        .iter()
        .map(|node| {
            if is_sanitizer_impl(&node.item.file) {
                return Vec::new();
            }
            let pf = &graph.files[node.file_idx];
            body_effect_sites(pf, &node.item, &unordered[node.file_idx])
        })
        .collect()
}

/// Propagates direct effects to a fixpoint over an explicit callee
/// list. Exposed for the monotonicity/fixpoint property tests.
pub fn propagate_over(callees: &[Vec<usize>], direct: &[EffectSet]) -> Vec<EffectSet> {
    let mut eff: Vec<EffectSet> = direct.to_vec();
    loop {
        let mut changed = false;
        for (i, cs) in callees.iter().enumerate() {
            let mut acc = eff[i];
            for &c in cs {
                acc = acc.union(eff[c]);
            }
            if acc != eff[i] {
                eff[i] = acc;
                changed = true;
            }
        }
        if !changed {
            return eff;
        }
    }
}

/// Propagates direct effects to a fixpoint over the call graph.
pub fn propagate(graph: &CallGraph, direct: &[EffectSet]) -> Vec<EffectSet> {
    let callees: Vec<Vec<usize>> = graph.fns.iter().map(|f| f.callees.clone()).collect();
    propagate_over(&callees, direct)
}

/// Names of the effect bits in `mask`, for human-readable details.
pub fn bit_name(bit: u16) -> &'static str {
    match bit {
        EffectSet::ALLOC => "alloc",
        EffectSet::WALL_CLOCK => "wall-clock",
        EffectSet::AMBIENT => "ambient",
        EffectSet::UNORDERED_ITER => "unordered-iter",
        EffectSet::BLOCK_SLEEP => "sleep",
        EffectSet::BLOCK_CHAN => "channel",
        EffectSet::BLOCK_IO => "file-io",
        EffectSet::BLOCK_JOIN => "join",
        EffectSet::PROC_READ => "proc-read",
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

/// Runs the effect passes over a built call graph, reusing the lock
/// pass's acquisitions for held ranges.
pub fn analyze_effects(graph: &CallGraph, la: &LockAnalysis, cfg: &EffectConfig) -> EffectAnalysis {
    let sites = effect_sites(graph);
    let direct: Vec<EffectSet> = sites
        .iter()
        .map(|v| {
            v.iter()
                .fold(EffectSet::empty(), |acc, s| acc.union(EffectSet(s.bit)))
        })
        .collect();
    let summaries = propagate(graph, &direct);
    let mut findings: Vec<Finding> = Vec::new();

    // Pass 1: hot-path allocation.
    let mut hot_roots: Vec<usize> = Vec::new();
    if !cfg.hot_root_suffix.is_empty() {
        hot_roots.extend(
            (0..graph.fns.len()).filter(|&i| graph.fns[i].item.name.ends_with(cfg.hot_root_suffix)),
        );
    }
    for (file, name) in cfg.hot_roots {
        hot_roots.extend(graph.matching(file, name));
    }
    let mut allow = Allowlist::new("hot-path-alloc", cfg.alloc_allowlist);
    let hot_reachable = reach_pass(
        graph,
        &sites,
        &hot_roots,
        EffectSet::ALLOC,
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
    for (file, name) in cfg.det_roots {
        det_roots.extend(graph.matching(file, name));
    }
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

    blocking_pass(graph, la, &sites, &summaries, cfg, &mut findings);

    EffectAnalysis {
        findings,
        summaries,
        sites: sites.iter().map(Vec::len).sum(),
        hot_reachable,
        det_reachable,
    }
}

/// The blocking pass: [`WATCHDOG_MASK`] effects reachable from the
/// non-blocking roots, and [`HELD_MASK`] effects inside a lock's held
/// range (the lock pass's acquisitions), direct or through a callee.
/// A held-range finding's token is `lock:effect`.
fn blocking_pass(
    graph: &CallGraph,
    la: &LockAnalysis,
    sites: &[Vec<EffectSite>],
    summaries: &[EffectSet],
    cfg: &EffectConfig,
    findings: &mut Vec<Finding>,
) {
    // Scope 1: under the non-blocking roots.
    let mut wd_roots: Vec<usize> = Vec::new();
    for (file, name) in cfg.watchdog_roots {
        wd_roots.extend(graph.matching(file, name));
    }
    let mut blocking = Allowlist::new("blocking", cfg.blocking_allowlist);
    reach_pass(
        graph,
        sites,
        &wd_roots,
        WATCHDOG_MASK,
        "blocking",
        "a non-blocking root",
        &mut blocking,
        findings,
    );

    // Scope 2: while a lock is held. Direct sites inside the held
    // range, plus calls whose callee summaries carry a blocking bit —
    // witnessed down to the nearest function with a direct site.
    for a in &la.acquisitions {
        let node = &graph.fns[a.fn_idx];
        let pf = &graph.files[node.file_idx];
        let range = (a.token + 1)..a.held_until;
        for s in &sites[a.fn_idx] {
            if s.bit & HELD_MASK == 0 || !range.contains(&s.tok) {
                continue;
            }
            let token = format!("{}:{}", a.lock, s.token);
            if blocking.allows(&node.item.file, &node.item.name, &token) {
                continue;
            }
            findings.push(Finding {
                pass: "blocking",
                file: node.item.file.clone(),
                line: s.line,
                func: node.item.name.clone(),
                token,
                detail: format!(
                    "lock `{}` (acquired {}:{}) is held across {} effect `{}`",
                    a.lock,
                    node.item.file,
                    a.line,
                    bit_name(s.bit),
                    s.token
                ),
                witness: vec![node.item.name.clone()],
            });
        }
        for site in &node.sites {
            if site.kind != SiteKind::Call || !range.contains(&site.token) {
                continue;
            }
            if site.token == a.token {
                continue;
            }
            let carried: Vec<usize> = graph
                .resolve_site(node.file_idx, site)
                .into_iter()
                .filter(|&c| summaries[c].intersects(HELD_MASK))
                .collect();
            if carried.is_empty() {
                continue;
            }
            // Shortest witness into the callee cone: the nearest fn
            // with a direct blocking site.
            let parents = graph.reach_from(&carried);
            let mut best: Option<(usize, Vec<String>, &EffectSite)> = None;
            for (fi2, p) in parents.iter().enumerate() {
                if p.is_none() {
                    continue;
                }
                for s in &sites[fi2] {
                    if s.bit & HELD_MASK == 0 {
                        continue;
                    }
                    let chain = graph.path_chain(&parents, fi2);
                    let better = match &best {
                        None => true,
                        Some((len, c, _)) => (chain.len(), &chain) < (*len, c),
                    };
                    if better {
                        best = Some((chain.len(), chain, s));
                    }
                }
            }
            let Some((_, chain, bs)) = best else { continue };
            let token = format!("{}:{}", a.lock, bs.token);
            if blocking.allows(&node.item.file, &node.item.name, &token) {
                continue;
            }
            let mut witness = vec![node.item.name.clone()];
            witness.extend(chain.iter().cloned());
            findings.push(Finding {
                pass: "blocking",
                file: node.item.file.clone(),
                line: pf.tokens[site.token].line,
                func: node.item.name.clone(),
                token,
                detail: format!(
                    "lock `{}` (acquired {}:{}) is held across call to `{}` which may reach \
                     {} effect `{}` via {}",
                    a.lock,
                    node.item.file,
                    a.line,
                    site.name,
                    bit_name(bs.bit),
                    bs.token,
                    witness.join(" -> ")
                ),
                witness,
            });
        }
    }
    blocking.stale(findings);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::items::parse_file;
    use crate::audit::locks::analyze_locks;

    fn graph(srcs: &[(&str, &str)]) -> CallGraph {
        CallGraph::build(srcs.iter().map(|(p, s)| parse_file(p, s)).collect())
    }

    fn run(srcs: &[(&str, &str)], cfg: &EffectConfig) -> EffectAnalysis {
        let g = graph(srcs);
        let la = analyze_locks(&g);
        analyze_effects(&g, &la, cfg)
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
    let text = fs::read_to_string(p);
    handle.join();
    let label = format!(\"x{}\", 1);
    let mem = src.meminfo();
}
",
        )]);
        let sites = effect_sites(&g);
        let bits: Vec<u16> = sites[0].iter().map(|s| s.bit).collect();
        for expect in [
            EffectSet::ALLOC,
            EffectSet::WALL_CLOCK,
            EffectSet::AMBIENT,
            EffectSet::UNORDERED_ITER,
            EffectSet::BLOCK_SLEEP,
            EffectSet::BLOCK_CHAN,
            EffectSet::BLOCK_IO,
            EffectSet::BLOCK_JOIN,
            EffectSet::PROC_READ,
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
            .filter(|s| s.bit == EffectSet::UNORDERED_ITER)
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
    fn blocking_under_lock_direct_and_via_callee() {
        let ea = run(
            &[(
                "a.rs",
                "\
fn direct(x: &M) {
    let g = x.alpha.lock();
    thread::sleep(d);
}
fn outer(x: &M) {
    let g = x.beta.lock();
    helper();
}
fn helper() { let s = fs::read_to_string(p); }
fn fine(x: &M) {
    x.alpha.lock().push(1);
    thread::sleep(d);
}
",
            )],
            &EffectConfig::empty(),
        );
        let blocking: Vec<&Finding> = ea
            .findings
            .iter()
            .filter(|f| f.pass == "blocking")
            .collect();
        assert!(
            blocking
                .iter()
                .any(|f| f.func == "direct" && f.token == "alpha:thread::sleep"),
            "{blocking:?}"
        );
        let via = blocking
            .iter()
            .find(|f| f.func == "outer")
            .expect("callee-carried finding");
        assert_eq!(via.token, "beta:fs::read_to_string");
        assert_eq!(via.witness, vec!["outer", "helper"]);
        assert!(!blocking.iter().any(|f| f.func == "fine"), "{blocking:?}");
    }

    #[test]
    fn lock_held_across_channel_op_and_proc_read_is_flagged() {
        let ea = run(
            &[(
                "a.rs",
                "\
fn bad_chan(x: &M, tx: &Sender<u32>) {
    let g = x.alpha.lock();
    tx.send(1);
}
fn bad_proc(x: &M, src: &dyn ProcSource) {
    let g = x.alpha.lock();
    let s = src.task_stat(1, 1);
}
fn fine(x: &M, tx: &Sender<u32>) {
    x.alpha.lock().push(1);
    tx.send(1);
}
",
            )],
            &EffectConfig::empty(),
        );
        let got: Vec<(&str, &str)> = ea
            .findings
            .iter()
            .map(|f| (f.func.as_str(), f.token.as_str()))
            .collect();
        assert_eq!(
            got,
            [("bad_chan", "alpha:send"), ("bad_proc", "alpha:task_stat")]
        );
    }

    #[test]
    fn blocking_allowlist_accepts_a_held_site_and_a_stale_row_fails() {
        let allow = [
            ("a.rs", "held", "alpha:meminfo", "reviewed"),
            ("a.rs", "gone", "alpha:meminfo", "names no site"),
        ];
        let cfg = EffectConfig {
            blocking_allowlist: &allow,
            ..EffectConfig::empty()
        };
        let ea = run(
            &[(
                "a.rs",
                "fn held(x: &M, src: &dyn ProcSource) { let g = x.alpha.lock(); src.meminfo(); }",
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
                "fn run_into(b: &B) { leaf(b); }\nfn leaf(b: &B) { let c = b.clone(); }\n",
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
    fn fixpoint_terminates_on_self_and_mutual_recursion() {
        let g = graph(&[(
            "a.rs",
            "\
fn selfrec(n: u32) { if n > 0 { selfrec(n - 1); } let s = x.to_string(); }
fn ping(n: u32) { pong(n); }
fn pong(n: u32) { if n > 0 { ping(n - 1); } thread::sleep(d); }
",
        )]);
        let sites = effect_sites(&g);
        let direct: Vec<EffectSet> = sites
            .iter()
            .map(|v| {
                v.iter()
                    .fold(EffectSet::empty(), |a, s| a.union(EffectSet(s.bit)))
            })
            .collect();
        let summ = propagate(&g, &direct);
        let idx = |n: &str| g.matching("a.rs", n)[0];
        assert!(summ[idx("selfrec")].intersects(EffectSet::ALLOC));
        // Mutual recursion: both sides end up with the sleep bit.
        assert!(summ[idx("ping")].intersects(EffectSet::BLOCK_SLEEP));
        assert!(summ[idx("pong")].intersects(EffectSet::BLOCK_SLEEP));
    }

    #[test]
    fn propagation_is_monotone_under_edge_addition() {
        // Deterministic LCG so the test is reproducible.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % bound
        };
        for _trial in 0..50 {
            let n = 2 + next(10);
            let mut callees: Vec<Vec<usize>> = (0..n)
                .map(|_| (0..next(4)).map(|_| next(n)).collect())
                .collect();
            let direct: Vec<EffectSet> = (0..n).map(|_| EffectSet((next(512)) as u16)).collect();
            let before = propagate_over(&callees, &direct);
            // Add one random edge; every summary must only grow.
            callees[next(n)].push(next(n));
            let after = propagate_over(&callees, &direct);
            for i in 0..n {
                assert!(
                    before[i].le(after[i]),
                    "summary shrank at {i}: {:?} -> {:?}",
                    before[i],
                    after[i]
                );
            }
            // Idempotence: propagating a fixpoint changes nothing.
            let again = propagate_over(&callees, &after);
            assert_eq!(again, after);
        }
    }
}
