#!/usr/bin/env bash
# The kill table behind MUTANTS.md: one-line mutants of PRODUCT code,
# each a bug class this repo has had or a claim the paper makes, run
# against every check the repo has — rustc, clippy -D warnings, each
# `cargo test` binary, each `zerosum audit` pass, each command stage of
# scripts/ci.sh — so that a check can be asked which
# mutant it alone kills. A study, rerun at re-anchors; NOT a CI stage
# (one mutant is two rebuilds and every suite: ~4 min here).
#
# Each row also names the MECHANISM behind its kills (MUTANTS.md §3):
# `shipped_tree_audits_clean` (test fixtures) and `zerosum audit
# --explain` (test subcommands) fail because an audit pass fired, so
# when a pass fired and those are the only failed tests of their
# binary, that binary's kill is the pass's and leaves the column.
#
#   scripts/mutants.sh [--tree DIR] [--out FILE] [--only NAME]...
#                      [--stage 'NAME=COMMAND']... [--pass NAME]...
#
# --tree   the tree to mutate (default: this repo). It is COPIED, without
#          target/, into a temp dir that gets its own CARGO_TARGET_DIR: a
#          `cp -r` of a built tree carries fingerprints newer than the
#          copied sources and cargo then reuses stale binaries.
# --out    where the markdown table goes (default: stdout).
# --only   run only the named mutant(s).
# --stage  one more command stage (run in the copy, `$ZS` is the release
#          binary, `$LOGS` the mutant's log dir; non-zero exit = killed).
# --pass   one more `zerosum audit` pass name to list. These two are how
#          the "before" table of a deletion PR gets rows for the checks
#          it deletes.
#
# A mutant whose pattern no longer matches stops the run: the table is
# only worth reading if every row was really planted. rustfmt is not a
# column (mutants are not formatted), and the wall-clock `--agree`
# table of CI's last stage is not one either: its workloads run short
# here and only their own output checks count.
set -euo pipefail

tree="$(cd "$(dirname "$0")/.." && pwd)"
out=/dev/stdout
only=()
extra_stages=()
extra_passes=()
while [ $# -gt 0 ]; do
    case "$1" in
        --tree) tree="$(cd "$2" && pwd)"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        --only) only+=("$2"); shift 2 ;;
        --stage) extra_stages+=("$2"); shift 2 ;;
        --pass) extra_passes+=("$2"); shift 2 ;;
        *) echo "mutants.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

work="$(mktemp -d "${TMPDIR:-/tmp}/zsmutants.XXXXXX")"
trap 'rm -rf "$work"' EXIT
mkdir "$work/src"
tar -C "$tree" --exclude=./target --exclude=./benchmark/target --exclude=./benchmark/out \
    --exclude=./.git -cf - . | tar -C "$work/src" -xf -
export CARGO_TARGET_DIR="$work/target"
export ZS="$CARGO_TARGET_DIR/release/zerosum"
cd "$work/src"

# name ~ file ~ perl substitution (applied with -0, so \n matches) ~ bug class
mutants=(
'agent-receiver-dropped~crates/cli/src/lib.rs~s/agent_thread\(a, rx, /agent_thread(a, sync_channel(1).1, /~a `sync_channel` receiver bound and never used (the wrapper'"'"'s agent thread gets a dead one and returns at once: no round and no aggregate reach the collector)'
'sleep-in-pump-frames~crates/net/src/collector.rs~s/(let period_s = self\.cfg\.period_s;)/std::thread::sleep(std::time::Duration::from_micros(50)); $1/~`thread::sleep` in `Collector::pump_frames`'
'sleep-in-run-batch~crates/core/src/round.rs~s/(\) -> Outcome \{)/$1 std::thread::sleep(std::time::Duration::from_micros(50));/~`thread::sleep` inside the sampling round (`read_task`)'
'sched-double-dispatch~crates/sched/src/node.rs~s/let id = self\.cpus\[dpos\]\.runqueue\.remove\(rq_idx\)\.expect\("steal idx"\);/let id = *self.cpus[dpos].runqueue.get(rq_idx).expect("steal idx");/~a stolen task stays on the donor runqueue: dispatched while already running'
'sched-charge-wrong-cpu~crates/sched/src/node.rs~s/(finished = \*remaining_us <= 0\.0;\n\s+\}\n\s+)self\.cpus\[pos\]\.user_us \+= tick;/$1let n = self.cpus.len(); self.cpus[(pos + 1) % n].user_us += tick;/~a compute jiffy charged to the neighbouring CPU'
'sibling-sync-skipped~crates/sched/src/node.rs~s/(if let Some\(s\) = sib \{\n\s+)self\.catch_up\(s\);/$1let _ = s;/~the speed of an SMT sibling changes without catching it up first: its owed ticks run at the new speed'
'release-seen-same-tick-everywhere~crates/sched/src/node.rs~s/self\.spinners\(pid, bar, generation, Self::catch_up\);/let c = std::mem::take(\&mut self.cursor); self.spinners(pid, bar, generation, Self::catch_up); self.cursor = c;/~a barrier release ignores the position order: a spinner below the releasing CPU sees it in the same tick'
'sched-preempt-not-traced~crates/sched/src/node.rs~s/self\.emit\(\|\| TraceEvent::Preempt \{ tid, cpu \}\);/let _ = (tid, cpu);/~a preemption that leaves no `Preempt` event'
'utime-stime-swapped~crates/core/src/lwp.rs~s/self\.delta_per_period\(\|s\| s\.stime\)/self.delta_per_period(|s| s.utime)/~the `stime` column computed from `utime` deltas'
'starttime-check-dropped~crates/core/src/lwp.rs~s/if old\.starttime != stat\.starttime \{/if old.starttime > stat.starttime {/~the pid-reuse guard never fires (a recycled tid always starts later)'
'tick-flush-skipped~crates/net/src/tcp.rs~s/fn tick\(&mut self\) \{\n\s+self\.flush\(\);\n\s+\}/fn tick(&mut self) {}/~`TcpLink::tick` no longer flushes what the tick queued'
'wire-skew-ignored~crates/net/src/collector.rs~s/heartbeat_at\(host, t_s, expected\)/heartbeat_at(host, { let _ = t_s; expected }, expected)/~the collector judges each heartbeat by the expected time instead of the `t_s` it reports: a skewed node is never flagged'
'aggregate-folded-twice~crates/core/src/cluster.rs~s/(pub fn aggregates\(&self\) -> Vec<NodeAggregate> \{\n\s+self\.nodes\n\s+\.iter\(\))/$1.chain(self.nodes.first())/~the first node is aggregated twice into the allocation view'
'degraded-flag-lost~crates/core/src/health.rs~s/Some\(_\) => ledger\.degraded \+= 1,/Some(_) => {}/~an interpolated sample is not counted `degraded`'
'alloc-in-round~crates/core/src/round.rs~s/(let shed = round_begin\(mon, t_s, src\);)/let _why = format!("round at {t_s}"); $1/~an allocation in `round::round`, every round'
'unwrap-in-fold-reads~crates/core/src/round.rs~s/(fn sample_watches\([^)]*\) \{)/$1 let _first = mon.processes.first().unwrap();/~an `unwrap()` in the fold (`sample_watches`)'
'departed-row-kept~crates/core/src/monitor.rs~s/rows\.drain\(kept\.\.held\);/let _ = kept..held;/~the join keeps the rows of tids the listing dropped: the live table grows with every departure'
'reprobe-countdown-stuck~crates/core/src/health.rs~s/st\.rounds_until_reprobe -= 1;\n\s+return true;/return true;/~a quarantined tid is skipped without spending its re-probe countdown: it is never read again'
'vanished-tid-keeps-pair~crates/core/src/health.rs~s/\*self = TaskRow::arrival\(self\.tid, self\.track\);/self.fail = None;/~a tid that exited under the read keeps the last-good pair and gate of its row: the recycled id that follows it inherits them'
'main-thread-gated~crates/core/src/round.rs~s/let armed = delta_on && tid != pid;/let armed = delta_on;/~the delta gate armed for the main thread: a waiting main thread stops reporting the RSS its workers move'
'println-in-core~crates/core/src/round.rs~s/(fn round_begin\([^)]*\) -> bool \{)/$1 println!("round {t_s}");/~a `println!` in library code (`core::round`)'
'read-before-list~crates/core/src/round.rs~s/(\n\s*w\.listed = with_retry\(node_health, pending_backoff_us, \|\| \{\n\s*src\.list_tasks_into\(pid, &mut w\.listing\)\n\s*\}\);)(\n.*?for w in processes\.iter_mut\(\)\.filter\(\|w\| !w\.gone\) \{)/$2\n        let pid = w.info.pid;$1/s~each watch listed inside its own read loop: the second watch is listed only after the tasks of the first are read, so a fault schedule meets the reads in another order'
'quarantine-one-round-late~crates/core/src/health.rs~s/\} else if st\.consecutive >= QUARANTINE_AFTER \{/} else if st.consecutive > QUARANTINE_AFTER {/~a tid whose reads keep failing is quarantined one round after `QUARANTINE_AFTER`'
'governor-past-ceiling~crates/core/src/monitor.rs~s/let to = period\.saturating_mul\(2\)\.min\(MAX_PERIOD_US\);/let to = period.saturating_mul(2);/~the governor doubles the period past `MAX_PERIOD_US`'
'ompt-tids-hashset~crates/experiments/src/launch.rs~s/let mut omp_tids = Vec::new\(\);/let mut omp_tids = std::collections::HashSet::new();/; s/omp_tids\.push\(ev\.tid\)/{ omp_tids.insert(ev.tid); }/~the launcher collects the OMPT tids into a `HashSet` and registers them in its iteration order (a `HashSet` iterated under a determinism root)'
'mutex-in-product~crates/core/src/attach.rs~s/(pub fn hostname\(\) -> String \{)/$1 static PLANTED: std::sync::Mutex<u8> = std::sync::Mutex::new(0); let _g = PLANTED.lock();/~a `static Mutex<u8>` in product code (`attach::hostname`)'
'signal-exit-unreported~crates/cli/src/lib.rs~s/let signal = status\.signal\(\);/let signal = status.signal().filter(|_| false);/~the wrapper ignores the signal that ended its child: no report, complete-looking logs, exit 255'
'esrch-not-classified~crates/procfs/src/linux.rs~s/\n\s+_ if e\.raw_os_error\(\) == Some\(ESRCH\) => SourceError::NotFound,//~`ESRCH` from a read is an `Io` error instead of `NotFound`: a task that exited under its read is counted a failure, not a departure'
'csv-rounding-half-up~crates/core/src/export.rs~s/let up = remainder > half \|\| \(remainder == half && quotient & 1 == 1\);/let up = remainder >= half;/~a CSV cell rounded the `{:.N}`-incompatible way: `fixed_point` rounds an exact tie up instead of to even'
'read-error-bubbles~crates/core/src/round.rs~s/\.and_then\(\|\(\)\| \{/.and_then(|()| { src.task_status_text(pid, tid, arena)?;/~a `status` read whose error a `?` carries out of `read_task`, past `with_retry` and the ledger'
'growth-unreviewed~crates/core/src/round.rs~s/(w\.rss_series\.push\(\(t_s, status\.vm_rss_kib\)\);)/$1 w.info.gpus.push(0);/~a long-lived field pushed every round with no reviewed bound (`info.gpus` in the fold)'
'descendant-not-followed~crates/core/src/round.rs~s/Ok\(\(\)\) => adopt\(processes, pid, &scratch\.children, config, src\),/Ok(()) => {}/~the list step drops the children the source named: the application a shell or launcher starts is never watched'
'departed-pid-handles-kept~crates/procfs/src/linux.rs~s/(fn purge\(&mut self, pid: Pid\) \{)/$1 if pid != 0 { return; }/~`LinuxProc` keeps the slots of a pid whose listing said `NotFound`: a departed process'"'"'s handles stay open'
'series-capacity-ignored~crates/core/src/monitor.rs~s/config\.series_capacity/zerosum_stats::DEFAULT_SERIES_CAPACITY/g~every series ring sized from `DEFAULT_SERIES_CAPACITY` instead of `config.series_capacity`'
'jiffy-window-counts-samples~crates/core/src/lwp.rs~s/let span_s = last\.t_s - first\.t_s;/let span_s = last.t_s - first.t_s + self.period_s;/~an off-by-one in the jiffy window (`LwpTrack::delta_per_period`): the span counts samples, not the periods between them, so every per-period rate is diluted by n/(n+1)'
'suspect-never-dead~crates/core/src/cluster.rs~s/if s\.missed >= DEAD_AFTER \{/if s.missed >= DEAD_AFTER \&\& s.state == NodeState::Alive {/~Suspect→Dead mis-ordered (`Supervision::end_round`): the Dead transition is taken only from Alive, and a silent node is Suspect first, so it is never declared Dead'
'listing-reused-after-nlink-moved~crates/procfs/src/linux.rs~s/m\.nlink\(\) == 2 \+ p\.tasks\.len\(\)/m.nlink() <= 2 + p.tasks.len()/~`LinuxProc::list_tasks_into` answers from its slots after the task directory'"'"'s `nlink` moved: a thread that left with no birth on the node is listed still'
'ack-tag-renumbered~crates/net/src/frame.rs~s/pub const ACK: u8 = 5;/pub const ACK: u8 = 6;/~a frame tag renumbered on both sides of the codec: a build round-trips with itself, and a peer of another build reads its Ack as the retired tag 6'
'stat-processor-field-38~crates/procfs/src/parse.rs~s/10 \| 12 \| 14 \| 15 \| 20 \| 22 \| 36 \| 39 =>/10 | 12 | 14 | 15 | 20 | 22 | 36 | 38 =>/~the `stat` parser reads `processor` from field 38 (`exit_signal`) instead of 39'
'busy-other-skipped~crates/core/src/evaluator.rs~s/\.filter\(\|t\| t\.affinity == w\.cpus_allowed && /.filter(|t| t.kind != LwpKind::Other \&\& t.affinity == w.cpus_allowed \&\& /~Rule 3 (`UnboundThreads`) skips busy LWPs of kind `Other` again: a second definition of the application'"'"'s threads, so an unnamed busy worker is left out of the count the Contention Summary makes'
)

# The command stages of scripts/ci.sh, at its arguments (the benchmark
# runs shortened to 2 s windows). No probe-and-skip here: where the
# sandbox forbids sockets or children the baseline fails, loudly.
bench_package() {
    cargo test -q --offline --manifest-path benchmark/Cargo.toml || return 1
    local w
    for w in wire_tcp live_procfs_busy live_procfs_idle sim_sharded_wide; do
        benchmark/run.sh --workload "$w" --seconds 2 --trace 1 || return 1
    done
}
bench_workloads() {
    local w
    for w in sim_serial_busy sim_sharded_wide live_procfs_busy live_procfs_idle churn_open wire_tcp; do
        benchmark/run.sh --workload "$w" --seconds 2 || return 1
    done
}
export -f bench_package bench_workloads
stages=(
    'benchmark-package=bench_package'
    'benchmark=bench_workloads'
    "${extra_stages[@]}"
)
# The passes of `zerosum audit` (a clean tree names none of them).
audit_passes=(panic-reachable hot-path-alloc nondeterminism blocking
    source-error-bubble unbounded-growth stale-allowlist unresolved-root
    "${extra_passes[@]}")

# The test binaries of a `cargo test` log, one `test <binary> (<file>)`
# per line: every one it ran (`all`), the ones that failed (`failed`),
# or the failed tests of the binary named by $3 (`tests`).
test_binaries() {
    awk -v mode="$1" -v want="${3:-}" '
        /^ +Running / {
            match($0, /deps\/[A-Za-z0-9_]+-[0-9a-f]+\)$/)
            bin = substr($0, RSTART + 5, RLENGTH - 5); sub(/-[0-9a-f]+\)$/, "", bin)
            file = $0; sub(/^ +Running (unittests )?/, "", file); sub(/ \(.*$/, "", file)
            cur = "test " bin " (" file ")"; if (mode == "all") print cur; next
        }
        /^ +Doc-tests / { cur = "test doc " $2; if (mode == "all") print cur; next }
        mode == "failed" && (/^test result: FAILED/ || /^error: test failed/) { print cur }
        mode == "tests" && cur == want && /^test .* \.\.\. FAILED$/ { print $2 }
    ' "$2" | awk '!seen[$0]++'
}

# The checks of a killer list ($1) that kill by a mechanism of their
# own: the list minus each audit runner that failed only on the audit,
# when a pass fired ($2 is the mutant's log dir).
audit_runners='shipped_tree_audits_clean|audit_runs_from_the_benchmark_directory_and_explains_a_clean_tree'
mechanism() {
    local check failed
    while read -r check; do
        case "$check" in
            "test fixtures ("*|"test subcommands ("*)
                failed="$(test_binaries tests "$2/test.log" "$check")"
                if grep -q '^audit ' "$1" && [ -n "$failed" ] \
                    && ! grep -Evq "^($audit_runners)$" <<< "$failed"; then
                    continue
                fi ;;
        esac
        echo "$check"
    done < "$1"
}

# The failing tests of one run, on stderr, so that they outlive the
# temp dir: the `test … FAILED` lines and the `---- <name> stdout ----`
# headers of its `cargo test` log.
failed_tests() {
    [ -f "$2/test.log" ] || return 0
    grep -E '^test .* FAILED$|^---- .* stdout ----$' "$2/test.log" | sed "s/^/mutants.sh: $1: /" >&2 || true
}

# Runs every check on the tree as it stands; prints the names of the
# checks that failed, one per line.
run_checks() {
    export LOGS="$1"
    mkdir -p "$LOGS"
    if ! timeout 1800 cargo clippy --workspace --all-targets -- -D warnings > "$LOGS/clippy.log" 2>&1; then
        if ! timeout 1800 cargo build --workspace --all-targets > "$LOGS/build.log" 2>&1; then
            echo rustc
            return
        fi
        echo "clippy -D warnings"
    fi
    timeout 1800 cargo test --workspace --no-fail-fast > "$LOGS/test.log" 2>&1 || true
    test_binaries failed "$LOGS/test.log"
    grep -q '^test result' "$LOGS/test.log" || echo "test (did not run)"
    timeout 600 cargo run -q -p zerosum-cli --bin zerosum -- audit --json \
        > "$LOGS/audit.json" 2> "$LOGS/audit.err" || true
    sed -n 's/^ *{"pass": "\([a-z-]*\)".*/audit \1/p' "$LOGS/audit.json" | sort -u
    if ! timeout 1800 cargo build --release --workspace > "$LOGS/release.log" 2>&1; then
        echo "stage (release build failed)"
        return
    fi
    local s
    for s in "${stages[@]}"; do
        timeout 900 bash -o pipefail -c "${s#*=}" > "$LOGS/stage-${s%%=*}.log" 2>&1 \
            || echo "stage ${s%%=*}"
    done
}

echo "mutants.sh: baseline (no mutant) in $work" >&2
run_checks "$work/logs/baseline" > "$work/baseline.killers"
failed_tests baseline "$work/logs/baseline"
if [ -s "$work/baseline.killers" ]; then
    echo "mutants.sh: the unmutated tree fails these checks (logs in $work/logs/baseline):" >&2
    cat "$work/baseline.killers" >&2
    trap - EXIT
    exit 1
fi
# Every check there is: the fixed ones, the test binaries cargo ran, the
# audit passes, the stages.
{
    echo rustc
    echo "clippy -D warnings"
    test_binaries all "$work/logs/baseline/test.log"
    printf 'audit %s\n' "${audit_passes[@]}"
    for s in "${stages[@]}"; do echo "stage ${s%%=*}"; done
} > "$work/checks"

rows=()
for m in "${mutants[@]}"; do
    IFS='~' read -r name file subst class <<< "$m"
    if [ ${#only[@]} -gt 0 ] && ! printf '%s\n' "${only[@]}" | grep -qx "$name"; then
        continue
    fi
    cp "$file" "$work/pristine"
    perl -0pi -e "$subst" "$file"
    if cmp -s "$file" "$work/pristine"; then
        echo "mutants.sh: mutant $name: its pattern matches nothing in $file any more" >&2
        exit 1
    fi
    echo "mutants.sh: $name" >&2
    run_checks "$work/logs/$name" > "$work/killers"
    failed_tests "$name" "$work/logs/$name"
    cp "$work/pristine" "$file"
    mech="$(mechanism "$work/killers" "$work/logs/$name" | paste -sd';')"
    rows+=("$name~$class~$(paste -sd';' "$work/killers")~$mech")
done

{
    echo "| mutant | bug class | killed by | by mechanism |"
    echo "|---|---|---|---|"
    for r in "${rows[@]}"; do
        IFS='~' read -r name class killers mech <<< "$r"
        echo "| \`$name\` | $class | ${killers:-**nothing**} | ${mech:-**nothing**} |" | sed 's/;/; /g'
    done
    echo
    echo "| check | kills | of them unique (no other check kills the mutant) | unique by mechanism |"
    echo "|---|---|---|---|"
    idle=()
    while read -r check; do
        kills=() unique=() own=()
        for r in "${rows[@]}"; do
            IFS='~' read -r name class killers mech <<< "$r"
            case ";$killers;" in *";$check;"*)
                kills+=("$name")
                [ "$killers" = "$check" ] && unique+=("$name")
                [ "$mech" = "$check" ] && own+=("$name") ;;
            esac
        done
        if [ ${#kills[@]} -eq 0 ]; then idle+=("$check"); continue; fi
        echo "| $check | ${kills[*]} | ${unique[*]:-–} | ${own[*]:-–} |"
    done < <(cat "$work/checks" <(printf '%s\n' "${rows[@]}" | cut -d'~' -f3 | tr ';' '\n') | awk 'NF && !seen[$0]++')
    echo
    echo "Killed no mutant (${#idle[@]} checks): $(printf '%s; ' "${idle[@]}" | sed 's/; $//')."
} > "$out"
