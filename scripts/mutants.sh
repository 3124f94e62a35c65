#!/usr/bin/env bash
# The kill table behind MUTANTS.md: one-line mutants of PRODUCT code,
# each a bug class this repo has had or a claim the paper makes, run
# against every check the repo has — rustc, clippy -D warnings, each
# `cargo test` binary, each `zerosum audit` pass, the lock drill, each
# command stage of scripts/ci.sh — so that a check can be asked which
# mutant it alone kills. A study, rerun at re-anchors; NOT a CI stage
# (one mutant is two rebuilds and every suite: ~4 min here).
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
'ring-second-split~crates/core/src/shard.rs~s/(let \(jw, jr\) = job\.split\(\);)/$1 let (jw2, _jr2) = job.split(); jobs_w.push(jw2);/~a second `split()` of a shard ring while its handles live'
'ring-writer-two-threads~crates/core/src/shard.rs~s/for \(\(jr, ow\), source\) in ends\.into_iter\(\)\.zip\(sources\) \{/for ((jr, mut ow), source) in ends.into_iter().zip(sources) { scope.spawn(|| ow.try_push_swap(&mut ShardBatch::default()));/~one ring writer handed to two threads'
'feed-unused-receiver~crates/core/src/feed.rs~s/(self\.subscribers\.push\(tx\);\n\s+)rx\n/$1sync_channel(1).1\n/~a `sync_channel` receiver bound and never used (the subscriber gets a dead one)'
'sleep-in-shard-loop~crates/core/src/shard.rs~s/(let mut arena = ReadArena::new\(\);\n    loop \{)/std::thread::sleep(std::time::Duration::from_micros(50)); $1/~`thread::sleep` in the shard pump loop'
'sleep-in-pump-frames~crates/net/src/collector.rs~s/(let budget = self\.cfg\.max_frames_per_node_per_round;)/std::thread::sleep(std::time::Duration::from_micros(50)); $1/~`thread::sleep` in `Collector::pump_frames`'
'sleep-in-run-batch~crates/core/src/shard.rs~s/(fn run_batch\([^)]*\) \{)/$1 std::thread::sleep(std::time::Duration::from_micros(50));/~`thread::sleep` inside the sampling round (`run_batch`)'
'proc-read-under-guard~crates/core/src/attach.rs~s/f\(&lock_unpoisoned\(&self\.shared\)\)/{ let g = lock_unpoisoned(&self.shared); let _ = LinuxProc::new().meminfo(); f(&g) }/~a `ProcSource` read while `core.attach.monitor` is held'
'send-under-guard~crates/core/src/attach.rs~s/f\(&lock_unpoisoned\(&self\.shared\)\)/{ let g = lock_unpoisoned(&self.shared); let (tx, _rx) = std::sync::mpsc::sync_channel(1); let _ = tx.send(0u8); f(&g) }/~a blocking channel `.send()` while `core.attach.monitor` is held'
'sched-double-dispatch~crates/sched/src/node.rs~s/let id = self\.cpus\[dpos\]\.runqueue\.remove\(rq_idx\)\.expect\("steal idx"\);/let id = *self.cpus[dpos].runqueue.get(rq_idx).expect("steal idx");/~a stolen task stays on the donor runqueue: dispatched while already running'
'sched-charge-wrong-cpu~crates/sched/src/node.rs~s/(finished = \*remaining_us <= 0\.0;\n\s+\}\n\s+)self\.cpus\[pos\]\.user_us \+= tick;/$1let n = self.cpus.len(); self.cpus[(pos + 1) % n].user_us += tick;/~a compute jiffy charged to the neighbouring CPU'
'sched-preempt-not-traced~crates/sched/src/node.rs~s/self\.emit\(\|\| TraceEvent::Preempt \{ tid, cpu \}\);/let _ = (tid, cpu);/~a preemption that leaves no `Preempt` event'
'utime-stime-swapped~crates/core/src/lwp.rs~s/self\.delta_per_period\(\|s\| s\.stime\)/self.delta_per_period(|s| s.utime)/~the `stime` column computed from `utime` deltas'
'starttime-check-dropped~crates/core/src/lwp.rs~s/if old\.starttime != stat\.starttime \{/if old.starttime > stat.starttime {/~the pid-reuse guard never fires (a recycled tid always starts later)'
'tick-flush-skipped~crates/net/src/tcp.rs~s/fn tick\(&mut self\) \{\n\s+self\.flush\(\);\n\s+\}/fn tick(&mut self) {}/~`TcpLink::tick` no longer flushes what the tick queued'
'aggregate-folded-twice~crates/core/src/cluster.rs~s/(pub fn aggregates\(&self\) -> Vec<NodeAggregate> \{\n\s+self\.nodes\n\s+\.iter\(\))/$1.chain(self.nodes.first())/~the first node is aggregated twice into the allocation view'
'degraded-flag-lost~crates/core/src/health.rs~s/Some\(_\) => ledger\.degraded \+= 1,/Some(_) => {}/~an interpolated sample is not counted `degraded`'
'alloc-in-round~crates/core/src/shard.rs~s/(let shed = node_src\.lend\(\|src\| round_begin\(mon, t_s, src\)\);)/let _why = format!("round at {t_s}"); $1/~an allocation in `shard::round`, every round'
'unwrap-in-fold-reads~crates/core/src/shard.rs~s/(fn fold_reads\(mon: &mut Monitor, t_s: f64\) \{)/$1 let _first = mon.engine.batches.first().unwrap();/~an `unwrap()` in `fold_reads`'
'departed-row-kept~crates/core/src/monitor.rs~s/rows\.drain\(kept\.\.held\);/let _ = kept..held;/~the join keeps the rows of tids the listing dropped: the live table grows with every departure'
'reprobe-countdown-stuck~crates/core/src/health.rs~s/st\.rounds_until_reprobe -= 1;\n\s+return true;/return true;/~a quarantined tid is skipped without spending its re-probe countdown: it is never read again'
'vanished-tid-keeps-pair~crates/core/src/health.rs~s/\*self = TaskRow::arrival\(self\.tid, self\.track\);/self.fail = None;/~a tid that exited under the read keeps the last-good pair and gate of its row: the recycled id that follows it inherits them'
'main-thread-gated~crates/core/src/shard.rs~s/let armed = delta_on && tid != pid;/let armed = delta_on;/~the delta gate armed for the main thread: a waiting main thread stops reporting the RSS its workers move'
'println-in-core~crates/core/src/shard.rs~s/(fn round_begin\([^)]*\) -> bool \{)/$1 println!("round {t_s}");/~a `println!` in library code (`core::shard`)'
)

# The command stages of scripts/ci.sh, at its arguments (the benchmark
# runs shortened to 2 s windows). No probe-and-skip here: where the
# sandbox forbids sockets or children the baseline fails, loudly.
tcp_smoke() {
    local port_file code
    port_file="$(mktemp -u)"
    "$ZS" collect --nodes 2 --rounds 6 --period-ms 40 --port-file "$port_file" &
    local collect_pid=$!
    for _ in $(seq 1 100); do [ -s "$port_file" ] && break; sleep 0.1; done
    [ -s "$port_file" ] || { kill "$collect_pid" 2>/dev/null; return 1; }
    local addr; addr="$(cat "$port_file")"; rm -f "$port_file"
    "$ZS" stream --connect "$addr" --node ci-a --rank 0 --rounds 6 --period-ms 40 --seed 7 &
    local a_pid=$!
    code=0
    "$ZS" stream --connect "$addr" --node ci-b --rank 1 --rounds 6 --period-ms 40 --seed 8 || code=1
    wait "$a_pid" || code=1
    wait "$collect_pid" || code=1
    return "$code"
}
real_churn() {
    "$ZS" churn --backend fork --duration-ms 1500 --rate 40 --seed 11 > "$LOGS/churn.out" || return 1
    grep -Eq 'handles held: peak [0-9]+, at exit [0-2],' "$LOGS/churn.out" || return 1
    "$ZS" churn --backend fork-exec --duration-ms 1500 --rate 25 --seed 12 > "$LOGS/churn.out" || return 1
    grep -Eq 'handles held: peak [0-9]+, at exit [0-2],' "$LOGS/churn.out"
}
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
export -f tcp_smoke real_churn bench_package bench_workloads
stages=(
    'cluster-chaos="$ZS" cluster-chaos --nodes 4 --rounds 24 --schedules 20 --seed 41248 --drill-rounds 1000000'
    'tcp-smoke=tcp_smoke'
    'benchmark-package=bench_package'
    'shard-diff="$ZS" shard-diff --seeds 20'
    'churn="$ZS" churn --schedules 20 --seed 50377'
    'real-churn=real_churn'
    'benchmark=bench_workloads'
    "${extra_stages[@]}"
)
# The passes of `zerosum audit` (a clean tree names none of them).
audit_passes=(lock-cycle panic-reachable hot-path-alloc nondeterminism blocking
    print-in-lib source-error-bubble unbounded-growth stale-allowlist "${extra_passes[@]}")

# The test binaries of a `cargo test` log, one `test <binary> (<file>)`
# per line: every one it ran (`all=1`), or the ones that failed.
test_binaries() {
    awk -v all="$1" '
        /^ +Running / {
            match($0, /deps\/[A-Za-z0-9_]+-[0-9a-f]+\)$/)
            bin = substr($0, RSTART + 5, RLENGTH - 5); sub(/-[0-9a-f]+\)$/, "", bin)
            file = $0; sub(/^ +Running (unittests )?/, "", file); sub(/ \(.*$/, "", file)
            cur = "test " bin " (" file ")"; if (all) print cur; next
        }
        /^ +Doc-tests / { cur = "test doc " $2; if (all) print cur; next }
        !all && (/^test result: FAILED/ || /^error: test failed/) { print cur }
    ' "$2" | awk '!seen[$0]++'
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
    test_binaries 0 "$LOGS/test.log"
    grep -q '^test result' "$LOGS/test.log" || echo "test (did not run)"
    timeout 600 cargo run -q -p zerosum-cli --bin zerosum -- audit --json \
        > "$LOGS/audit.json" 2> "$LOGS/audit.err" || true
    sed -n 's/^ *{"pass": "\([a-z-]*\)".*/audit \1/p' "$LOGS/audit.json" | sort -u
    timeout 600 cargo run -q -p zerosum-cli --bin zerosum -- audit --drill > "$LOGS/drill.log" 2>&1 || true
    if grep -q '^  FAIL: ' "$LOGS/drill.log"; then echo "audit --drill"; fi
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
    test_binaries 1 "$work/logs/baseline/test.log"
    printf 'audit %s\n' "${audit_passes[@]}"
    echo "audit --drill"
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
    cp "$work/pristine" "$file"
    rows+=("$name~$class~$(paste -sd';' "$work/killers")")
done

{
    echo "| mutant | bug class | killed by |"
    echo "|---|---|---|"
    for r in "${rows[@]}"; do
        IFS='~' read -r name class killers <<< "$r"
        echo "| \`$name\` | $class | ${killers:-**nothing**} |" | sed 's/;/; /g'
    done
    echo
    echo "| check | kills | of them unique (no other check kills the mutant) |"
    echo "|---|---|---|"
    idle=()
    while read -r check; do
        kills=() unique=()
        for r in "${rows[@]}"; do
            IFS='~' read -r name class killers <<< "$r"
            case ";$killers;" in *";$check;"*)
                kills+=("$name")
                [ "$killers" = "$check" ] && unique+=("$name") ;;
            esac
        done
        if [ ${#kills[@]} -eq 0 ]; then idle+=("$check"); continue; fi
        echo "| $check | ${kills[*]} | ${unique[*]:-–} |"
    done < <(cat "$work/checks" <(printf '%s\n' "${rows[@]}" | cut -d'~' -f3 | tr ';' '\n') | awk 'NF && !seen[$0]++')
    echo
    echo "Killed no mutant (${#idle[@]} checks): $(printf '%s; ' "${idle[@]}" | sed 's/; $//')."
} > "$out"
