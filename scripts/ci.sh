#!/usr/bin/env bash
# The repo's CI gate. Fully offline: every step resolves from the
# workspace only. Run from anywhere inside the repo.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test"
cargo test -q --workspace

echo "== zsaudit (every pass, no finding; lock-order drill)"
# Any finding fails: a lock-order cycle, a panic site under a no-panic
# root or in a hot-path file, an allocation under a hot root, a clock or
# map-order read under a determinism root, a blocking effect under a
# pump or under a lock, a print in library code, a /proc read error
# bubbling out of the round, an unreviewed growing field, an allowlist
# entry that matches nothing. --drill runs real workloads (the sharded
# monitor's threaded mode among them) and fails loudly if a dynamically
# observed lock-order edge is missing from the static graph. Debug
# build on purpose: the sanitizer only records under debug_assertions.
cargo run -q -p zerosum-cli --bin zerosum -- audit --drill > /tmp/zsaudit.out \
    || { cat /tmp/zsaudit.out; exit 1; }
tail -n 3 /tmp/zsaudit.out

echo "== cluster chaos soak (20 seeded node-fault plans, bounded-memory drill)"
cargo run -q --release -p zerosum-cli --bin zerosum -- \
    cluster-chaos --nodes 4 --rounds 24 --schedules 20 --seed 41248 --drill-rounds 1000000

echo "== loopback-TCP smoke (zerosum collect / zerosum stream over real sockets)"
# The in-process transport backend is covered by the cluster-chaos soak
# above; this stage exercises the same wire protocol over real loopback
# TCP. Sandboxes that forbid sockets are detected with `collect
# --probe` (exit 3) and the stage is skipped LOUDLY, never silently.
tcp_smoke() {
    local port_file out code
    port_file=$(mktemp)
    out=$(mktemp)
    rm -f "$port_file"
    cargo run -q --release -p zerosum-cli --bin zerosum -- \
        collect --nodes 2 --rounds 6 --period-ms 40 --port-file "$port_file" \
        > "$out" 2>&1 &
    local collect_pid=$!
    for _ in $(seq 1 100); do
        [ -s "$port_file" ] && break
        sleep 0.1
    done
    if [ ! -s "$port_file" ]; then
        echo "tcp smoke: collector never published its port"
        kill "$collect_pid" 2>/dev/null || true
        cat "$out"
        return 1
    fi
    local addr
    addr=$(cat "$port_file")
    cargo run -q --release -p zerosum-cli --bin zerosum -- \
        stream --connect "$addr" --node ci-a --rank 0 --rounds 6 --period-ms 40 --seed 7 &
    local a_pid=$!
    cargo run -q --release -p zerosum-cli --bin zerosum -- \
        stream --connect "$addr" --node ci-b --rank 1 --rounds 6 --period-ms 40 --seed 8
    wait "$a_pid"
    wait "$collect_pid"
    code=$?
    cat "$out"
    rm -f "$port_file" "$out"
    return "$code"
}
set +e
cargo run -q --release -p zerosum-cli --bin zerosum -- collect --probe >/dev/null 2>&1
probe=$?
set -e
if [ "$probe" -eq 3 ]; then
    echo "tcp smoke: SKIPPED (sandbox forbids sockets; collect --probe exit 3)"
elif [ "$probe" -ne 0 ]; then
    echo "tcp smoke: probe failed with unexpected exit $probe"
    exit 1
else
    tcp_smoke
fi

echo "== benchmark package (its adapters implement Link / ProcSource / ShardSource)"
# benchmark/ is a package of its own, so nothing above compiles it: a
# change to a trait its adapters implement can break it unnoticed. Build
# and test it, then run two traced seconds of wire_tcp — traced, so
# TimedLink is in the path and the run's own output checks (aggregates
# bit-equal, every frame sent folded, no retransmit) judge the wire.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
traced_bench() {
    benchmark/run.sh --workload "$1" --seconds 2 --trace 1 > /tmp/zsbench.out \
        || { cat /tmp/zsbench.out; exit 1; }
    grep -E '^ +\[(ok|FAIL)\]' /tmp/zsbench.out
}
if [ "$probe" -eq 3 ]; then
    echo "benchmark wire_tcp: SKIPPED (sandbox forbids sockets; collect --probe exit 3)"
else
    traced_bench wire_tcp
fi
# And two traced seconds of live_procfs_busy: LinuxProc and the procfs
# scanners over what the running kernel prints (the traced run replays
# the captured live corpus through every parser), judged by the run's
# own output checks.
# Then live_procfs_idle, the default configuration: nearly every task
# read is a schedstat-gate hit, so what is left of the round is the
# listing — the slots again unless the kernel says the thread set moved
# — whose cost and the round's allocations are printed beside the checks.
if [ ! -r /proc/self/status ]; then
    echo "benchmark live_procfs_busy, live_procfs_idle: SKIPPED (/proc/self/status is not readable)"
else
    traced_bench live_procfs_busy
    traced_bench live_procfs_idle
    grep -E '^ +(procfs\.linux\.list_ns_per_call|core\.monitor\.allocs_per_round)' /tmp/zsbench.out
fi
# And two traced seconds of sim_sharded_wide (pure simulation, nothing to
# probe): its output checks read back what `write_logs` wrote (Listing-2
# sections, END marker last) and hold the 4-shard aggregate equal to
# `Monitor::sample`'s; the exit path's cost per CSV row is printed beside them.
traced_bench sim_sharded_wide
grep -E '^ +core\.export\.csv_ns_per_row' /tmp/zsbench.out

echo "== shard differential (20 seeds N shards vs 1 shard bit-identical, shard-scoped chaos isolation)"
cargo run -q --release -p zerosum-cli --bin zerosum -- shard-diff --seeds 20

echo "== churn chaos soak (20 seeded open-system schedules + bit-repro witness)"
# Berserker-style fork/exec storms over the deterministic sim backend:
# the lifecycle judges (no panics at any arrival rate, departures fold
# into health accounting, reused pids never merge, bounded memory,
# honest governor shedding) plus the churn-repro witness requiring two
# identically-seeded soaks to agree bit for bit.
cargo run -q --release -p zerosum-cli --bin zerosum -- churn --schedules 20 --seed 50377

echo "== real-procfs churn storm (fork + fork-exec variants, probe-gated)"
# The same schedules as real child processes sampled through live
# /proc: genuine kernel-side exit races and pid recycling. Sandboxes
# that forbid spawning are detected with `churn --probe` (exit 3) and
# the stage is skipped LOUDLY, never silently — mirroring the TCP smoke.
set +e
cargo run -q --release -p zerosum-cli --bin zerosum -- churn --probe >/dev/null 2>&1
churn_probe=$?
set -e
if [ "$churn_probe" -eq 3 ]; then
    echo "real churn: SKIPPED (sandbox forbids spawning children; churn --probe exit 3)"
elif [ "$churn_probe" -ne 0 ]; then
    echo "real churn: probe failed with unexpected exit $churn_probe"
    exit 1
else
    # The summary line carries the handle cache's figures; the judge
    # behind the exit code bounds them (peak <= 3 x footprint + 2, at
    # most the node's two files at exit), the grep keeps them printed.
    cargo run -q --release -p zerosum-cli --bin zerosum -- \
        churn --backend fork --duration-ms 1500 --rate 40 --seed 11 | tee /tmp/zschurn.out
    grep -Eq 'handles held: peak [0-9]+, at exit [0-2],' /tmp/zschurn.out
    cargo run -q --release -p zerosum-cli --bin zerosum -- \
        churn --backend fork-exec --duration-ms 1500 --rate 25 --seed 12 | tee /tmp/zschurn.out
    grep -Eq 'handles held: peak [0-9]+, at exit [0-2],' /tmp/zschurn.out
fi

echo "== benchmark vs the newest bench-results/pr<N>.json (BENCHMARK.json's bounds; output checks gate, timings inform)"
# The only wall-clock stage, by the only instrument: one default run
# (16 s window, seed 11) per workload, printed beside the newest
# committed result set by the benchmark's own --agree mode —
# BENCHMARK.json's per-metric bounds, both ways. --agree walks its
# FIRST file's workloads, so each one-workload set is judged alone and
# a sandbox runs the workloads it may (same probes, same LOUD skips as
# above). A run that fails its own output checks fails CI. A pair
# OUTSIDE its bound is printed and named in the last line, and does
# not: on this shared host setup_s and round_p99_us sit 25-50 % apart
# between one hour and the next (bench-results/README.md "What CI does
# with a set"), so the verdict on a timing is the reader's, with the
# table in front of them.
committed=$(ls bench-results/pr*.json | sort -V | tail -n 1)
outside=""
for workload in sim_serial_busy sim_sharded_wide live_procfs_busy live_procfs_idle churn_open wire_tcp; do
    case "$workload" in
        wire_tcp)
            if [ "$probe" -eq 3 ]; then
                echo "benchmark $workload: SKIPPED (sandbox forbids sockets; collect --probe exit 3)"
                continue
            fi ;;
        live_procfs_*)
            if [ ! -r /proc/self/status ]; then
                echo "benchmark $workload: SKIPPED (/proc/self/status is not readable)"
                continue
            fi ;;
    esac
    benchmark/run.sh --workload "$workload" > /tmp/zsbench.out \
        || { cat /tmp/zsbench.out; exit 1; }
    benchmark/run.sh --agree "benchmark/out/$workload-seed11-trace0.json" "$committed" \
        || outside="$outside $workload"
done
if [ -n "$outside" ]; then
    echo "benchmark vs $committed: a pair OUTSIDE its bound on:$outside (tables above; not a CI failure)"
else
    echo "benchmark vs $committed: every pair inside its bound"
fi

echo "CI OK"
