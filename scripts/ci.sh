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
# The seeded soaks run here at their published sets too:
# `transport_soak_at_seed_41248_all_pass` (cluster-chaos, 4 nodes, 24
# rounds, 20 plans) and `churn_soak_at_seed_50377_is_clean` (20 churn
# schedules and the bit-repro witness), both in zerosum-analyze.
cargo test -q --workspace

echo "== zsaudit (every pass, no finding)"
# Any finding fails: a panic site under a no-panic root or in a
# hot-path file, an allocation under a hot root, a clock or map-order
# read under a determinism root, a sleep, channel op or join under a
# watchdog root (`Monitor::sample`, `Collector::pump_frames`), a /proc
# read error bubbling out of the round, an unreviewed growing field, an
# allowlist entry that matches nothing, a root or rooted file that
# resolves to nothing. (No print in library code and no lock type in
# product code are clippy's, in the stage above: clippy.toml.)
cargo run -q --release -p zerosum-cli --bin zerosum -- audit > /tmp/zsaudit.out \
    || { cat /tmp/zsaudit.out; exit 1; }
tail -n 2 /tmp/zsaudit.out

# Sandboxes that forbid sockets are detected with `collect --probe`
# (exit 3) and the wire_tcp benchmark stages below are skipped LOUDLY,
# never silently. Real loopback TCP between `zerosum collect` and
# wrappers started with `--connect` is `cargo test`'s (the live tests in
# crates/cli/tests/subcommands.rs), above.
set +e
cargo run -q --release -p zerosum-cli --bin zerosum -- collect --probe >/dev/null 2>&1
probe=$?
set -e
if [ "$probe" -ne 0 ] && [ "$probe" -ne 3 ]; then
    echo "collect --probe failed with unexpected exit $probe"
    exit 1
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
# sections, END marker last) over 256 tasks; the exit path's cost per CSV
# row is printed beside them.
traced_bench sim_sharded_wide
grep -E '^ +core\.export\.csv_ns_per_row' /tmp/zsbench.out

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
