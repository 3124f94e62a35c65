#!/usr/bin/env bash
# Builds the benchmark package in release and runs it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh                  # all six workloads, untraced
#   benchmark/run.sh --trace          # all six workloads, traced (per-layer)
#   benchmark/run.sh --agree A.json B.json
#
# Run from the repository root. Honours CARGO_TARGET_DIR; defaults to
# benchmark/target. Exits non-zero when the product crates are missing,
# the build fails, a workload cannot run, or an output is wrong.
set -euo pipefail

here="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to stderr so the last stdout line stays the result.
cargo build --release --offline --manifest-path "$here/Cargo.toml" \
    --target-dir "$target" 1>&2

# A traced run measures in zsbench-traced (built beside zsbench), which
# carries the counting global allocator; end-to-end numbers always come
# from the plain binary.
exec "$target/release/zsbench" "$@"
