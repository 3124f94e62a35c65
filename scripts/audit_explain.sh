#!/usr/bin/env bash
# Smoke test for `zerosum audit --explain`: the report must carry the
# effect-pass header counts and the thread-provenance role-edge section
# with the sharded monitor's single-writer edge traced back to its role
# root — the witness machinery on a tree whose findings are empty (how a
# finding's own trace renders is pinned by
# `witness_traces_are_stable_across_runs`). Run from anywhere in the repo.
set -euo pipefail

cd "$(dirname "$0")/.."

out=$(cargo run -q -p zerosum-cli --bin zerosum -- audit --explain)
echo "$out" | grep -q "effect sites" \
    || { echo "audit_explain: missing effect-pass header"; echo "$out"; exit 1; }
echo "$out" | grep -q "thread-role edges:" \
    || { echo "audit_explain: missing thread-role edge section"; echo "$out"; exit 1; }
echo "$out" | grep -q "  shard-pump -> core.shard.out.writer" \
    || { echo "audit_explain: shard pump writer edge not proven"; echo "$out"; exit 1; }
# The edge's provenance trace: the role root must lead the chain.
echo "$out" | grep -A1 "  shard-pump -> core.shard.out.writer" | grep -q "    trace: shard_loop" \
    || { echo "audit_explain: shard writer edge has no role-root trace"; echo "$out"; exit 1; }
echo "audit_explain: OK ($(echo "$out" | grep -c 'trace:') witness traces," \
    "$(echo "$out" | grep -c '^  [a-z-]* -> ') role edges)"
