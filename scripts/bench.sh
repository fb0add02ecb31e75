#!/usr/bin/env sh
# Performance trajectory: runs the solver / session / mafm / robustness
# / fleet / adaptive benchmark bins and records their JSON artifacts as
# BENCH_*.json at the repo root, so successive commits accumulate
# comparable timing data. The uppercase BENCH_*.json names are the only
# artifact paths this script writes at the repo root.
#
# Usage: scripts/bench.sh [name...]   e.g. `scripts/bench.sh adaptive`
# refreshes only BENCH_adaptive.json; no names refreshes every artifact.
#
# Knobs:
#   SINT_THREADS   worker-pool width for campaign-style bins
#                  (default: host parallelism)
#
# The bins also honour SINT_ARTIFACT_DIR directly; this script points
# it at a scratch directory and renames the results into place.
set -eu

cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

cargo build --release -p sint-bench

names="${*:-solver session mafm robustness fleet adaptive}"
for name in $names; do
    SINT_ARTIFACT_DIR="$dir" cargo run --release -p sint-bench --bin "bench_$name"
    mv "$dir/bench_$name.json" "BENCH_$name.json"
    echo "wrote BENCH_$name.json"
done
