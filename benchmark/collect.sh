#!/usr/bin/env bash
# Collects one set of runs: every workload once per seed, workloads
# alternating, each run a process of its own, the full report of each run
# appended to <out> as one JSON line (the input of `sae-benchmark agree`).
#
#   benchmark/collect.sh <out.jsonl> [runs=5] [seconds=20] [first_seed=1] [trace=0]
#
# Run from the repository root. Builds the benchmark first (release).
set -euo pipefail
out=${1:?usage: collect.sh <out.jsonl> [runs] [seconds] [first_seed] [trace]}
runs=${2:-5}
seconds=${3:-20}
first_seed=${4:-1}
trace=${5:-0}
manifest="$(dirname "$0")/Cargo.toml"
cargo build --release --offline --quiet --manifest-path "$manifest"
bin="${CARGO_TARGET_DIR:-$(dirname "$0")/target}/release/sae-benchmark"
for ((i = 0; i < runs; i++)); do
  for workload in net_point net_wide local_scan durable_mix; do
    "$bin" --workload "$workload" --seed $((first_seed + i)) --seconds "$seconds" \
      --trace "$trace" --report "$out" >/dev/null
  done
done
