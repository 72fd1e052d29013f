#!/usr/bin/env bash
# The serving benchmark, all four workloads.
#
#   benchmark/run.sh                untraced then traced run of each workload
#   benchmark/run.sh --smoke        the same, 4 segments and a 512-entry ladder
#   benchmark/run.sh --selfcheck N  A/A noise check: N interleaved pairs of
#                                   untraced runs per workload (A B B A ...),
#                                   every run on another seed; prints the
#                                   table kept in benchmark/NOISE.md
#
# One workload: cargo run --release --manifest-path benchmark/Cargo.toml -- \
#   --workload sa_single [--seed N] [--seconds N] [--trace 0|1] [--smoke]
set -euo pipefail
cd "$(dirname "$0")/.."

WORKLOADS=(sa_single sa_batch ac_dense_batch churn_mixed)
SECONDS_PER_RUN=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

cargo build --release --quiet --manifest-path benchmark/Cargo.toml
BIN="${CARGO_TARGET_DIR:-benchmark/target}/release/pretzel-benchmark"

if [[ "${1:-}" == "--selfcheck" ]]; then
    pairs="${2:?--selfcheck needs the number of pairs}"
    out="benchmark/out/selfcheck"
    mkdir -p "$out"
    rm -f "$out"/*.jsonl
    seed=0
    for ((pair = 1; pair <= pairs; pair++)); do
        # A B, then B A: neither set always runs first.
        if ((pair % 2)); then order=(A B); else order=(B A); fi
        for set in "${order[@]}"; do
            seed=$((seed + 1))
            for w in "${WORKLOADS[@]}"; do
                echo "pair $pair set $set: $w seed $seed" >&2
                "$BIN" --workload "$w" --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace 0 |
                    tail -n 1 >>"$out/${w}_${set}.jsonl"
            done
        done
    done
    python3 benchmark/selfcheck.py "$out" "$pairs" "$SECONDS_PER_RUN"
    exit
fi

extra=()
if [[ "${1:-}" == "--smoke" ]]; then extra=(--smoke); fi
for w in "${WORKLOADS[@]}"; do
    for trace in 0 1; do
        "$BIN" --workload "$w" --seconds "$SECONDS_PER_RUN" --trace "$trace" "${extra[@]}"
    done
done
