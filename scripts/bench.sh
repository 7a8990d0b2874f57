#!/usr/bin/env bash
# Performance tracking: the repository benchmark (perfbench, declared in
# BENCHMARK.json) on each of its workloads through BENCHMARK.json's own
# command, then the telemetry overhead gate that writes
# BENCH_obs_overhead.json (fails when enabling telemetry or the flight
# recorder costs more than its bound — 2% by default, see
# DMRA_OBS_OVERHEAD_BOUND_PCT). Extra arguments are forwarded to every
# perfbench run (e.g. `--seconds 5` or `--trace 1`).
set -euo pipefail
cd "$(dirname "$0")/.."

for workload in paper_arrivals paper_mobility metro_mobility; do
    cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" "$@"
done
cargo run --release -p dmra-bench --bin figures -- obs_overhead
