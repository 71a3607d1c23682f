#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark package (release,
# offline, its own workspace) and hands every argument to the binary:
#
#   benchmark/run.sh [--seed N]                       every workload, each run in its own process
#   benchmark/run.sh --selfcheck [--seed N]           the full set twice on one build, then compare.py
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                     one run; the result is the last line of stdout
#
# See benchmark/README.md.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

selfcheck=0
args=()
for arg in "$@"; do
    if [[ "$arg" == "--selfcheck" ]]; then selfcheck=1; else args+=("$arg"); fi
done

# Cargo's own progress goes to stderr; nothing but results reaches stdout.
cargo build --release --offline --manifest-path benchmark/Cargo.toml 1>&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/sslperf-benchmark"

if [[ "$selfcheck" == 1 ]]; then
    # Same build, same seed, workloads in opposite order the second time.
    "$bin" ${args[@]+"${args[@]}"} --results benchmark/out/results-a.json
    "$bin" ${args[@]+"${args[@]}"} --results benchmark/out/results-b.json --reverse
    exec python3 benchmark/compare.py benchmark/out/results-a.json benchmark/out/results-b.json
fi
exec "$bin" ${args[@]+"${args[@]}"}
