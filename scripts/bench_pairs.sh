#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload, and the verdict
# the `choosing-metrics` guide §8 asks of a gain claim:
#
#   scripts/bench_pairs.sh <parent-ref> <workload> [pairs=10]
#   scripts/bench_pairs.sh <parent-ref> all [pairs=10]
#
# `all` runs every workload BENCHMARK.json declares, one after the other,
# and prints one verdict table per workload.
#
# Exports <parent-ref> into target/pairs/<sha>/src (a plain copy: nothing is
# registered in .git, so there is nothing to prune afterwards), builds the
# benchmark there and in this checkout once each, then runs
# `benchmark/run.sh --workload W --seed k --trace 0` for k = 1..pairs on both
# sides, the parent first on odd k and the change first on even k. Every
# result line is kept in target/pairs/<sha>/<workload>/{parent,change}-k.json.
# For each end-to-end metric of BENCHMARK.json it prints both sides' medians
# and quartiles, the pairs the change won (ties count for neither side), and
# whether the medians are further apart than the parent's own inter-quartile
# distance. A gain holds when the change wins at least nine pairs in ten and
# that last column says yes.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
    echo "usage: $0 <parent-ref> <workload>|all [pairs=10]" >&2
    exit 2
fi
cd "$(dirname "${BASH_SOURCE[0]}")/.."
repo=$PWD
if [[ $2 == all ]]; then
    names=$(python3 -c 'import json; print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]])')
    for name in $names; do
        "$repo/scripts/bench_pairs.sh" "$1" "$name" "${3:-10}"
    done
    exit
fi
sha=$(git rev-parse --short=12 "$1^{commit}")
workload=$2
pairs=${3:-10}
parent=$repo/target/pairs/$sha
out=$parent/$workload
mkdir -p "$out"

if [[ ! -f $parent/src/benchmark/run.sh ]]; then
    rm -rf "$parent/src"
    mkdir -p "$parent/src"
    git archive "$sha" | tar -x -C "$parent/src"
fi
echo "building parent $sha and the working tree" >&2
CARGO_TARGET_DIR=$parent/target \
    cargo build --release --offline --manifest-path "$parent/src/benchmark/Cargo.toml" 1>&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml 1>&2
# A build leaves this class of host waking threads late for a while.
sleep 10

run_side() { # side seed
    local dir=$repo
    [[ $1 == parent ]] && dir=$parent/src
    (
        cd "$dir"
        if [[ $1 == parent ]]; then export CARGO_TARGET_DIR=$parent/target; fi
        bash benchmark/run.sh --workload "$workload" --seed "$2" --trace 0 2>/dev/null | tail -n 1
    ) >"$out/$1-$2.json"
}

for ((k = 1; k <= pairs; k++)); do
    if ((k % 2)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        echo "pair $k/$pairs: $side" >&2
        run_side "$side" "$k"
    done
done

python3 - "$repo/BENCHMARK.json" "$out" "$pairs" <<'EOF'
import json
import statistics
import sys

spec, out, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3])


def load(side, k):
    with open(f"{out}/{side}-{k}.json") as f:
        return json.load(f)


runs = {side: [load(side, k) for k in range(1, pairs + 1)] for side in ("parent", "change")}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


print(f"{pairs} pairs under {out}")
for side, rs in runs.items():
    failed, attempted = sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)
    wrong = sum(not r["correct"] for r in rs)
    print(f"  {side}: failed {failed} of {attempted} attempted, {wrong} run(s) with wrong output")
header = f"{'metric':<16}{'parent q1/median/q3':>34}{'change q1/median/q3':>34}{'won':>7}  beyond parent IQR"
print(header)
for metric in json.load(open(spec))["end_to_end"]:
    name, higher = metric["name"], metric["better"] == "higher"
    p = [r["metrics"][name]["value"] for r in runs["parent"]]
    c = [r["metrics"][name]["value"] for r in runs["change"]]
    won = sum((y > x) if higher else (y < x) for x, y in zip(p, c))
    lost = sum((y < x) if higher else (y > x) for x, y in zip(p, c))
    (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
    gain = (cm - pm) if higher else (pm - cm)
    if abs(gain) <= p3 - p1:
        verdict = "no"
    else:
        verdict = f"yes, {'better' if gain > 0 else 'WORSE'} by {abs(gain) / pm:.1%} of parent"
    fmt = lambda a, b, c: f"{a:.4g} / {b:.4g} / {c:.4g}"
    print(f"{name:<16}{fmt(p1, pm, p3):>34}{fmt(c1, cm, c3):>34}{f'{won}-{lost}':>7}  {verdict}")
EOF
