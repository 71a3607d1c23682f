#!/usr/bin/env python3
"""Compare two results.json files written by benchmark/run.sh.

    benchmark/compare.py A.json B.json

One row per workload x end-to-end metric, B judged against A with the
bounds in BENCHMARK.json:

    better      B is better than A by more than the bound
    same        B is within the bound of A
    worse       B is worse than A by more than the bound
    unresolved  the slices of either run spread wider than the bound, the
                host-noise guard marked either run noisy, or the two runs
                started with the host in different states (the wake-up
                latencies read before them differ more than threefold): the
                pair of runs cannot tell a change of the bound's size from
                noise

plus one fail_ratio row per workload (failed / attempted), where any rise is
worse. Exits non-zero when any row is worse.
"""

import json
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# The host wakes a sleeping thread in 3 to 10 us or in 40 to 80 us, for
# minutes after the guest kept both CPUs busy. A run stays in the mode it
# started in, so runs that started on opposite sides are not comparable.
WAKE_STATE_RATIO = 3.0


def end_to_end_runs(results):
    """The untraced run of each workload, by workload name."""
    return {run["workload"]: run for run in results["runs"] if run["trace"] == 0}


def judge(decl, a, b, doubts):
    """Returns (verdict, change, why): change > 0 means B is worse, as a share of A."""
    va, vb = a["value"], b["value"]
    if va == 0:
        return "unresolved", 0.0, "A is zero"
    change = (vb - va) / va if decl["better"] == "lower" else (va - vb) / va
    bound = decl["bound"]
    if any(m.get("iqr") is not None and m["value"] and m["iqr"] / abs(m["value"]) > bound for m in (a, b)):
        doubts = doubts + ["slices wider than the bound"]
    if doubts:
        return "unresolved", change, "; ".join(doubts)
    if change > bound:
        return "worse", change, ""
    if change < -bound:
        return "better", change, ""
    return "same", change, ""


def compare(declared, results_a, results_b):
    """Returns the rows as (workload, metric, a, b, unit, change, bound, verdict, why)."""
    runs_a, runs_b = end_to_end_runs(results_a), end_to_end_runs(results_b)
    rows = []
    for workload in (w["name"] for w in declared["workloads"]):
        if workload not in runs_a or workload not in runs_b:
            rows.append((workload, "(run)", None, None, "", 0.0, 0.0, "unresolved", "missing run"))
            continue
        a, b = runs_a[workload], runs_b[workload]
        doubts = []
        if a["noisy"] or b["noisy"]:
            doubts.append("calibration drift")
        wakes = sorted(max(run["wake_us"][0], 1.0) for run in (a, b))
        if wakes[1] > WAKE_STATE_RATIO * wakes[0]:
            doubts.append(f"host state: wake-up {a['wake_us'][0]:.0f} vs {b['wake_us'][0]:.0f} us")
        for decl in declared["end_to_end"]:
            ma, mb = a["metrics"][decl["name"]], b["metrics"][decl["name"]]
            verdict, change, why = judge(decl, ma, mb, doubts)
            rows.append((workload, decl["name"], ma["value"], mb["value"], decl["unit"], change, decl["bound"], verdict, why))
        ratio_a = a["failed"] / max(a["attempted"], 1)
        ratio_b = b["failed"] / max(b["attempted"], 1)
        verdict = "worse" if ratio_b > ratio_a else ("better" if ratio_b < ratio_a else "same")
        rows.append((workload, "fail_ratio", ratio_a, ratio_b, "ratio", ratio_b - ratio_a, 0.0, verdict, ""))
    return rows


def render(rows):
    lines = [f"{'workload':<14} {'metric':<14} {'A':>12} {'B':>12} {'unit':<6} {'worse by':>9} {'bound':>6}  verdict"]
    for workload, metric, a, b, unit, change, bound, verdict, why in rows:
        why = f" ({why})" if why else ""
        if a is None:
            lines.append(f"{workload:<14} {metric:<14} {'-':>12} {'-':>12} {unit:<6} {'-':>9} {'-':>6}  {verdict}{why}")
            continue
        lines.append(
            f"{workload:<14} {metric:<14} {a:>12.4f} {b:>12.4f} {unit:<6} {change * 100:>8.2f}% {bound * 100:>5.0f}%  {verdict}{why}"
        )
    return "\n".join(lines)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    declared = json.loads(BENCHMARK_JSON.read_text())
    results_a, results_b = (json.loads(Path(p).read_text()) for p in argv[1:])
    rows = compare(declared, results_a, results_b)
    print(render(rows))
    verdicts = [row[-2] for row in rows]
    counts = {v: verdicts.count(v) for v in ("better", "same", "worse", "unresolved")}
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
