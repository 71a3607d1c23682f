#!/usr/bin/env python3
"""Runs every witness test that tests/WITNESSES.toml pins.

    python3 scripts/witnesses.py

Takes no arguments; needs python3 >= 3.11 (tomllib) and cargo. It
1. prints whether the CPU has the units the witnesses' assertions follow
   (`aes`, `sha_ni`, `avx512ifma`);
2. lists each target's tests once (`cargo test -- --list`) and fails,
   naming every offending entry, if an entry is malformed, appears twice,
   or has a path that is not exactly one test's name;
3. runs each (target, flags) group in one
   `cargo test -q <target> -- --exact <paths...>` and fails unless libtest
   reports exactly as many tests passed as the group has entries;
4. prints one result line per entry.

Exits 0 only if every entry ran and passed.
"""

import re
import subprocess
import sys
import tomllib
from itertools import takewhile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "WITNESSES.toml"
CPU_FLAGS = ("aes", "sha_ni", "avx512ifma")
FIELDS = {"target": str, "path": str, "claim": str, "single_threaded": bool, "nocapture": bool}
REQUIRED = ("target", "path", "claim")
RESULT = re.compile(r"^test result: \w+\. (\d+) passed;")


def cargo_args(target):
    """`lib:<package>` is a package's lib tests, `test:<name>` one test binary."""
    kind, _, name = target.partition(":")
    if kind == "lib" and name:
        return ["-p", name, "--lib"]
    if kind == "test" and name:
        return ["--test", name]
    return None


def label(entry):
    return f"{entry.get('target')} {entry.get('path')}"


def shape_problems(entries):
    problems = []
    for i, entry in enumerate(entries, 1):
        where = f"entry {i} ({label(entry)})"
        for key in entry.keys() - FIELDS.keys():
            problems.append(f"{where}: unknown key `{key}`")
        for key in REQUIRED:
            if key not in entry:
                problems.append(f"{where}: missing `{key}`")
        for key, kind in FIELDS.items():
            if key in entry and not isinstance(entry[key], kind):
                problems.append(f"{where}: `{key}` must be a {kind.__name__}")
        if isinstance(entry.get("target"), str) and cargo_args(entry["target"]) is None:
            problems.append(f"{where}: target must be `lib:<package>` or `test:<binary>`")
    return problems


def list_tests(target):
    """Every test name the target's binary lists, or None if it did not build."""
    cmd = ["cargo", "test", "-q", *cargo_args(target), "--", "--list"]
    run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        return None
    lines = run.stdout.splitlines()
    return {line[: -len(": test")] for line in lines if line.endswith(": test")}


def listing_problems(entries):
    problems = []
    seen = {}
    for i, entry in enumerate(entries, 1):
        key = (entry["target"], entry["path"])
        if key in seen:
            problems.append(f"entry {i} ({label(entry)}): duplicates entry {seen[key]}")
        else:
            seen[key] = i
    listed = {}
    for target in dict.fromkeys(entry["target"] for entry in entries):
        listed[target] = list_tests(target)
        if listed[target] is None:
            problems.append(f"target {target}: `cargo test -- --list` failed")
    for i, entry in enumerate(entries, 1):
        names = listed[entry["target"]]
        if names is not None and entry["path"] not in names:
            problems.append(f"entry {i} ({label(entry)}): no test has this exact path")
    return problems


def failed_names(lines):
    """The names in libtest's closing `failures:` list."""
    names = set()
    for i, line in enumerate(lines):
        if line == "failures:":
            names |= {l.strip() for l in takewhile(lambda l: l.startswith("    "), lines[i + 1 :])}
    return names


def run_group(target, single_threaded, nocapture, group):
    """Runs one group; returns each entry's verdict, in the group's order."""
    flags = ["--test-threads=1"] * single_threaded + ["--nocapture"] * nocapture
    cmd = ["cargo", "test", "-q", *cargo_args(target), "--", "--exact", *flags]
    print(f"==> {' '.join(cmd)} ({len(group)} exact paths)", flush=True)
    proc = subprocess.Popen(
        [*cmd, *(entry["path"] for entry in group)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    lines = []
    for line in proc.stdout:
        sys.stdout.write(line)
        lines.append(line.rstrip("\n"))
    code = proc.wait()
    passed = sum(int(m[1]) for m in map(RESULT.match, lines) if m)
    if code == 0 and passed == len(group):
        return ["ok"] * len(group)
    failed = failed_names(lines)
    print(f"libtest reported {passed} passed of {len(group)} (exit {code})")
    reconciled = passed + len(failed) == len(group)
    return [
        "FAILED" if e["path"] in failed else "ok" if reconciled else "UNCONFIRMED"
        for e in group
    ]


def main():
    try:
        flags = set(Path("/proc/cpuinfo").read_text().split())
        for flag in CPU_FLAGS:
            print(f"cpu {'has' if flag in flags else 'lacks'} {flag}")
    except OSError:
        print(f"cpu flags unknown (no /proc/cpuinfo): {', '.join(CPU_FLAGS)}")

    entries = tomllib.loads(MANIFEST.read_text()).get("witness", [])
    if not entries:
        sys.exit(f"{MANIFEST.relative_to(ROOT)} has no [[witness]] entry")
    problems = shape_problems(entries) or listing_problems(entries)
    if problems:
        print("\n".join(problems))
        sys.exit(f"{len(problems)} manifest problem(s); no witness was run")

    groups = {}
    for entry in entries:
        key = (entry["target"], entry.get("single_threaded", False), entry.get("nocapture", False))
        groups.setdefault(key, []).append(entry)
    verdict = {}
    for key, group in groups.items():
        for entry, outcome in zip(group, run_group(*key, group)):
            verdict[id(entry)] = outcome

    print()
    for entry in entries:
        flags = [f for f in ("single_threaded", "nocapture") if entry.get(f)]
        note = f"  [{', '.join(flags)}]" if flags else ""
        print(f"{verdict[id(entry)]:<11} {label(entry)}{note}")
    bad = sum(outcome != "ok" for outcome in verdict.values())
    if bad:
        sys.exit(f"{bad} of {len(entries)} witnesses did not pass")
    print(f"{len(entries)} of {len(entries)} witnesses passed")


if __name__ == "__main__":
    main()
