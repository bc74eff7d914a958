"""Fast self-test of the benchmark code.

    python3 perfbench/selftest.py

Checks BENCHMARK.json against the format it must follow, runs every
workload in its tiny variant (n_kl = 32, 8 probes, a few oracle steps)
with and without tracing, and checks that each run prints exactly the
metric names and units BENCHMARK.json lists and a correct verdict. Last,
it copies BENCHMARK.json and perfbench/ alone into a throwaway directory
under the source root and checks that the benchmark refuses to run
there. Takes about half a minute.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BARE = ROOT / ".selftest_bare"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
TIMEOUT_S = 300


def check_spec(spec: dict) -> list[str]:
    errs = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}:
        errs.append(f"top-level keys {sorted(spec)}")
    if not 1 <= len(spec["paths"]) <= 16 or not all(
            PATH.match(p) and not p.startswith("/") and ".." not in p
            for p in spec["paths"]):
        errs.append("paths")
    if not (1 <= len(spec["command"]) <= 32
            and all(len(c) <= 200 for c in spec["command"])):
        errs.append("command")
    if not (isinstance(spec["run_seconds"], int)
            and 1 <= spec["run_seconds"] <= 60):
        errs.append("run_seconds")
    if not 2 <= len(spec["workloads"]) <= 8:
        errs.append("workload count")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or "\n" in w["why"] \
                or len(w["why"]) > 200:
            errs.append(f"workload {w.get('name')}")
    if not 1 <= len(spec["end_to_end"]) <= 16:
        errs.append("end_to_end count")
    if not 1 <= len(spec["per_layer"]) <= 128:
        errs.append("per_layer count")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} \
                or not 0 < m["bound"] <= 0.25:
            errs.append(f"end_to_end {m.get('name')}")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            errs.append(f"per_layer {m.get('name')}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower" \
            or setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        errs.append("setup_s must be in s, lower, with the largest bound")
    names = [x["name"] for x in spec["workloads"] + spec["end_to_end"]
             + spec["per_layer"]]
    if len(names) != len(set(names)):
        errs.append("names used twice")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]) \
                or m["better"] not in ("lower", "higher"):
            errs.append(f"metric {m['name']}")
    return errs


def run(cwd: pathlib.Path, workload: str, trace: int, tiny: bool = True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    cmd += ["--tiny"] if tiny else []
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def check_result(proc, expected: dict) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-500:]}"]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    errs = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errs.append(f"result keys {sorted(res)}")
    if res["correct"] is not True or res["failed"] != 0:
        errs.append(f"correct={res['correct']} failed={res['failed']}")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        errs.append(f"attempted={res['attempted']}")
    got = {n: m["unit"] for n, m in res["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        errs.append(f"metrics: missing {missing}, extra {extra}, "
                    f"unit mismatch {units}")
    for n, m in res["metrics"].items():
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) \
                or not math.isfinite(v):
            errs.append(f"{n} = {v!r}")
    return errs


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = [f"BENCHMARK.json: {e}" for e in check_spec(spec)]
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            errs = check_result(run(ROOT, w["name"], trace), expected[trace])
            failures += [f"{w['name']} trace {trace}: {e}" for e in errs]
            print(f"{w['name']} trace {trace}: {'ok' if not errs else 'FAIL'}")
    shutil.rmtree(BARE, ignore_errors=True)
    try:
        BARE.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", BARE)
        shutil.copytree(ROOT / "perfbench", BARE / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(BARE, spec["workloads"][0]["name"], 0, tiny=False)
        printed = [ln for ln in proc.stdout.splitlines()
                   if ln.startswith("{")]
        if proc.returncode == 0 or printed:
            failures.append("bare directory: the benchmark did not refuse")
        print(f"bare directory: exit {proc.returncode}")
    finally:
        shutil.rmtree(BARE, ignore_errors=True)
    for f in failures:
        print("FAIL", f)
    print("selftest", "passed" if not failures else "failed")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
