"""Steadiness of the benchmark: run each workload over several seeds
and report each metric's median, quartiles and spread.

    python3 perfbench/steady.py [--runs 10] [--seed-base 1] [--trace]
                                [--workloads near decay] [--out FILE]
                                [--against EARLIER_FILE]

The spread is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4); it is set against each end-to-end
metric's bound in BENCHMARK.json (setup_s is not held to it). With
--trace every seed also gets a traced run, and the tracing overhead is
reported as the traced minus the untraced median wall_s. With --against,
each median is compared with the same metric of an earlier output file;
a change for the worse beyond the bound is flagged. Runs are sequential
and start from the root of the source tree.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    earlier = json.loads(pathlib.Path(args.against).read_text()) \
        if args.against else {}
    report = {}
    ok = True
    for wl in names:
        runs = {0: [], 1: []}
        for i in range(args.runs):
            for trace in ((0, 1) if args.trace else (0,)):
                res = run_once(wl, args.seed_base + i, spec["run_seconds"],
                               trace)
                if not res["correct"] or res["failed"]:
                    print(f"{wl} seed {args.seed_base + i} trace {trace}: "
                          f"correct={res['correct']} failed={res['failed']}")
                    ok = False
                runs[trace].append(res["metrics"])
        out = {"end_to_end": {}, "per_layer": {}}
        for name in runs[0][0]:
            s = summarize([m[name]["value"] for m in runs[0]])
            b = bounds[name]["bound"]
            s.update(bound=b, within=name == "setup_s" or s["spread"] <= b,
                     steady=s["spread"] <= b / 3)
            before = earlier.get(wl, {}).get("end_to_end", {}).get(name)
            if before:
                sign = 1 if bounds[name]["better"] == "lower" else -1
                change = sign * (s["median"] - before["median"]) \
                    / before["median"]
                s.update(change=change, regressed=change > b)
                ok = ok and change <= b
            ok = ok and s["within"]
            out["end_to_end"][name] = s
        if args.trace:
            for name in runs[1][0]:
                out["per_layer"][name] = summarize(
                    [m[name]["value"] for m in runs[1]])
            out["trace_overhead_s"] = (
                out["per_layer"]["trace.wall_s"]["median"]
                - out["end_to_end"]["wall_s"]["median"])
        report[wl] = out
        print(f"== {wl} ({args.runs} seeds from {args.seed_base})")
        for name, s in out["end_to_end"].items():
            flag = "" if s["within"] else "  OUTSIDE BOUND"
            flag += "" if s["steady"] else "  (above bound/3)"
            if "change" in s:
                flag += f"  change {s['change']:+.3f}"
            print(f"  {name:14s} median {s['median']:.6g}  q1 {s['q1']:.6g}"
                  f"  q3 {s['q3']:.6g}  spread {s['spread']:.4f}"
                  f"  bound {s['bound']}{flag}")
        if args.trace:
            print(f"  tracing overhead {out['trace_overhead_s']:.4f} s")
        sys.stdout.flush()
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
