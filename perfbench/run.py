"""Run one benchmark workload of kpist and print its metrics.

    python3 perfbench/run.py --workload near --seed 0 --seconds 10 --trace 0

Run from the root of a source tree: the package is imported from
./src, never from an installed copy. The query phase serves the seeded
stream in whole passes until --seconds have gone by (at least one
pass). The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. The line before
it records the environment and the outcome counts. See README.md.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import sys
import time

import bench_env

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def execute(name: str, seed: int, seconds: float, trace: bool, sizes):
    """Set up, serve whole passes, and return everything measured."""
    import bench_trace as bt
    import bench_workloads as bw

    kp = bw.Kpist()
    wl = bw.WORKLOADS[name](sizes, seed)
    patcher = bt.Patcher()
    tracer = bt.Tracer()
    residuals = bw.ResidualLog(kp, patcher)
    if trace:
        bt.install_spans(patcher, tracer, kp)
    out = {"import_s": kp.import_s, "setup_s": [], "setup_layers": [],
           "passes": []}
    try:
        with bt.WarningCounter() as warned:
            state = None
            for _ in range(wl.reps):
                state = None
                t0 = time.perf_counter()
                state = wl.setup(kp)
                out["setup_s"].append(kp.import_s + time.perf_counter() - t0)
                out["setup_layers"].append(bt.setup_metrics(tracer.take()))
            start = time.perf_counter()
            while True:
                warned_before = warned.count
                t0 = time.perf_counter()
                queries, extra = wl.serve(kp, state, residuals)
                wall = time.perf_counter() - t0
                out["passes"].append({
                    "wall_s": wall, "queries": queries, "extra": extra,
                    "spans": tracer.take(),
                    "warnings": warned.count - warned_before})
                if time.perf_counter() - start >= seconds:
                    break
    finally:
        patcher.restore()
    out["state"] = state
    out["kp"] = kp
    return out


def check(name: str, seed: int, tiny: bool, run) -> tuple[list, list, dict]:
    """Check every pass: (failure reasons per query, run-wide failures,
    notes)."""
    import bench_refs as br
    import bench_workloads as bw

    kp = run["kp"]
    use_refs = seed == bw.DEFAULT_SEED and not tiny
    ref = br.load(name) if use_refs else None
    run_fail, notes = [], {"references": ref is not None}
    if use_refs and ref is None:
        run_fail.append(f"reference file for {name} is missing")
    reasons = []
    for p in run["passes"]:
        qs = p["queries"]
        if name == "near":
            src = run["state"].grids.grid_kl
            got = br.check_near(qs, (src.min, src.max), bw.TOL, ref)
        elif name == "decay":
            got, rf = br.check_decay(qs, p["extra"], bw.TOL, ref,
                                     windows=not tiny)
            run_fail += rf
        else:
            ref_field = br.load_field() if ref is not None else None
            got, rf, nt = br.check_oracle(
                qs, p["extra"], kp.oracle.L2_DRIFT_TOL,
                kp.oracle.ZERO_MEAN_TOL, ref, ref_field)
            run_fail += rf
            notes.update(nt)
        reasons.append([got[q.key] for q in qs])
    return reasons, run_fail, notes


def end_to_end(run) -> dict:
    served = [q.seconds for p in run["passes"] for q in p["queries"]
              if not q.refused and not q.error]
    attempted = sum(len(p["queries"]) for p in run["passes"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(run["setup_s"]), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in run["passes"]),
                   "s"),
        "query_s_p50": (_percentile(served, 50), "s"),
        "query_s_p90": (_percentile(served, 90), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "served_frac": (len(served) / max(1, attempted), "1"),
    }


def per_layer(run) -> dict:
    import bench_trace as bt

    first = run["passes"][0]
    qs = first["queries"]
    drift = max((q.values.get("drift", 0.0) for q in qs), default=0.0)
    metrics = bt.median_metrics(run["setup_layers"])
    metrics.update(bt.query_metrics(first["spans"], first["wall_s"],
                                    first["warnings"], drift))
    units = {n: u for n, u, _ in bt.PER_LAYER}
    return {n: (metrics[n], units[n]) for n, _, _ in bt.PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("near", "decay", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes for the self-test; no references")
    args = parser.parse_args(argv)

    blas_threads = bench_env.pin_threads()
    if not (SRC / "kpist" / "__init__.py").is_file():
        print(f"error: no kpist sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench_env.warm_up()

    import bench_workloads as bw

    sizes = bw.TINY if args.tiny else bw.FULL
    run = execute(args.workload, args.seed, args.seconds, bool(args.trace),
                  sizes)
    reasons, run_fail, notes = check(args.workload, args.seed, args.tiny,
                                     run)
    flat = [r for per_pass in reasons for r in per_pass]
    failed = sum(1 for r in flat if r is not None)
    metrics = per_layer(run) if args.trace \
        else end_to_end(run)
    qs = [q for p in run["passes"] for q in p["queries"]]
    first_failures = [f"{q.key}: {r}" for q, r in zip(qs, flat) if r][:5]
    detail = {
        "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "tiny": args.tiny,
        "env": bench_env.environment(ROOT, args.seed, blas_threads),
        "passes": len(run["passes"]),
        "attempted": len(qs),
        "served": sum(1 for q in qs if not q.refused and not q.error),
        "refused": sum(1 for q in qs if q.refused),
        "failed": failed,
        "failures": first_failures + run_fail,
        "import_s": run["import_s"],
        "setup_s_reps": run["setup_s"],
        "pass_wall_s": [p["wall_s"] for p in run["passes"]],
        "checks": notes,
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": failed == 0 and not run_fail,
        "attempted": len(qs),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
