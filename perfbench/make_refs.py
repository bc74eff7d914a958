"""Regenerate the committed correctness references of the default seed.

    python3 perfbench/make_refs.py [near decay oracle]

Run from the root of a source tree, on the commit whose answers are the
reference; writes perfbench/refs/<workload>.json (and the final oracle
field as perfbench/refs/oracle_field.npy).
"""

from __future__ import annotations

import sys

import bench_env
import run


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or [
        "near", "decay", "oracle"]
    bench_env.pin_threads()
    sys.path.insert(0, str(run.SRC))
    bench_env.warm_up()

    import bench_refs as br
    import bench_workloads as bw

    for name in names:
        out = run.execute(name, bw.DEFAULT_SEED, 0.0, False, bw.FULL)
        p = out["passes"][0]
        bad = [q.key for q in p["queries"] if q.error]
        if bad:
            print(f"{name}: queries failed ({bad[:5]}); nothing written",
                  file=sys.stderr)
            return 1
        if name == "near":
            br.save(name, br.near_record(p["queries"]))
        elif name == "decay":
            br.save(name, br.decay_record(p["queries"], p["extra"]))
        else:
            br.save(name, br.oracle_record(p["queries"], p["extra"]),
                    field=p["extra"])
        print(f"{name}: wrote references for {len(p['queries'])} queries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
