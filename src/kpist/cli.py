"""Command line front end.

Subcommands cover the full pipeline: potential synthesis, the direct
scattering map, pointwise reconstruction, raw solver access, the direct
spectral evolution, decay-rate fits, and the bound-verification sweep.
Every command exits 0 only if everything it was asked to check passed.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import numpy as np
import yaml

from .grids import Grid1D, make_test_potential
from .harness import (airy_ratio_tables, _airy_bound_rows, compute_scattering,
                      decay_fit_passes, run_decay_fit, run_linear_baseline,
                      run_verify_suite, write_airy_csv, write_decay_csv,
                      write_verify_csv, VerifyReport)
from .io import (load_config, load_potential, load_probes, load_scattering,
                 save_potential, save_scattering, write_array, write_csv)
from .oracle import STEP_TOL, evolve
from .phase_airy import RayCoordinates
from .reconstruct import (check_fine_cap, ray_resolution_grid, reconstruct,
                          resample_scattering_data)
from .rhp import CTOperator, solve_dmul_dx

RECON_HEADER = ("t", "x", "y", "xi", "eta", "a", "region",
                "re_u1", "im_u1", "re_u2", "im_u2", "re_u", "im_u")


def _fine_data(data, t, x, y, cap):
    """Per-probe kernel data on a grid sized to the phase; a t = 0 probe
    has no phase to resolve and keeps the stored grid."""
    grid = (data.grids.grid_kl if t == 0.0
            else ray_resolution_grid(t, x, y, cap=cap))
    return resample_scattering_data(data, grid)


def _cmd_make_potential(args) -> int:
    g = Grid1D(-args.half_width, args.half_width, args.n)
    field = make_test_potential(args.kind, args.amplitude, args.width, g, g)
    out = save_potential(field, args.output,
                         extra={"kind": args.kind,
                                "amplitude": float(args.amplitude),
                                "width": float(args.width)})
    print(f"wrote {out} ({args.n}x{args.n}, max |u0| = {field.max_abs():.6g})")
    return 0


def _cmd_scatter(args) -> int:
    field = load_potential(args.potential)
    g = Grid1D(-args.half_width, args.half_width, args.n_kl)
    gy = Grid1D(-args.half_width, args.half_width, args.n_y)
    from .scattering import ScatteringGrids
    data, report = compute_scattering(field, ScatteringGrids(g, gy),
                                      tol=args.tol)
    data.meta.update({"cond_c": report.c, "cond_c_tilde": report.c_tilde,
                      "cond_w_norm": report.w_norm,
                      "cond_e1w_norm": report.e1w_norm})
    out = save_scattering(data, args.output)
    print(report.summary())
    print(f"wrote {out.parent}/ (kernels {data.grids.n_kl}^2)")
    return 0


def _cmd_reconstruct(args) -> int:
    check_fine_cap(args.fine_cap)
    data = load_scattering(args.data)
    rows = []
    for t, x, y in load_probes(args.probes):
        work = _fine_data(data, t, x, y, args.fine_cap)
        s = reconstruct(work, t, x, y, delta=args.delta, tol=args.tol)
        rc = RayCoordinates(t, x, y)
        rows.append((t, x, y, rc.xi, rc.eta, rc.a, s.region.value,
                     s.u1.real, s.u1.imag, s.u2.real, s.u2.imag,
                     s.u.real, s.u.imag))
    out = write_csv(args.output, RECON_HEADER, rows)
    print(f"wrote {out} ({len(rows)} probes)")
    return 0


def _cmd_rhp_solve(args) -> int:
    check_fine_cap(args.fine_cap)
    data = load_scattering(args.data)
    rows = []
    files = []
    sols = []
    # every probe is labeled and solved before anything is written, so a
    # refused probe leaves no partial output
    for i, (t, x, y) in enumerate(load_probes(args.probes)):
        rc = RayCoordinates(t, x, y)
        region = rc.region(args.delta).value
        work = _fine_data(data, t, x, y, args.fine_cap)
        sol = solve_dmul_dx(CTOperator.build(work, t, x, y), tol=args.tol)
        sols.append(sol)
        files.append({"index": i, "mu": f"mu_{i:03d}.bin",
                      "dmu": f"dmu_{i:03d}.bin", "n": int(work.grids.n_kl),
                      "half_width": float(work.grids.grid_kl.max)})
        rows.append((i, t, x, y, rc.xi, rc.eta, rc.a, region,
                     sol.residual_mu, sol.residual_dmu, sol.iterations,
                     work.grids.n_kl))
    outdir = pathlib.Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    for entry, sol in zip(files, sols):
        write_array(outdir / entry["mu"], sol.mu_minus_1)
        write_array(outdir / entry["dmu"], sol.dmu_dx)
    write_csv(outdir / "residuals.csv",
              ("index", "t", "x", "y", "xi", "eta", "a", "region",
               "residual_mu", "residual_dmu", "iterations", "n_grid"), rows)
    (outdir / "solutions.yaml").write_text(yaml.safe_dump(
        {"format": "kpist-rhp-solutions-v1", "dtype": "<c16",
         "probes": files}, sort_keys=True))
    print(f"wrote {outdir}/ ({len(rows)} probes, residuals.csv)")
    return 0


def _cmd_evolve_direct(args) -> int:
    if args.segments < 1:
        raise ValueError("--segments must be at least 1")
    if not 0 <= args.t < np.inf:
        raise ValueError("--t must be finite and nonnegative")
    field = load_potential(args.potential)
    n0 = field.l2_norm()
    ends = np.linspace(0.0, args.t, args.segments + 1)
    rows = [(0.0, n0, 0.0)]
    u = field
    for prev, end in zip(ends[:-1], ends[1:]):
        u = evolve(u, float(end - prev), dt=args.dt)
        n1 = u.l2_norm()
        rows.append((float(end), n1, abs(n1 - n0) / n0 if n0 > 0 else 0.0))
    outdir = pathlib.Path(args.output)
    save_potential(u, outdir / "field_final",
                   extra={"t": float(args.t), "evolved_from": args.potential})
    write_csv(outdir / "conservation.csv", ("t", "l2_norm", "rel_drift"),
              rows)
    print(f"wrote {outdir}/field_final.bin and conservation.csv "
          f"(drift {rows[-1][2]:.3e})")
    return 0


def _summary_entry(fit, window):
    entry = {"label": fit.label, "xi": float(fit.ray.xi),
             "eta": float(fit.ray.eta), "a": float(fit.ray.a),
             "region": fit.region.value, "failure": fit.failure}
    if fit.failure is None:
        entry.update({"slope": float(fit.slope),
                      "slope_stderr": float(fit.slope_stderr),
                      "slope_u1": float(fit.slope_u1),
                      "slope_u2": float(fit.slope_u2),
                      "dropped": int(fit.dropped)})
    if window is not None:
        lo, hi = window
        entry["slope_window"] = [float(lo), float(hi)]
        entry["window_pass"] = bool(fit.failure is None
                                    and lo <= fit.slope <= hi)
    return entry


def _cmd_decay_fit(args) -> int:
    cfg = load_config(args.config)
    fits = run_decay_fit(cfg)
    lfits = run_linear_baseline(cfg)
    outdir = pathlib.Path(args.output or cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_decay_csv(fits, outdir / "decay_nonlinear.csv")
    write_decay_csv(lfits, outdir / "decay_linear.csv")
    ok = (decay_fit_passes(cfg.rays, fits)
          and decay_fit_passes(cfg.rays, lfits, use_linear=True))
    summary = {"nonlinear": [_summary_entry(f, s.slope_window)
                             for s, f in zip(cfg.rays, fits)],
               "linear": [_summary_entry(f, s.linear_slope_window)
                          for s, f in zip(cfg.rays, lfits)],
               "passed": bool(ok)}
    (outdir / "summary.yaml").write_text(yaml.safe_dump(summary,
                                                        sort_keys=True))
    for entry in summary["nonlinear"]:
        print(f"ray {entry['label'] or entry['xi']}: "
              + (f"slope {entry['slope']:.4f}" if entry["failure"] is None
                 else f"FAILED ({entry['failure']})"))
    print(f"wrote {outdir}/ (summary.yaml); passed = {ok}")
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    if args.config == "airy":
        airy_rows = airy_ratio_tables()
        rows = _airy_bound_rows(airy_rows)
        report = VerifyReport(tuple(rows), tuple(airy_rows),
                              all(r.passed for r in rows))
    else:
        report = run_verify_suite(load_config(args.config),
                                  include_airy=not args.skip_airy)
    outdir = pathlib.Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    write_verify_csv(report, outdir / "verify_bounds.csv")
    if report.airy_rows:
        write_airy_csv(report.airy_rows, outdir / "verify_airy.csv")
    print(report.summary())
    print(f"wrote {outdir}/verify_bounds.csv")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kpist",
        description="Inverse-scattering pipeline for the KP equation "
                    "with small data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-potential", help="synthesize a test potential")
    p.add_argument("--kind", default="gaussian_dx")
    p.add_argument("--amplitude", type=float, required=True)
    p.add_argument("--width", type=float, default=1.0)
    p.add_argument("--half-width", type=float, default=32.0)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_make_potential)

    p = sub.add_parser("scatter", help="direct scattering map")
    p.add_argument("potential")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--half-width", type=float, default=8.0)
    p.add_argument("--n-kl", type=int, default=128)
    p.add_argument("--n-y", type=int, default=128)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=_cmd_scatter)

    p = sub.add_parser("reconstruct", help="solution values at probes")
    p.add_argument("data")
    p.add_argument("--probes", required=True)
    p.add_argument("-o", "--output", default="reconstruct.csv")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--fine-cap", type=int, default=8192)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("rhp-solve", help="raw jump-equation solves at probes")
    p.add_argument("data")
    p.add_argument("--probes", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--fine-cap", type=int, default=8192)
    p.set_defaults(func=_cmd_rhp_solve)

    p = sub.add_parser("evolve-direct", help="pseudospectral time stepping")
    p.add_argument("potential")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--dt", type=float, default=None,
                   help="fixed step, at most the advective CFL bound; "
                        "without it the step is error-controlled: step "
                        f"doubling to {STEP_TOL:g} of max|u|")
    p.add_argument("--segments", type=int, default=8)
    p.add_argument("-o", "--output", default="evolved")
    p.set_defaults(func=_cmd_evolve_direct)

    p = sub.add_parser("decay-fit", help="large-time decay fits on rays")
    p.add_argument("config")
    p.add_argument("-o", "--output", default=None,
                   help="override the config output directory")
    p.set_defaults(func=_cmd_decay_fit)

    p = sub.add_parser("verify", help="bound-verification sweep "
                                      "(config path, or 'airy' for the "
                                      "ratio tables alone)")
    p.add_argument("config")
    p.add_argument("-o", "--output", default="verify_out")
    p.add_argument("--skip-airy", action="store_true")
    p.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
