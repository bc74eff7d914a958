"""Experiment orchestration: ray decay fits, linear baselines, and the
bound-verification sweep.

Fits are least squares on (log t, log |u|) over log-spaced times; in the
oscillatory region each nominal time expands into a micro-cluster whose
per-cluster maximum estimates the envelope (the decay statements bound
the envelope, not the pointwise oscillation). The nonlinear fit and the
linear baseline share one probe path and differ only in the kernels and
the per-probe value. Outputs are plain CSV with repr() floats so reruns
produce identical bytes.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .grids import PotentialField, check_conditions, partial_fourier_x
from .io import ExperimentConfig, RaySpec, write_csv
from .oscillatory import oscillatory_integral, oscillatory_tail
from .phase_airy import (RayCoordinates, RegionLabel, cubic_phase_transform,
                         half_airy_H)
# resample_scattering_data is not called here: perfbench wraps this module's
# global of that name, so the name stays importable
from .reconstruct import (eval_u1, ray_resolution_grid,  # noqa: F401
                          reconstruct, resample_scattering_data, working_data)
from .rhp import CTOperator, solve_dmul_dx, weighted_l2
from .scattering import (ScatteringData, ScatteringGrids, _triangle_weights,
                         assemble_T, assemble_T1, resample_transform,
                         solve_mu_sharp)

__all__ = [
    "DecayFit", "BoundRow", "VerifyReport", "fit_power_law", "cluster_times",
    "compute_scattering", "run_decay_fit", "run_linear_baseline",
    "run_verify_suite", "airy_ratio_tables",
    "write_decay_csv", "write_verify_csv", "write_airy_csv",
    "decay_fit_passes",
]

# cluster of 5 nominal-time neighbours spaced a quarter oscillation
# period apart; the envelope is their per-time maximum
CLUSTER_SIZE = 5
CONTRACTION_LIMIT = 0.5
AIRY_IDENTITY_TOL = 1e-6
RATIO_SLACK = 1.15
# (t, x, y) of the contraction and solution rows of the verify sweep
VERIFY_PROBE = (0.0, 0.7, -0.4)


@dataclasses.dataclass(frozen=True)
class DecayFit:
    """Fitted decay along one ray; failure holds the abort reason."""

    ray: RayCoordinates
    t_samples: tuple
    values: tuple
    slope: float
    slope_stderr: float
    region: RegionLabel
    values_u1: tuple = ()
    values_u2: tuple = ()
    slope_u1: float = float("nan")
    slope_u2: float = float("nan")
    dropped: int = 0
    label: str = ""
    failure: str | None = None

    def __post_init__(self):
        if self.failure is not None:
            return
        ts = self.t_samples
        if len(ts) < 6:
            raise ValueError("a fit needs at least 6 time samples")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("time samples must be strictly increasing")
        if not np.isfinite(self.slope_stderr):
            raise ValueError("slope_stderr must be finite")


def _least_squares_line(x: np.ndarray, y: np.ndarray):
    xb = x.mean()
    yb = y.mean()
    sxx = float(np.sum((x - xb) ** 2))
    slope = float(np.sum((x - xb) * (y - yb)) / sxx)
    resid = y - (yb + slope * (x - xb))
    dof = max(x.size - 2, 1)
    sigma = float(np.sqrt(np.sum(resid**2) / dof))
    stderr = float(np.sqrt(sigma**2 / sxx))
    return slope, stderr, resid, sigma


def fit_power_law(t_samples, values):
    """Slope of log|u| vs log t; returns (slope, stderr, n_dropped).

    If the two smallest-t residuals exceed 2 sigma the pair is dropped
    and the line refitted (early-time transients contaminate otherwise).
    """
    ts = np.asarray(t_samples, dtype=float)
    vs = np.asarray(values, dtype=float)
    if ts.size < 6:
        raise ValueError("need at least 6 samples for a slope fit")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("time samples must be strictly increasing")
    if not np.all(np.isfinite(vs)) or np.any(vs <= 0):
        raise ValueError("values must be positive and finite")
    x = np.log(ts)
    y = np.log(vs)
    slope, stderr, resid, sigma = _least_squares_line(x, y)
    dropped = 0
    if sigma > 0 and float(np.max(np.abs(resid[:2]))) > 2.0 * sigma:
        slope, stderr, _, _ = _least_squares_line(x[2:], y[2:])
        dropped = 2
    return slope, stderr, dropped


def cluster_times(t: float, a: float, region: RegionLabel) -> tuple:
    """Envelope micro-cluster around a nominal time.

    Only oscillatory rays need one; spacing is a quarter of the local
    oscillation period of the stationary-phase cosine. The cluster goes
    one-sided when the symmetric stencil would cross t = 0.
    """
    if region is not RegionLabel.OSCILLATORY or a >= 0:
        return (t,)
    spacing = 2.0 * np.pi / (16.0 * abs(a) ** 1.5 * 3.0)
    offsets = range(-(CLUSTER_SIZE // 2), CLUSTER_SIZE // 2 + 1)
    if t - (CLUSTER_SIZE // 2) * spacing <= 0:
        offsets = range(CLUSTER_SIZE)
    return tuple(t + j * spacing for j in offsets)


def _slope_or_nan(ts, vs) -> float:
    try:
        return fit_power_law(ts, vs)[0]
    except ValueError:
        return float("nan")


def _fit_ray(spec: RaySpec, config: ExperimentConfig, data: ScatteringData,
             probe_values) -> DecayFit:
    """Envelope fit along one ray; the one cluster evaluator of both fits.

    Each cluster runs on one working grid, sized by ray_resolution_grid
    for its latest time (the phase rate grows with t); probe_values(fine,
    t, x, y) gives the (|u|, |u1|, |u2|) triple of one probe on it."""
    ts = config.t_samples()
    rc = RayCoordinates.from_ray(float(ts[0]), spec.xi, spec.eta)
    region = rc.region(config.delta)
    env, env1, env2 = [], [], []
    try:
        for t in ts:
            cluster = cluster_times(float(t), rc.a, region)
            t_ref = max(cluster)
            grid = ray_resolution_grid(t_ref, spec.xi * t_ref,
                                       spec.eta * t_ref, cap=config.fine_cap)
            fine = working_data(data, grid)
            triples = [probe_values(fine, tc, spec.xi * tc, spec.eta * tc)
                       for tc in cluster]
            env.append(max(v[0] for v in triples))
            env1.append(max(v[1] for v in triples))
            env2.append(max(v[2] for v in triples))
        slope, stderr, dropped = fit_power_law(ts, env)
    except (RuntimeError, ValueError, FloatingPointError) as exc:
        return DecayFit(ray=rc, t_samples=(), values=(), slope=float("nan"),
                        slope_stderr=float("nan"), region=region,
                        label=spec.label,
                        failure=f"{type(exc).__name__}: {exc}")
    return DecayFit(ray=rc, t_samples=tuple(float(t) for t in ts),
                    values=tuple(env), slope=slope, slope_stderr=stderr,
                    region=region, values_u1=tuple(env1),
                    values_u2=tuple(env2),
                    slope_u1=_slope_or_nan(ts, env1),
                    slope_u2=_slope_or_nan(ts, env2),
                    dropped=dropped, label=spec.label)


def compute_scattering(field: PotentialField, grids: ScatteringGrids,
                       tol: float = 1e-10):
    """Direct map on a field; returns (data, conditions report). data.meta
    carries the solves' iteration counts, residuals and mu X norms.

    The smallness report is enforced: outside the contractive regime the
    layered solve has no convergence guarantee, so this refuses to run.
    """
    pt = partial_fourier_x(field)
    report = check_conditions(field, pt)
    if not report.passed:
        raise ValueError("smallness conditions fail: " + report.summary())
    return _direct_map(pt, report, grids, tol), report


def _direct_map(pt, report, grids: ScatteringGrids, tol: float):
    """Kernels from a transform whose conditions report has passed."""
    ut = resample_transform(pt, grids)
    mu_p = solve_mu_sharp(ut, +1, grids, tol=tol, conditions=report)
    mu_m = solve_mu_sharp(ut, -1, grids, tol=tol, conditions=report)
    return assemble_T(mu_p, mu_m, ut, grids)


def run_decay_fit(config: ExperimentConfig, data: ScatteringData | None = None,
                  conditions=None) -> list[DecayFit]:
    """Envelope decay fits for every configured ray.

    A probe that misses its solver tolerance aborts only its own ray;
    the failure text lands in that ray's record and the rest proceed.
    """
    if data is None:
        field = config.resolve_potential()
        data, conditions = compute_scattering(field, config.scattering_grids(),
                                              tol=config.tol)

    def probe_values(fine, t, x, y):
        s = reconstruct(fine, t, x, y, delta=config.delta, tol=config.tol,
                        conditions=conditions)
        return abs(s.u), abs(s.u1), abs(s.u2)

    return [_fit_ray(spec, config, data, probe_values)
            for spec in config.rays]


def run_linear_baseline(config: ExperimentConfig) -> list[DecayFit]:
    """Same fits for the linearized flow, whose rate trichotomy the
    nonlinear rates follow.

    The linear solution is u1 on the linear-order kernels: with T1 the
    unmasked delta-route kernel (scattering.assemble_T1) and T_sigma =
    W_sigma T1 its triangle-weighted families, eval_u1 sums i(l - k)
    sign(l - k) T1 = |l - k| uhat(l - k, -(l^2 - k^2)) against the
    evolved phase, which is the (k, l) form of the linearized evolution
    (reconstruct.linear_kp_crosscheck). Each probe then takes the path of
    a nonlinear probe (ray_resolution_grid, working_data, CTOperator) with
    no Volterra solve, no Neumann solve and no smallness check. Data that
    is not zero-mean in x is refused (ValueError), as by check_conditions.
    u2 has no linear analogue: its values are 0 and its slope nan."""
    field = config.resolve_potential()
    grids = config.scattering_grids()
    pt = partial_fourier_x(field)
    check_conditions(field, pt)  # only its zero-mean refusal applies
    T1 = assemble_T1(resample_transform(pt, grids), grids)
    n = grids.n_kl
    data = ScatteringData(_triangle_weights(n, +1) * T1,
                          _triangle_weights(n, -1) * T1, T1, grids,
                          {"kernel_order": "linear"})

    def probe_values(fine, t, x, y):
        v = abs(eval_u1(CTOperator.build(fine, t, x, y)))
        return v, v, 0.0

    return [_fit_ray(spec, config, data, probe_values)
            for spec in config.rays]


def decay_fit_passes(specs, fits, use_linear: bool = False) -> bool:
    """All rays fitted and every configured slope window satisfied."""
    for spec, fit in zip(specs, fits):
        if fit.failure is not None:
            return False
        window = spec.linear_slope_window if use_linear else spec.slope_window
        if window is not None:
            lo, hi = window
            if not (lo <= fit.slope <= hi):
                return False
    return True


@dataclasses.dataclass(frozen=True)
class BoundRow:
    name: str
    measured: float
    limit: float
    passed: bool
    note: str = ""


@dataclasses.dataclass(frozen=True)
class VerifyReport:
    rows: tuple
    airy_rows: tuple
    passed: bool

    def summary(self) -> str:
        lines = []
        for r in self.rows:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"[{status}] {r.name}: measured {r.measured:.6g} "
                         f"vs limit {r.limit:.6g}"
                         + (f" ({r.note})" if r.note else ""))
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def _cubic_phase_quadrature(a: float, t: float, xi: float) -> float:
    """Independent slow route for the cubic-phase transform: refined
    Simpson on the half line plus a two-term integration-by-parts tail."""
    w = xi + 12.0 * t * a
    phi = lambda k: w * k + 4.0 * t * k**3
    dphi = lambda k: w + 12.0 * t * k**2
    d2phi = lambda k: 24.0 * t * k
    s_max = np.sqrt(max(0.0, -w) / (12.0 * t))
    L = s_max + 2.0
    while abs(d2phi(L)) / abs(dphi(L)) ** 3 > 1e-10:
        L *= 1.3
    head = oscillatory_integral(0.0, L, phi, dphi, pts_per_wave=128,
                                n_cells=max(256, int(16 * L)))
    tail, _ = oscillatory_tail(phi, dphi, d2phi, L)
    return 2.0 * (head + tail).real / np.sqrt(2.0 * np.pi)


def _nondegenerate_sup(t: float, k_lowers) -> float:
    # ratio sup of |H| / (t^(-1/2) (1 + |xi|)) at a = -1. The two
    # stationary points interfere, so the pointwise |H| oscillates in xi
    # with period ~pi; near xi = 0 (where the penalized sup lives) each
    # sample is the max over a 7-point cluster spanning one period,
    # attributed to the nominal xi. The far wings cannot win the sup and
    # get single evaluations for coverage.
    dense = (0.0, -0.7, 0.7, -1.4, 1.4)
    coarse = (-10.0, -7.5, -5.0, -2.5, 2.5, 5.0, 7.5, 10.0)
    best = 0.0
    for k0 in k_lowers:
        for xi in dense:
            lstar = np.sqrt(max(0.0, 1.0 + xi / (12.0 * t)))
            step = np.pi / (7.0 * max(lstar, 0.3))
            env = max(abs(half_airy_H(t, -1.0, float(xi + j * step),
                                      k_lower=k0)) for j in range(7))
            best = max(best, env / (t**-0.5 * (1.0 + abs(xi))))
        for xi in coarse:
            h = abs(half_airy_H(t, -1.0, float(xi), k_lower=k0))
            best = max(best, h / (t**-0.5 * (1.0 + abs(xi))))
    return best


def _degenerate_sup(t: float, k_lowers) -> float:
    # sup of |H| t^(1/3) over |a| <= 0.05, |xi| <= 10. The phase
    # depends on (a, xi) only through w = 12 t a - xi, so the scan walks
    # the reachable w interval directly: dense near the Airy peak
    # w ~ -(12 t)^(1/3), coarse across the rest.
    s = (12.0 * t) ** (1.0 / 3.0)
    w_max = 0.6 * t + 10.0
    ws = np.unique(np.concatenate([np.linspace(-4.0, 2.0, 25) * s,
                                   np.linspace(-w_max, w_max, 9)]))
    best = 0.0
    for k0 in k_lowers:
        for w in ws:
            h = abs(half_airy_H(t, 0.0, float(-w), k_lower=k0))
            best = max(best, h * t ** (1.0 / 3.0))
    return best


def airy_ratio_tables(t_values=(10.0, 40.0, 160.0),
                      k_lowers=(-5.0, 0.0, 5.0)) -> list:
    """Scaled sups of the half-line cubic-phase integrals.

    nondegenerate table: envelope sup of |H| / (t^{-1/2} (1 + |xi|)) at
    a = -1; degenerate table: sup of |H| t^{1/3} over |a| <= 0.05.
    Rows are (table, t, sup_value).
    """
    rows = []
    for t in t_values:
        rows.append(("nondegenerate", float(t),
                     float(_nondegenerate_sup(float(t), k_lowers))))
    for t in t_values:
        rows.append(("degenerate", float(t),
                     float(_degenerate_sup(float(t), k_lowers))))
    return rows


def _airy_bound_rows(airy_rows) -> list:
    rows = []
    nd = [r for r in airy_rows if r[0] == "nondegenerate"]
    worst = max(b[2] / a[2] for a, b in zip(nd, nd[1:]))
    rows.append(BoundRow("halfline.nondegenerate.monotone", float(worst),
                         RATIO_SLACK, worst <= RATIO_SLACK,
                         note="successive envelope sup ratio, scaled "
                              "t^-1/2 (1+|xi|)"))
    dg = [r for r in airy_rows if r[0] == "degenerate"]
    vals = [r[2] for r in dg]
    spread = max(vals) / min(vals)
    rows.append(BoundRow("halfline.degenerate.stable", float(spread),
                         RATIO_SLACK, spread <= RATIO_SLACK,
                         note="max/min across t of sup |H| t^(1/3) over "
                              "|a| <= 0.05"))
    a_id, t_id, xi_id = -1.0, 2.0, 0.5
    closed = cubic_phase_transform(a_id, t_id, xi_id)
    quad = _cubic_phase_quadrature(a_id, t_id, xi_id)
    rel = abs(closed - quad) / abs(quad)
    rows.append(BoundRow("airy.quadrature.identity", float(rel),
                         AIRY_IDENTITY_TOL, rel <= AIRY_IDENTITY_TOL,
                         note=f"closed form vs slow quadrature at "
                              f"(a,t,xi)=({a_id},{t_id},{xi_id})"))
    return rows


def _hs_proxy(base: ScatteringData) -> float:
    # upper bound for the norm of the jump operator's x-derivative:
    # Frobenius of each family's gap kernel i(l - k)K, summed over blocks
    # of rows, times the grid weight, projectors and phase diagonals being
    # contractions in the weighted norm
    pts = base.grids.grid_kl.points
    norms = []
    for kernel in (base.T_plus, base.T_minus):
        sq = sum(np.sum(np.abs((pts - pts[i:i + 64, None])
                               * kernel[i:i + 64]) ** 2)
                 for i in range(0, len(pts), 64))
        norms.append(np.sqrt(sq))
    return float(sum(norms) * base.grids.grid_kl.spacing)


def run_verify_suite(config: ExperimentConfig,
                     include_airy: bool = True) -> VerifyReport:
    """Numerical inequality sweep on the configured potential.

    Every analytic bound the solvers rely on is evaluated with its
    frozen slack; a failing smallness report short-circuits the solves
    (iterating outside the contractive regime proves nothing) and marks
    the contraction row failed.
    """
    field = config.resolve_potential()
    pt = partial_fourier_x(field)
    report = check_conditions(field, pt)
    grids = config.scattering_grids()
    rows = [BoundRow("smallness.conditions", report.w_norm,
                     (1.0 - report.c) / 4.0 if report.c < 1.0 else 0.0,
                     report.passed, note=report.summary())]
    if not report.passed:
        rows.append(BoundRow("rhp.contraction", float("nan"),
                             CONTRACTION_LIMIT, False,
                             note="not attempted: smallness conditions fail"))
    else:
        data = _direct_map(pt, report, grids, config.tol)
        guard = np.sqrt(np.pi) * report.w_norm / (1.0 - report.c) * 1.05
        for name in ("plus", "minus"):
            measured = data.meta[f"mu_{name}_xnorm"]
            rows.append(BoundRow(f"layered.solution.xnorm.{name}", measured,
                                 guard, measured <= guard,
                                 note="sup_y L2 norm vs source bound, "
                                      "5% slack"))
        kern_guard = report.w_norm / (1.0 - report.c) * 1.05
        for name in ("plus", "minus"):
            measured = data.meta[f"l2_norm_{name}"]
            rows.append(BoundRow(f"kernel.l2.{name}", measured, kern_guard,
                                 measured <= kern_guard,
                                 note="kernel L2 vs weighted-data bound, "
                                      "5% slack"))
        t0, x0, y0 = VERIFY_PROBE
        op = CTOperator.build(data, t0, x0, y0)
        sigma = op.norm()
        rows.append(BoundRow("rhp.contraction", sigma, CONTRACTION_LIMIT,
                             sigma < CONTRACTION_LIMIT,
                             note=f"2-norm at probe "
                                  f"(t,x,y)=({t0},{x0},{y0})"))
        sol = solve_dmul_dx(op, tol=config.tol, conditions=report)
        dl = grids.grid_kl.spacing
        f_norm = weighted_l2(op.on_constant(), dl)
        mu_norm = weighted_l2(sol.mu_minus_1, dl)
        rows.append(BoundRow("rhp.solution.l2", mu_norm,
                             2.0 * f_norm * 1.05, mu_norm <= 2.0 * f_norm * 1.05,
                             note="|mu - 1| vs twice the forcing, 5% slack"))
        df_norm = weighted_l2(op.derivative(np.ones(grids.n_kl)), dl)
        d_limit = (2.0 * df_norm
                   + 4.0 * _hs_proxy(data) * f_norm) * 1.10
        d_norm = weighted_l2(sol.dmu_dx, dl)
        rows.append(BoundRow("rhp.derivative.l2", d_norm, d_limit,
                             d_norm <= d_limit,
                             note="x-derivative norm vs chained bound with "
                                  "Hilbert-Schmidt proxies, 10% slack"))
    airy_rows = []
    if include_airy:
        airy_rows = airy_ratio_tables()
        rows.extend(_airy_bound_rows(airy_rows))
    return VerifyReport(tuple(rows), tuple(airy_rows),
                        all(r.passed for r in rows))


DECAY_HEADER = ("label", "region", "xi", "eta", "a", "t", "value", "value_u1",
                "value_u2", "slope", "slope_stderr", "slope_u1", "slope_u2",
                "dropped", "failure")


def write_decay_csv(fits, path):
    rows = []
    for fit in fits:
        base = (fit.label, fit.region.value, fit.ray.xi, fit.ray.eta,
                fit.ray.a)
        if fit.failure is not None:
            rows.append(base + ("", "", "", "", "", "", "", "", "",
                                fit.failure))
            continue
        for i, t in enumerate(fit.t_samples):
            rows.append(base + (t, fit.values[i], fit.values_u1[i],
                                fit.values_u2[i], fit.slope, fit.slope_stderr,
                                fit.slope_u1, fit.slope_u2, fit.dropped, ""))
    return write_csv(path, DECAY_HEADER, rows)


def write_verify_csv(report: VerifyReport, path):
    rows = [(r.name, r.measured, r.limit, r.passed, r.note)
            for r in report.rows]
    return write_csv(path, ("name", "measured", "limit", "passed", "note"),
                     rows)


def write_airy_csv(airy_rows, path):
    return write_csv(path, ("table", "t", "sup_value"), airy_rows)
