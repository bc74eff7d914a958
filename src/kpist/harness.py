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
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .grids import PotentialField, check_conditions, partial_fourier_x
from .io import ExperimentConfig, RaySpec, write_csv
from .oscillatory import oscillatory_integral, oscillatory_tail
from .phase_airy import (RayCoordinates, RegionLabel, cubic_phase_transform,
                         half_airy_H)
# reconstruct is not called here: perfbench wraps this module's global of
# that name, so the name stays importable
from .reconstruct import (eval_u1, ray_resolution_grid,  # noqa: F401
                          reconstruct, reconstruct_points,
                          resample_scattering_data)
from .rhp import CTOperator, solve_dmul_dx, weighted_l2
from .scattering import (FamilyKernel, ScatteringData, ScatteringGrids,
                         _triangle_weights, _VolterraPlan, assemble_T,
                         assemble_T1, direct_map_blocks, direct_map_bytes,
                         resample_transform, solve_mu_sharp)

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
# (t, x, y) of the solution rows of the verify sweep
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
             cluster_values) -> DecayFit:
    """Envelope fit along one ray; the one cluster evaluator of both fits.

    Each cluster runs on one working grid, sized by ray_resolution_grid
    for its latest time (the phase rate grows with t);
    cluster_values(fine, points) gives the (|u|, |u1|, |u2|) triples of
    the cluster's (t, x, y) probes on it, evaluated as one stack."""
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
            fine = resample_scattering_data(data, grid)
            triples = cluster_values(fine, [(tc, spec.xi * tc, spec.eta * tc)
                                            for tc in cluster])
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

    Admissibility is decided here, where kernel data enters: outside the
    contractive regime no solve has a convergence guarantee, so failing
    data is refused (ValueError), and no solve downstream checks again.
    The direct map solves both families at once, each one block of k rows
    at a time, so its working set is about twelve K M n_y complex values
    (per block, the three arrays of the solve and one application's
    padded buffer, or mu# and assembly's temporaries), where one byte
    budget for both blocks sets K (scattering.direct_map_blocks), and the
    whole-grid tables beside them (scattering.direct_map_bytes counts
    both). Where the memory available (_available_bytes: MemAvailable,
    and the headroom under the cgroup v1 or v2 limits over the process)
    is smaller than that, the call is refused with ValueError before
    anything is resampled or solved.
    """
    pt = partial_fourier_x(field)
    report = check_conditions(field, pt)
    if not report.passed:
        raise ValueError("smallness conditions fail: " + report.summary())
    return _direct_map(pt, grids, tol), report


def _read_int(path: str) -> int | None:
    """The integer a file holds, None where it cannot be read as one."""
    try:
        with open(path) as fh:
            return int(fh.read().strip())
    except (OSError, ValueError):
        return None


# where a cgroup v2 hierarchy is mounted, alone (unified layout) or beside
# the v1 controllers (hybrid layout), and where v1's memory controller is
_CGROUP_V2_MOUNTS = ("/sys/fs/cgroup", "/sys/fs/cgroup/unified")
_CGROUP_V1_MEMORY = "/sys/fs/cgroup/memory"


def _cgroup_headroom() -> list[int]:
    """Limit less usage for each memory limit over this process: for its
    cgroups named in /proc/self/cgroup (the v2 root where that cannot be
    read) and each of their ancestors, memory.max less memory.current
    under v2 and memory.limit_in_bytes less memory.usage_in_bytes under
    v1's memory controller. A pair that cannot be read gives nothing."""
    try:
        with open("/proc/self/cgroup") as fh:
            lines = fh.read().splitlines()
    except OSError:
        lines = ["0::/"]
    where = []
    for line in lines:
        fields = line.split(":", 2)
        if len(fields) != 3:
            continue
        if fields[0] == "0":
            where += [(mount, fields[2], "memory.max", "memory.current")
                      for mount in _CGROUP_V2_MOUNTS]
        elif "memory" in fields[1].split(","):
            where.append((_CGROUP_V1_MEMORY, fields[2],
                          "memory.limit_in_bytes", "memory.usage_in_bytes"))
    figures = []
    for mount, path, limit_file, used_file in where:
        parts = [p for p in path.split("/") if p]
        for depth in range(len(parts), -1, -1):
            d = "/".join([mount, *parts[:depth]])
            limit = _read_int(f"{d}/{limit_file}")
            used = _read_int(f"{d}/{used_file}")
            if limit is not None and used is not None:
                figures.append(max(0, limit - used))
    return figures


def _available_bytes() -> int | None:
    """Bytes this process may still allocate: the smallest of MemAvailable
    (/proc/meminfo) and the headroom under each cgroup memory limit over
    the process, v1 or v2 (_cgroup_headroom). A figure that cannot be read
    does not count, and memory.max reads "max" (no limit) where none is
    set; None where no figure can be read."""
    figures = _cgroup_headroom()
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    figures.append(int(line.split()[1]) * 1024)
                    break
    except (OSError, ValueError, IndexError):
        pass
    return min(figures, default=None)


def _workers() -> int:
    """Threads of the direct map: one per family, at most one per CPU the
    process may run on (every CPU where the affinity cannot be read)."""
    cpus = getattr(os, "sched_getaffinity",
                   lambda _: range(os.cpu_count() or 1))
    return min(2, len(cpus(0)))


def _direct_map(pt, grids: ScatteringGrids, tol: float):
    """Kernels from a transform its caller has found admissible.

    The plan (every table of the solve and of assembly; it does not
    depend on the sign) and T1 are built once and read by both families,
    each run in a thread of its own (_workers threads; on one CPU, one
    after the other). There each block of k rows (direct_map_blocks) is
    solved on the plan's row views, its rows of T assembled and its mu#
    released before the next, so mu# never exists whole; the FFTs and
    whole-layer ufuncs release the GIL, so the families overlap. A
    failing family's error is raised once both threads have stopped, the
    +1 family's first, as the serial map raised it. The working set
    (direct_map_bytes) is checked first against the memory available
    (_available_bytes); there is no check where no figure can be read."""
    needed = direct_map_bytes(grids)
    available = _available_bytes()
    if available is not None and available < needed:
        raise ValueError(
            f"the direct map needs about {needed} bytes but only "
            f"{available} are available (n_kl = {grids.n_kl}, "
            f"n_y = {grids.n_y})")
    plan = _VolterraPlan(resample_transform(pt, grids), grids)
    T1 = assemble_T1(plan)

    def family(sign: int) -> FamilyKernel:
        kernel = FamilyKernel.empty(grids)
        for rows in direct_map_blocks(grids):
            part = plan.block(rows)
            # each block's mu# is dropped once assemble_T has its rows
            assemble_T(solve_mu_sharp(part, sign, tol=tol), part, T1, kernel)
        return kernel

    pool = ThreadPoolExecutor(_workers())
    try:
        # results in family order: the +1 family's error first
        plus, minus = pool.map(family, (+1, -1))
    finally:
        pool.shutdown(cancel_futures=True)
    return ScatteringData.from_families(plus, minus, T1, plan)


def run_decay_fit(config: ExperimentConfig, data: ScatteringData | None = None,
                  conditions=None) -> list[DecayFit]:
    """Envelope decay fits for every configured ray.

    Admissibility is decided at entry: a supplied failing conditions
    report is refused (ValueError) before any probe runs, and without
    data compute_scattering decides. A probe that misses its solver
    tolerance aborts only its own ray; the failure text lands in that
    ray's record and the rest proceed.
    """
    if conditions is not None and not conditions.passed:
        raise ValueError("smallness conditions fail: " + conditions.summary())
    if data is None:
        data, _ = compute_scattering(config.resolve_potential(),
                                     config.scattering_grids(), tol=config.tol)

    def cluster_values(fine, points):
        return [(abs(s.u), abs(s.u1), abs(s.u2)) for s in reconstruct_points(
            fine, points, delta=config.delta, tol=config.tol)]

    return [_fit_ray(spec, config, data, cluster_values)
            for spec in config.rays]


def run_linear_baseline(config: ExperimentConfig) -> list[DecayFit]:
    """Same fits for the linearized flow, whose rate trichotomy the
    nonlinear rates follow.

    The linear solution is u1 on the linear-order kernels: with T1 the
    unmasked delta-route kernel (scattering.assemble_T1) and T_sigma =
    W_sigma T1 its triangle-weighted families, eval_u1 sums i(l - k)
    sign(l - k) T1 = |l - k| uhat(l - k, -(l^2 - k^2)) against the
    evolved phase, which is the (k, l) form of the linearized evolution
    (linear_kp_crosscheck in tests/reference.py). Each cluster then takes
    the path of a nonlinear one (ray_resolution_grid,
    resample_scattering_data, one CTOperator on its points) with no
    Volterra solve, no Neumann solve and no smallness check. Data that is not zero-mean in
    x is refused (ValueError), as by check_conditions.
    u2 has no linear analogue: its values are 0 and its slope nan."""
    field = config.resolve_potential()
    grids = config.scattering_grids()
    pt = partial_fourier_x(field)
    check_conditions(field, pt)  # only its zero-mean refusal applies
    T1 = assemble_T1(_VolterraPlan(resample_transform(pt, grids), grids))
    n = grids.n_kl
    data = ScatteringData(_triangle_weights(n, +1) * T1,
                          _triangle_weights(n, -1) * T1, T1, grids,
                          {"kernel_order": "linear"})

    def cluster_values(fine, points):
        u1 = eval_u1(CTOperator.build(fine, *zip(*points)))
        return [(abs(v), abs(v), 0.0) for v in map(complex, u1)]

    return [_fit_ray(spec, config, data, cluster_values)
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
        data = _direct_map(pt, grids, config.tol)
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
        # the phase diagonals are unitary and C+, -C- project onto
        # complementary DFT bins, so at every probe the jump operator's
        # 2-norm is at most its Hilbert-Schmidt norm, this bound
        bound = float(np.hypot(data.meta["l2_norm_plus"],
                               data.meta["l2_norm_minus"]))
        rows.append(BoundRow("rhp.contraction", bound, CONTRACTION_LIMIT,
                             bound < CONTRACTION_LIMIT,
                             note="uniform 2-norm bound at every (t,x,y) on "
                                  "the stored kernels: sqrt(|K+|_HS^2 + "
                                  "|K-|_HS^2), dl-weighted"))
        t0, x0, y0 = VERIFY_PROBE
        op = CTOperator.build(data, t0, x0, y0)
        sol = solve_dmul_dx(op, tol=config.tol)
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
