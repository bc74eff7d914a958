"""The benchmark workloads: inputs from the seed, set-up, and one pass of
queries with the outputs kept for checking.

All three share the ROADMAP reference potential: gaussian_dx, amplitude
0.02, width 1, on a 256^2 box over [-32, 32]^2, with the scattering data
on n_kl = n_y = 128 over [-8, 8].

near    probes from a jittered lattice in (log t, x, y), each served the
        way `kpist reconstruct` serves it (resolution grid, resample,
        reconstruct); one probe is one query.
decay   run_decay_fit on three rays; one (ray, nominal time) cluster
        evaluation is one query.
oracle  the spectral solver to t = 0.25 in 8 segments, as
        `kpist evolve-direct` runs it; one segment is one query.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from bench_trace import Patcher

DEFAULT_SEED = 0
FINE_CAP = 8192
DELTA = 0.05
TOL = 1e-10
WINDOW_REFUSAL = "fine grid must lie inside the source grid"

POTENTIAL = {"kind": "gaussian_dx", "amplitude": 0.02, "width": 1.0,
             "half_width": 32.0, "n": 256}
KL_HALF_WIDTH = 8.0

# near: t log-uniform over [0.1, 3], x and y uniform over [-6, 6], drawn
# as one point per lattice cell, jittered over the central fifth of it
NEAR_T = (0.1, 3.0)
NEAR_XY = 6.0
NEAR_JITTER = 0.2
# decay: the nominal times are scaled by exp(U(-s, s)); the scale keeps
# every probe on the same fine-grid size as the nominal time
DECAY_RAYS = ((-12.0, 0.0), (0.0, 0.0), (6.0, 0.0))
DECAY_TIME_JITTER = 0.03
DECAY_N_TIMES = 6
# oracle: the seed scales the amplitude by 1 + U(-a, a)
ORACLE_AMPLITUDE_JITTER = 0.05


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Problem sizes; TINY is the variant the self-test runs."""

    n_kl: int = 128
    near_lattice: tuple = (4, 12, 8)
    decay_t: tuple = (10.0, 50.0)
    oracle_t: float = 0.25
    oracle_segments: int = 8
    scatter_reps: int = 2
    oracle_reps: int = 9


FULL = Sizes()
TINY = Sizes(n_kl=32, near_lattice=(2, 2, 2), decay_t=(1.0, 2.0),
             oracle_t=1e-3, oracle_segments=2, oracle_reps=3)


@dataclasses.dataclass
class Query:
    """One query: its input key, time, outcome and outputs.

    refused marks the documented domain refusal of a probe whose
    resolution window leaves the computed data; error holds any other
    exception."""

    key: str
    seconds: float
    values: dict = dataclasses.field(default_factory=dict)
    refused: bool = False
    error: str | None = None


class Kpist:
    """The kpist modules, imported and timed once per process."""

    def __init__(self):
        t0 = time.perf_counter()
        import kpist.grids
        import kpist.harness
        import kpist.io
        import kpist.oracle
        import kpist.reconstruct
        import kpist.rhp
        import kpist.scattering
        self.import_s = time.perf_counter() - t0
        self.grids = kpist.grids
        self.harness = kpist.harness
        self.io = kpist.io
        self.oracle = kpist.oracle
        self.reconstruct = kpist.reconstruct
        self.rhp = kpist.rhp
        self.scattering = kpist.scattering


def make_potential(kp: Kpist, amplitude: float = POTENTIAL["amplitude"]):
    g = kp.grids.Grid1D(-POTENTIAL["half_width"], POTENTIAL["half_width"],
                        POTENTIAL["n"])
    return kp.grids.make_test_potential(POTENTIAL["kind"], amplitude,
                                        POTENTIAL["width"], g, g)


def scattering_grids(kp: Kpist, sizes: Sizes):
    g = kp.grids.Grid1D(-KL_HALF_WIDTH, KL_HALF_WIDTH, sizes.n_kl)
    return kp.scattering.ScatteringGrids(g, g)


class ResidualLog:
    """Records the solver residuals of every reconstruct call; wraps
    kpist.reconstruct.solve_dmul_dx in traced and untraced runs alike."""

    def __init__(self, kp: Kpist, patcher):
        self.values: list[float] = []

        def make(orig):
            def wrapper(*args, **kwargs):
                sol = orig(*args, **kwargs)
                self.values.append(max(sol.residual_mu,
                                       sol.residual_dmu or 0.0))
                return sol
            return wrapper

        patcher.replace(kp.reconstruct, "solve_dmul_dx", make)

    def since(self, mark: int) -> float:
        return max(self.values[mark:], default=0.0)


class Near:
    name = "near"

    def __init__(self, sizes: Sizes, seed: int):
        self.sizes = sizes
        self.reps = sizes.scatter_reps
        self.probes = near_probes(seed, sizes.near_lattice)

    def setup(self, kp: Kpist):
        data, _ = kp.harness.compute_scattering(
            make_potential(kp), scattering_grids(kp, self.sizes), tol=TOL)
        return data

    def serve(self, kp: Kpist, data, residuals: ResidualLog
              ) -> tuple[list[Query], None]:
        r = kp.reconstruct
        src = data.grids.grid_kl
        out = []
        for i, (t, x, y) in enumerate(self.probes):
            q = Query(f"p{i:03d}", 0.0,
                      {"t": float(t), "x": float(x), "y": float(y)})
            mark = len(residuals.values)
            t0 = time.perf_counter()
            try:
                grid = r.ray_resolution_grid(t, x, y, cap=FINE_CAP)
                q.values["window"] = [grid.min, grid.max]
                same = (grid.n == src.n and grid.min == src.min
                        and grid.max == src.max)
                work = data if same else r.resample_scattering_data(data,
                                                                    grid)
                s = r.reconstruct(work, t, x, y, delta=DELTA, tol=TOL)
            except ValueError as exc:
                q.seconds = time.perf_counter() - t0
                if WINDOW_REFUSAL in str(exc):
                    q.refused = True
                else:
                    q.error = f"ValueError: {exc}"
            except (RuntimeError, FloatingPointError, MemoryError) as exc:
                q.seconds = time.perf_counter() - t0
                q.error = f"{type(exc).__name__}: {exc}"
            else:
                q.seconds = time.perf_counter() - t0
                q.values.update(u=s.u, u1=s.u1, u2=s.u2,
                                residual=residuals.since(mark))
            out.append(q)
        return out, None


def near_probes(seed: int, lattice) -> np.ndarray:
    """(t, x, y) rows, one per lattice cell, in seeded order."""
    rng = np.random.default_rng(seed)
    cells = np.stack(np.meshgrid(*[np.arange(n) for n in lattice],
                                 indexing="ij"), axis=-1).reshape(-1, 3)
    u = (cells + 0.5 + NEAR_JITTER * (rng.random(cells.shape) - 0.5)) \
        / np.asarray(lattice, dtype=float)
    lo, hi = math.log(NEAR_T[0]), math.log(NEAR_T[1])
    probes = np.column_stack([np.exp(lo + u[:, 0] * (hi - lo)),
                              NEAR_XY * (2.0 * u[:, 1] - 1.0),
                              NEAR_XY * (2.0 * u[:, 2] - 1.0)])
    return probes[rng.permutation(len(probes))]


class Decay:
    name = "decay"

    def __init__(self, sizes: Sizes, seed: int):
        self.sizes = sizes
        self.reps = sizes.scatter_reps
        rng = np.random.default_rng(seed)
        scale = math.exp(rng.uniform(-DECAY_TIME_JITTER, DECAY_TIME_JITTER))
        self.t_range = (sizes.decay_t[0] * scale, sizes.decay_t[1] * scale)

    def setup(self, kp: Kpist):
        return kp.harness.compute_scattering(
            make_potential(kp), scattering_grids(kp, self.sizes), tol=TOL)

    def config(self, kp: Kpist):
        rays = tuple(kp.io.RaySpec(xi, eta, f"xi={xi:g}")
                     for xi, eta in DECAY_RAYS)
        return kp.io.ExperimentConfig(
            potential_path=None, potential_spec=dict(POTENTIAL),
            kl_half_width=KL_HALF_WIDTH, n_kl=self.sizes.n_kl,
            n_y=self.sizes.n_kl, delta=DELTA, tol=TOL, rays=rays,
            t_min=self.t_range[0], t_max=self.t_range[1],
            n_times=DECAY_N_TIMES, output_dir="", fine_cap=FINE_CAP)

    def serve(self, kp: Kpist, state, residuals: ResidualLog
              ) -> tuple[list[Query], list]:
        """run_decay_fit, timed per cluster evaluation.

        A query starts when the fit asks cluster_times for its cluster
        and ends when the next one starts or the ray's fit begins."""
        data, conditions = state
        cfg = self.config(kp)
        ts = cfg.t_samples()
        ray_a = [spec.a for spec in cfg.rays]
        queries: dict = {}
        open_q: list = []

        def close(now):
            if open_q:
                q, t0, mark = open_q.pop()
                q.seconds = now - t0
                q.values["residual"] = residuals.since(mark)

        def make_times(orig):
            def wrapper(t, a, region):
                now = time.perf_counter()
                close(now)
                ray = min(range(len(ray_a)), key=lambda i: abs(ray_a[i] - a))
                j = int(np.argmin(np.abs(ts - t)))
                q = Query(f"ray{ray}.t{j}", 0.0)
                queries[(ray, j)] = q
                open_q.append((q, now, len(residuals.values)))
                return orig(t, a, region)
            return wrapper

        def make_fit(orig):
            def wrapper(*args, **kwargs):
                close(time.perf_counter())
                return orig(*args, **kwargs)
            return wrapper

        patcher = Patcher()
        patcher.replace(kp.harness, "cluster_times", make_times)
        patcher.replace(kp.harness, "fit_power_law", make_fit)
        try:
            fits = kp.harness.run_decay_fit(cfg, data, conditions)
        finally:
            close(time.perf_counter())
            patcher.restore()
        out = []
        for ray, fit in enumerate(fits):
            for j in range(len(ts)):
                q = queries.get((ray, j)) or Query(f"ray{ray}.t{j}", 0.0)
                if fit.failure is not None:
                    q.error = fit.failure
                else:
                    q.values.update(value=fit.values[j],
                                    value_u1=fit.values_u1[j],
                                    value_u2=fit.values_u2[j])
                out.append(q)
        return out, fits


class Oracle:
    name = "oracle"

    def __init__(self, sizes: Sizes, seed: int):
        self.sizes = sizes
        self.reps = sizes.oracle_reps
        rng = np.random.default_rng(seed)
        self.amplitude = POTENTIAL["amplitude"] * (
            1.0 + rng.uniform(-ORACLE_AMPLITUDE_JITTER,
                              ORACLE_AMPLITUDE_JITTER))

    def setup(self, kp: Kpist):
        field = make_potential(kp, self.amplitude)
        return field, kp.oracle.OracleState.from_field(field)

    def serve(self, kp: Kpist, state, residuals: ResidualLog
              ) -> tuple[list[Query], np.ndarray]:
        field, _ = state
        n0 = field.l2_norm()
        ends = np.linspace(0.0, self.sizes.oracle_t,
                           self.sizes.oracle_segments + 1)
        u = field
        out = []
        for k, (prev, end) in enumerate(zip(ends[:-1], ends[1:])):
            q = Query(f"seg{k}", 0.0)
            t0 = time.perf_counter()
            try:
                u = kp.oracle.evolve(u, float(end - prev), dt=None)
                n1 = u.l2_norm()
            except (RuntimeError, ValueError, FloatingPointError) as exc:
                q.seconds = time.perf_counter() - t0
                q.error = f"{type(exc).__name__}: {exc}"
                out.append(q)
                break
            q.seconds = time.perf_counter() - t0
            q.values.update(l2_norm=n1, drift=abs(n1 - n0) / n0,
                            mean_defect=u.x_mean_defect())
            out.append(q)
        for k in range(len(out), self.sizes.oracle_segments):
            out.append(Query(f"seg{k}", 0.0, error="not reached"))
        return out, u.values


WORKLOADS = {"near": Near, "decay": Decay, "oracle": Oracle}
