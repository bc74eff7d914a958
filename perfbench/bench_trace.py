"""Spans around the public functions of kpist, recorded from outside the
package.

Each module of kpist calls its collaborators through its own global
names (harness.py imports solve_mu_sharp from scattering, and so on), so
replacing those names with timing wrappers sees every call without a
change to the package. Spans are kept in memory and turned into the
per-layer metrics when the run ends. A span's self time is its duration
minus the time of the spans opened directly inside it.
"""

from __future__ import annotations

import functools
import statistics
import time
import warnings

UNDERRESOLVED_TEXT = "oscillatory weight advances"


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "attrs",
                 "error")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.attrs: dict = {}
        self.error: str | None = None
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


class Patcher:
    """Replaces attributes of modules or classes and puts them back."""

    def __init__(self):
        self._saved: list = []

    def replace(self, owner, attr: str, make) -> None:
        orig = getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, functools.wraps(orig)(make(orig)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


def _span_wrapper(tracer: Tracer, name: str, on_result=None):
    def make(orig):
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                span.error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                tracer.close(span)
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result
        return wrapper
    return make


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _mu_attrs(span, args, kwargs, mu):
    span.attrs["iterations"] = mu.iterations
    span.attrs["ratio_max"] = max(mu.contraction_ratios, default=0.0)


def _fine_attrs(span, args, kwargs, data):
    span.attrs["n"] = data.grids.n_kl


def _rhp_attrs(span, args, kwargs, sol):
    span.attrs["iterations"] = sol.iterations
    span.attrs["residual"] = max(sol.residual_mu, sol.residual_dmu or 0.0)


def _kernel_copy_attrs(span, args, kwargs, kernel):
    # the minus family is handed out negated: a fresh n^2 array
    if _arg(args, kwargs, 1, "sign") == -1:
        span.attrs["bytes"] = kernel.nbytes


def _derivative_attrs(span, args, kwargs, ev):
    b = ev.base
    span.attrs["bytes"] = b.T_plus.nbytes + b.T_minus.nbytes + b.T1.nbytes


def _step_attrs(span, args, kwargs, state):
    dt = args[1] if len(args) > 1 else kwargs.get("dt")
    span.attrs["dt"] = float(dt if dt is not None else state.dt)


def install_spans(patcher: Patcher, tracer: Tracer, kp) -> None:
    """Wrap the public functions each kpist module calls by global name."""
    h, s, r = kp.harness, kp.scattering, kp.reconstruct
    q, o = kp.rhp, kp.oracle
    orig_grid = r.ray_resolution_grid

    def _cap_attrs(span, args, kwargs, grid):
        cap = kwargs.get("cap", args[3] if len(args) > 3 else 8192)
        free = orig_grid(*args[:3], cap=2**62)
        span.attrs["capped"] = free.n > cap

    table = [
        (kp.grids, "make_test_potential", "grids.make_test_potential", None),
        (h, "partial_fourier_x", "grids.partial_fourier_x", None),
        (h, "check_conditions", "grids.check_conditions", None),
        (h, "compute_scattering", "harness.compute_scattering", None),
        (h, "resample_transform", "scattering.resample_transform", None),
        (h, "solve_mu_sharp", "scattering.solve_mu_sharp", _mu_attrs),
        (s, "g_on_delta", "scattering.g_on_delta", None),
        (s, "apply_g", "scattering.apply_g", None),
        (h, "assemble_T", "scattering.assemble_T", None),
        (h, "ray_resolution_grid", "reconstruct.ray_resolution_grid",
         _cap_attrs),
        (r, "ray_resolution_grid", "reconstruct.ray_resolution_grid",
         _cap_attrs),
        (h, "resample_scattering_data", "reconstruct.resample", _fine_attrs),
        (r, "resample_scattering_data", "reconstruct.resample", _fine_attrs),
        (h, "reconstruct", "reconstruct.reconstruct", None),
        (r, "reconstruct", "reconstruct.reconstruct", None),
        (r, "solve_dmul_dx", "rhp.solve_dmul_dx", _rhp_attrs),
        (r, "eval_u1", "reconstruct.eval_u1", None),
        (r, "eval_u2", "reconstruct.eval_u2", None),
        (r, "family_kernel", "rhp.family_kernel", _kernel_copy_attrs),
        (q, "family_kernel", "rhp.family_kernel", _kernel_copy_attrs),
        (q, "solve_mul", "rhp.solve_mul", None),
        (q, "derivative_data", "rhp.derivative_data", _derivative_attrs),
        (q.CTOperator, "__call__", "rhp.ct_apply", None),
        (h, "cluster_times", "harness.cluster_times", None),
        (h, "fit_power_law", "harness.fit_power_law", None),
        (o, "step", "oracle.step", _step_attrs),
        (o, "cfl_bound", "oracle.cfl_bound", None),
    ]
    for owner, attr, name, on_result in table:
        patcher.replace(owner, attr, _span_wrapper(tracer, name, on_result))


class WarningCounter:
    """Counts the under-resolution RuntimeWarnings instead of printing
    them, and passes every other warning on; installed in traced and
    untraced runs alike, so both pay the same cost."""

    def __init__(self):
        self.count = 0
        self._ctx = warnings.catch_warnings()
        self._show_other = warnings.showwarning

    def __enter__(self):
        self._ctx.__enter__()
        warnings.simplefilter("always")
        warnings.showwarning = self._show
        return self

    def __exit__(self, *exc):
        return self._ctx.__exit__(*exc)

    def _show(self, message, *args, **kwargs):
        if UNDERRESOLVED_TEXT in str(message):
            self.count += 1
        else:
            self._show_other(message, *args, **kwargs)


# (name, unit, better) of every per-layer metric, in print order
PER_LAYER = [
    ("grids.busy_s", "s", "lower"),
    ("scattering.resample_transform_s", "s", "lower"),
    ("scattering.g_on_delta_s", "s", "lower"),
    ("scattering.solve_mu_sharp_s", "s", "lower"),
    ("scattering.mu_iterations", "count", "lower"),
    ("scattering.mu_ratio_max", "1", "lower"),
    ("scattering.apply_g_calls", "count", "lower"),
    ("scattering.apply_g_s", "s", "lower"),
    ("scattering.assemble_T_s", "s", "lower"),
    ("reconstruct.resample_calls", "count", "lower"),
    ("reconstruct.resample_s", "s", "lower"),
    ("reconstruct.fine_n_max", "count", "lower"),
    ("reconstruct.fine_bytes", "B", "lower"),
    ("reconstruct.window_rejects", "count", "lower"),
    ("reconstruct.cap_hits", "count", "lower"),
    ("rhp.solve_mul_s", "s", "lower"),
    ("rhp.solve_dmul_dx_s", "s", "lower"),
    ("rhp.neumann_iterations", "count", "lower"),
    ("rhp.ct_apply_calls", "count", "lower"),
    ("rhp.ct_apply_s", "s", "lower"),
    ("rhp.derivative_data_s", "s", "lower"),
    ("rhp.kernel_copy_bytes", "B", "lower"),
    ("rhp.residual_max", "1", "lower"),
    ("reconstruct.reconstruct_calls", "count", "lower"),
    ("reconstruct.eval_u1_s", "s", "lower"),
    ("reconstruct.eval_u2_s", "s", "lower"),
    ("reconstruct.underresolved_warnings", "count", "lower"),
    ("harness.cluster_evals", "count", "higher"),
    ("harness.probes_per_resample", "1", "higher"),
    ("harness.fit_s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("oracle.steps", "count", "lower"),
    ("oracle.step_s_p50", "s", "lower"),
    ("oracle.dt_eff", "1", "higher"),
    ("oracle.cfl_bound_calls", "count", "lower"),
    ("oracle.cfl_bound_s", "s", "lower"),
    ("oracle.l2_drift", "1", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]


def _named(spans, name):
    return [sp for sp in spans if sp.name == name]


def _total(spans, name) -> float:
    return sum(sp.duration for sp in _named(spans, name))


def setup_metrics(spans) -> dict:
    """Layer metrics of one set-up (L0 and L1)."""
    mus = _named(spans, "scattering.solve_mu_sharp")
    return {
        "grids.busy_s": sum(sp.duration for sp in spans
                            if sp.name.startswith("grids.")),
        "scattering.resample_transform_s":
            _total(spans, "scattering.resample_transform"),
        "scattering.g_on_delta_s": _total(spans, "scattering.g_on_delta"),
        "scattering.solve_mu_sharp_s": _total(spans,
                                              "scattering.solve_mu_sharp"),
        "scattering.mu_iterations": sum(sp.attrs.get("iterations", 0)
                                        for sp in mus),
        "scattering.mu_ratio_max": max((sp.attrs.get("ratio_max", 0.0)
                                        for sp in mus), default=0.0),
        "scattering.apply_g_calls": len(_named(spans, "scattering.apply_g")),
        "scattering.apply_g_s": _total(spans, "scattering.apply_g"),
        "scattering.assemble_T_s": _total(spans, "scattering.assemble_T"),
    }


def median_metrics(per_rep: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in per_rep) for k in per_rep[0]}


def query_metrics(spans, wall_s: float, warnings_seen: int,
                  l2_drift: float) -> dict:
    """Layer metrics of the query phase (L2 to L5 and O)."""
    grids = _named(spans, "reconstruct.ray_resolution_grid")
    resamples = _named(spans, "reconstruct.resample")
    served = [sp for sp in resamples if sp.error is None]
    rejects = [sp for sp in resamples
               if sp.error and "inside the source grid" in sp.error]
    recon = _named(spans, "reconstruct.reconstruct")
    dmul = _named(spans, "rhp.solve_dmul_dx")
    steps = _named(spans, "oracle.step")
    copies = _named(spans, "rhp.family_kernel") + \
        _named(spans, "rhp.derivative_data")
    resample_s = _total(spans, "reconstruct.resample")
    recon_s = _total(spans, "reconstruct.reconstruct")
    return {
        "reconstruct.resample_calls": len(resamples),
        "reconstruct.resample_s": resample_s,
        "reconstruct.fine_n_max": max((sp.attrs["n"] for sp in served),
                                      default=0),
        "reconstruct.fine_bytes": sum(3 * sp.attrs["n"] ** 2 * 16
                                      for sp in served),
        "reconstruct.window_rejects": len(rejects),
        "reconstruct.cap_hits": sum(1 for sp in grids
                                    if sp.attrs.get("capped")),
        "rhp.solve_mul_s": _total(spans, "rhp.solve_mul"),
        "rhp.solve_dmul_dx_s": sum(sp.self_s for sp in dmul),
        "rhp.neumann_iterations": sum(sp.attrs.get("iterations", 0)
                                      for sp in dmul),
        "rhp.ct_apply_calls": len(_named(spans, "rhp.ct_apply")),
        "rhp.ct_apply_s": _total(spans, "rhp.ct_apply"),
        "rhp.derivative_data_s": _total(spans, "rhp.derivative_data"),
        "rhp.kernel_copy_bytes": sum(sp.attrs.get("bytes", 0)
                                     for sp in copies),
        "rhp.residual_max": max((sp.attrs.get("residual", 0.0)
                                 for sp in dmul), default=0.0),
        "reconstruct.reconstruct_calls": len(recon),
        "reconstruct.eval_u1_s": _total(spans, "reconstruct.eval_u1"),
        "reconstruct.eval_u2_s": _total(spans, "reconstruct.eval_u2"),
        "reconstruct.underresolved_warnings": warnings_seen,
        "harness.cluster_evals": len(_named(spans, "harness.cluster_times")),
        "harness.probes_per_resample": len(recon) / max(1, len(served)),
        "harness.fit_s": _total(spans, "harness.fit_power_law"),
        "harness.self_s": wall_s - resample_s - recon_s,
        "oracle.steps": len(steps),
        "oracle.step_s_p50": statistics.median(sp.duration for sp in steps)
        if steps else 0.0,
        "oracle.dt_eff": statistics.median(sp.attrs["dt"] for sp in steps)
        if steps else 0.0,
        "oracle.cfl_bound_calls": len(_named(spans, "oracle.cfl_bound")),
        "oracle.cfl_bound_s": _total(spans, "oracle.cfl_bound"),
        "oracle.l2_drift": l2_drift,
        "trace.wall_s": wall_s,
        "trace.spans": len(spans),
    }
