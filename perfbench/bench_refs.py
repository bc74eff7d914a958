"""Correctness of a pass: committed references for the default seed,
invariants for every other seed.

Tolerance. A value passes when |v - ref| <= RTOL |ref| + ATOL_SHARE * s,
s being the largest reference magnitude of the stream. RTOL = 1e-7 is
loose for reordered float sums: gemm in place of gemv, another FFT
padding or a fused phase diagonal move a result by about 1e-15 relative
per operation, and the Neumann solves stop at tol = 1e-10, so even a
different but convergent operator ordering lands within ~1e-10. It is
tight for wrong answers: the second-order term u2 is a median 7e-3 of u
on the near stream, and the nonlinear part of the oracle field at
t = 0.25 is 8e-3 of its peak, so dropping either misses by four orders
or more. Slopes are compared to SLOPE_ATOL = 1e-3: the xi = 6 envelope
is ~1e-9 against a scale of ~2e-4, so its slope moves by up to ~1e-4
within the value tolerance, while the rates of the three regions differ
by 0.3 or more.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib

import numpy as np

REFS = pathlib.Path(__file__).resolve().parent / "refs"
RTOL = 1e-7
ATOL_SHARE = 1e-7
SLOPE_ATOL = 1e-3
INPUT_ATOL = 1e-12
IDENTITY_RTOL = 1e-12
# plausibility gate on the fitted slopes for seeds without references:
# about t^-1 on the oscillatory ray (-1.012 at the default seed), about
# t^-4/3 on xi = 0 (-1.337), and faster than t^-2 on xi = 6, whose tiny
# envelope swings with the sample times (-3.587, -2.884 on [10, 50])
DECAY_SLOPE_WINDOWS = ((-1.15, -0.85), (-1.5, -1.2), (-6.0, -2.0))


def _pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _close(v, ref, scale) -> bool:
    return abs(v - ref) <= RTOL * abs(ref) + ATOL_SHARE * scale


def _finite(*zs) -> bool:
    return all(math.isfinite(z.real) and math.isfinite(z.imag) for z in zs)


def field_sha256(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, "<f8").tobytes()
                          ).hexdigest()


# ---------------------------------------------------------------- near

def near_invariants(q, src_window, tol) -> str | None:
    if q.error:
        return q.error
    if q.refused:
        lo, hi = q.values["window"]
        if lo >= src_window[0] and hi <= src_window[1]:
            return "refused a probe whose window lies inside the data"
        return None
    u, u1, u2 = q.values["u"], q.values["u1"], q.values["u2"]
    if not _finite(u, u1, u2):
        return "non-finite value"
    if abs(u - (u1 + u2)) > IDENTITY_RTOL * max(abs(u), abs(u1), abs(u2)):
        return "u differs from u1 + u2"
    if q.values["residual"] > tol:
        return f"solver residual {q.values['residual']:.3e} above tol"
    return None


def near_record(queries) -> dict:
    rows = []
    for q in queries:
        row = {k: q.values[k] for k in ("t", "x", "y")}
        row["refused"] = q.refused
        if not q.refused:
            row.update({k: _pair(q.values[k]) for k in ("u", "u1", "u2")})
        rows.append(row)
    return {"probes": rows}


def check_near(queries, src_window, tol, ref) -> dict:
    """Failure reason per query key (None when it passed)."""
    out = {q.key: near_invariants(q, src_window, tol) for q in queries}
    if ref is None:
        return out
    rows = ref["probes"]
    if len(rows) != len(queries):
        return {q.key: "reference has another probe count" for q in queries}
    served = [r for r in rows if not r["refused"]]
    scale = max((abs(complex(*r["u"])) for r in served), default=0.0)
    for q, r in zip(queries, rows):
        if any(abs(q.values[k] - r[k]) > INPUT_ATOL for k in ("t", "x", "y")):
            out[q.key] = "probe differs from the reference input"
        elif out[q.key] is None and not r["refused"]:
            if q.refused:
                out[q.key] = "refused a probe the reference served"
            elif not all(_close(q.values[k], complex(*r[k]), scale)
                         for k in ("u", "u1", "u2")):
                out[q.key] = "value misses its reference"
    return out


# ---------------------------------------------------------------- decay

def decay_record(queries, fits) -> dict:
    return {"rays": [{"label": f.label, "slope": f.slope,
                      "t_samples": list(f.t_samples),
                      "values": list(f.values),
                      "values_u1": list(f.values_u1),
                      "values_u2": list(f.values_u2)} for f in fits]}


def check_decay(queries, fits, tol, ref, windows: bool) -> tuple[dict, list]:
    """(failure reason per query key, whole-run failures)."""
    out = {}
    for q in queries:
        reason = q.error
        if reason is None:
            vals = [q.values[k] for k in ("value", "value_u1", "value_u2")]
            if not all(math.isfinite(v) and v > 0 for v in vals):
                reason = "envelope not finite and positive"
            elif q.values.get("residual", 0.0) > tol:
                reason = "solver residual above tol"
        out[q.key] = reason
    run = []
    if windows:
        for f, (lo, hi) in zip(fits, DECAY_SLOPE_WINDOWS):
            if f.failure is None and not lo <= f.slope <= hi:
                run.append(f"{f.label}: slope {f.slope:.4f} outside "
                           f"[{lo}, {hi}]")
    if ref is None:
        return out, run
    scale = max(max(r["values"]) for r in ref["rays"])
    for ray, (f, r) in enumerate(zip(fits, ref["rays"])):
        if f.failure is not None:
            continue
        if not np.allclose(f.t_samples, r["t_samples"], rtol=0,
                           atol=INPUT_ATOL):
            run.append(f"{f.label}: times differ from the reference input")
            continue
        if abs(f.slope - r["slope"]) > SLOPE_ATOL:
            run.append(f"{f.label}: slope {f.slope!r} vs reference "
                       f"{r['slope']!r}")
        for j in range(len(r["values"])):
            key = f"ray{ray}.t{j}"
            if out.get(key) is None and not all(
                    _close(getattr(f, k)[j], r[k][j], scale)
                    for k in ("values", "values_u1", "values_u2")):
                out[key] = "envelope misses its reference"
    return out, run


# ---------------------------------------------------------------- oracle

def oracle_record(queries, field) -> dict:
    return {"l2_norms": [q.values["l2_norm"] for q in queries],
            "field_sha256": field_sha256(field)}


def check_oracle(queries, field, drift_tol, mean_tol, ref,
                 ref_field) -> tuple[dict, list, dict]:
    """(failure reason per key, whole-run failures, notes)."""
    out = {}
    for q in queries:
        reason = q.error
        if reason is None:
            if not math.isfinite(q.values["l2_norm"]):
                reason = "non-finite norm"
            elif q.values["drift"] > drift_tol:
                reason = f"L2 drift {q.values['drift']:.3e} above tolerance"
            elif q.values["mean_defect"] > mean_tol:
                reason = "field lost its zero x-mean"
        out[q.key] = reason
    run, notes = [], {}
    if not np.all(np.isfinite(field)):
        run.append("final field not finite")
    if ref is None:
        return out, run, notes
    scale = max(ref["l2_norms"])
    for q, n_ref in zip(queries, ref["l2_norms"]):
        if out[q.key] is None and not _close(q.values["l2_norm"], n_ref,
                                             scale):
            out[q.key] = "segment norm misses its reference"
    err = float(np.max(np.abs(field - ref_field)))
    notes["field_max_abs_err"] = err
    notes["field_bitwise_equal"] = field_sha256(field) == ref["field_sha256"]
    if err > ATOL_SHARE * float(np.max(np.abs(ref_field))):
        run.append(f"final field misses its reference by {err:.3e}")
    return out, run, notes


# ---------------------------------------------------------------- files

def load(name: str):
    path = REFS / f"{name}.json"
    return json.loads(path.read_text()) if path.exists() else None


def load_field():
    return np.load(REFS / "oracle_field.npy")


def save(name: str, record: dict, field: np.ndarray | None = None) -> None:
    REFS.mkdir(exist_ok=True)
    (REFS / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    if field is not None:
        np.save(REFS / "oracle_field.npy", np.ascontiguousarray(field, "<f8"))
