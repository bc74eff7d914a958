"""Quadrature engines for highly oscillatory integrals.

Everything downstream integrates products (smooth kernel) * e^(i phi) where
phi may accumulate thousands of radians across the domain while the kernel
lives comfortably on a coarse base grid. Three tools cover all uses:

1. Filon panel moments (filon_moments: exact moments of e^(i theta y)
   against a piecewise-linear interpolant) at arbitrary phase rate theta,
   with series evaluation near theta*h = 0 to avoid cancellation. The
   scattering solve and kernel assembly sum the panels by recurrence.

2. A cell-refined Boole engine on a base grid (oscillatory_integral):
   each base cell is subdivided until the local phase advances at most
   2 pi / pts_per_wave per sample, and cells are processed in groups of
   equal refinement.

3. Two-term integration-by-parts tails for Integral_L^inf e^(i Phi), with
   a computable remainder bound, used to close infinite oscillatory
   integrals once |Phi'| grows monotonically past the cut.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "filon_moments",
    "oscillatory_integral",
    "oscillatory_tail",
]

_MAX_TOTAL_SAMPLES = 1 << 26

_FACT = [float(math.factorial(k)) for k in range(18)]


def filon_moments(z):
    """Panel moments m0(z) = Int_0^1 e^(izs) ds, m1(z) = Int_0^1 s e^(izs) ds.

    Closed forms divide by z^2 and cancel catastrophically near 0; below
    |z| = 0.6 a 16-term Maclaurin series is exact to roundoff.
    """
    z = np.asarray(z, dtype=np.float64)
    out0 = np.empty(z.shape, dtype=np.complex128)
    out1 = np.empty(z.shape, dtype=np.complex128)
    small = np.abs(z) < 0.6
    zs = z[small]
    iz = 1j * zs
    # m0 = sum (iz)^k / (k+1)!, m1 = sum (iz)^k (k+1) / (k+2)!
    t0 = np.ones_like(iz)
    t1 = np.ones_like(iz)
    s0 = np.zeros_like(iz)
    s1 = np.zeros_like(iz)
    for k in range(16):
        s0 = s0 + t0 / _FACT[k + 1]
        s1 = s1 + t1 * (k + 1) / _FACT[k + 2]
        t0 = t0 * iz
        t1 = t1 * iz
    out0[small] = s0
    out1[small] = s1
    zb = z[~small]
    izb = 1j * zb
    e = np.exp(izb)
    out0[~small] = (e - 1.0) / izb
    out1[~small] = (e * (izb - 1.0) + 1.0) / (izb * izb)
    return out0, out1


def _plan_refinement(base_points, dphi, pts_per_wave, crit_points=()):
    """Per-cell subdivision counts (powers of two) from a phase-rate bound.

    The bound per cell is the max of |dphi| over both endpoints, the
    midpoint, and any supplied critical points of dphi falling inside.
    """
    a = base_points[:-1]
    b = base_points[1:]
    h = b - a
    stations = [np.abs(dphi(a)), np.abs(dphi(b)), np.abs(dphi(0.5 * (a + b)))]
    bound = np.maximum.reduce(stations)
    for cp in np.atleast_1d(np.asarray(crit_points, dtype=float)):
        inside = (cp > a) & (cp < b)
        if np.any(inside):
            v = np.zeros_like(bound)
            v[inside] = np.abs(dphi(np.full(inside.sum(), cp)))
            bound = np.maximum(bound, v)
    need = h * bound * pts_per_wave / (2.0 * np.pi)
    p = np.maximum(4, 2 ** np.ceil(np.log2(np.maximum(need, 1.0))).astype(int))
    if int(np.sum(p + 1)) > _MAX_TOTAL_SAMPLES:
        raise RuntimeError(
            f"oscillatory refinement would need {int(np.sum(p + 1))} samples"
        )
    return p


def _boole_weights(p):
    """Composite Boole weights on p + 1 samples (p a multiple of 4), in
    units of the sample spacing: (2/45) [7, 32, 12, 32, 14, ..., 32, 7]."""
    w = np.full(p + 1, 32.0)
    w[2::4] = 12.0
    w[4::4] = 14.0
    w[[0, -1]] = 7.0
    return w * (2.0 / 45.0)


def oscillatory_integral(a, b, phi, dphi, pts_per_wave=16, n_cells=64,
                         crit_points=()):
    """Int_a^b e^(i phi(x)) dx by cell-refined composite Boole.

    The interval is first split into n_cells equal cells; each cell is
    then refined for the phase, into a power of two >= 4 of panels.
    """
    base = np.linspace(a, b, n_cells + 1)
    p = _plan_refinement(base, dphi, pts_per_wave, crit_points)
    total = 0.0 + 0.0j
    for pc in np.unique(p):
        cells = np.nonzero(p == pc)[0]
        aa = base[cells][:, None]
        h = (base[cells + 1] - base[cells])[:, None]
        s = (np.arange(pc + 1) / pc)[None, :]
        x = aa + h * s
        w = _boole_weights(pc)[None, :] * (h / pc)
        total += (w * np.exp(1j * phi(x))).sum()
    return total


def oscillatory_tail(phi, dphi, d2phi, L, direction=1):
    """Two-term tail Int e^(i phi) dl from L to +inf (direction +1)
    or -inf to L (direction -1), assuming |dphi| grows monotonically along
    the tail and never vanishes there.

    Returns (value, remainder_bound). Value is the two-term integration by
    parts; the bound integrates |(Phi''/Phi'^3)'| numerically along the tail
    (a safe overestimate when |Phi'| is increasing).
    """
    if abs(dphi(L)) == 0:
        raise ValueError("tail cut sits on a stationary point")
    e = np.exp(1j * phi(L))
    term1 = -direction * e / (1j * dphi(L))
    term2 = direction * d2phi(L) * e / dphi(L) ** 3
    # remainder: Int |d/dl (Phi'' / Phi'^3)| along the tail
    span = np.geomspace(1.0, 1e6, 400)
    l = L + direction * (span - 1.0)
    g = d2phi(l) / dphi(l) ** 3
    bound = float(np.sum(np.abs(np.diff(g))))
    return term1 + term2, bound
