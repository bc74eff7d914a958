"""Ray coordinates, asymptotic-region labels, and a self-contained Airy
evaluator with its stationary-phase companions.

Every oscillatory object downstream rides the one-variable cubic phase

    phi(s) = x s - y s^2 + 4 t s^3,

whose two-point difference phi(l) - phi(k) = (l-k)x - (l^2-k^2)y
+ 4t(l^3-k^3) is the kernel phase of the evolved scattering operators. In
the large-time frame (xi, eta) = (x/t, y/t) the governing parameter is

    a = (xi - eta^2/12) / 12,

and after centering k -> k + eta/12 the two-point phase becomes
t * (12 a (l-k) + 4 (l^3-k^3)). Sample points are classified by a into
three regions: a > delta rapid decay, |a| <= delta transition,
a < -delta oscillatory (default delta = 0.05).

The model integral behind the transition region is

    cubic_phase_transform(a, t, xi)
        = (2 pi)^(-1/2) Int e^(-i xi k) e^(-i t (12 a k + 4 k^3)) dk
        = sqrt(2 pi) (12 t)^(-1/3) Ai( (12 t)^(2/3) (a + xi/(12 t)) ),

implemented through the closed form; the quadrature route exists in the
tests and the verification suite. Half-line variants (half_airy_H) are
evaluated by phase-refined quadrature plus integration-by-parts tails.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from .oscillatory import oscillatory_integral, oscillatory_tail

__all__ = [
    "RegionLabel",
    "RayCoordinates",
    "classify",
    "airy",
    "airy_envelope_max",
    "cubic_phase_transform",
    "half_airy_H",
]

DEFAULT_REGION_DELTA = 0.05


class RegionLabel(str, enum.Enum):
    RAPID = "rapid_decay"
    TRANSITION = "transition"
    OSCILLATORY = "oscillatory"


def classify(a: float, delta: float = DEFAULT_REGION_DELTA) -> RegionLabel:
    if a > delta:
        return RegionLabel.RAPID
    if a < -delta:
        return RegionLabel.OSCILLATORY
    return RegionLabel.TRANSITION


@dataclasses.dataclass(frozen=True)
class RayCoordinates:
    """Physical point (t, x, y) with its large-time frame (xi, eta, a).

    At t = 0 the frame degenerates; by convention xi = eta = a = 0 there
    (such samples are labeled transition).
    """

    t: float
    x: float
    y: float

    @property
    def xi(self) -> float:
        return self.x / self.t if self.t > 0 else 0.0

    @property
    def eta(self) -> float:
        return self.y / self.t if self.t > 0 else 0.0

    @property
    def a(self) -> float:
        return (self.xi - self.eta**2 / 12.0) / 12.0

    def region(self, delta: float = DEFAULT_REGION_DELTA) -> RegionLabel:
        return classify(self.a, delta)

    @classmethod
    def from_ray(cls, t: float, xi: float, eta: float) -> "RayCoordinates":
        return cls(t, xi * t, eta * t)

    @classmethod
    def from_region_params(cls, t: float, a: float, eta: float = 0.0):
        """Point with prescribed a along the eta-ray: xi = 12 a + eta^2/12."""
        return cls.from_ray(t, 12.0 * a + eta**2 / 12.0, eta)


# --- Airy function -------------------------------------------------------

_AI0 = 0.3550280538878172  # Ai(0) = 3^(-2/3)/Gamma(2/3)
_DAI0 = 0.2588194037928068  # -Ai'(0) = 3^(-1/3)/Gamma(1/3)
# asymmetric handover: the oscillatory expansion reaches 1e-10 only past
# zeta = (2/3)|x|^(3/2) ~ 12, while the decaying side is safe from 5.5 and
# the series loses too many digits beyond ~6 there even at 80-bit
_SERIES_EDGE_POS = 5.5
_SERIES_EDGE_NEG = -7.0


def _airy_series(x):
    """Maclaurin solution of y'' = x y, in extended precision.

    The two power-series solutions grow like exp((2/3)|x|^(3/2)) while Ai
    decays on the positive side, so float64 loses ~9 digits at the branch
    edge; 80-bit accumulation keeps the result well below 1e-10 absolute.
    """
    xl = np.asarray(x, dtype=np.longdouble)
    x3 = xl**3
    tf = np.ones_like(xl)
    tg = xl.copy()
    f = np.ones_like(xl)
    g = xl.copy()
    for k in range(120):
        tf = tf * x3 / ((3 * k + 2) * (3 * k + 3))
        tg = tg * x3 / ((3 * k + 3) * (3 * k + 4))
        f = f + tf
        g = g + tg
        if max(np.max(np.abs(tf)), np.max(np.abs(tg))) < 1e-26:
            break
    c1 = np.longdouble("0.35502805388781723926006318600418")
    c2 = np.longdouble("0.25881940379280679840518356018920")
    return (c1 * f - c2 * g).astype(np.float64)


def _airy_u_coeffs(n):
    u = [1.0]
    for k in range(1, n):
        u.append(u[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1)))
    return np.array(u)


_U = _airy_u_coeffs(26)


def _airy_asym_pos(x):
    zeta = (2.0 / 3.0) * x**1.5
    term_prev = np.full_like(x, np.inf)
    acc = np.zeros_like(x)
    active = np.ones_like(x, dtype=bool)
    for k, uk in enumerate(_U):
        term = (-1.0) ** k * uk / zeta**k
        # divergent series: freeze each entry at its smallest term
        active &= ~(np.abs(term) > term_prev)
        acc = np.where(active, acc + term, acc)
        term_prev = np.abs(term)
    return np.exp(-zeta) / (2.0 * np.sqrt(np.pi) * x**0.25) * acc


def _airy_asym_neg(x):
    z = -x
    zeta = (2.0 / 3.0) * z**1.5
    p = np.zeros_like(z)
    q = np.zeros_like(z)
    for k in range(0, 13):
        p = p + (-1.0) ** k * _U[2 * k] / zeta ** (2 * k)
        if 2 * k + 1 < len(_U):
            q = q + (-1.0) ** k * _U[2 * k + 1] / zeta ** (2 * k + 1)
    ang = zeta - np.pi / 4.0
    return (np.cos(ang) * p + np.sin(ang) * q) / (np.sqrt(np.pi) * z**0.25)


def airy(x):
    """Ai(x) for real x: extended-precision Maclaurin series on
    [-7, 5.5], optimally truncated asymptotic expansions beyond.
    Absolute error below 1e-10 on |x| <= 40."""
    x = np.asarray(x, dtype=np.float64)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    mid = (x >= _SERIES_EDGE_NEG) & (x <= _SERIES_EDGE_POS)
    pos = x > _SERIES_EDGE_POS
    neg = x < _SERIES_EDGE_NEG
    if np.any(mid):
        out[mid] = _airy_series(x[mid])
    if np.any(pos):
        out[pos] = _airy_asym_pos(x[pos])
    if np.any(neg):
        out[neg] = _airy_asym_neg(x[neg])
    return out[0] if scalar else out


def airy_envelope_max(lo=-40.0, hi=40.0, n=16001) -> float:
    """max over [lo, hi] of |Ai(x)| (1+|x|)^(1/4) (empirically ~0.684)."""
    x = np.linspace(lo, hi, n)
    return float(np.max(np.abs(airy(x)) * (1.0 + np.abs(x)) ** 0.25))


# --- model integrals -----------------------------------------------------


def cubic_phase_transform(a, t, xi):
    """Closed form sqrt(2 pi) (12 t)^(-1/3) Ai((12 t)^(2/3) (a + xi/(12 t)))
    of the transform (2 pi)^(-1/2) Int e^(-i xi k - i t(12 a k + 4 k^3)) dk;
    real-valued. Requires t > 0."""
    if t <= 0:
        raise ValueError("cubic_phase_transform requires t > 0")
    s = (12.0 * t) ** (1.0 / 3.0)
    return np.sqrt(2.0 * np.pi) / s * airy(s**2 * (a + xi / (12.0 * t)))


def _choose_cut(dphi, d2phi, start, direction, tol):
    """March the cut outward until the two-term tail is below tol: the
    leading neglected piece scales like |phi''| / |phi'|^3 at the cut."""
    L = start
    for _ in range(200):
        dp = abs(dphi(L))
        if dp > 1.0 and abs(d2phi(L)) / dp**3 < 0.1 * tol:
            return L
        L = direction * max(abs(L) * 1.25, abs(L) + 1.0)
    raise RuntimeError("could not find a valid oscillatory cut")


def half_airy_H(t, a, xi, k_lower=-np.inf, pts_per_wave=32, tol=1e-8):
    """H = Int_{k_lower}^inf e^(-i xi l) e^(i t (12 a l + 4 l^3)) dl.

    k_lower = -inf gives the full line, where H equals
    2 pi (12 t)^(-1/3) Ai((12 t)^(2/3) (a - xi/(12 t))) exactly.
    Quadrature: stationary-phase-refined Simpson out to a cut beyond all
    stationary points, closed with two-term integration-by-parts tails.
    """
    if t <= 0:
        raise ValueError("half_airy_H requires t > 0")
    phi = lambda l: -xi * l + t * (12.0 * a * l + 4.0 * l**3)
    dphi = lambda l: -xi + 12.0 * t * a + 12.0 * t * l**2
    d2phi = lambda l: 24.0 * t * l

    disc = (xi - 12.0 * t * a) / (12.0 * t)
    s_max = np.sqrt(disc) if disc > 0 else 0.0

    start_hi = max(s_max + 1.0, 2.0)
    if np.isfinite(k_lower):
        start_hi = max(start_hi, abs(k_lower) + 1.0)
    hi = _choose_cut(dphi, d2phi, start_hi, +1, tol)
    tail_hi, _ = oscillatory_tail(phi, dphi, d2phi, hi, direction=+1)

    if np.isfinite(k_lower):
        lo = float(k_lower)
        tail_lo = 0.0
    else:
        lo = _choose_cut(dphi, d2phi, -max(s_max + 1.0, 2.0), -1, tol)
        tail_lo, _ = oscillatory_tail(phi, dphi, d2phi, lo, direction=-1)

    span = hi - lo
    n_cells = int(max(64, min(4096, 12 * span)))
    head = oscillatory_integral(
        lo, hi, phi, dphi, pts_per_wave=pts_per_wave, n_cells=n_cells,
        crit_points=(0.0,),
    )
    return head + tail_hi + tail_lo
