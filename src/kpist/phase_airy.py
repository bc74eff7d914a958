"""Ray coordinates, asymptotic-region labels, and the Airy model integrals
of the transition region with their stationary-phase companions.

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

implemented through the closed form with Ai from scipy.special. The
line and half-line integrals H (half_airy_H) are evaluated by
phase-refined quadrature plus integration-by-parts tails; on the full
line H(t, a, -xi) / sqrt(2 pi) is the same transform, which the
verification suite checks against the closed form.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np
from scipy import special

from .oscillatory import oscillatory_integral, oscillatory_tail

__all__ = [
    "RegionLabel",
    "RayCoordinates",
    "classify",
    "airy",
    "cubic_phase_transform",
    "half_airy_H",
]

DEFAULT_REGION_DELTA = 0.05
# tail-cut tolerance of half_airy_H
HALF_AIRY_TOL = 1e-8


class RegionLabel(str, enum.Enum):
    RAPID = "rapid_decay"
    TRANSITION = "transition"
    OSCILLATORY = "oscillatory"


def classify(a: float, delta: float = DEFAULT_REGION_DELTA) -> RegionLabel:
    """Region of a; delta must be finite and positive."""
    if not 0 < delta < np.inf:
        raise ValueError(f"delta {delta} must be finite and positive")
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


# --- Airy function -------------------------------------------------------


def airy(x):
    """Ai(x) for real x (scipy.special.airy); a scalar for scalar x."""
    return special.airy(x)[0]


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


def half_airy_H(t, a, xi, k_lower=-np.inf):
    """H = Int_{k_lower}^inf e^(-i xi l) e^(i t (12 a l + 4 l^3)) dl.

    k_lower = -inf gives the full line, where H equals
    2 pi (12 t)^(-1/3) Ai((12 t)^(2/3) (a - xi/(12 t))) exactly.
    Quadrature: stationary-phase-refined Boole (32 points per wave) out
    to a cut beyond all stationary points, closed with two-term
    integration-by-parts tails whose leading neglected piece is below
    HALF_AIRY_TOL.
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
    hi = _choose_cut(dphi, d2phi, start_hi, +1, HALF_AIRY_TOL)
    tail_hi, _ = oscillatory_tail(phi, dphi, d2phi, hi, direction=+1)

    if np.isfinite(k_lower):
        lo = float(k_lower)
        tail_lo = 0.0
    else:
        lo = _choose_cut(dphi, d2phi, -max(s_max + 1.0, 2.0), -1,
                         HALF_AIRY_TOL)
        tail_lo, _ = oscillatory_tail(phi, dphi, d2phi, lo, direction=-1)

    span = hi - lo
    n_cells = int(max(64, min(4096, 12 * span)))
    head = oscillatory_integral(
        lo, hi, phi, dphi, pts_per_wave=32, n_cells=n_cells,
        crit_points=(0.0,),
    )
    return head + tail_hi + tail_lo
