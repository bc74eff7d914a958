"""Cauchy projections and the nonlocal solve for the inverse step.

The unknown here is a function of one spectral variable at a fixed
space-time point. It satisfies mu = 1 + P(mu) where P composes two
half-line Fourier projections with the two triangular kernel operators,
each carrying the oscillatory weight exp(i(phi(l) - phi(k))) with
phi(s) = x s - y s^2 + 4 t s^3. The composition contracts on the small
data this package targets, so its Neumann series converges
geometrically; the x-derivative of the unknown solves the same equation
with a once-differentiated forcing. Both solves sum their series in the
grid-weighted L2 norm with scattering.neumann_series, the direct map's
accumulator, so all share one stopping rule, cap, residual and finite guard.

Every kernel application of the solve and of the field evaluation goes
through CTOperator. The weight factorizes into the phase diagonals
e^{-i phi(k)} and e^{i phi(l)}, so a family costs one product through the
kernel data's apply, shared by all right-hand sides: a triangular BLAS
product that reads only the family's own triangle
(scattering.triangular_apply) for stored kernels
(scattering.ScatteringData) and for kernels refined onto a probe grid
of at most reconstruct.DENSE_MAX points, where it is the cheaper; a
banded factored one, which forms no n_fine^2 array, for larger refined
grids (reconstruct.SplineKernels). No kernel is copied or formed anew:
the minus family, -T_minus in consumption orientation, carries its sign
on the scalar grid weight, and the x-derivative kernels i(l - k)K act
through i(l - k)K g = i(K(l g) - k K g).
family_kernel and derivative_data remain as the reference definitions.

The operator is the one handle of a probe: CTOperator.build(base, t, x, y)
holds the kernel data and the phase diagonals of the point, and the
solves and the field evaluation take it. The evolved kernel
base * exp(4 i t (l^3 - k^3)) lives in the diagonals, never in stored
arrays, so stored magnitudes stay those of the time-zero data.

Projections are sharp bin masks on the FFT of the sampled function:
half plus keeps the nonnegative-frequency bins together with the
Nyquist bin, half minus is the negative of the rest. Their difference
reconstructs the input to rounding, which the solve relies on. The
operator applies both at once through one forward and one inverse
transform: with a = K_minus f and b = K_plus f, C_minus b = C_plus b - b
exactly, so C_plus a + C_minus b = ifft(keep fft(a + b)) - b, keep the
bins 0 .. n/2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .grids import ConditionsReport
from .scattering import ScatteringData, neumann_series


def _project_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C_plus a + C_minus b = C_plus (a + b) - b in one FFT pair: the
    plus bins (0 .. n/2) of the spectrum of a + b, transformed back."""
    spec = np.fft.fft(a + b, axis=-1)
    spec[..., a.shape[-1] // 2 + 1:] = 0.0
    out = np.fft.ifft(spec, axis=-1)
    out -= b
    return out


def _require_finite(t: float, x: float, y: float) -> None:
    if not np.all(np.isfinite((t, x, y))):
        raise ValueError(f"probe point (t, x, y) = ({float(t)}, {float(x)}, "
                         f"{float(y)}) is not finite")


def phase_weights(points: np.ndarray, t: float, x: float, y: float) -> np.ndarray:
    """phi(s) = x s - y s^2 + 4 t s^3 on the given spectral points."""
    s = np.asarray(points)
    return x * s - y * s * s + 4.0 * t * s ** 3


def family_kernel(base: ScatteringData, sign: int) -> np.ndarray:
    """Kernel of one triangular family in the orientation the inverse
    step consumes (reference definition; CTOperator never builds it).

    The minus family enters every downstream formula with the opposite
    sign to its stored triangular form; with the stored orientation the
    time-zero reconstruction returns the x-Hilbert transform of the
    potential instead of the potential, and the factorization identity
    picks up an uncancelled linear term. Pinned numerically by the
    round-trip and identity tests.
    """
    if sign == +1:
        return base.T_plus
    if sign == -1:
        return -base.T_minus
    raise ValueError("sign must be +1 or -1")


@dataclass(frozen=True)
class CTOperator:
    """Immutable handle for f -> C_plus K_minus f + C_minus K_plus f at
    one space-time point (t, x, y).

    base is the time-zero kernel data, a ScatteringData or a
    reconstruct.SplineKernels (anything with grids and apply), held by
    reference. The phase diagonals
    e^{i phi(l)} and e^{-i phi(k)}, evolution time included, are
    precomputed at construction; build rejects a non-finite point and
    t < 0. Inputs are one function or a stack of them as rows, applied
    in one product per family."""

    base: ScatteringData
    t: float
    x: float
    y: float
    e_l: np.ndarray
    e_k: np.ndarray

    @classmethod
    def build(cls, base: ScatteringData, t: float, x: float,
              y: float) -> "CTOperator":
        _require_finite(t, x, y)
        if t < 0:
            raise ValueError("evolution time must be nonnegative")
        phi = phase_weights(base.grids.grid_kl.points, t, x, y)
        return cls(base, float(t), float(x), float(y), np.exp(1j * phi),
                   np.exp(-1j * phi))

    def _scale(self, sign: int) -> float:
        # the minus family is -T_minus; its sign rides on the grid weight
        return sign * self.base.grids.grid_kl.spacing

    def kernel_apply(self, sign: int, f: np.ndarray) -> np.ndarray:
        """One triangular family with its oscillatory weight:
        out(k) = sum_l exp(i(phi(l) - phi(k))) K(k, l) f(l) dl, K the
        family in consumption orientation (family_kernel)."""
        g = self.e_l * np.asarray(f, dtype=complex)
        return self.e_k * self.base.apply(sign, g) * self._scale(sign)

    def __call__(self, f: np.ndarray) -> np.ndarray:
        return _project_pair(self.kernel_apply(-1, f),
                             self.kernel_apply(+1, f))

    def derivative(self, f: np.ndarray) -> np.ndarray:
        """x-derivative of the operator applied to f: x enters only
        through exp(i(l - k)x), so each kernel K becomes i(l - k)K."""
        pts = self.base.grids.grid_kl.points
        rows = np.stack([pts * f, f])

        def gap(sign):  # i(l - k)K f = i(K(l f) - k K f)
            a = self.kernel_apply(sign, rows)
            return 1j * (a[0] - pts * a[1])

        return _project_pair(gap(-1), gap(+1))

    def on_constant(self) -> np.ndarray:
        # the constant is integrated against the kernel rows over the
        # truncated domain; identical arithmetic to applying to ones
        return self(np.ones(self.base.grids.n_kl))


def derivative_data(base: ScatteringData) -> ScatteringData:
    """Companion data whose kernels are i(l-k) times the originals.

    Applying the kernel operators of the result realizes the x-derivative
    of the originals, since x enters only through exp(i(l-k)x). Reference
    definition for CTOperator.derivative, which forms no such kernels."""
    pts = base.grids.grid_kl.points
    factor = 1j * (pts[None, :] - pts[:, None])
    return ScatteringData(factor * base.T_plus, factor * base.T_minus,
                          factor * base.T1, base.grids, dict(base.meta))


@dataclass(frozen=True)
class RHPSolution:
    """Solution record at one (t, x, y) point.

    dmu_dx and residual_dmu are None until the derivative solve fills
    them in."""

    point: tuple[float, float, float]
    mu_minus_1: np.ndarray
    dmu_dx: np.ndarray | None
    residual_mu: float
    residual_dmu: float | None
    iterations: int


def weighted_l2(f: np.ndarray, dl: float) -> float:
    """Grid-weighted L2 norm over the spectral variable."""
    return float(np.sqrt(np.vdot(f, f).real * dl))


def _norm(op: CTOperator):
    return functools.partial(weighted_l2, dl=op.base.grids.grid_kl.spacing)


def solve_mul(op: CTOperator, tol: float = 1e-10,
              conditions: ConditionsReport | None = None) -> RHPSolution:
    """Solve mu = 1 + P(mu) for mu - 1 at the operator's point."""
    if conditions is not None and not conditions.passed:
        raise ValueError("input data failed its smallness conditions; "
                         "the contraction guarantee does not apply")
    sol, iters, _, resid = neumann_series(op, op.on_constant(), _norm(op), tol)
    return RHPSolution((op.t, op.x, op.y), sol, None, resid, None, iters)


def solve_dmul_dx(op: CTOperator, tol: float = 1e-10,
                  conditions: ConditionsReport | None = None) -> RHPSolution:
    """Solve for mu, then extend its record with the x-derivative part.

    The derivative solves the same fixed-point equation with forcing
    given by the i(l-k)-weighted kernels applied to the full unknown
    1 + (mu - 1)."""
    mu = solve_mul(op, tol, conditions)
    forcing = op.derivative(1.0 + mu.mu_minus_1)
    sol, iters, _, resid = neumann_series(op, forcing, _norm(op), tol)
    return replace(mu, dmu_dx=sol, residual_dmu=resid,
                   iterations=mu.iterations + iters)
