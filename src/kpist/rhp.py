"""Cauchy projections and the nonlocal solve for the inverse step.

The unknown here is a function of one spectral variable at a fixed
space-time point. It satisfies mu = 1 + P(mu) where P composes two
half-line Fourier projections with the two triangular kernel operators,
each carrying the oscillatory weight exp(i(phi(l) - phi(k))) with
phi(s) = x s - y s^2 + 4 t s^3. The composition contracts on the small
data this package targets, so its Neumann series converges
geometrically; the x-derivative of the unknown solves the same equation
with a once-differentiated forcing. Admissibility is decided where
kernel data enters (harness.compute_scattering, run_decay_fit and
run_verify_suite), not here. Both solves sum their series in the
grid-weighted L2 norm with scattering.neumann_series, the direct map's
accumulator, so all share one stopping rule, cap, residual and finite guard.

Every kernel application of the solve and of the field evaluation goes
through CTOperator.products. The weight factorizes into the phase
diagonals e^{-i phi(k)} and e^{i phi(l)}, the grid weight dl folded into
the first, so the products of a stack of rows cost one phase product and
one call of the kernel data's products, which hands back both rows the
solve consumes, T_plus g and T_plus g - T_minus g: two triangular BLAS
products that read only each family's own triangle
(scattering.triangular_products) for stored kernels
(scattering.ScatteringData) and for kernels refined onto the floor
grid, the one probe grid the probes of a pass share, whose dense arrays
are built once and then make the cheaper rows; for every other refined
grid, which serves about one probe, one banded factored product, which
forms no n_fine^2 array and takes both rows from one pass of suffix
sums (reconstruct.SplineKernels). The products of f are kept as
[K_plus f, K_minus f + K_plus f], which is what the projection and the
field sums read. No kernel is copied or formed anew: the minus family,
-T_minus in consumption orientation, enters as a subtraction, and the
x-derivative kernels i(l - k)K act through i(l - k)K g = i(K(l g) - k K g).
family_kernel and derivative_data remain as the reference definitions.

A probe forms each distinct product once and reuses it by linearity
(K(l (1 + m)) = K(l) + K(l m)). With n1 and n2 the terms of a probe's
mu and dmu series, the rows its point adds to the kernel data's
products (each row both families) are
  * 2 for the rows l and 1 (CTOperator.basis, once per operator): the
    source of the mu solve (on_constant), the constant's share of the
    derivative forcing and the whole of reconstruct.eval_u1;
  * n1 + 1 for the mu series and its residual, whose application on the
    returned sum m leaves K(m);
  * 1 for l m; the forcing then needs no other row;
  * n2 + 1 for the dmu series and its residual, which leaves K(dmu);
  * none for reconstruct.eval_u2, which reads K(l m), K(m) and K(dmu)
    from the solution record;
n1 + n2 + 5 in all, where forming each stage's own would take
n1 + n2 + 10. There are n1 + n2 + 4 projections, one transform pair each.

The operator is the one handle of a probe: CTOperator.build(base, t, x, y)
holds the kernel data and the phase diagonals of the point, and the
solves and the field evaluation take it. Built on sequences of P points
it is the handle of P probes on one kernel data, a stack with one row
per point: every product and projection serves all the rows at once,
and each row's series stops on its own rule (neumann_series), leaving
the stack when it does, so the counts above hold per row and each row's
answer is its single-point one to rounding. The evolved kernel
base * exp(4 i t (l^3 - k^3)) lives in the diagonals, never in stored
arrays, so stored magnitudes stay those of the time-zero data.

Projections are sharp bin masks on the FFT of the sampled function:
half plus keeps the nonnegative-frequency bins together with the
Nyquist bin, half minus is the negative of the rest. Their difference
reconstructs the input to rounding, which the solve relies on. The
operator applies both at once through one forward and one inverse
transform (scipy.fft, whose calls cost less than numpy's at these
sizes): with a = K_minus f and b = K_plus f, C_minus b = C_plus b - b
exactly, so C_plus a + C_minus b = ifft(keep fft(a + b)) - b, keep the
bins 0 .. n/2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.fft as sfft

from .scattering import ScatteringData, neumann_series


def _project_pair(p: np.ndarray) -> np.ndarray:
    """C_plus K_minus f + C_minus K_plus f from the kernel products p of f
    (CTOperator.products), in one transform pair: with p[1] = K_minus f
    + K_plus f, the plus bins (0 .. n/2) of the spectrum of p[1],
    transformed back, less p[0] = K_plus f."""
    spec = sfft.fft(p[1], axis=-1)
    spec[..., p.shape[-1] // 2 + 1:] = 0.0
    out = sfft.ifft(spec, axis=-1, overwrite_x=True)
    out -= p[0]
    return out


def _gap(lf: np.ndarray, f: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Products of the x-derivative kernels i(l - k)K on f from those of K
    on l f and on f: i(l - k)K f = i(K(l f) - k K f)."""
    out = lf - pts * f
    out *= 1j
    return out


def _require_finite(t: float, x: float, y: float) -> None:
    if not all(map(math.isfinite, (t, x, y))):
        raise ValueError(f"probe point (t, x, y) = ({float(t)}, {float(x)}, "
                         f"{float(y)}) is not finite")


def phase_weights(points: np.ndarray, t: float, x: float, y: float) -> np.ndarray:
    """phi(s) = x s - y s^2 + 4 t s^3 on the given spectral points (the
    cube as two products: a float power costs several times as much)."""
    s = np.asarray(points)
    return x * s - y * s * s + 4.0 * t * (s * s * s)


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
    one space-time point (t, x, y), or at P of them as one stack.

    base is the time-zero kernel data, a ScatteringData or a
    reconstruct.SplineKernels (anything with grids and products), held by
    reference. The phase diagonals e^{i phi(l)} and dl e^{-i phi(k)},
    evolution time and grid weight included, are precomputed at
    construction from one exponential; build rejects a non-finite point
    and t < 0. With scalar t, x and y the diagonals have shape (n,) and
    the operator acts on functions of shape (n,); with sequences of P
    values they have shape (P, n), row p the phase of point p, t, x and
    y are tuples, and the operator acts on stacks of shape (P, n), row p
    at point p. Inputs are one such function or a stack of them along
    leading axes."""

    base: ScatteringData
    t: float | tuple
    x: float | tuple
    y: float | tuple
    e_l: np.ndarray
    e_k: np.ndarray

    @classmethod
    def build(cls, base: ScatteringData, t, x, y) -> "CTOperator":
        stack = np.ndim(t) > 0
        points = list(zip(t, x, y)) if stack else [(t, x, y)]
        for point in points:
            _require_finite(*point)
            if point[0] < 0:
                raise ValueError("evolution time must be nonnegative")
        grid = base.grids.grid_kl
        # row by row, so each row's phase is the one-point phase exactly
        phase = [phase_weights(grid.points, *point) for point in points]
        e_l = np.exp(1j * (np.array(phase) if stack else phase[0]))
        t, x, y = (tuple(map(float, v)) for v in zip(*points)) if stack \
            else map(float, points[0])
        return cls(base, t, x, y, e_l, grid.spacing * e_l.conj())

    def kernel_apply(self, sign: int, f: np.ndarray) -> np.ndarray:
        """One triangular family with its oscillatory weight:
        out(k) = sum_l exp(i(phi(l) - phi(k))) K(k, l) f(l) dl, K the
        family in consumption orientation (family_kernel): the minus
        family is -T_minus."""
        out = self.base.apply(sign, self.e_l * f)
        out *= sign * self.e_k
        return out

    def products(self, f: np.ndarray, rows=slice(None)) -> np.ndarray:
        """The kernel products of f, [K_plus f, K_minus f + K_plus f] with
        K_sigma f = kernel_apply(sigma, f), shape (2,) + f.shape: one phase
        product shared by both families and one call of the kernel data's
        products for both. rows picks the stack rows of a P-point
        operator that f holds (neumann_series' running rows). Linear in
        f, so the products of a combination are the combination of the
        products."""
        p = self.base.products(self.e_l[rows] * f)
        p *= self.e_k[rows]
        return p

    @functools.cached_property
    def basis(self) -> np.ndarray:
        """The products of the rows l and 1 at every point, shape
        (2, 2) + e_l.shape, formed on first use: the source of the mu
        solve (on_constant), the constant's share of the derivative
        forcing, and the leading term reconstruct.eval_u1."""
        pts = self.base.grids.grid_kl.points
        shape = self.e_l.shape
        return self.products(np.stack([np.broadcast_to(pts, shape),
                                       np.ones(shape)]))

    def __call__(self, f: np.ndarray) -> np.ndarray:
        return _project_pair(self.products(f))

    def derivative(self, f: np.ndarray) -> np.ndarray:
        """x-derivative of the operator applied to f: x enters only
        through exp(i(l - k)x), so each kernel K becomes i(l - k)K."""
        pts = self.base.grids.grid_kl.points
        p = self.products(np.stack([pts * f, f]))
        return _project_pair(_gap(p[:, 0], p[:, 1], pts))

    def on_constant(self) -> np.ndarray:
        # the constant is integrated against the kernel rows over the
        # truncated domain; the same arithmetic as applying to ones
        return _project_pair(self.basis[:, 1])


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
    """Solution record at one (t, x, y) point, or at the P points of a
    stacked operator (point then holds the operator's tuples, and the
    arrays a row per point).

    dmu_dx and residual_dmu are None until the derivative solve fills
    them in. The residuals are the largest over the stack's rows and
    iterations the sum of every row's terms. base is the kernel data the
    record was solved on and products the kernel products
    (CTOperator.products) its solves formed, stacked along axis 1: of
    mu - 1 after solve_mul; of l (mu - 1), mu - 1 and dmu_dx after
    solve_dmul_dx."""

    point: tuple[float, float, float]
    mu_minus_1: np.ndarray
    dmu_dx: np.ndarray | None
    residual_mu: float
    residual_dmu: float | None
    iterations: int
    base: ScatteringData = field(repr=False, compare=False)
    products: np.ndarray = field(repr=False, compare=False)


def weighted_l2(f: np.ndarray, dl: float) -> float:
    """Grid-weighted L2 norm over the spectral variable."""
    return math.sqrt(np.vdot(f, f).real * dl)


def _series(op: CTOperator, source: np.ndarray, tol: float):
    """neumann_series with op as its apply: (sum, terms, residual, the
    kernel products of the sum), each row of a stacked operator a series
    of its own (weighted_l2 per row); terms are summed and residuals
    maximized over the rows. The apply keeps the products of its last
    call, which by the series' order is the residual's, on the whole
    sum."""
    kept = []

    def apply(f, rows=slice(None)):
        kept[:] = [op.products(f, rows)]
        return _project_pair(kept[0])

    dl = op.base.grids.grid_kl.spacing
    if op.e_l.ndim == 1:
        sol, iters, _, resid = neumann_series(
            apply, source, functools.partial(weighted_l2, dl=dl), tol)
        return sol, iters, resid, kept[0]
    sol, iters, _, resid = neumann_series(
        apply, source, lambda f: [weighted_l2(row, dl) for row in f], tol)
    return sol, sum(iters), max(resid), kept[0]


def solve_mul(op: CTOperator, tol: float = 1e-10) -> RHPSolution:
    """Solve mu = 1 + P(mu) for mu - 1 at the operator's point, on data
    found admissible where it entered (see the module notes)."""
    sol, iters, resid, p = _series(op, op.on_constant(), tol)
    return RHPSolution((op.t, op.x, op.y), sol, None, resid, None, iters,
                       op.base, p[:, None])


def solve_dmul_dx(op: CTOperator, tol: float = 1e-10) -> RHPSolution:
    """Solve for mu, then extend its record with the x-derivative part.

    The derivative solves the same fixed-point equation with forcing
    given by the i(l-k)-weighted kernels applied to the full unknown
    1 + (mu - 1): by linearity its products are those of the constant
    (CTOperator.basis) plus those of mu - 1, of which only l (mu - 1) is
    new."""
    mu = solve_mul(op, tol)
    pts = op.base.grids.grid_kl.points
    m = mu.products[:, 0]
    lm = op.products(pts * mu.mu_minus_1)
    forcing = _project_pair(_gap(op.basis[:, 0] + lm, op.basis[:, 1] + m,
                                 pts))
    sol, iters, resid, dmu = _series(op, forcing, tol)
    return replace(mu, dmu_dx=sol, residual_dmu=resid,
                   iterations=mu.iterations + iters,
                   products=np.stack([lm, m, dmu], axis=1))
