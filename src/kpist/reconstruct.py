"""Field evaluation at probe points from evolved kernels, refinement of
the kernels onto per-probe grids, and the linearized flow.

The field splits into a leading term built from the kernels alone and a
correction weighted by the solved factorization unknown and its
x-derivative. Both are double spectral sums sharing one oscillatory
weight, evaluated per probe point; probe points rather than fields are
first-class because the large-time statements are statements along rays.
reconstruct builds the solver's kernel operator rhp.CTOperator once per
probe; the solves and both terms take it. Through it the two families
sum to T_plus g - T_minus g, the gap weight i(l - k) acts as
i(K(l g) - k K g), and the functions each term needs share one product
per family, so no combined or gap-weighted kernel is formed.

Large-time probes need a spectral grid that resolves the phase, with up
to thousands of points, finer than the n-point grid of the direct map.
resample_scattering_data gives every probe its kernel data: the source
itself on the source's own grid, otherwise the kernels refined by bicubic
interpolation without forming them. The source's spline coefficients
C_sigma are fitted once per source (ScatteringData.spline_fit, O(n^2)); a
fine grid keeps only the band of its B-spline design matrix B, four
entries per point, and the refined family is W_sigma (B C_sigma B^T),
W_sigma the triangle weight of the fine grid (SplineKernels). Fine points
past the last source sample are clipped to the knot interval, where
fitpack holds the spline constant. Per fine grid of n_fine points the
refinement costs O(n_fine) time and memory. Above DENSE_MAX points each
kernel product costs O(n_fine + n^2) per row (segmented suffix sums
inside knot intervals, interval totals across them) and no n_fine^2 array
is formed. Up to DENSE_MAX points, the floor grid of most short-time
probes, the band's fixed cost per call exceeds a whole dense product, so
products take the dense T_plus and T_minus (2 MB at 256 points). The
column maxima of the resolution check cost O(n_fine^2) time once, in
blocks of bounded memory. A source keeps its last REFINED_PER_SOURCE
refinements by grid, each with its band factors or dense arrays and, once
a probe has read them, its column maxima, so probes that share a grid pay
these once. T1, and the dense arrays of a band-route grid, are reference
arrays for the tests and the reference definitions family_kernel and
derivative_data; nothing on the probe path reads them.

The linearized flow evolves the potential's 2-D transform under the
dispersion relation p^3 + 3 q^2 / p, excluding the p = 0 line (zero-mean
data carries nothing there). The decay fits' linear baseline
(harness.run_linear_baseline) takes it as u1 on the linear-order kernels,
through the probe path above. linear_kp (the native rectangular (p, q)
sum), linear_kp_crosscheck (the two-spectral-variable parametrization
with Jacobian 2 |l - k|) and linear_field (the whole field) have no
caller in the package: they are the reference definitions the tests
check the probe path and the oracle against.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import warnings

import numpy as np
from scipy.interpolate import BSpline, RectBivariateSpline

from .grids import ConditionsReport, Grid1D, PotentialField, full_fourier
from .phase_airy import RayCoordinates, RegionLabel, DEFAULT_REGION_DELTA
# family_kernel is not called here: perfbench wraps this module's global of
# that name to count negated kernel copies, so the name stays importable
from .rhp import (  # noqa: F401
    CTOperator,
    RHPSolution,
    _require_finite,
    family_kernel,
    solve_dmul_dx,
)
from .scattering import ScatteringData, ScatteringGrids, _triangle_weights

__all__ = [
    "ReconstructionSample",
    "eval_u1",
    "eval_u2",
    "reconstruct",
    "linear_kp",
    "linear_kp_crosscheck",
    "linear_field",
    "ray_resolution_grid",
    "resample_scattering_data",
    "SplineKernels",
]

OSCILLATION_THRESHOLD = np.pi / 4.0
SUPPORT_CUTOFF = 1e-3
FRESNEL_CELLS = 4
# fewest points of a probe grid from ray_resolution_grid
GRID_FLOOR = 256
# refinements a source keeps (resample_scattering_data), least recently
# used dropped first; a wide 1024-point one holds about 7 MB, more once
# its dense reference arrays are read
REFINED_PER_SOURCE = 8
# largest fine grid whose kernel products are dense (SplineKernels): at
# 256 points one dense product takes a third of the banded one's time, at
# 512 already more than it
DENSE_MAX = 256


@dataclasses.dataclass(frozen=True)
class ReconstructionSample:
    """One reconstructed value with its leading/correction split.

    u equals u1 + u2 exactly; region comes from the ray frame of the
    probe point (transition at t = 0 by convention)."""

    point: tuple[float, float, float]
    u1: complex
    u2: complex
    u: complex
    region: RegionLabel


def _warn_if_underresolved(f_abs_colmax, pts, dl, t, x, y):
    """Fresnel-type resolution disclosure for one probe point.

    The dominant contribution to the double sum comes from where the
    phase rate x - 2 y l + 12 t l^2 is slowest over the kernel support
    (a stationary point if one lies inside, the nearest support edge
    otherwise). Demanding a small advance per cell across a few cells
    around that point predicts quadrature accuracy; the worst advance
    anywhere on the support does not, since fast-phase columns carry
    little mass and cancel incoherently."""
    colmax = np.asarray(f_abs_colmax, dtype=float)
    peak = np.max(colmax)
    if peak <= 0:
        return
    support = np.flatnonzero(colmax >= SUPPORT_CUTOFF * peak)
    rate = np.abs(x - 2.0 * y * pts[support] + 12.0 * t * pts[support] ** 2)
    center = int(np.argmin(rate))
    window = rate[max(0, center - FRESNEL_CELLS):center + FRESNEL_CELLS + 1]
    worst = float(np.max(window) * dl)
    if worst > OSCILLATION_THRESHOLD:
        warnings.warn(
            "oscillatory weight advances "
            f"{worst:.2f} rad per cell near its slowest point "
            f"(threshold {OSCILLATION_THRESHOLD:.2f}); refine the spectral "
            "grid for this probe (see ray_resolution_grid)",
            RuntimeWarning,
            stacklevel=3,
        )


def _family_sums(op: CTOperator, rows: np.ndarray):
    """Plain and k-weighted sums over k of both kernel families with
    their oscillatory weight, applied to each row of rows. Off the
    diagonal one family contributes; on it the two half weights combine."""
    a = op.kernel_apply(+1, rows) + op.kernel_apply(-1, rows)
    return a.sum(axis=1), a @ op.base.grids.grid_kl.points


def eval_u1(op: CTOperator) -> complex:
    """Leading reconstruction term at the operator's probe point.

    (1/pi) double sum of the oscillatory weight times i (l - k) times the
    combined kernel, taken as i(K(l) - k K(1))."""
    pts = op.base.grids.grid_kl.points
    dl = op.base.grids.grid_kl.spacing
    _warn_if_underresolved(op.base.combined_colmax, pts, dl, op.t, op.x, op.y)
    s, ks = _family_sums(op, np.stack([pts, np.ones_like(pts)]))
    return complex((1j / np.pi) * dl * (s[0] - ks[1]))


def eval_u2(op: CTOperator, sol: RHPSolution) -> complex:
    """Correction term at the operator's probe point.

    Adds the kernel sum weighted by (mu - 1) at the column argument and
    the plain kernel sum weighted by the x-derivative of mu. Requires the
    solution record solved at exactly this probe point, derivative part
    included."""
    expected = (op.t, op.x, op.y)
    if tuple(sol.point) != expected:
        raise ValueError(
            f"solution record is for point {tuple(sol.point)}, "
            f"requested {expected}")
    if sol.dmu_dx is None:
        raise ValueError("solution record lacks the derivative part")
    pts = op.base.grids.grid_kl.points
    dl = op.base.grids.grid_kl.spacing
    mu = sol.mu_minus_1
    s, ks = _family_sums(op, np.stack([pts * mu, mu, sol.dmu_dx]))
    return complex((1.0 / np.pi) * dl * (1j * (s[0] - ks[1]) + s[2]))


def reconstruct(data: ScatteringData | SplineKernels, t: float, x: float,
                y: float, delta: float = DEFAULT_REGION_DELTA,
                tol: float = 1e-10,
                conditions: ConditionsReport | None = None,
                ) -> ReconstructionSample:
    """Solve and evaluate at one probe point; an invalid delta is refused
    before the solve."""
    region = RayCoordinates(t, x, y).region(delta)
    op = CTOperator.build(data, t, x, y)
    sol = solve_dmul_dx(op, tol=tol, conditions=conditions)
    u1 = eval_u1(op)
    u2 = eval_u2(op, sol)
    return ReconstructionSample((t, x, y), u1, u2, u1 + u2, region)


def _spectrum_with_zero_line(u0: PotentialField):
    grid_p, grid_q, uhat = full_fourier(u0)
    scale = np.max(np.abs(uhat))
    zero_col = int(np.argmin(np.abs(grid_p.points)))
    if scale > 0 and np.max(np.abs(uhat[zero_col])) > 1e-8 * scale:
        raise ValueError(
            "transform does not vanish on the excluded zero-frequency "
            "line; the data is not zero-mean in x")
    return grid_p, grid_q, uhat, zero_col


def linear_kp(u0: PotentialField, t: float, x: float, y: float,
              n_quad: int = 0, quad_half: float = 10.0) -> float:
    """Linearized evolution evaluated at one point, rectangular route.

    By default the sum runs on the field's own transform lattice. The
    dispersion rate blows up toward the excluded line, so the native
    lattice carries a near-line quadrature error of order the lattice
    spacing squared; pass n_quad to respline the transform onto a dense
    |frequency| <= quad_half lattice when a cross-route comparison needs
    the quadrature itself converged."""
    grid_p, grid_q, uhat, zero_col = _spectrum_with_zero_line(u0)
    if n_quad:
        gq = Grid1D(-quad_half, quad_half, n_quad)
        sp_re = RectBivariateSpline(grid_p.points, grid_q.points, uhat.real)
        sp_im = RectBivariateSpline(grid_p.points, grid_q.points, uhat.imag)
        uhat = sp_re(gq.points, gq.points) + 1j * sp_im(gq.points, gq.points)
        zero_col = int(np.argmin(np.abs(gq.points)))
        uhat[zero_col] = 0.0
        grid_p = grid_q = gq
    p = grid_p.points
    q = grid_q.points
    keep = np.arange(grid_p.n) != zero_col
    pk = p[keep]
    omega = pk[:, None] ** 3 + 3.0 * q[None, :] ** 2 / pk[:, None]
    phase = np.exp(1j * (pk[:, None] * x + q[None, :] * y + t * omega))
    total = np.sum(uhat[keep] * phase) * grid_p.spacing * grid_q.spacing
    return float(np.real(total / (2.0 * np.pi)))


def linear_kp_crosscheck(u0: PotentialField, t: float, x: float, y: float,
                         grid_kl: Grid1D | None = None) -> float:
    """Same value by the two-spectral-variable parametrization.

    Substituting p = l - k, q = -(l^2 - k^2) turns the rectangular sum
    into a double sum over (k, l) with Jacobian 2 |l - k|; the transform
    is spline-interpolated at the image points and zeroed outside its
    sampled window. Agreement with linear_kp validates the change of
    variables independently of the kernel pipeline."""
    if grid_kl is None:
        grid_kl = Grid1D(-4.0, 4.0, 256)
    grid_p, grid_q, uhat, _ = _spectrum_with_zero_line(u0)
    sp_re = RectBivariateSpline(grid_p.points, grid_q.points, uhat.real)
    sp_im = RectBivariateSpline(grid_p.points, grid_q.points, uhat.imag)
    pts = grid_kl.points
    k2 = pts[:, None]
    l2 = pts[None, :]
    p = l2 - k2
    q = -(l2 ** 2 - k2 ** 2)
    inside = ((p >= grid_p.points[0]) & (p <= grid_p.points[-1])
              & (q >= grid_q.points[0]) & (q <= grid_q.points[-1]))
    vals = np.where(inside,
                    sp_re.ev(p, q) + 1j * sp_im.ev(p, q), 0.0)
    phase = np.exp(1j * (p * x + q * y + 4.0 * t * (l2 ** 3 - k2 ** 3)))
    jac = 2.0 * np.abs(p)
    total = np.sum(vals * phase * jac) * grid_kl.spacing ** 2
    return float(np.real(total / (2.0 * np.pi)))


def linear_field(u0: PotentialField, t: float) -> np.ndarray:
    """Whole-field linearized evolution on the native grid.

    Multiplies the transform by the unimodular dispersion factor and
    inverts; the excluded line is zeroed outright. The result is real up
    to roundoff (the multiplier is Hermitian-symmetric) and has the same
    discrete L2 norm as the input."""
    grid_p, grid_q, uhat, zero_col = _spectrum_with_zero_line(u0)
    p = grid_p.points.copy()
    p[zero_col] = 1.0  # placeholder; the line is zeroed below
    omega = p[:, None] ** 3 + 3.0 * grid_q.points[None, :] ** 2 / p[:, None]
    w = uhat * np.exp(1j * t * omega)
    w[zero_col] = 0.0
    gx, gy = u0.grid_x, u0.grid_y
    p_raw = 2.0 * np.pi * np.fft.fftfreq(gx.n, d=gx.spacing)
    q_raw = 2.0 * np.pi * np.fft.fftfreq(gy.n, d=gy.spacing)
    unphase = np.exp(1j * p_raw * gx.min)[:, None] * \
        np.exp(1j * q_raw * gy.min)[None, :]
    raw = np.fft.ifftshift(w) * (2.0 * np.pi / (gx.spacing * gy.spacing)) * unphase
    return np.real(np.fft.ifft2(raw))


def check_fine_cap(cap: int) -> int:
    """The fine-grid cap, which must be a power of two >= GRID_FLOOR."""
    if cap < GRID_FLOOR or cap & (cap - 1):
        raise ValueError(f"fine_cap {cap} must be a power of two "
                         f">= {GRID_FLOOR}")
    return cap


def ray_resolution_grid(t: float, x: float, y: float,
                        cap: int = 8192) -> Grid1D:
    """Spectral grid resolving the oscillatory weight at one probe.

    The domain covers twice the stationary points of the phase rate
    x - 2 y s + 12 t s^2, with a fixed floor of 1.5 on the half-width.
    The floor does not bound the kernel tail: near the diagonal the
    kernels decay in the offset l - k, not in k, and on the bench data
    |T+-| past |k| = 4 still reaches 12% of its maximum (ROADMAP.md,
    item 1: size the window by its tail). The spacing keeps the phase
    advance per cell below pi so periodization images of the stationary
    points stay off the grid with a factor-two margin. The point count is
    a power of two between GRID_FLOOR and cap (check_fine_cap)."""
    check_fine_cap(cap)
    _require_finite(t, x, y)
    half = 1.5
    if t > 0:
        disc = y * y - 12.0 * t * x
        if disc >= 0:
            root = np.sqrt(disc)
            reach = max(abs(y + root), abs(y - root)) / (12.0 * t)
            half = max(half, 2.0 * reach)
    rate = max(abs(x - 2.0 * y * s + 12.0 * t * s * s)
               for s in (-half, half, (y / (12.0 * t) if t > 0 else 0.0)))
    if rate <= 0:
        n = GRID_FLOOR
    else:
        needed = 2.0 * half * rate / np.pi
        n = int(2 ** np.ceil(np.log2(max(needed, GRID_FLOOR))))
    return Grid1D(-half, half, min(max(n, GRID_FLOOR), cap))


class _Band:
    """Band of a cubic B-spline design matrix B with its layout for
    upper-triangle sums.

    Point i holds vals[:, i] in columns first[i] .. first[i] + 3 of B,
    with first nondecreasing; the points sharing first[i] lie in one knot
    interval and form a segment. pad lists each segment's points last to
    first (m marks padding), so a cumulative sum along a row of pad is a
    suffix sum inside one segment: no sum runs across segments, and none
    loses digits to the others."""

    def __init__(self, first: np.ndarray, vals: np.ndarray, n_coef: int):
        m = len(first)
        starts = np.flatnonzero(np.r_[True, first[1:] != first[:-1]])
        lens = np.diff(np.r_[starts, m])
        stops = starts + lens
        k = np.arange(lens.max())
        seg = np.repeat(np.arange(len(starts)), lens)
        self.first, self.vals, self.n_coef = first, vals, n_coef
        self.pad = np.where(k < lens[:, None], stops[:, None] - 1 - k, m)
        self.where = seg * k.size + (stops[seg] - 1 - np.arange(m))
        self.seg_first = first[starts]

    def reversed(self) -> "_Band":
        """The band with points and coefficients in reverse order, which
        turns lower-triangle sums into upper ones."""
        return _Band(self.n_coef - 4 - self.first[::-1], self.vals[::-1, ::-1],
                     self.n_coef)

    def factors(self, c: np.ndarray):
        """Per-point and per-interval factors of W (B c B^T), W the upper
        triangle weight (1 above the diagonal, 1/2 on it).

        near[:, i] = B_i c on point i's own four columns; half_diag[i] =
        B_i c B_i^T / 2; far couples interval totals: far[(p, a), (q, b)]
        = c[a + p, b + q] for intervals b > a."""
        v = self.vals
        cols = self.first + np.arange(4)[:, None]
        near = np.einsum("pi,pqi->qi", v, c[cols[:, None], cols[None, :]])
        half_diag = 0.5 * np.sum(near * v, axis=0)
        n_int = self.n_coef - 3
        idx = (np.arange(4)[:, None] + np.arange(n_int)).ravel()
        interval = np.tile(np.arange(n_int), 4)
        far = c[idx[:, None], idx] * (interval > interval[:, None])
        return near, half_diag, far

    def upper(self, factors, g: np.ndarray) -> np.ndarray:
        """sum_j W(i, j) (B c B^T)(i, j) g_j for every row of g.

        With i in knot interval a, (B c B^T)(i, j) = B_i c B_j^T and B_j
        lives on columns first[j] .. first[j] + 3, so the sum over j >= i
        splits into the band term (j in interval a: suffix sums of
        B_j g_j inside the segment, four per point, against near), the far
        term (j in later intervals: the interval totals of B_j g_j,
        coupled through far and read back through B_i) and the half
        diagonal, subtracted. O(n_fine + n_coef^2) per row."""
        near, half_diag, far = factors
        rows = g.reshape(-1, g.shape[-1])
        r, m = rows.shape
        bg = np.empty((r, 4, m + 1), dtype=complex)
        bg[:, :, m] = 0.0
        np.multiply(rows[:, None, :], self.vals, out=bg[:, :, :m])
        suffix = np.cumsum(bg[:, :, self.pad], axis=-1)
        band = suffix.reshape(r, 4, -1)[:, :, self.where]
        totals = np.zeros((r, 4, self.n_coef - 3), dtype=complex)
        totals[:, :, self.seg_first] = suffix[..., -1]
        w = (totals.reshape(r, -1) @ far.T).reshape(totals.shape)
        band *= near
        band += w[:, :, self.first] * self.vals
        out = np.sum(band, axis=1) - half_diag * rows
        return out.reshape(g.shape)


class SplineKernels:
    """Both kernel families of a source ScatteringData on a finer
    spectral grid, in factored form: K_sigma = W_sigma (B C_sigma B^T).

    C_sigma are the source's spline coefficients (ScatteringData.spline_fit,
    fitted once per source), B the cubic B-spline design matrix on the fine
    points, of which only the band is held (four entries per point), and
    W_sigma the triangle weight of the fine grid. apply is the product
    ScatteringData gives: above DENSE_MAX points in O(n_fine + n^2) per
    row, n the source size, from band factors built once per family at
    construction, forming no n_fine^2 array; up to DENSE_MAX points with
    the dense T_plus or T_minus, cheaper there than the band's fixed work
    per call. T_plus, T_minus and T1 are built on first access from
    _column_blocks, the one dense evaluator, which also gives a band-route
    grid's combined_colmax in blocks of bounded size."""

    def __init__(self, source: ScatteringData, grid: Grid1D):
        knots, coeffs = source.spline_fit
        # fitpack holds a spline constant past its last knot; clipping to
        # the base interval reproduces that for points beyond the last
        # source sample
        pts = np.clip(grid.points, knots[3], knots[-4])
        design = BSpline.design_matrix(pts, knots, 3)
        first = design.indices.reshape(-1, 4)[:, 0]
        lo, hi = first.min(), first.max() + 4
        self.grids = ScatteringGrids(grid, source.grids.grid_y)
        self.meta = dict(source.meta, resampled_from_n=source.grids.n_kl,
                         resampled_from_half_width=source.grids.grid_kl.max)
        # only the coefficients the fine points reach
        self._coeffs = {s: c[lo:hi, lo:hi] for s, c in coeffs.items()}
        vals = np.ascontiguousarray(design.data.reshape(-1, 4).T)
        self._band = _Band(first - lo, vals, hi - lo)
        self._families = None
        if grid.n > DENSE_MAX:
            # the lower triangle of the minus family is an upper one with
            # the order of points and coefficients reversed
            rev = self._band.reversed()
            self._families = {
                +1: (self._band, self._band.factors(self._coeffs[+1])),
                -1: (rev, rev.factors(self._coeffs[-1][::-1, ::-1]))}

    def apply(self, sign: int, rows: np.ndarray) -> np.ndarray:
        """rows @ K^T, K one family's kernel in stored orientation."""
        if sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        rows = np.asarray(rows, dtype=complex)
        if self._families is None:
            return rows @ (self.T_plus if sign == +1 else self.T_minus).T
        band, factors = self._families[sign]
        if sign == +1:
            return band.upper(factors, rows)
        return band.upper(factors, rows[..., ::-1])[..., ::-1]

    def _column_blocks(self, sign: int):
        """One family (sign 0: the unmasked T1) in blocks of columns:
        (j0, j1, r0, vals) with vals the rows r0 .. r0 + len(vals) of
        columns j0 .. j1, the rows the family's triangle reaches; the
        other rows are exact zeros. The one evaluator of dense values:
        each block is (B C)[rows, a] B[j0:j1, a]^T over the few
        coefficients a that the block's own points reach."""
        f, m = self._band.first, self.grids.n_kl
        bt = np.zeros((self._band.n_coef, m))
        bt[f + np.arange(4)[:, None], np.arange(m)] = self._band.vals
        bc = bt.T @ self._coeffs[sign]
        step = max(1, min(64, (1 << 17) // m))  # few coefficients per block
        # the weights of a diagonal block depend only on the offset of
        # column from row: every block takes one mask, a narrower block
        # (a grid under step points) its corner
        tri = _triangle_weights(step, sign) if sign else None
        for j0 in range(0, m, step):
            j1 = min(j0 + step, m)
            a = slice(f[j0], f[j1 - 1] + 4)
            r0, r1 = {+1: (0, j1), -1: (j0, m)}.get(sign, (0, m))
            vals = bc[r0:r1, a] @ bt[a, j0:j1]
            if sign:  # rows j0 .. j1 hold the diagonal
                vals[j0 - r0:j1 - r0] *= tri[:j1 - j0, :j1 - j0]
            yield j0, j1, r0, vals

    def _dense(self, sign: int) -> np.ndarray:
        m = self.grids.n_kl
        out = np.zeros((m, m), dtype=complex)
        for j0, j1, r0, vals in self._column_blocks(sign):
            out[r0:r0 + len(vals), j0:j1] = vals
        return out

    # the reference arrays, built when first read
    T_plus = functools.cached_property(lambda self: self._dense(+1))
    T_minus = functools.cached_property(lambda self: self._dense(-1))
    T1 = functools.cached_property(lambda self: self._dense(0))

    @functools.cached_property
    def combined_colmax(self) -> np.ndarray:
        """Column maxima of |T_plus - T_minus|, equal to those of the
        reference arrays bit for bit; done once per grid, off the product
        arrays of a dense-route grid, else in column blocks of bounded
        size."""
        if self._families is None:
            return np.max(np.abs(self.T_plus - self.T_minus), axis=0)
        m = self.grids.n_kl
        out = np.empty(m)
        for (j0, j1, _, tp), (*_, tm) in zip(self._column_blocks(+1),
                                             self._column_blocks(-1)):
            # tp holds rows 0 .. j1 and tm rows j0 .. m; outside its
            # rows a family is an exact zero, so only j0 .. j1 subtract
            parts = [np.abs(tp[j0:] - tm[:j1 - j0]), np.abs(tp[:j0]),
                     np.abs(tm[j1 - j0:])]
            out[j0:j1] = np.max([np.max(p, axis=0, initial=0.0)
                                 for p in parts], axis=0)
        return out


def resample_scattering_data(data: ScatteringData, grid_fine: Grid1D
                             ) -> ScatteringData | SplineKernels:
    """A probe's kernel data on grid_fine: data itself when grid_fine is
    its own spectral grid, otherwise the kernels interpolated onto the
    finer (possibly truncated) grid in factored form (SplineKernels).

    The fine grid must lie inside the source grid; the check comes before
    any work; the own grid then returns the source and keeps nothing
    with it. The bicubic coefficients of the source are fitted on first
    use and kept with the source (ScatteringData.spline_fit, O(n^2) for
    an n-point source). The source also keeps its last REFINED_PER_SOURCE
    refinements by grid, in its instance dict as spline_fit is, so a
    dataclasses.replace copy starts empty: a kept grid returns the same
    SplineKernels, with its band factors and, once read, its column
    maxima; a new grid builds the band of the B-spline design matrix on
    the fine points, O(n_fine) time and memory, and drops the least
    recently used refinement when the cache is full. Fine points past
    the last source sample are clipped to the knot interval, where
    fitpack holds the spline constant, so the values are those of the
    splines evaluated there. Products are dense up to DENSE_MAX points
    and cost O(n_fine + n^2) per row above it (SplineKernels). Direct
    reassembly at the fine size would redo the layered solve at quadratic
    cost; splines keep large-time probes affordable."""
    src = data.grids.grid_kl
    if grid_fine.min < src.min or grid_fine.max > src.max:
        raise ValueError("fine grid must lie inside the source grid")
    if grid_fine == src:
        return data
    cache = vars(data).setdefault("_refined", collections.OrderedDict())
    if grid_fine in cache:
        cache.move_to_end(grid_fine)
        return cache[grid_fine]
    if len(cache) >= REFINED_PER_SOURCE:
        cache.popitem(last=False)
    fine = cache[grid_fine] = SplineKernels(data, grid_fine)
    return fine
