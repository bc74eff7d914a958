"""Field evaluation at probe points from evolved kernels and refinement
of the kernels onto per-probe grids.

The field splits into a leading term built from the kernels alone and a
correction weighted by the solved factorization unknown and its
x-derivative. Both are double spectral sums sharing one oscillatory
weight, evaluated per probe point; probe points rather than fields are
first-class because the large-time statements are statements along rays.
reconstruct_points builds the solver's kernel operator rhp.CTOperator
once for a set of P probe points on one kernel data, as one stack with a
row per point (a decay fit's cluster; reconstruct is its P = 1 case);
one call of solve_dmul_dx solves every row, and both terms take the
operator and return one value per row. The operator's products
(CTOperator.products) are the one kernel application: through them the
two families sum to T_plus g - T_minus g
and the gap weight i(l - k) acts as i(K(l g) - k K g), so no combined or
gap-weighted kernel is formed. Both terms take their kernel products
from those the probes have formed already: eval_u1 from the operator's
products of the rows l and 1 (CTOperator.basis, which also give the
source of the mu solve), eval_u2 from the products of l (mu - 1), mu - 1
and dmu/dx that the solves keep in their record (rhp.solve_dmul_dx).
The field evaluation thus adds no row to the n1 + n2 + 5 per stack row
of the solves (rhp), n1 and n2 the terms of that row's two series.

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
fitpack holds the spline constant. As W_minus = 1 - W_plus, both rows
the solves consume, T_plus g and T_plus g - T_minus g, are upper-triangle
sums (of C_plus, and of C_plus + C_minus less the full product with
C_minus), so the band factors of both sit on one table with one row per
knot interval, and a product gathers its input into the table once,
takes one set of suffix sums inside the intervals there, couples the
interval totals through the strict upper triangles of the coefficients
and a stencil of the next three intervals, and gathers both results back
to point order once: O(n_fine + n_c^2) per row, n_c <= n the spline
coefficients the fine points reach, and no n_fine^2 array. Cubic
B-splines have local support, so the coefficient-space factors of every
grid are contiguous slices of one set of tables per source (the 4 x 4
block of each knot interval, the strict triangles, the stencil weights;
_band_tables), built with the source's first band refinement and kept
with it as its spline fit is. A refinement copies its slices and forms
only its per-point tables: 0.05-0.16 ms from 256 to 2048 points, where
gathering its factors from the coefficients took 0.2-1.1 ms.

Products take the band route on every grid but one. The floor grid,
+-FLOOR_HALF_WIDTH on GRID_FLOOR points, is the one grid that
ray_resolution_grid hands to every probe whose window and phase rate fit
the floor, so the probes of a pass share it; there products take the
dense T_plus and T_minus (2 MB, built once) through
scattering.triangular_products, which reads only each family's own
triangle, and both rows of one input take 37 us against the band's 57
us (one BLAS thread, on the bench data). Every other grid serves about
one probe, of some 13 rows, for which building the dense arrays (1.3-1.7
ms at 256 points) costs far more than the band's slower rows; so no
other grid, 256-point windows wider than the floor's included, forms an
n_fine^2 array on the probe path. The route is a property of the grid,
never of what a source has kept, so a kept refinement and a fresh one
give bitwise-equal answers. A source keeps its last REFINED_PER_SOURCE
refinements by grid, each with its band factors or dense arrays, so
probes that share a grid pay these once. The dense arrays of a
band-route grid are reference arrays for the tests; nothing on the
probe path reads them.

The linearized flow enters as the decay fits' linear baseline
(harness.run_linear_baseline): u1 on the linear-order kernels, through
the probe path above.
"""

from __future__ import annotations

import collections
import dataclasses
import functools

import numpy as np
from scipy.interpolate import BSpline

from .grids import Grid1D
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
from .scattering import (ScatteringData, ScatteringGrids, _triangle_weights,
                         triangular_products)

__all__ = [
    "ReconstructionSample",
    "eval_u1",
    "eval_u2",
    "reconstruct",
    "reconstruct_points",
    "ray_resolution_grid",
    "resample_scattering_data",
    "SplineKernels",
]

# fewest points of a probe grid from ray_resolution_grid
GRID_FLOOR = 256
# refinements a source keeps (resample_scattering_data), least recently
# used dropped first. On a 128-point source, with its band tables of
# 0.78 MB: 0.16, 0.24 and 0.38 MB at 256, 512 and 1024 points over +-2,
# 1.25 MB for a wide 1024-point one (+-7.875), 2.1 MB for the floor grid
# with its dense arrays, and 35 MB for a wide 1024-point one once its
# dense T_plus and T_minus are read
REFINED_PER_SOURCE = 8
# least half-width of a probe grid from ray_resolution_grid; the floor
# grid, +-FLOOR_HALF_WIDTH on GRID_FLOOR points, is the one refinement
# whose kernel products are triangular ones on dense arrays
# (SplineKernels)
FLOOR_HALF_WIDTH = 1.5


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


def _family_sums(op: CTOperator, sums: np.ndarray):
    """Plain and k-weighted sums over k of each row of sums, rows of both
    kernel families' products with their oscillatory weight (row 1 of
    CTOperator.products). Off the diagonal one family contributes; on it
    the two half weights combine. The k-weighted sums are one
    matrix-vector product over every row, so a row's sum is the same in
    any stack."""
    rows = sums.reshape(-1, sums.shape[-1])
    return (sums.sum(axis=-1),
            (rows @ op.base.grids.grid_kl.points).reshape(sums.shape[:-1]))


def eval_u1(op: CTOperator) -> np.ndarray:
    """Leading reconstruction term at the operator's P probe points,
    shape (P,).

    (1/pi) double sum of the oscillatory weight times i (l - k) times the
    combined kernel, taken as i(K(l) - k K(1)) from the operator's
    products of the rows l and 1 (CTOperator.basis)."""
    s, ks = _family_sums(op, op.basis[1])
    dl = op.base.grids.grid_kl.spacing
    return (1j / np.pi) * dl * (s[0] - ks[1])


def eval_u2(op: CTOperator, sol: RHPSolution) -> np.ndarray:
    """Correction term at the operator's P probe points, shape (P,).

    Adds the kernel sum weighted by (mu - 1) at the column argument and
    the plain kernel sum weighted by the x-derivative of mu, from the
    products of l (mu - 1), mu - 1 and dmu/dx that the solves formed.
    Requires the solution record solved on the operator's kernel data at
    exactly its probe points, derivative part included."""
    expected = (op.t, op.x, op.y)
    if tuple(sol.point) != expected:
        raise ValueError(
            f"solution record is for point {tuple(sol.point)}, "
            f"requested {expected}")
    if sol.dmu_dx is None:
        raise ValueError("solution record lacks the derivative part")
    if sol.base is not op.base:
        raise ValueError("solution record was solved on other kernel data")
    s, ks = _family_sums(op, sol.products[1])
    dl = op.base.grids.grid_kl.spacing
    return (1.0 / np.pi) * dl * (1j * (s[0] - ks[1]) + s[2])


def reconstruct_points(data: ScatteringData | SplineKernels, points,
                       delta: float = DEFAULT_REGION_DELTA,
                       tol: float = 1e-10) -> list[ReconstructionSample]:
    """Solve and evaluate at a set of (t, x, y) probe points on one kernel
    data, as one stack: one operator for all points (CTOperator.build),
    one call of solve_dmul_dx, whose rows each stop on their own, and
    both field terms. Each sample equals its point's answer alone (a
    one-row stack) to rounding. An invalid delta is refused before the
    solve.
    Admissibility was decided where the data entered
    (harness.compute_scattering, run_decay_fit), not per probe."""
    regions = [RayCoordinates(t, x, y).region(delta) for t, x, y in points]
    if not regions:
        return []
    op = CTOperator.build(data, *zip(*points))
    sol = solve_dmul_dx(op, tol=tol)
    u1, u2 = eval_u1(op), eval_u2(op, sol)
    return [ReconstructionSample(tuple(p), complex(a), complex(b),
                                 complex(a) + complex(b), r)
            for p, a, b, r in zip(points, u1, u2, regions)]


def reconstruct(data: ScatteringData | SplineKernels, t: float, x: float,
                y: float, delta: float = DEFAULT_REGION_DELTA,
                tol: float = 1e-10) -> ReconstructionSample:
    """Solve and evaluate at one probe point: reconstruct_points on the
    one point, a stack of one row."""
    return reconstruct_points(data, [(t, x, y)], delta, tol)[0]


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
    x - 2 y s + 12 t s^2, with a fixed floor of FLOOR_HALF_WIDTH on the
    half-width.
    The floor does not bound the kernel tail: near the diagonal the
    kernels decay in the offset l - k, not in k, and on the bench data
    |T+-| past |k| = 4 still reaches 12% of its maximum (ROADMAP.md,
    item 1: size the window by its tail). The spacing keeps the phase
    advance per cell below pi so periodization images of the stationary
    points stay off the grid with a factor-two margin. The point count is
    a power of two between GRID_FLOOR and cap (check_fine_cap)."""
    check_fine_cap(cap)
    _require_finite(t, x, y)
    half = FLOOR_HALF_WIDTH
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
    with first nondecreasing from 0; the points with first[i] = s lie in
    knot interval s and form its segment. The pad table has one row per
    knot interval the points span, holding its points last to first and
    then padding (an interval no point falls in is all padding), so a
    cumulative sum along a row is a suffix sum inside one segment: no sum
    runs across segments, and none loses digits to the others. A product
    gathers its input into the table once (take) and its result back to
    point order once (put)."""

    def __init__(self, first: np.ndarray, vals: np.ndarray, n_coef: int):
        m, n_seg = len(first), n_coef - 3
        lens = np.bincount(first, minlength=n_seg)
        stops = np.cumsum(lens)
        k = np.arange(lens.max())
        self.first, self.vals, self.n_coef = first, vals, n_coef
        self.filled = k < lens[:, None]
        # padding repeats a point, where the table's factors are exact zeros
        self.pad = np.where(self.filled, stops[:, None] - 1 - k,
                            (stops - lens)[:, None])
        self.put = first * k.size + stops[first] - 1 - np.arange(m)
        # gathers from the segment totals T[q, t] laid out (4, n_coef), zero
        # past the table, where t mod n_coef lands for every t off it:
        # T[q, j - q] for u[j], then T[q, s + d - q] for d = 1 .. 3
        q, d = np.arange(4)[:, None, None], np.arange(1, 4)[:, None]
        self.gather = np.r_[
            (q * n_coef + (np.arange(n_coef) - q) % n_coef).ravel(),
            (q * n_coef + (np.arange(n_seg) + d - q) % n_coef).ravel()]
        self.window = np.arange(n_seg) + np.arange(4)[:, None]

    def factors(self, tables, lo: int):
        """Factors of the pair [W (B c_plus B^T), W (B c B^T) - B c_minus B^T],
        c = c_plus + c_minus and W the upper triangle weight (1 above the
        diagonal, 1/2 on it), for a band whose columns start at the
        source's coefficient lo: as W_minus = 1 - W, the second is
        W (B c_plus B^T) - W_minus (B c_minus B^T). Three on the pad table,
        zero in the padding, and two contiguous slices of the source's
        tables (_band_tables) at lo, O(n_fine + n_coef^2) memory in all;
        each but vals holds the two sets c_plus and c along its first
        axis.

        vals = B_i (held complex: a mixed real-complex product runs
        slower), near = B_i c on point i's own four columns, one (L x 4)
        (4 x 4) product per knot interval with its block, half_diag =
        B_i c B_i^T / 2; strict and local as _band_tables gives them."""
        blocks, strict, local = tables
        n_seg = self.n_coef - 3
        # (n_seg, L, 4) for the products with the blocks, then point-minor
        vals = np.where(self.filled[..., None], self.vals.T[self.pad],
                        0.0).astype(complex)
        near = np.ascontiguousarray(
            np.matmul(vals, blocks[:, lo:lo + n_seg]).transpose(0, 3, 1, 2))
        vals = np.ascontiguousarray(vals.transpose(2, 0, 1))
        half_diag = 0.5 * np.sum(near * vals, axis=1)
        coef = slice(lo, lo + self.n_coef)
        return (near, vals, half_diag,
                np.ascontiguousarray(strict[:, coef, coef]),
                np.ascontiguousarray(local[..., lo:lo + n_seg]))

    def pair(self, factors, g: np.ndarray) -> np.ndarray:
        """The two sums of factors for every row of g, shape (2,) + g.shape:
        sum_j W(i, j) (B c B^T)(i, j) g_j for each set c, the second less
        (B c_minus B^T g)_i.

        With i in knot interval s, (B c B^T)(i, j) = B_i c B_j^T and B_j
        lives on columns first[j] .. first[j] + 3, so the sum over j >= i
        splits into the band term (j in interval s: suffix sums of
        B_j g_j inside the segment, four per point, against near), the far
        term and the half diagonal, subtracted. The far term is
        sum_p B_i[p] w[p, s], w[p, s] = sum_(t > s, q) c[s + p, t + q]
        T[q, t] over the segment totals T of B_j g_j. The columns j = t + q
        merge the totals into u = B^T g, u[j] = sum_q T[q, j - q], and the
        mask t > s differs from j > s + p only for j = s + 1 .. s + 3, so
        w[p, s] is (c u)[s + p] over j > s + p (strict) plus a stencil of
        the twelve totals T[q, s + d - q], d = 1 .. 3 (local); the second
        set's strict carries -(c_minus u)[s + p] over every j. Both sets
        share the gather, the suffix sums, the totals and u.
        O(n_fine + n_coef^2) per row."""
        near, vals, half_diag, strict, local = factors
        rows = g.reshape(-1, g.shape[-1])
        r, n_coef = len(rows), self.n_coef
        # take, unlike indexing, returns rows in C order, which the
        # broadcast products below need to run at full speed
        x = rows.take(self.pad, axis=1)
        suffix = vals * x[:, None]
        np.cumsum(suffix, axis=-1, out=suffix)
        totals = np.zeros((r, 4, n_coef), dtype=complex)
        totals[..., :n_coef - 3] = suffix[..., -1]
        picked = totals.reshape(r, -1).take(self.gather, axis=1)
        u = picked[:, :4 * n_coef].reshape(r, 4, n_coef).sum(axis=1)
        w = (picked[:, None, 4 * n_coef:].reshape(r, 1, 12, 1, -1)
             * local).sum(axis=2)
        # one vector product per row and set: a row's result does not
        # depend on the rows stacked with it (a matrix product's blocking
        # would)
        w += np.matmul(u[:, None, None], strict)[:, :, 0].take(self.window,
                                                               axis=-1)
        # row by row from here: two (2, 4) + table-sized buffers serve every
        # row, where the stack's would be r times larger
        out = np.empty((r, 2) + x.shape[1:], dtype=complex)
        band, far = np.empty_like(near), np.empty_like(near)
        for i in range(r):
            np.multiply(suffix[i], near, out=band)
            band += np.multiply(vals, w[i, ..., None], out=far)
            band.sum(axis=1, out=out[i])
        out -= half_diag * x[:, None]
        out = np.moveaxis(out.reshape(r, 2, -1), 1, 0)
        return out.take(self.put, axis=-1).reshape((2,) + g.shape)


def _band_tables(c_plus: np.ndarray, c_minus: np.ndarray):
    """The coefficient-space factors of the band pair (_Band.factors) for
    every knot interval of a source, both sets c_plus and
    c = c_plus + c_minus along the first axis; a band takes contiguous
    slices of them at its first coefficient. O(n^2) for n coefficients,
    built once per source: cubic B-splines have local support, so every
    band's factors are slices of these.

    blocks[:, s] = c[s:s + 4, s:s + 4], the 4 x 4 block of knot interval
    s; strict = c's strict upper triangle, transposed, less c_minus^T in
    the second set, which is -B c_minus B^T through u = B^T g;
    local[(q, d), p, s] = c[s + p, s + d] ([d > q] - [d > p]) for
    d = 1 .. 3, the weight of the total T[q, s + d - q] that strict
    misses or wrongly adds to interval s (_Band.pair)."""
    c = np.stack([c_plus, c_plus + c_minus])
    p, s = np.arange(4), np.arange(c.shape[-1] - 3)
    corner = s[:, None, None] + p[:, None]
    blocks = np.ascontiguousarray(c[:, corner, corner.transpose(0, 2, 1)])
    strict = np.triu(c, 1).transpose(0, 2, 1)
    strict[1] -= c_minus.T
    q, d = p[:, None, None], np.arange(1, 4)[:, None]
    sign = (d > q) * 1.0 - (d > p)  # (q, d, p)
    local = c[:, s + p[:, None], s + d[:, None]][:, None] * sign[..., None]
    return (blocks, np.ascontiguousarray(strict),
            local.reshape(2, 12, 4, len(s)))


class SplineKernels:
    """Both kernel families of a source ScatteringData on a finer
    spectral grid, in factored form: K_sigma = W_sigma (B C_sigma B^T).

    C_sigma are the source's spline coefficients (ScatteringData.spline_fit,
    fitted once per source), B the cubic B-spline design matrix on the fine
    points, of which only the band is held (four entries per point), and
    W_sigma the triangle weight of the fine grid. products is the pair
    ScatteringData gives, [T_plus g, T_plus g - T_minus g]: off the floor
    grid (+-FLOOR_HALF_WIDTH on GRID_FLOOR points) in O(n_fine + n_c^2)
    per row, n_c the coefficients the fine points reach (at most the
    source size), from band factors sliced at construction from the
    source's tables (_band_tables, built once per source and kept with
    it): W_minus = 1 - W_plus makes both rows upper-triangle sums, of
    C_plus and of C_plus + C_minus less the full product with C_minus,
    which share one suffix pass over the band's segment table;
    O(n_fine + n_c^2) memory and no n_fine^2 array. On the floor grid,
    which the probes of a pass share, one triangular product per family
    with the dense T_plus and T_minus (scattering.triangular_products),
    cheaper per row than the band's. T_plus and T_minus are built on
    first access by _dense, the one dense evaluator."""

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
        self._factors = None
        if grid != Grid1D(-FLOOR_HALF_WIDTH, FLOOR_HALF_WIDTH, GRID_FLOOR):
            # kept with the source, as its spline fit is
            tables = vars(source).get("_band_tables")
            if tables is None:
                tables = vars(source)["_band_tables"] = _band_tables(
                    coeffs[+1], coeffs[-1])
            self._factors = self._band.factors(tables, lo)

    def products(self, rows: np.ndarray) -> np.ndarray:
        """The one kernel application: [rows @ T_plus^T,
        rows @ (T_plus - T_minus)^T], shape (2,) + rows.shape, the kernels
        in stored orientation."""
        rows = np.asarray(rows, dtype=complex)
        if self._factors is None:
            return triangular_products(self.T_plus, self.T_minus, rows)
        return self._band.pair(self._factors, rows)

    def _dense(self, sign: int) -> np.ndarray:
        """One family as an n_fine^2 array, W_sigma (B C_sigma B^T), with
        B^T dense from the band."""
        f, m = self._band.first, self.grids.n_kl
        bt = np.zeros((self._band.n_coef, m))
        bt[f + np.arange(4)[:, None], np.arange(m)] = self._band.vals
        return (bt.T @ self._coeffs[sign]) @ bt * _triangle_weights(m, sign)

    # the floor grid's product arrays, and elsewhere reference arrays,
    # built when first read
    T_plus = functools.cached_property(lambda self: self._dense(+1))
    T_minus = functools.cached_property(lambda self: self._dense(-1))


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
    SplineKernels, with its band factors or, once read, its dense product
    arrays; a new grid builds the band of the B-spline design matrix on
    the fine points and, off the floor grid, its band factors, slices of
    the band tables the source keeps (built with its first band
    refinement, O(n^2)), O(n_fine + n_c^2) time and memory, and drops the
    least recently used refinement when the cache is full. Fine points
    past the last source sample are clipped to the knot interval, where
    fitpack holds the spline constant, so the values are those of the
    splines evaluated there. Products are triangular ones on dense arrays
    on the floor grid and cost O(n_fine + n_c^2) per row on every other
    (SplineKernels), n_c <= n the coefficients the fine points reach.
    Direct reassembly at the fine size would redo the layered solve at
    quadratic cost; splines keep large-time probes affordable."""
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
