"""Direct scattering map: layered Volterra solve and kernel assembly.

The modified eigenfunction system is solved in mixed representation
(transverse frequency l, spectral parameter k, slow variable y). With
ut(l; y) the partial transform of the potential, the family indexed by
sign sigma in {+1, -1} satisfies

    mu#(k, l; y) = G_delta(k, l; y) + (G mu#)(k, l; y),

    (G f)(k, l; y) = (i / sqrt(2 pi)) Int_{start(sigma, l)}^{y}
                       e^(-i theta (y - eta)) (ut conv_l f)(k, l; eta) d eta,
    G_delta(k, l; y) = i Int_{start(sigma, l)}^{y}
                       e^(-i theta (y - eta)) ut(l; eta) d eta,

with phase rate theta = l (l + 2k) and starting end start(+1, l) = +inf
for l > 0, -inf for l < 0 (mirrored for sigma = -1; the l = 0 row is the
average of both). conv_l is the plain (unnormalized) convolution in l.
The eta integrals use exact per-panel phase moments, so arbitrarily fast
e^(i theta eta) factors cost no resolution; only the smooth amplitude must
live on the y grid. Contraction holds when the admissibility ratio c < 1,
with ||G||_X <= c in X = L^inf_y L^2(dk dl).

One application of G costs two FFTs and two recurrences per (k, l).
Every field of the solve is stored y-leading, as (n_y, k, l) in memory;
the public (k, l, y) arrays are np.moveaxis views of that storage. So the
l-convolution runs along the contiguous last axis, and each recurrence
step works on a whole contiguous (k, l) layer. The convolution is
circular of length 3M/2, the shortest whose aliases miss the M working
outputs (2M when every offset that assembly reads must be exact). The
eta integral from the top end is the one-factor recurrence
F_j = e^(i theta dy) F_(j+1) - P_j over the Filon panel sums P_j, and
from the bottom end, E_(j+1) = e^(-i theta dy) (E_j + P_j), is the same
downward sweep run on the reversed y axis. Both are exact rewritings of
the cumulative Filon sum, and their unit-modulus factor amplifies no
rounding. The weights and factors depend only on theta and dy, so they
are built once per solve.

Scattering kernels on the (k, l) grid, with p = l - k and q = l^2 - k^2:

    T_sigma(k, l) = -(i / 2 pi) Int e^(i q y)
                    [ sqrt(2 pi) ut(p; y) + (ut conv_l mu#_sigma)(k, p; y) ]
                    dy * step(sigma p),

step the half-at-zero Heaviside. The delta route alone gives the
linear-order kernel T1(k, l) = -(i / sqrt(2 pi)) Int e^(i q y) ut(p; y) dy,
stored unmasked and built by assemble_T1 alone; assemble_T adds each
family's convolution route to it. split_T recovers the masked linear
pieces and the quadratic remainders. linearized_T builds the same linear
order directly from the 2-D transform: -i uhat(l - k, -(l^2 - k^2)).
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import scipy.fft as sfft
from scipy.interpolate import CubicSpline, RectBivariateSpline

from .grids import SQRT_2PI, Grid1D, PartialTransform
from .oscillatory import filon_moments

__all__ = [
    "ScatteringGrids",
    "MuSharpField",
    "ScatteringData",
    "resample_transform",
    "transform_norms",
    "apply_g",
    "g_on_delta",
    "neumann_series",
    "solve_mu_sharp",
    "assemble_T",
    "assemble_T1",
    "linearized_T",
    "split_T",
    "diagnostic_mu_k_growth",
    "kernel_continuity_constant",
    "continuity_modulus",
    "x_norm",
]


@dataclasses.dataclass(frozen=True)
class ScatteringGrids:
    """Working grids: spectral parameters k and l share one grid; y is the
    slow variable."""

    grid_kl: Grid1D
    grid_y: Grid1D

    @property
    def n_kl(self) -> int:
        return self.grid_kl.n

    @property
    def n_y(self) -> int:
        return self.grid_y.n


def resample_transform(pt: PartialTransform, grids: ScatteringGrids) -> np.ndarray:
    """Cubic-spline resample of ut(l, y) onto the working grids.

    The working window must sit inside the source window; outside-range
    targets would silently extrapolate, so they are rejected.
    """
    lw = grids.grid_kl.points
    yw = grids.grid_y.points
    ls = pt.grid_l.points
    ys = pt.grid_y.points
    if lw[0] < ls[0] or lw[-1] > ls[-1] or yw[0] < ys[0] or yw[-1] > ys[-1]:
        raise ValueError("working grids extend beyond the sampled transform")

    def respline(vals, src, dst, axis):
        re = CubicSpline(src, vals.real, axis=axis)(dst)
        im = CubicSpline(src, vals.imag, axis=axis)(dst)
        return re + 1j * im

    out = respline(pt.values, ls, lw, 0)
    out = respline(out, ys, yw, 1)
    return out


def transform_norms(ut_work: np.ndarray, grids: ScatteringGrids):
    """(c, w) admissibility sizes evaluated on the working grids, for
    self-consistent bound checks (the l = 0 bin is excluded from w)."""
    dl = grids.grid_kl.spacing
    dy = grids.grid_y.spacing
    l = grids.grid_kl.points
    absu = np.abs(ut_work)
    c = float(absu.sum() * dl * dy / SQRT_2PI)
    nz = l != 0.0
    w = float(np.sqrt((absu[nz] ** 2 / np.abs(l[nz])[:, None]).sum() * dl * dy))
    return c, w


def x_norm(f: np.ndarray, grids: ScatteringGrids) -> float:
    """sup over y of the L2(dk dl) norm; f has shape (n_k, n_l, n_y).
    One vdot per y layer, in place for y-leading storage; NaN propagates."""
    sq = [np.vdot(layer, layer).real for layer in np.moveaxis(f, -1, 0)]
    return float(np.sqrt(np.max(sq)) * grids.grid_kl.spacing)


def _offset_kernel(ut_work: np.ndarray, grids: ScatteringGrids) -> np.ndarray:
    """ut on the offset lattice d*dl, d = -(M-1)..(M-1): row d+M-1.

    The grid is half-open, so index d + M/2 of the working array holds
    exactly the value at offset d*dl, and only the rows of
    d = -M/2..M/2-1 carry data. Offsets outside the working window carry
    exponentially negligible weight; their rows are zero.
    """
    m = grids.n_kl
    out = np.zeros((2 * m - 1, grids.n_y), dtype=np.complex128)
    d = np.arange(-(m - 1), m)
    src = d + m // 2
    ok = (src >= 0) & (src < m)
    out[np.nonzero(ok)[0]] = ut_work[src[ok]]
    return out


# working-set budget of one chunk's temporaries in the hot loops
_CHUNK_BYTES = 1 << 23
# term cap of every Neumann series (neumann_series)
MAX_ITER = 200


def _chunks(n: int, row_bytes: int) -> list[slice]:
    """Slices of an axis of length n whose temporaries, row_bytes per
    index, stay within _CHUNK_BYTES."""
    step = max(1, _CHUNK_BYTES // row_bytes)
    return [slice(s, min(s + step, n)) for s in range(0, n, step)]


class _ConvolutionPlan:
    """FFT plan for the l-convolution (ut conv f)(l_m) = sum_j ut((m-j) dl)
    f(l_j) dl along the last axis of a y-leading f (n_y, K, M), circular
    of length pad.

    The offset table is nonzero only for d = -M/2..M/2-1 and the operand
    lives on 0..M-1, so the linear convolution lives on -M/2..3M/2-2. A
    circular convolution of length P returns at index t the sum of the
    linear values at every t' = t mod P. The Volterra solve reads
    t = 0..M-1: the alias t + P of t = 0 leaves the support once
    P >= 3M/2 - 1, and the alias t - P of t = M-1 once P >= 3M/2, so
    P = 3M/2 is exact. Assembly reads t = -(M/2-1)..3M/2-1 (index
    t mod P): the alias of the lowest leaves once P >= 2M - 2, that of
    the highest once P >= 2M, so P = 2M is exact. The transformed kernel,
    (n_y, 1, P), carries the factor dl.
    """

    def __init__(self, ut_work: np.ndarray, grids: ScatteringGrids, pad: int):
        m = grids.n_kl
        self.pad = pad
        wrapped = np.zeros((grids.n_y, 1, pad), dtype=np.complex128)
        wrapped[:, 0, (np.arange(m) - m // 2) % pad] = \
            ut_work.T * grids.grid_kl.spacing
        self.kernel_hat = sfft.fft(wrapped, axis=-1)

    def circular(self, f: np.ndarray, layers: slice = slice(None)) -> np.ndarray:
        """Length-pad circular convolution of f (n, K, M), the y layers
        `layers` of a field: index t of the last axis holds the linear
        convolution at l index t (mod pad)."""
        fh = sfft.fft(f, n=self.pad, axis=-1)
        fh *= self.kernel_hat[layers]
        return sfft.ifft(fh, axis=-1, overwrite_x=True)


class _VolterraPlan:
    """Per-solve tables of the layered Volterra operator: the convolution
    plan and, for every (k, l) with rate theta = l (l + 2k), the Filon
    panel weights w0 = dy (m0 - m1), w1 = dy m1 at z = theta dy and the
    one-panel phase factor r = e^(-i theta dy)."""

    def __init__(self, ut_work: np.ndarray, grids: ScatteringGrids):
        self.conv = _ConvolutionPlan(ut_work, grids, 3 * grids.n_kl // 2)
        dy = grids.grid_y.spacing
        kl = grids.grid_kl.points
        theta = kl[None, :] * (kl[None, :] + 2.0 * kl[:, None])
        m0, m1 = filon_moments(theta * dy)
        self.w0 = dy * (m0 - m1)
        self.w1 = dy * m1
        self.r = np.exp(-1j * theta * dy)


def _sweep_down(o: np.ndarray, a, b, rho) -> None:
    """X_(n-1) = 0, X_j = rho X_(j+1) + a o_j + b o_(j+1), in place on
    the leading axis of o (n, ...); a, b, rho broadcast against one layer.

    Each step reads the layer it is about to overwrite and keeps only its
    product with the weight the next step needs, so the sweep works on
    whole layers with two layer-sized temporaries."""
    b_o = np.multiply(b, o[-1])  # b o_(j+1)
    t = np.empty_like(b_o)
    o[-1] = 0.0
    for j in range(len(o) - 2, -1, -1):
        cur = o[j]
        np.multiply(a, cur, out=t)
        np.add(t, b_o, out=t)
        np.multiply(b, cur, out=b_o)
        np.multiply(o[j + 1], rho, out=cur)
        np.add(cur, t, out=cur)


def _volterra_integral(w0, w1, r, sign: int, out: np.ndarray) -> None:
    """out(y, k, l) <- Int_{start}^{y} e^(-i theta (y - eta)) out(eta, k, l)
    d eta, in place on the y-leading out (n_y, M, M).

    w0, w1, r: (M, M) tables of a _VolterraPlan (w0, w1 may carry a
    constant factor). With the Filon panel sums P_j = w0 a_j + w1 a_(j+1),
    exact for the piecewise-linear amplitude a at any rate, the integral
    from the top end obeys F_(n-1) = 0, F_j = conj(r) F_(j+1) - P_j, and
    from the bottom end E_0 = 0, E_(j+1) = r E_j + r P_j, with
    r = e^(-i theta dy) (Iserles & Norsett, Proc. R. Soc. A 461, 2005).
    Both are one downward sweep (_sweep_down): the bottom start runs it on
    the reversed y axis with the weights swapped. |r| = 1, so neither
    amplifies rounding. start is -inf (the bottom end) for sign*l < 0 and
    +inf (the top end) for sign*l > 0; each runs only on its block of l,
    and the l = 0 column runs both and takes their average. The grid ends
    stand in for +-inf (data must have decayed there).
    """
    h = out.shape[-1] // 2  # l = 0
    neg, pos = slice(0, h + 1), slice(h, None)
    up, down = (neg, pos) if sign > 0 else (pos, neg)
    amp_h = out[:, :, h].copy()
    ru = r[:, up]
    _sweep_down(out[::-1, :, up], ru * w1[:, up], ru * w0[:, up], ru)
    from_bottom = out[:, :, h].copy()
    out[:, :, h] = amp_h
    _sweep_down(out[:, :, down], -w0[:, down], -w1[:, down],
                np.conj(r[:, down]))
    out[:, :, h] = 0.5 * (from_bottom + out[:, :, h])


def g_on_delta(ut_work: np.ndarray, sign: int, grids: ScatteringGrids,
               plan: _VolterraPlan | None = None) -> np.ndarray:
    """Source term i Int e^(-i theta (y-eta)) ut(l; eta) d eta, shape
    (M, M, n_y) over (k, l, y), a view of y-leading storage."""
    if plan is None:
        plan = _VolterraPlan(ut_work, grids)
    m = grids.n_kl
    out = np.repeat(ut_work.T[:, None, :], m, axis=1)
    _volterra_integral(1j * plan.w0, 1j * plan.w1, plan.r, sign, out)
    return np.moveaxis(out, 0, -1)


def apply_g(ut_work: np.ndarray, f: np.ndarray, sign: int,
            grids: ScatteringGrids,
            plan: _VolterraPlan | None = None) -> np.ndarray:
    """One application of the layered Volterra operator to f(k, l, y);
    the result is a (k, l, y) view of y-leading storage."""
    expect = (grids.n_kl, grids.n_kl, grids.n_y)
    if f.shape != expect:
        raise ValueError(f"operand shape {f.shape} does not match grids {expect}")
    if plan is None:
        plan = _VolterraPlan(ut_work, grids)
    m = grids.n_kl
    c = 1j / SQRT_2PI
    fy = np.moveaxis(f, -1, 0)
    out = np.empty((grids.n_y, m, m), dtype=np.complex128)
    # per y layer: the padded transform (M rows of 3M/2)
    for ys in _chunks(grids.n_y, 16 * m * plan.conv.pad):
        out[ys] = plan.conv.circular(fy[ys], ys)[..., :m]
    _volterra_integral(c * plan.w0, c * plan.w1, plan.r, sign, out)
    return np.moveaxis(out, 0, -1)


def neumann_series(apply, source: np.ndarray, norm, tol: float):
    """u = source + apply(source) + apply(apply(source)) + ..., which
    solves u = source + apply(u) when apply contracts; returns (u, terms,
    term ratios, residual norm(apply(u) - u + source) / max(1, norm(u))).

    Stops at the first term with norm(term) <= tol * max(1, norm(u)), or
    raises RuntimeError after MAX_ITER terms. The solves' one finite guard:
    ValueError for a tol outside (0, inf) or a term (the source is term 0)
    whose norm, which must propagate NaN, is not finite. Runs in place on
    a layout-keeping copy of source: at most four operand-sized arrays."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")

    def check(tn, it):
        if not np.isfinite(tn):
            raise ValueError(f"Neumann series term {it} is not finite (norm {tn})")

    prev = norm(source)
    check(prev, 0)
    acc = source.copy(order="K")
    term = source
    ratios = []
    for it in range(1, MAX_ITER + 1):
        term = apply(term)
        tn = norm(term)
        check(tn, it)
        acc += term
        if prev > 0:
            ratios.append(tn / prev)
        prev = tn
        scale = max(1.0, norm(acc))
        if tn <= tol * scale:
            break
    else:
        raise RuntimeError(
            f"Neumann series did not converge in {MAX_ITER} terms; "
            f"term-ratio history: {[round(r, 4) for r in ratios]}")
    rest = apply(acc)
    rest -= acc
    rest += source
    return acc, it, ratios, norm(rest) / scale


@dataclasses.dataclass
class MuSharpField:
    """Solution of the layered Volterra system for one sign family."""

    values: np.ndarray  # (M, M, n_y) over (k, l, y), y-leading in memory
    sign: int
    grids: ScatteringGrids
    iterations: int
    contraction_ratios: list
    residual: float  # X norm of G mu - mu + source, relative to max(1, ||mu||)
    source_norm: float  # X norm of the delta-route source


def solve_mu_sharp(ut_work: np.ndarray, sign: int, grids: ScatteringGrids,
                   tol: float = 1e-10, conditions=None) -> MuSharpField:
    """Neumann series for mu# (neumann_series in the X norm, y-leading
    like the source); contracts at rate <= c < 1.

    When an admissibility report is supplied it is enforced (a failing
    report is rejected; iterating outside the contractive regime risks
    converging to garbage). With conditions=None the caller vouches for
    smallness, which the unit tests use for synthetic kernels.
    """
    if conditions is not None and not conditions.passed:
        raise ValueError(
            "admissibility conditions fail; the layered system is not "
            "guaranteed contractive: " + conditions.summary()
        )
    plan = _VolterraPlan(ut_work, grids)
    source = g_on_delta(ut_work, sign, grids, plan=plan)
    mu, iterations, ratios, residual = neumann_series(
        lambda f: apply_g(ut_work, f, sign, grids, plan=plan), source,
        lambda f: x_norm(f, grids), tol)
    return MuSharpField(mu, sign, grids, iterations, ratios, residual,
                        x_norm(source, grids))


def _fill_across_diagonal(tri: np.ndarray, upper: bool) -> np.ndarray:
    """Continue one stored triangle to the full square by transposition.

    The mirror uses genuine stored values of the same family, keeps the
    diagonal fixed, and is continuous across it; the spline consumer
    discards the mirrored half, so only a narrow band near the diagonal
    feels the derivative kink."""
    own = _triangle_weights(tri.shape[0], +1 if upper else -1) > 0
    return np.where(own, tri, tri.T)


@dataclasses.dataclass
class ScatteringData:
    """Triangular kernels on the (k, l) grid plus the unmasked linear route.

    T_plus vanishes (exact zeros) below the diagonal, T_minus above; the
    diagonal itself carries weight 1/2 in both.
    """

    T_plus: np.ndarray
    T_minus: np.ndarray
    T1: np.ndarray
    grids: ScatteringGrids
    meta: dict

    def mask(self, sign: int) -> np.ndarray:
        return _triangle_weights(self.grids.n_kl, sign)

    def _kernel(self, sign: int) -> np.ndarray:
        if sign == +1:
            return self.T_plus
        if sign == -1:
            return self.T_minus
        raise ValueError("sign must be +1 or -1")

    def apply(self, sign: int, rows: np.ndarray) -> np.ndarray:
        """rows @ K^T, K one family's kernel in stored orientation."""
        return rows @ self._kernel(sign).T

    @functools.cached_property
    def combined_colmax(self) -> np.ndarray:
        """Column maxima of |T_plus - T_minus| (both families in
        consumption orientation), for the resolution check of every probe
        on this data's own grid; computed once."""
        return np.max(np.abs(self.T_plus - self.T_minus), axis=0)

    @functools.cached_property
    def spline_fit(self) -> tuple[np.ndarray, dict]:
        """Interpolating bicubic splines (s = 0) of the kernels on this
        grid: (knots, {+1: C_plus, -1: C_minus, 0: C_1}), one knot vector
        for both axes, value(k, l) = sum_rs B_r(k) C[r, s] B_s(l) with B_r
        the cubic B-splines on those knots.

        The linear part T1 is smooth over the whole square and splines
        directly. Each quadratic remainder T_sigma - mask_sigma T1 is
        smooth only on its own closed triangle: the stored diagonal
        half-weight is undone and the triangle mirrored across the
        diagonal for spline support. Interpolants on one knot vector are
        linear in their data, so a family's coefficients are its
        remainder's plus those of T1; the triangle weights belong to the
        evaluation grid and are applied there."""
        pts = self.grids.grid_kl.points

        def fit(arr):
            re = RectBivariateSpline(pts, pts, arr.real)
            im = RectBivariateSpline(pts, pts, arr.imag)
            knots = re.get_knots()[0]
            n = len(knots) - 4
            return knots, (re.get_coeffs() + 1j * im.get_coeffs()).reshape(n, n)

        knots, c1 = fit(self.T1)
        coeffs = {0: c1}
        diag = np.arange(self.grids.n_kl)
        for sign in (+1, -1):
            rem = self._kernel(sign) - self.mask(sign) * self.T1
            rem[diag, diag] *= 2.0
            filled = _fill_across_diagonal(rem, upper=(sign == +1))
            coeffs[sign] = fit(filled)[1] + c1
        return knots, coeffs


def _filon_rows(amps: np.ndarray, q: np.ndarray,
                grids: ScatteringGrids) -> np.ndarray:
    """Int e^(i q y) amp(y) dy over the y grid for y-leading amps
    (n_y, ..., K, M) at rates q (K, M): Filon panel sums
    w0 a_j + w1 a_(j+1), summed by Horner in z = e^(i q dy) over
    contiguous slabs, times e^(i q y0)."""
    dy = grids.grid_y.spacing
    m0, m1 = filon_moments(q * dy)
    p = np.multiply(dy * (m0 - m1), amps[:-1])
    p += (dy * m1) * amps[1:]
    z = np.exp(1j * q * dy)
    acc = p[-1].copy()
    for j in range(len(p) - 2, -1, -1):
        acc *= z
        acc += p[j]
    return np.exp(1j * q * grids.grid_y.points[0]) * acc


def _triangle_weights(m: int, sign: int) -> np.ndarray:
    """1 on the family's own side of the diagonal, 1/2 on it, 0 beyond."""
    d = np.arange(m)[None, :] - np.arange(m)[:, None]  # l index - k index
    return np.where(sign * d > 0, 1.0, np.where(d == 0, 0.5, 0.0))


def assemble_T1(ut_work: np.ndarray, grids: ScatteringGrids) -> np.ndarray:
    """Linear-order kernel straight from the delta route, unmasked:
    T1(k, l) = -(i / sqrt(2 pi)) Int e^(i (l^2-k^2) y) ut(l-k; y) dy.

    Needs no convolution plan, so it stays cheap on very fine y grids.
    """
    offsets = _offset_kernel(ut_work, grids).T
    m = grids.n_kl
    kl = grids.grid_kl.points
    d = np.arange(m)[None, :] - np.arange(m)[:, None]
    q = kl[None, :] ** 2 - kl[:, None] ** 2
    T1 = np.empty((m, m), dtype=np.complex128)
    # per k row: the gathered amplitudes and their panel sums
    for ks in _chunks(m, 16 * 2 * m * grids.n_y):
        T1[ks] = -(1j / SQRT_2PI) * _filon_rows(offsets[:, d[ks] + m - 1],
                                                 q[ks], grids)
    return T1


def assemble_T(mu_plus: MuSharpField, mu_minus: MuSharpField,
               ut_work: np.ndarray, grids: ScatteringGrids) -> ScatteringData:
    """Assemble both triangular kernels and the linear route T1
    (assemble_T1): T_sigma = (T1 - (i / 2 pi) S_sigma) * step, S_sigma the
    Filon sum of ut conv_l mu#_sigma at p = l - k.

    Works on chunks of k rows: the full offset convolution aligns p with
    lattice offsets exactly, so no interpolation enters. Per chunk, one
    gather takes each family's diagonal band and one batched Filon sum
    integrates both. Every array is y-leading, as the solve stores mu.
    """
    m = grids.n_kl
    T1 = assemble_T1(ut_work, grids)
    plan = _ConvolutionPlan(ut_work, grids, 2 * m)
    kl = grids.grid_kl.points
    d = np.arange(m)[None, :] - np.arange(m)[:, None]  # l index - k index
    q = kl[None, :] ** 2 - kl[:, None] ** 2
    # the convolution at p = l - k sits at l index d + m/2 (mod pad) of the
    # circular output, exact at every offset that either family reads
    at = (d + m // 2) % plan.pad
    T = {sign: np.empty((m, m), dtype=np.complex128) for sign in (+1, -1)}
    w = {sign: _triangle_weights(m, sign) for sign in (+1, -1)}
    # per k row: two gathered amplitudes, their panel sums and a product
    # temporary (M each); the gather's padded transform (2M) needs less
    for ks in _chunks(m, 16 * 6 * m * grids.n_y):
        amps = np.empty((grids.n_y, 2, ks.stop - ks.start, m),
                        dtype=np.complex128)
        for a, mu in ((amps[:, 0], mu_plus), (amps[:, 1], mu_minus)):
            a[...] = np.take_along_axis(
                plan.circular(np.moveaxis(mu.values, -1, 0)[:, ks]),
                at[ks][None], axis=-1)
        for sign, s in zip((+1, -1), _filon_rows(amps, q[ks], grids)):
            T[sign][ks] = (T1[ks] - (1j / (2.0 * np.pi)) * s) * w[sign][ks]

    dkl = grids.grid_kl.spacing
    qmax = float(np.max(np.abs(q)))
    edge = np.concatenate([T[+1][0], T[+1][-1], T[+1][:, 0], T[+1][:, -1],
                           T[-1][0], T[-1][-1], T[-1][:, 0], T[-1][:, -1]])
    scale = max(np.max(np.abs(T[+1])), np.max(np.abs(T[-1])))
    # domain-adequacy check: the kernel decays in the offset l - k, not
    # toward the square edge (the near-diagonal band never decays), so the
    # post-hoc criterion looks at large offsets only
    offd = np.abs(d) * dkl
    far = offd >= 0.75 * (grids.grid_kl.max - grids.grid_kl.min) / 2.0
    tail = max(np.max(np.abs(T[+1][far])), np.max(np.abs(T[-1][far])))
    meta = {
        "square_edge_ratio": float(np.max(np.abs(edge)) / scale) if scale > 0 else 0.0,
        "offset_tail_ratio": float(tail / scale) if scale > 0 else 0.0,
        # count of pairs whose y-phase advances by more than pi/4 per panel;
        # informational, since the per-panel moments are exact in the rate
        "n_fast_phase_pairs": int(np.sum(np.abs(q) * grids.grid_y.spacing
                                         > np.pi / 4)),
        "max_abs_q": qmax,
        "y_truncation_radius": float(grids.grid_y.max),
        "y_edge_max_abs_ut": float(max(np.max(np.abs(ut_work[:, 0])),
                                       np.max(np.abs(ut_work[:, -1])))),
        "l2_norm_plus": float(np.sqrt(np.sum(np.abs(T[+1]) ** 2) * dkl * dkl)),
        "l2_norm_minus": float(np.sqrt(np.sum(np.abs(T[-1]) ** 2) * dkl * dkl)),
        "mu_plus_iterations": mu_plus.iterations,
        "mu_minus_iterations": mu_minus.iterations,
        "mu_plus_residual": mu_plus.residual,
        "mu_minus_residual": mu_minus.residual,
        "mu_plus_xnorm": x_norm(mu_plus.values, grids),
        "mu_minus_xnorm": x_norm(mu_minus.values, grids),
    }
    return ScatteringData(T[+1], T[-1], T1, grids, meta)


def linearized_T(grid_p: Grid1D, grid_q: Grid1D, uhat: np.ndarray,
                 grids: ScatteringGrids):
    """Linear-order kernel -i uhat(l-k, -(l^2-k^2)) by bilinear
    interpolation; points leaving the sampled window contribute zero and
    are counted. Returns (array over (k, l), out_of_domain_count)."""
    kpts = grids.grid_kl.points
    lpts = grids.grid_kl.points
    p = lpts[None, :] - kpts[:, None]
    q = -(lpts[None, :] ** 2 - kpts[:, None] ** 2)

    pp = grid_p.points
    qp = grid_q.points
    out_mask = (p < pp[0]) | (p > pp[-1]) | (q < qp[0]) | (q > qp[-1])

    pi = np.clip((p - pp[0]) / grid_p.spacing, 0, len(pp) - 1 - 1e-12)
    qi = np.clip((q - qp[0]) / grid_q.spacing, 0, len(qp) - 1 - 1e-12)
    i0 = pi.astype(int)
    j0 = qi.astype(int)
    fp = pi - i0
    fq = qi - j0
    vals = (uhat[i0, j0] * (1 - fp) * (1 - fq)
            + uhat[i0 + 1, j0] * fp * (1 - fq)
            + uhat[i0, j0 + 1] * (1 - fp) * fq
            + uhat[i0 + 1, j0 + 1] * fp * fq)
    vals = np.where(out_mask, 0.0, vals)
    return -1j * vals, int(out_mask.sum())


def split_T(data: ScatteringData, linear_kernel: np.ndarray | None = None):
    """Masked linear pieces and quadratic remainders: T_sigma = step * T1
    + T2_sigma, exactly as stored. An alternative unmasked linear kernel
    (for example the interpolation route) may be substituted; the default
    is the delta route stored on the data. Returns the pieces together
    with their grid-weighted L2 norms and size ratios."""
    t1 = data.T1 if linear_kernel is None else linear_kernel
    dkl = data.grids.grid_kl.spacing

    def l2(a):
        return float(np.sqrt(np.sum(np.abs(a) ** 2) * dkl * dkl))

    out = {}
    for sign, name, tfull in ((+1, "plus", data.T_plus), (-1, "minus", data.T_minus)):
        t1m = t1 * data.mask(sign)
        t2 = tfull - t1m
        out[f"T1_{name}"] = t1m
        out[f"T2_{name}"] = t2
        out[f"l2_T_{name}"] = l2(tfull)
        out[f"l2_T2_{name}"] = l2(t2)
        out[f"ratio_{name}"] = l2(t2) / l2(tfull) if l2(tfull) > 0 else 0.0
    return out


def diagnostic_mu_k_growth(mu: MuSharpField) -> dict:
    """Growth of the solution in the spectral parameter.

    Centered differences in k, then per-layer L2(dk dl) norms divided by
    1 + |y|. The profile should stay bounded by its value at the largest
    |y|: no growth faster than linear in y.
    """
    g = mu.grids
    dmu = np.gradient(mu.values, g.grid_kl.spacing, axis=0)
    dkl = g.grid_kl.spacing
    prof = np.sqrt(np.sum(np.abs(dmu) ** 2, axis=(0, 1)) * dkl * dkl)
    ratio = prof / (1.0 + np.abs(g.grid_y.points))
    return {
        "sup_ratio": float(np.max(ratio)),
        "profile": ratio,
        "edge_value": float(max(ratio[0], ratio[-1])),
        "y_points": g.grid_y.points,
    }


def kernel_continuity_constant(T_a, T_b, ut_a, ut_b, grids: ScatteringGrids) -> float:
    """Quotient ||T_a - T_b||_2 / (weighted-L2 + L1 distance of the data):
    the stability constant of the data-to-kernel map, finite for admissible
    pairs and stable across nearby pairs."""
    dkl = grids.grid_kl.spacing
    dy = grids.grid_y.spacing
    l = grids.grid_kl.points
    num = np.sqrt(np.sum(np.abs(T_a - T_b) ** 2) * dkl * dkl)
    du = ut_a - ut_b
    wl2 = np.sqrt(np.sum(np.abs(du) ** 2 / (1.0 + l[:, None] ** 2)) * dkl * dy)
    l1 = np.sum(np.abs(du)) * dkl * dy
    den = wl2 + l1
    if den == 0:
        raise ValueError("identical data; the quotient is undefined")
    return float(num / den)


def continuity_modulus(T: np.ndarray, grids: ScatteringGrids) -> float:
    """Largest nearest-neighbor difference quotient of the kernel over the
    grid, both directions; stable under refinement for continuous data."""
    d = grids.grid_kl.spacing
    dk = np.max(np.abs(np.diff(T, axis=0))) / d
    dl = np.max(np.abs(np.diff(T, axis=1))) / d
    return float(max(dk, dl))
