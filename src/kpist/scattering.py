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

One application of G costs two FFTs and one recurrence per (k, l). It
works in place: apply_g overwrites its operand, so a solve holds three
arrays (source, sum and one work term; neumann_series) plus the padded
transform of one application. neumann_series is the package's one
Neumann accumulator: it sums a block here as one series in the X norm,
and a probe stack (rhp) as one series per row. G never couples two
values of k: the convolution runs in l and the integral in y, at each
k. So the system is block-diagonal in k, and a solve runs on one block
of K k rows (a row block of the _VolterraPlan; the whole grid is the
one-block case).

A block's series (its source, sum and terms) is stored in the sweep
layout, (n_y, K, M + 1) over (y, k, l). The half of l whose integral
starts at the bottom end (l <= 0 for the plus family, l >= 0 for the
minus one) is stored y-reversed, beside the other half in natural y
order, and the l = 0 column, which takes both integrals, sits in both
halves. So both integrals are one downward sweep over whole contiguous
(K, M + 1) layers, where two sweeps over strided half-column views of
one (n_y, K, M) array took twice as long; after each sweep the two l = 0
copies take their average. The convolution fills its padded buffer from
the two halves in true y order: apply_g writes its first M outputs back,
and assembly gathers from it. The X norm sums each true y layer,
counting l = 0 once (_sweep_layer_sq). mu# keeps this layout from source
to assembly: MuSharpField.values is the sum the series returns.

The convolution is circular of length 3M/2, the shortest whose aliases
miss the M working outputs (2M when every offset that assembly reads
must be exact). The eta integral from the top end is the one-factor
recurrence F_j = e^(i theta dy) F_(j+1) - P_j over the Filon panel sums
P_j, and from the bottom end, E_(j+1) = e^(-i theta dy) (E_j + P_j), is
the same downward sweep run on the reversed y axis. Both are exact
rewritings of the cumulative Filon sum, and their unit-modulus factor
amplifies no rounding. The weights and factors depend only on theta
and dy, so they are built once per map, with every other table
(_VolterraPlan).

Scattering kernels on the (k, l) grid, with p = l - k and q = l^2 - k^2:

    T_sigma(k, l) = -(i / 2 pi) Int e^(i q y)
                    [ sqrt(2 pi) ut(p; y) + (ut conv_l mu#_sigma)(k, p; y) ]
                    dy * step(sigma p),

step the half-at-zero Heaviside. The delta route alone gives the
linear-order kernel T1(k, l) = -(i / sqrt(2 pi)) Int e^(i q y) ut(p; y) dy,
stored unmasked and built once by assemble_T1; assemble_T adds one
family's convolution route to it, for the k rows of one block. The
direct map (harness) runs the two families at once, a thread each, and
each holds one block at a time: it solves a block of k rows, assembles
its rows of T and releases its mu# before the next (direct_map_blocks,
under one byte budget for both families' blocks), so mu# never exists
whole; ScatteringData.from_families joins the kernels.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import math

import numpy as np
import scipy.fft as sfft
from scipy.interpolate import CubicSpline, RectBivariateSpline
from scipy.linalg.blas import ztrmv

from .grids import SQRT_2PI, Grid1D, PartialTransform
from .oscillatory import filon_moments

__all__ = [
    "ScatteringGrids",
    "MuSharpField",
    "FamilyKernel",
    "ScatteringData",
    "resample_transform",
    "apply_g",
    "g_on_delta",
    "neumann_series",
    "solve_mu_sharp",
    "direct_map_blocks",
    "direct_map_bytes",
    "assemble_T",
    "assemble_T1",
    "triangular_products",
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


def _sweep_layer_sq(s: np.ndarray, sign: int) -> np.ndarray:
    """Per true y layer, the sum of |f|^2 over (k, l) of a series in the
    sweep layout (_halves), counting l = 0 once: one pass over the real
    view of each half, with no operand-sized temporary."""
    neg, pos = _halves(s, sign)
    neg, pos = neg.view(np.float64), pos[..., 1:].view(np.float64)
    return np.einsum("jkc,jkc->j", neg, neg) + np.einsum("jkc,jkc->j", pos, pos)


def _sup_norm(layer_sq: np.ndarray, spacing: float) -> float:
    """The X norm, sup over y of the L2(dk dl) norm, from the per-layer
    sums of _sweep_layer_sq. NaN propagates."""
    return float(np.sqrt(np.max(layer_sq)) * spacing)


# working-set budget of the direct map's two concurrent blocks, one per
# family (direct_map_blocks): 8 k rows each at n_kl = n_y = 128
_BLOCK_BYTES = 24 << 20
# term cap of every Neumann series (neumann_series)
MAX_ITER = 200


class _ConvolutionPlan:
    """FFT plan for the l-convolution (ut conv f)(l_m) = sum_j ut((m-j) dl)
    f(l_j) dl along the l rows of a series in the sweep layout
    (on_halves), circular of length pad.

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

    def on_halves(self, neg: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """The circular convolution of the l rows that the two halves of a
        series in the sweep layout (_halves) make, (n_y, K, pad) in true y
        order: index t of the last axis holds the linear convolution at l
        index t (mod pad). The padded buffer, filled straight from the
        halves and transformed in place, is the result."""
        h = neg.shape[-1] - 1
        m = h + pos.shape[-1]
        buf = np.empty(neg.shape[:-1] + (self.pad,), dtype=np.complex128)
        buf[..., :h + 1] = neg
        buf[..., h + 1:m] = pos[..., 1:]
        buf[..., m:] = 0.0
        buf = sfft.fft(buf, axis=-1, overwrite_x=True)
        buf *= self.kernel_hat
        return sfft.ifft(buf, axis=-1, overwrite_x=True)


class _VolterraPlan:
    """Every table of the direct map from ut on the grids, on the k rows
    `rows`; built once per map, and shared by both families, since none
    depends on the sign.

    The solve's: the convolution plan of length 3M/2 (conv) and, for
    every (k, l) with rate theta = l (l + 2k), the Filon panel weights
    w0 = dy (m0 - m1), w1 = dy m1 at z = theta dy and the one-panel phase
    factor r = e^(-i theta dy). Assembly's: the convolution plan of
    length 2M (wide), the gather index at, where the value at the offset
    p = l - k sits (l index d + M/2 mod 2M, d = l - k in index units),
    and the rates q = l^2 - k^2."""

    def __init__(self, ut_work: np.ndarray, grids: ScatteringGrids):
        m = grids.n_kl
        self.ut, self.grids = ut_work, grids
        self.rows = slice(0, m)
        self.conv = _ConvolutionPlan(ut_work, grids, 3 * m // 2)
        self.wide = _ConvolutionPlan(ut_work, grids, 2 * m)
        dy = grids.grid_y.spacing
        kl = grids.grid_kl.points
        theta = kl[None, :] * (kl[None, :] + 2.0 * kl[:, None])
        m0, m1 = filon_moments(theta * dy)
        self.w0 = dy * (m0 - m1)
        self.w1 = dy * m1
        self.r = np.exp(-1j * theta * dy)
        d = np.arange(m)[None, :] - np.arange(m)[:, None]  # l index - k index
        self.at = (d + m // 2) % (2 * m)
        self.q = kl[None, :] ** 2 - kl[:, None] ** 2

    def block(self, rows: slice) -> _VolterraPlan:
        """This whole-grid plan on the k rows `rows` (a slice with explicit
        ends): row views of its tables, the rest shared."""
        part = copy.copy(self)
        part.rows = rows
        for name in ("w0", "w1", "r", "at", "q"):
            setattr(part, name, getattr(self, name)[rows])
        return part

    @property
    def n_rows(self) -> int:
        return self.rows.stop - self.rows.start


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


def _halves(s: np.ndarray, sign: int) -> tuple[np.ndarray, np.ndarray]:
    """The two halves of a series in the sweep layout (n_y, K, M + 1), as
    views in true y order: l indices 0..M/2 (l <= 0) from columns
    0..M/2, and M/2..M-1 (l >= 0) from columns M/2+1..M. The half whose
    integral starts at the bottom end, l <= 0 for sign +1 and l >= 0 for
    sign -1, is stored y-reversed; l = 0 sits in both."""
    h = (s.shape[-1] - 1) // 2
    neg, pos = s[:, :, :h + 1], s[:, :, h + 1:]
    return (neg[::-1], pos) if sign > 0 else (neg, pos[::-1])


def _sweep_tables(plan: _VolterraPlan, sign: int, scale: complex):
    """a, b and rho of the one downward sweep over the sweep layout, (K,
    M + 1) from the plan's row views, with the Filon weights times scale:
    on the y-reversed half the bottom start's (r w1, r w0, r), on the
    other the top start's (-w0, -w1, conj(r)), column for column as
    _halves lays out l."""
    h = plan.grids.n_kl // 2
    w0, w1, r = scale * plan.w0, scale * plan.w1, plan.r
    neg, pos = slice(0, h + 1), slice(h, None)
    up, down = (neg, pos) if sign > 0 else (pos, neg)
    ru = r[:, up]
    bottom = (ru * w1[:, up], ru * w0[:, up], ru)
    top = (-w0[:, down], -w1[:, down], np.conj(r[:, down]))
    halves = (bottom, top) if sign > 0 else (top, bottom)
    return [np.concatenate(pair, axis=1) for pair in zip(*halves)]


def _volterra_integral(plan: _VolterraPlan, s: np.ndarray, sign: int,
                       scale: complex) -> None:
    """s(y, k, l) <- scale Int_{start}^{y} e^(-i theta (y - eta))
    s(eta, k, l) d eta, in place on a series s in the sweep layout
    (_halves) on the plan's k rows.

    With the Filon panel sums P_j = w0 a_j + w1 a_(j+1), exact for the
    piecewise-linear amplitude a at any rate, the integral from the top
    end obeys F_(n-1) = 0, F_j = conj(r) F_(j+1) - P_j, and from the
    bottom end E_0 = 0, E_(j+1) = r E_j + r P_j, with r = e^(-i theta dy)
    (Iserles & Norsett, Proc. R. Soc. A 461, 2005). On the y-reversed
    half the second is the first's form with the weights swapped, so both
    are one downward sweep (_sweep_down) over whole (K, M + 1) layers.
    |r| = 1, so neither amplifies rounding. start is -inf (the bottom
    end) for sign*l < 0 and +inf (the top end) for sign*l > 0; the l = 0
    column runs both, one in each half, and both copies take their
    average. The grid ends stand in for +-inf (data must have decayed
    there).
    """
    _sweep_down(s, *_sweep_tables(plan, sign, scale))
    neg, pos = _halves(s, sign)
    h = neg.shape[-1] - 1
    neg[:, :, h] = pos[:, :, 0] = 0.5 * (neg[:, :, h] + pos[:, :, 0])


def _check_operand(plan: _VolterraPlan, s: np.ndarray) -> None:
    """Refuse a series not in the sweep layout (_halves) on plan's rows."""
    expect = (plan.grids.n_y, plan.n_rows, plan.grids.n_kl + 1)
    if s.shape != expect:
        raise ValueError(f"operand shape {s.shape} does not match grids {expect}")


def g_on_delta(plan: _VolterraPlan, sign: int) -> np.ndarray:
    """Source term i Int e^(-i theta (y-eta)) ut(l; eta) d eta on the plan's
    k rows, in the sweep layout (_halves): shape (n_y, K, M + 1)."""
    grids = plan.grids
    h = grids.n_kl // 2
    out = np.empty((grids.n_y, plan.n_rows, grids.n_kl + 1),
                   dtype=np.complex128)
    neg, pos = _halves(out, sign)
    ut = plan.ut.T[:, None, :]
    neg[...] = ut[..., :h + 1]
    pos[...] = ut[..., h:]
    _volterra_integral(plan, out, sign, 1j)
    return out


def apply_g(plan: _VolterraPlan, f: np.ndarray, sign: int) -> np.ndarray:
    """One application of the layered Volterra operator on the plan's k
    rows to f in the sweep layout (_halves), (n_y, K, M + 1), in place:
    f is overwritten with G f and returned. The convolution's padded
    buffer (3M/2 values per (y, k), under 3/2 of f) is its one temporary,
    whose first M outputs are written back; the y integral runs in place."""
    _check_operand(plan, f)
    neg, pos = _halves(f, sign)
    h = neg.shape[-1] - 1
    conv = plan.conv.on_halves(neg, pos)
    neg[...], pos[...] = conv[..., :h + 1], conv[..., h:2 * h]
    del conv  # released before the sweep
    _volterra_integral(plan, f, sign, 1j / SQRT_2PI)
    return f


def _finite(norms, it: int):
    for value in norms:
        if not math.isfinite(value):
            raise ValueError(
                f"Neumann series term {it} is not finite (norm {value})")
    return norms


def neumann_series(apply, source: np.ndarray, norm, tol: float):
    """Sums of series u = source + apply(source) + apply(apply(source))
    + ..., each of which solves u = source + apply(u) when apply
    contracts; returns (u, terms, term ratios, residuals), terms and
    residuals a list with one entry per series, the residual
    norm(apply(u) - u + source) / max(1, norm(u)).

    norm gives a list of norms, one per series: one for the whole
    operand (the direct map's block), or one per row of its leading axis,
    each row a series of its own (the probe solves, P rows for P points).
    A series stops at the first term with norm(term) <= tol * max(1,
    norm(u)), or raises RuntimeError after MAX_ITER terms, each with its
    own residual; a row that has stopped leaves the stack. apply(f, rows)
    gets the terms of the running rows, rows their index in the stack (a
    slice while every row runs), and the residual's application all of
    u. Each ratio is the largest over the running series. The solves'
    one finite guard: ValueError for a tol outside (0, inf) or a term
    (the source is term 0) whose norm, which must propagate NaN, is not
    finite. The last two norms it takes are those of the returned sum and
    of its residual.

    Holds three operand-sized arrays: the caller's source and two
    layout-keeping copies of it, the sum and one work array (a fourth
    for the residual once a row has left). apply may overwrite its
    argument and return it (apply_g does, so the three are all it
    holds), or return a new array (CTOperator does, one more while it
    runs); it only ever sees the work array, never the source, and the
    residual is taken by copying the sum into it."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    prev = _finite(norm(source), 0)
    n_rows = len(prev)
    acc = source.copy(order="K")
    term = source.copy(order="K")
    terms, scale = [MAX_ITER] * n_rows, [1.0] * n_rows
    running, rows, whole = list(range(n_rows)), slice(None), True
    ratios = []
    for it in range(1, MAX_ITER + 1):
        term = apply(term, rows)
        tn = _finite(norm(term), it)
        if whole:
            acc += term
            sums = norm(acc)
        else:
            acc[rows] += term
            sums = norm(acc[rows])
        grown = [t / p for t, p in zip(tn, prev) if p > 0]
        if grown:
            ratios.append(max(grown))
        keep = [i for i, (t, s) in enumerate(zip(tn, sums))
                if t > tol * max(1.0, s)]
        if len(keep) < len(running):
            for i, r in enumerate(running):
                terms[r], scale[r] = it, max(1.0, sums[i])
            if not keep:
                break
            running = [running[i] for i in keep]
            term, rows, tn, whole = term[keep], running, [tn[i] for i in keep], False
        prev = tn
    else:
        raise RuntimeError(
            f"Neumann series did not converge in {MAX_ITER} terms; "
            f"term-ratio history: {[round(r, 4) for r in ratios]}")
    work = term if whole else np.empty_like(acc)
    np.copyto(work, acc)
    rest = apply(work, slice(None))
    rest -= acc
    rest += source
    return acc, terms, ratios, [r / s for r, s in zip(norm(rest), scale)]


@dataclasses.dataclass
class MuSharpField:
    """Solution of the layered Volterra system for one sign family, on the
    k rows of the plan it was solved on (a block, or the whole grid)."""

    values: np.ndarray  # (n_y, K, M + 1), the series' sum in the sweep layout
    sign: int
    grids: ScatteringGrids
    iterations: int
    contraction_ratios: list
    residual: float  # X norm of G mu - mu + source, relative to max(1, ||mu||)


def solve_mu_sharp(plan: _VolterraPlan, sign: int,
                   tol: float = 1e-10) -> MuSharpField:
    """Neumann series for mu# (neumann_series in the X norm, in the sweep
    layout of the source, g_on_delta); contracts at rate <= c < 1. The
    sum is handed on as the series returns it, C-contiguous in the sweep
    layout (_halves).

    Solves on the plan's k rows. G does not couple rows, so a block's
    solve is the whole solve's restriction, except that the series'
    stopping rule, cap, residual and finite guard apply to the block's
    own rows (its X norm).

    Admissibility is decided where kernel data enters
    (harness.compute_scattering, run_verify_suite), not here.
    """
    grids = plan.grids

    def norm(f):  # the X norm, one series
        return [_sup_norm(_sweep_layer_sq(f, sign), grids.grid_kl.spacing)]

    mu, (iterations,), ratios, (residual,) = neumann_series(
        lambda f, rows: apply_g(plan, f, sign), g_on_delta(plan, sign),
        norm, tol)
    return MuSharpField(mu, sign, grids, iterations, ratios, residual)


def _row_bytes(grids: ScatteringGrids) -> int:
    """Bytes a block of one family holds per k row: 6 complex values
    per (l, y). The solve holds the three arrays of its series in the
    sweep layout (neumann_series; M + 1 values per (k, y) each) and one
    application's padded buffer (3M/2), 4.5 M + 3 values per (k, y) in
    all; assembly holds mu# (M + 1), its padded transform (2 M), the
    gathered amplitudes and their panel sums, 5 M + 1 at most."""
    return 6 * 16 * grids.n_kl * grids.n_y


def direct_map_blocks(grids: ScatteringGrids) -> list[slice]:
    """The blocks of k rows the direct map solves and assembles one at a
    time per family: as many rows as keep two blocks, one per family
    solved at the same time, within _BLOCK_BYTES (_row_bytes; at least
    one), the last block ragged."""
    step = max(1, _BLOCK_BYTES // (2 * _row_bytes(grids)))
    return [slice(s, min(s + step, grids.n_kl))
            for s in range(0, grids.n_kl, step)]


def direct_map_bytes(grids: ScatteringGrids) -> int:
    """Working set of the direct map on these grids: two blocks of the
    first block's rows (_row_bytes), one per family, and the whole-grid
    tables held beside them: the plan's five M^2 tables (w0, w1 and r
    complex, at and q of 8 bytes), T1 and the two kernels (M^2 complex
    values each) and the plan's two convolution plans (3M/2 + 2M complex
    values per y layer)."""
    m = grids.n_kl
    rows = direct_map_blocks(grids)[0]
    tables = ((3 * 16 + 2 * 8) * m * m + 3 * 16 * m * m
              + 16 * (3 * m // 2 + 2 * m) * grids.n_y)
    return 2 * (rows.stop - rows.start) * _row_bytes(grids) + tables


def _fill_across_diagonal(tri: np.ndarray, upper: bool) -> np.ndarray:
    """Continue one stored triangle to the full square by transposition.

    The mirror uses genuine stored values of the same family, keeps the
    diagonal fixed, and is continuous across it; the spline consumer
    discards the mirrored half, so only a narrow band near the diagonal
    feels the derivative kink."""
    own = _triangle_weights(tri.shape[0], +1 if upper else -1) > 0
    return np.where(own, tri, tri.T)


@dataclasses.dataclass
class FamilyKernel:
    """One family's triangular kernel, assembled one block of k rows at a
    time (assemble_T), and the figures of the block solves it came from,
    which ScatteringData.meta records:

      * iterations: the most terms any block's series took;
      * xnorm: the X norm of the whole mu#, sup over y of the per-layer
        squared sums accumulated over the blocks (exact);
      * residual: the root-sum-square of the blocks' residual X norms,
        over max(1, xnorm). A sup of a sum is at most the sum of the sups,
        so this bounds the whole field's relative residual from above; with
        one block the two agree to rounding.
    """

    T: np.ndarray  # (M, M) over (k, l), masked to the family's triangle
    spacing: float  # dk = dl
    layer_sq: np.ndarray  # per y layer, sum of |mu#|^2 over assembled rows
    iterations: int = 0
    residual_sq: float = 0.0  # sum of squared block residual norms

    @classmethod
    def empty(cls, grids: ScatteringGrids) -> FamilyKernel:
        return cls(np.zeros((grids.n_kl, grids.n_kl), dtype=np.complex128),
                   grids.grid_kl.spacing, np.zeros(grids.n_y))

    def add_block(self, mu: MuSharpField) -> None:
        """Accumulate the figures of one block's solve."""
        layer_sq = _sweep_layer_sq(mu.values, mu.sign)
        self.layer_sq += layer_sq
        self.iterations = max(self.iterations, mu.iterations)
        block_norm = _sup_norm(layer_sq, self.spacing)
        self.residual_sq += (mu.residual * max(1.0, block_norm)) ** 2

    @property
    def xnorm(self) -> float:
        return _sup_norm(self.layer_sq, self.spacing)

    @property
    def residual(self) -> float:
        return float(np.sqrt(self.residual_sq)) / max(1.0, self.xnorm)


@dataclasses.dataclass
class ScatteringData:
    """Triangular kernels on the (k, l) grid plus the unmasked linear route.

    T_plus vanishes (exact zeros) below the diagonal, T_minus above; the
    diagonal itself carries weight 1/2 in both. products relies on those
    exact zeros: it reads only each family's own triangle
    (triangular_products), so values in the other would be ignored, and
    io.load_scattering refuses a file that holds any.
    """

    T_plus: np.ndarray
    T_minus: np.ndarray
    T1: np.ndarray
    grids: ScatteringGrids
    meta: dict

    @classmethod
    def from_families(cls, plus: FamilyKernel, minus: FamilyKernel,
                      T1: np.ndarray, plan: _VolterraPlan) -> ScatteringData:
        """Both families' kernels (assemble_T) with the assembly
        diagnostics and the solves' figures in meta; plan is the map's
        whole-grid plan."""
        T = {+1: plus.T, -1: minus.T}
        grids, q, ut_work = plan.grids, plan.q, plan.ut
        dkl = grids.grid_kl.spacing
        m = grids.n_kl
        d = np.arange(m)[None, :] - np.arange(m)[:, None]
        qmax = float(np.max(np.abs(q)))
        edge = np.concatenate([T[+1][0], T[+1][-1], T[+1][:, 0], T[+1][:, -1],
                               T[-1][0], T[-1][-1], T[-1][:, 0], T[-1][:, -1]])
        scale = max(np.max(np.abs(T[+1])), np.max(np.abs(T[-1])))
        # domain-adequacy check: the kernel decays in the offset l - k, not
        # toward the square edge (the near-diagonal band never decays), so
        # the post-hoc criterion looks at large offsets only
        offd = np.abs(d) * dkl
        far = offd >= 0.75 * (grids.grid_kl.max - grids.grid_kl.min) / 2.0
        tail = max(np.max(np.abs(T[+1][far])), np.max(np.abs(T[-1][far])))
        meta = {
            "square_edge_ratio":
                float(np.max(np.abs(edge)) / scale) if scale > 0 else 0.0,
            "offset_tail_ratio": float(tail / scale) if scale > 0 else 0.0,
            # count of pairs whose y-phase advances by more than pi/4 per
            # panel; informational, since the per-panel moments are exact
            # in the rate
            "n_fast_phase_pairs": int(np.sum(np.abs(q) * grids.grid_y.spacing
                                             > np.pi / 4)),
            "max_abs_q": qmax,
            "y_truncation_radius": float(grids.grid_y.max),
            "y_edge_max_abs_ut": float(max(np.max(np.abs(ut_work[:, 0])),
                                           np.max(np.abs(ut_work[:, -1])))),
            "l2_norm_plus":
                float(np.sqrt(np.sum(np.abs(T[+1]) ** 2) * dkl * dkl)),
            "l2_norm_minus":
                float(np.sqrt(np.sum(np.abs(T[-1]) ** 2) * dkl * dkl)),
            "mu_plus_iterations": plus.iterations,
            "mu_minus_iterations": minus.iterations,
            "mu_plus_residual": plus.residual,
            "mu_minus_residual": minus.residual,
            "mu_plus_xnorm": plus.xnorm,
            "mu_minus_xnorm": minus.xnorm,
        }
        return cls(T[+1], T[-1], T1, grids, meta)

    def mask(self, sign: int) -> np.ndarray:
        return _triangle_weights(self.grids.n_kl, sign)

    def products(self, rows: np.ndarray) -> np.ndarray:
        """The one kernel application: the pair the probe solves consume
        (rhp.CTOperator.products), [rows @ T_plus^T,
        rows @ (T_plus - T_minus)^T], shape (2,) + rows.shape
        (triangular_products)."""
        return triangular_products(self.T_plus, self.T_minus, rows)

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
        for sign, kernel in ((+1, self.T_plus), (-1, self.T_minus)):
            rem = kernel - self.mask(sign) * self.T1
            rem[diag, diag] *= 2.0
            filled = _fill_across_diagonal(rem, upper=(sign == +1))
            coeffs[sign] = fit(filled)[1] + c1
        return knots, coeffs


def _filon_rows(amps: np.ndarray, q: np.ndarray,
                grids: ScatteringGrids) -> np.ndarray:
    """Int e^(i q y) amp(y) dy over the y grid for y-leading amps
    (n_y, K, M) at rates q (K, M): Filon panel sums
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


def triangular_products(T_plus: np.ndarray, T_minus: np.ndarray,
                        rows: np.ndarray) -> np.ndarray:
    """[rows @ T_plus^T, rows @ (T_plus - T_minus)^T], each family's
    product reading only its own triangle: the upper one of T_plus, the
    lower one of T_minus. The rows are copied into the result once, and
    each is one BLAS ztrmv there, in place, on the Fortran view K^T,
    transposed back (trans=1), so no kernel is copied and the other
    triangle, zero by construction, is neither read nor multiplied. Rows
    are taken by index, which costs less than iterating over an array."""
    p = np.empty((2,) + np.shape(rows), dtype=complex)
    if p.shape[-1:] != T_plus.shape[:1]:
        # ztrmv would pass the entries of a longer row through unchanged
        raise ValueError(f"rows of shape {np.shape(rows)} for kernels of "
                         f"shape {T_plus.shape}")
    p[...] = rows
    flat = p.reshape(2, -1, p.shape[-1])
    for part, kernel, lower in ((flat[0], T_plus, 1), (flat[1], T_minus, 0)):
        kt = kernel.T
        for i in range(len(part)):
            ztrmv(kt, part[i], lower=lower, trans=1, overwrite_x=1)
    np.subtract(p[0], p[1], out=p[1])
    return p


def _triangle_weights(m: int, sign: int, rows: slice = slice(None)
                      ) -> np.ndarray:
    """1 on the family's own side of the diagonal, 1/2 on it, 0 beyond;
    on the k rows `rows` of the M x M grid (all of them by default)."""
    d = np.arange(m)[None, :] - np.arange(m)[rows, None]  # l index - k index
    return np.where(sign * d > 0, 1.0, np.where(d == 0, 0.5, 0.0))


def assemble_T1(plan: _VolterraPlan) -> np.ndarray:
    """Linear-order kernel straight from the delta route, unmasked:
    T1(k, l) = -(i / sqrt(2 pi)) Int e^(i (l^2-k^2) y) ut(l-k; y) dy.

    Takes no convolution: ut at p = l - k sits at index at = d + M/2
    (mod 2M) of the transform zero-padded to 2M, which reads a zero for
    every offset outside the working window. Runs over the blocks of
    direct_map_blocks: per block, the gathered amplitudes and their panel
    sums.
    """
    grids = plan.grids
    m = grids.n_kl
    pad = np.zeros((grids.n_y, 2 * m), dtype=np.complex128)
    pad[:, :m] = plan.ut.T
    T1 = np.empty((m, m), dtype=np.complex128)
    for ks in direct_map_blocks(grids):
        T1[ks] = -(1j / SQRT_2PI) * _filon_rows(pad[:, plan.at[ks]],
                                                plan.q[ks], grids)
    return T1


def assemble_T(mu: MuSharpField, plan: _VolterraPlan, T1: np.ndarray,
               kernel: FamilyKernel) -> FamilyKernel:
    """The k rows of one family's triangular kernel that mu# holds, solved
    on plan (a block of the map's plan), from their solve and the linear
    route T1 (assemble_T1):
    T_sigma = (T1 - (i / 2 pi) S_sigma) * step, S_sigma the Filon sum of
    ut conv_l mu#_sigma at p = l - k. The rows and the solve's figures go
    into kernel (FamilyKernel.add_block), which is returned and keeps no
    reference to mu#.

    The length-2M convolution of mu#'s halves is exact at every offset p
    either family reads, so p sits on the lattice and no interpolation
    enters. One gather (plan.at) takes the columns the family's triangle
    keeps and one Filon sum integrates them; the other columns stay exact
    zeros. Every array is y-leading, over (y, k, l) as the sweep layout.
    """
    _check_operand(plan, mu.values)
    m = plan.grids.n_kl
    ks = plan.rows
    # the columns the block's rows keep: l >= its first k (plus family),
    # l <= its last k (minus family)
    ls = slice(ks.start, m) if mu.sign > 0 else slice(0, ks.stop)
    amps = np.take_along_axis(plan.wide.on_halves(*_halves(mu.values, mu.sign)),
                              plan.at[:, ls][None], axis=-1)
    kernel.T[ks, ls] = (T1[ks, ls] - (1j / (2.0 * np.pi))
                        * _filon_rows(amps, plan.q[:, ls], plan.grids)) \
        * _triangle_weights(m, mu.sign, ks)[:, ls]
    kernel.add_block(mu)
    return kernel
