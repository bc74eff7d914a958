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

Scattering kernels on the (k, l) grid, with p = l - k and q = l^2 - k^2:

    T_sigma(k, l) = -(i / 2 pi) Int e^(i q y)
                    [ sqrt(2 pi) ut(p; y) + (ut conv_l mu#_sigma)(k, p; y) ]
                    dy * step(sigma p),

step the half-at-zero Heaviside. The delta route alone gives the
linear-order kernel T1(k, l) = -(i / sqrt(2 pi)) Int e^(i q y) ut(p; y) dy,
stored unmasked; split_T recovers the masked linear pieces and the
quadratic remainders. linearized_T builds the same linear order directly
from the 2-D transform: -i uhat(l - k, -(l^2 - k^2)).
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
from scipy.interpolate import CubicSpline

from .grids import SQRT_2PI, Grid1D, PartialTransform
from .oscillatory import cumulative_phase_integral, phase_integral

__all__ = [
    "ScatteringGrids",
    "MuSharpField",
    "ScatteringData",
    "resample_transform",
    "transform_norms",
    "apply_g",
    "g_on_delta",
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
    slow variable. Defaults resolve unit-width data comfortably."""

    grid_kl: Grid1D
    grid_y: Grid1D

    @classmethod
    def default(cls, n_kl: int = 256, half_kl: float = 8.0,
                n_y: int = 128, half_y: float = 8.0) -> "ScatteringGrids":
        return cls(Grid1D(-half_kl, half_kl, n_kl), Grid1D(-half_y, half_y, n_y))

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
    """sup over y of the L2(dk dl) norm; f has shape (n_k, n_l, n_y)."""
    dkl = grids.grid_kl.spacing
    return float(np.sqrt(np.max(np.sum(np.abs(f) ** 2, axis=(0, 1))) * dkl * dkl))


def _offset_kernel(ut_work: np.ndarray, grids: ScatteringGrids) -> np.ndarray:
    """ut on the offset lattice d*dl, d = -(M-1)..(M-1): row d+M-1.

    Offsets outside the working window carry exponentially negligible
    weight and are zero (the grid is half-open, so index d + M/2 of the
    working array holds exactly the value at offset d*dl).
    """
    m = grids.n_kl
    out = np.zeros((2 * m - 1, grids.n_y), dtype=np.complex128)
    d = np.arange(-(m - 1), m)
    src = d + m // 2
    ok = (src >= 0) & (src < m)
    out[np.nonzero(ok)[0]] = ut_work[src[ok]]
    return out


class _ConvolutionPlan:
    """FFT plan for the l-convolution (ut conv f)(l_m) = sum_j ut((m-j) dl)
    f(l_j) dl, as a circular convolution of length 2M with the offset
    kernel; offsets beyond the table are zero so no wraparound aliases in.
    """

    def __init__(self, ut_work: np.ndarray, grids: ScatteringGrids):
        m = grids.n_kl
        self.m = m
        self.pad = 4 * m  # kernel + signal supports span < 4M: no wraparound
        self.dl = grids.grid_kl.spacing
        offsets = _offset_kernel(ut_work, grids)
        wrapped = np.zeros((self.pad, grids.n_y), dtype=np.complex128)
        d = np.arange(-(m - 1), m)
        wrapped[d % self.pad] = offsets
        self.kernel_hat = np.fft.fft(wrapped, axis=0)
        self.offsets = offsets

    def same(self, f: np.ndarray) -> np.ndarray:
        """(ut conv f) dl on the working l window; f: (..., M, n_y)."""
        return self.full(f)[..., self.m - 1: 2 * self.m - 1, :]

    def full(self, f: np.ndarray) -> np.ndarray:
        """All offsets d = -(M-1)..(M-1); output axis length 2M-1."""
        m = self.m
        fh = np.fft.fft(f, n=self.pad, axis=-2)
        conv = np.fft.ifft(fh * self.kernel_hat, axis=-2)
        d = np.arange(-(m - 1), m)
        return conv[..., d % self.pad, :] * self.dl


def _volterra_integral(amps, thetas, grids: ScatteringGrids, sign: int):
    """E(k, l, y) = Int_{start}^{y} e^(-i theta (y - eta)) amp(eta) d eta.

    amps: (..., M, n_y); thetas: (..., M) matching leading shape. start is
    +inf when sign*l > 0, -inf when sign*l < 0, the average at l = 0; the
    grid ends stand in for +-inf (data must have decayed there).
    """
    dy = grids.grid_y.spacing
    l = grids.grid_kl.points
    up = cumulative_phase_integral(amps, dy, thetas)  # from the bottom end
    total = up[..., -1:]
    carrier = np.exp(-1j * thetas[..., None] * (grids.grid_y.points - grids.grid_y.points[0]))
    from_bottom = carrier * up
    from_top = -carrier * (total - up)
    sl = sign * l
    w_bottom = np.where(sl < 0, 1.0, np.where(sl == 0, 0.5, 0.0))[:, None]
    return from_bottom * w_bottom + from_top * (1.0 - w_bottom)


def g_on_delta(ut_work: np.ndarray, sign: int, grids: ScatteringGrids,
               k_chunk: int = 32) -> np.ndarray:
    """Source term i Int e^(-i theta (y-eta)) ut(l; eta) d eta, shape
    (M, M, n_y) over (k, l, y)."""
    m = grids.n_kl
    k = grids.grid_kl.points
    l = grids.grid_kl.points
    out = np.empty((m, m, grids.n_y), dtype=np.complex128)
    for s in range(0, m, k_chunk):
        ks = k[s:s + k_chunk]
        thetas = l[None, :] * (l[None, :] + 2.0 * ks[:, None])
        amps = np.broadcast_to(ut_work, (len(ks), m, grids.n_y))
        out[s:s + k_chunk] = 1j * _volterra_integral(amps, thetas, grids, sign)
    return out


def apply_g(ut_work: np.ndarray, f: np.ndarray, sign: int,
            grids: ScatteringGrids, k_chunk: int = 32,
            plan: _ConvolutionPlan | None = None) -> np.ndarray:
    """One application of the layered Volterra operator to f(k, l, y)."""
    expect = (grids.n_kl, grids.n_kl, grids.n_y)
    if f.shape != expect:
        raise ValueError(f"operand shape {f.shape} does not match grids {expect}")
    if not np.all(np.isfinite(f)):
        raise ValueError("operand contains non-finite entries")
    if plan is None:
        plan = _ConvolutionPlan(ut_work, grids)
    m = grids.n_kl
    k = grids.grid_kl.points
    l = grids.grid_kl.points
    out = np.empty_like(f)
    for s in range(0, m, k_chunk):
        conv = plan.same(f[s:s + k_chunk])
        ks = k[s:s + k_chunk]
        thetas = l[None, :] * (l[None, :] + 2.0 * ks[:, None])
        out[s:s + k_chunk] = (1j / SQRT_2PI) * _volterra_integral(
            conv, thetas, grids, sign
        )
    return out


@dataclasses.dataclass
class MuSharpField:
    """Solution of the layered Volterra system for one sign family."""

    values: np.ndarray  # (M, M, n_y) over (k, l, y)
    sign: int
    grids: ScatteringGrids
    iterations: int
    contraction_ratios: list
    residual: float
    source_norm: float  # X norm of the delta-route source


def solve_mu_sharp(ut_work: np.ndarray, sign: int, grids: ScatteringGrids,
                   tol: float = 1e-10, max_iter: int = 200,
                   conditions=None) -> MuSharpField:
    """Neumann iteration for mu#; contracts at rate <= c < 1.

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
    plan = _ConvolutionPlan(ut_work, grids)
    source = g_on_delta(ut_work, sign, grids)
    src_norm = x_norm(source, grids)
    mu = source.copy()
    term = source
    ratios = []
    prev = src_norm
    for it in range(1, max_iter + 1):
        term = apply_g(ut_work, term, sign, grids, plan=plan)
        tn = x_norm(term, grids)
        mu += term
        if prev > 0:
            ratios.append(tn / prev)
        prev = tn
        if tn <= tol * max(1.0, x_norm(mu, grids)):
            break
    else:
        raise RuntimeError(
            f"no convergence in {max_iter} iterations; "
            f"term-ratio history: {[round(r, 4) for r in ratios]}"
        )
    residual = x_norm(mu - source - apply_g(ut_work, mu, sign, grids, plan=plan),
                      grids)
    return MuSharpField(mu, sign, grids, it, ratios, residual, src_norm)


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
        m = self.grids.n_kl
        d = np.arange(m)[None, :] - np.arange(m)[:, None]  # l index - k index
        return np.where(sign * d > 0, 1.0, np.where(d == 0, 0.5, 0.0))

    @functools.cached_property
    def combined_colmax(self) -> np.ndarray:
        """Column maxima of |T_plus - T_minus| (both families in
        consumption orientation), for the resolution check of every probe
        on this data; computed once, in row blocks of bounded size."""
        n = self.grids.n_kl
        out = np.zeros(n)
        step = max(1, (1 << 18) // n)
        for i in range(0, n, step):
            rows = np.abs(self.T_plus[i:i + step] - self.T_minus[i:i + step])
            np.maximum(out, np.max(rows, axis=0), out=out)
        return out


def _row_phase_integral(amp_rows, q_rows, grids: ScatteringGrids):
    dy = grids.grid_y.spacing
    y0 = grids.grid_y.points[0]
    return np.exp(1j * q_rows * y0) * phase_integral(amp_rows, dy, q_rows)


def assemble_T1(ut_work: np.ndarray, grids: ScatteringGrids) -> np.ndarray:
    """Linear-order kernel straight from the delta route, unmasked:
    T1(k, l) = -(i / sqrt(2 pi)) Int e^(i (l^2-k^2) y) ut(l-k; y) dy.

    Needs no convolution plan, so it stays cheap on very fine y grids.
    """
    offsets = _offset_kernel(ut_work, grids)
    m = grids.n_kl
    kpts = grids.grid_kl.points
    lpts = grids.grid_kl.points
    T1 = np.zeros((m, m), dtype=np.complex128)
    j_idx = np.arange(m)
    for i in range(m):
        sel = (j_idx - i) + (m - 1)
        q = lpts**2 - kpts[i] ** 2
        T1[i] = -(1j / SQRT_2PI) * _row_phase_integral(offsets[sel], q, grids)
    return T1


def assemble_T(mu_plus: MuSharpField, mu_minus: MuSharpField,
               ut_work: np.ndarray, grids: ScatteringGrids,
               k_chunk: int = 16) -> ScatteringData:
    """Assemble both triangular kernels and the linear route.

    Works row by row in k: the full offset convolution aligns p = l - k
    with lattice offsets exactly, so no interpolation enters.
    """
    plan = _ConvolutionPlan(ut_work, grids)
    m = grids.n_kl
    kpts = grids.grid_kl.points
    lpts = grids.grid_kl.points
    T = {+1: np.zeros((m, m), dtype=np.complex128),
         -1: np.zeros((m, m), dtype=np.complex128)}
    T1 = np.zeros((m, m), dtype=np.complex128)
    mu_of = {+1: mu_plus.values, -1: mu_minus.values}
    ut_offsets = plan.offsets  # (2M-1, n_y)

    # full-conv table index t holds the convolution evaluated at offset
    # (t - (m-1) - m/2) * dl, while the kernel table index t holds the
    # kernel value at offset (t - (m-1)) * dl; the two selectors differ
    # by m/2. Offsets past the stored window carry no data and read 0.
    j_idx = np.arange(m)
    for s in range(0, m, k_chunk):
        rows = range(s, min(s + k_chunk, m))
        for sign in (+1, -1):
            conv_full = plan.full(mu_of[sign][s:s + k_chunk])  # (r, 2M-1, n_y)
            for ri, i in enumerate(rows):
                sel = (j_idx - i) + (m - 1)
                d_conv = (j_idx - i) + m // 2
                in_table = d_conv <= m - 1
                sel_conv = np.clip(d_conv, -(m - 1), m - 1) + (m - 1)
                q = lpts**2 - kpts[i] ** 2
                amp = SQRT_2PI * ut_offsets[sel] \
                    + np.where(in_table[:, None], conv_full[ri, sel_conv], 0.0)
                T[sign][i] = -(1j / (2.0 * np.pi)) * _row_phase_integral(amp, q, grids)
                if sign == +1:
                    T1[i] = -(1j / SQRT_2PI) * _row_phase_integral(
                        ut_offsets[sel], q, grids
                    )

    d = j_idx[None, :] - j_idx[:, None]
    for sign in (+1, -1):
        w = np.where(sign * d > 0, 1.0, np.where(d == 0, 0.5, 0.0))
        T[sign] = T[sign] * w

    dkl = grids.grid_kl.spacing
    qmax = float(np.max(np.abs(lpts**2 - kpts[:, None] ** 2)))
    edge = np.concatenate([T[+1][0], T[+1][-1], T[+1][:, 0], T[+1][:, -1],
                           T[-1][0], T[-1][-1], T[-1][:, 0], T[-1][:, -1]])
    scale = max(np.max(np.abs(T[+1])), np.max(np.abs(T[-1])))
    # domain-adequacy check: the kernel decays in the offset l - k, not
    # toward the square edge (the near-diagonal band never decays), so the
    # post-hoc criterion looks at large offsets only
    offd = np.abs(j_idx[None, :] - j_idx[:, None]) * dkl
    far = offd >= 0.75 * (grids.grid_kl.max - grids.grid_kl.min) / 2.0
    tail = max(np.max(np.abs(T[+1][far])), np.max(np.abs(T[-1][far])))
    meta = {
        "square_edge_ratio": float(np.max(np.abs(edge)) / scale) if scale > 0 else 0.0,
        "offset_tail_ratio": float(tail / scale) if scale > 0 else 0.0,
        # count of pairs whose y-phase advances by more than pi/4 per panel;
        # informational, since the per-panel moments are exact in the rate
        "n_fast_phase_pairs": int(np.sum(
            np.abs(lpts**2 - kpts[:, None] ** 2) * grids.grid_y.spacing > np.pi / 4
        )),
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
