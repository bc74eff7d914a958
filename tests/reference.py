"""Reference definitions the tests check the pipeline against.

None of these runs on the pipeline's path; each is an independent,
slower or more literal route to a quantity the package computes, or a
figure of a property the paper relies on:

  * full_fourier, inverse_partial_fourier_x: the 2-D transform and the
    inverse of grids.partial_fourier_x (round trip, spectral derivative;
    the 2-D transform feeds the linear routes below).
  * _panel_sums, phase_integral, cumulative_phase_integral: full and
    cumulative Filon sums, pinned against adaptive quadrature in
    test_oscillatory; the direct loops that check the recurrences of the
    direct map (g_on_delta, apply_g) and its y integrals (assemble_T,
    assemble_T1) sum with them.
  * _offset_kernel: the offset table of the l-convolution, from which the
    direct loops check scattering._ConvolutionPlan, apply_g and assembly.
  * volterra_integral, two_sweep_g_on_delta, two_sweep_apply_g,
    two_sweep_solve_mu_sharp: the layered Volterra solve on natural
    (k, l, y) operands, each integral two sweeps over strided half-column
    views, against which the one sweep of scattering's sweep layout is
    checked bit for bit; to_sweep and from_sweep (with _natural) convert
    between that layout and natural (k, l, y) operands, and
    g_on_delta_kly and apply_g_kly run the package's operators on natural
    operands.
  * _layer_sq, x_norm: the per-layer squared sums and the X norm of a
    natural operand, one vdot per y layer, against which the sweep
    layout's one sum (scattering._sweep_layer_sq) is checked.
  * transform_norms, split_T: the admissibility sizes (c, w) on the
    working grids and the linear/quadratic split of the stored kernels,
    for the norm bounds of the solve and of T_plus, T_minus and the
    second-order term oracle.
  * diagnostic_mu_k_growth, kernel_continuity_constant: growth of mu# in
    the spectral parameter (solve_mu_sharp) and continuity of the
    data-to-kernel map (harness.compute_scattering).
  * cauchy_project: one half-line projection, against which
    rhp.CTOperator's one-FFT-pair projection is checked.
  * ct_norm: the 2-norm of one probe's operator, which the uniform
    contraction bound of harness.run_verify_suite must dominate.
  * kernel_apply: one triangular family with its oscillatory weight at an
    operator's points, from the dense T_plus and T_minus arrays, against
    which CTOperator.products, the one kernel application, is checked.
  * adjoint_identity_check: the time-zero factorization identity of the
    stored kernels, through kernel_apply.
  * sequential_probe: one probe's solves and field terms with every stage
    forming its own kernel products, against which reconstruct's reuse
    of the products by linearity is checked.
  * band_factors: the band pair's factors of one refinement gathered
    straight from the coefficients of the grid's own window, against
    which the factors sliced from a source's tables
    (reconstruct._band_tables, _Band.factors) are checked.
  * linear_kp, linear_kp_crosscheck, linear_field (with
    _spectrum_with_zero_line): the linearized flow by the rectangular
    (p, q) sum, by the two-spectral-variable parametrization and on the
    whole grid; they check the probe path's leading term at t = 5 and the
    oracle's linear regime.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import RectBivariateSpline

from kpist.grids import (SQRT_2PI, Grid1D, PartialTransform,
                         PotentialField)
from kpist.oscillatory import filon_moments
from kpist.rhp import CTOperator
from kpist.scattering import (MuSharpField, ScatteringData, ScatteringGrids,
                              _halves, _sup_norm, _sweep_down, _VolterraPlan,
                              apply_g, g_on_delta, neumann_series)


def _layer_sq(f: np.ndarray) -> np.ndarray:
    """Per y layer, the sum of |f|^2 over (k, l); f has shape
    (n_k, n_l, n_y). One vdot per layer, in place for y-leading storage."""
    return np.array([np.vdot(layer, layer).real
                     for layer in np.moveaxis(f, -1, 0)])


def x_norm(f: np.ndarray, grids: ScatteringGrids) -> float:
    """The X norm scattering.solve_mu_sharp sums its series in: sup over y
    of the L2(dk dl) norm; f has shape (n_k, n_l, n_y). NaN propagates."""
    return _sup_norm(_layer_sq(f), grids.grid_kl.spacing)


# ---------------------------------------------------------------- transforms

def inverse_partial_fourier_x(pt: PartialTransform) -> np.ndarray:
    """Inverse of partial_fourier_x; returns the complex field on the x grid."""
    gl = pt.grid_l
    n = gl.n
    dx = 2.0 * np.pi / (n * gl.spacing)
    x0 = -np.pi / gl.spacing
    raw = np.fft.ifftshift(pt.values, axes=0)
    l_raw = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    raw = raw * np.exp(1j * l_raw * x0)[:, None]
    return np.fft.ifft(raw, axis=0) * (n * gl.spacing / SQRT_2PI)


def full_fourier(field: PotentialField):
    """2-D transform uhat(p, q) with (2 pi)^(-1) total normalization.

    Returns (grid_p, grid_q, uhat) with both axes in ascending (fftshifted)
    frequency order. For real input, uhat(-p, -q) = conj(uhat(p, q)) to
    roundoff.
    """
    gx, gy = field.grid_x, field.grid_y
    raw = np.fft.fft2(field.values)
    p_raw = 2.0 * np.pi * np.fft.fftfreq(gx.n, d=gx.spacing)
    q_raw = 2.0 * np.pi * np.fft.fftfreq(gy.n, d=gy.spacing)
    phase = np.exp(-1j * p_raw * gx.min)[:, None] * np.exp(-1j * q_raw * gy.min)[None, :]
    vals = np.fft.fftshift(raw * phase) * (gx.spacing * gy.spacing / (2.0 * np.pi))
    return gx.dual(), gy.dual(), vals


# ---------------------------------------------------------------- Filon sums

def _panel_sums(c, dy, theta):
    """Per-panel integrals P_j = Int_{y_j}^{y_{j+1}} e^(i theta y) c(y) dy.

    c has shape (..., n); theta broadcasts against the leading axes. The
    y origin is taken at index 0 (a pure phase e^(i theta y0) is left to
    the caller when it matters; cumulative/full integrals below fold it in).
    """
    c = np.asarray(c, dtype=np.complex128)
    n = c.shape[-1]
    theta = np.asarray(theta, dtype=np.float64)
    m0, m1 = filon_moments(theta * dy)
    # e^(i theta y_j) with y_j = j*dy relative to the left end
    j = np.arange(n - 1)
    phase = np.exp(1j * np.multiply.outer(theta * dy, j))
    w0 = (m0 - m1)[..., None]
    w1 = m1[..., None]
    return dy * phase * (w0 * c[..., :-1] + w1 * c[..., 1:])


def phase_integral(c, dy, theta):
    """Integral over the whole last axis of e^(i theta y) c(y) dy.

    y is measured from the first sample; multiply by e^(i theta y0)
    externally for an absolute origin.
    """
    return _panel_sums(c, dy, theta).sum(axis=-1)


def cumulative_phase_integral(c, dy, theta, from_top=False):
    """Cumulative Filon integral along the last axis.

    from_top False: C_j = Int_{y_0}^{y_j} e^(i theta y) c dy (C_0 = 0).
    from_top True:  C_j = Int_{y_j}^{y_{n-1}} (C_{n-1} = 0).
    Same relative-origin convention as phase_integral.
    """
    p = _panel_sums(c, dy, theta)
    out = np.zeros(c.shape[:-1] + (c.shape[-1],), dtype=np.complex128)
    if from_top:
        out[..., :-1] = np.cumsum(p[..., ::-1], axis=-1)[..., ::-1]
    else:
        out[..., 1:] = np.cumsum(p, axis=-1)
    return out


# ---------------------------------------------------------------- direct map

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


def volterra_integral(w0, w1, r, sign: int, out: np.ndarray) -> None:
    """out(y, k, l) <- Int_{start}^{y} e^(-i theta (y - eta)) out(eta, k, l)
    d eta, in place on a y-leading out (n_y, K, M), by two sweeps over
    strided half-column views: the bottom start (sign*l < 0) runs
    scattering._sweep_down on the reversed y axis with the weights
    swapped, the top start (sign*l > 0) on the natural one, and the l = 0
    column runs both and takes their average. w0, w1, r: (K, M) tables
    of a _VolterraPlan (w0, w1 may carry a constant factor)."""
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


def two_sweep_g_on_delta(plan: _VolterraPlan, sign: int) -> np.ndarray:
    """scattering.g_on_delta on natural storage: shape (K, M, n_y) over
    (k, l, y), a view of y-leading storage."""
    out = np.repeat(plan.ut.T[:, None, :], plan.n_rows, axis=1)
    volterra_integral(1j * plan.w0, 1j * plan.w1, plan.r, sign, out)
    return np.moveaxis(out, 0, -1)


def two_sweep_apply_g(plan: _VolterraPlan, f: np.ndarray,
                      sign: int) -> np.ndarray:
    """scattering.apply_g on a natural f (K, M, n_y), in place; the
    convolution is the plan's, on f's halves in the sweep layout."""
    c = 1j / SQRT_2PI
    fy = np.moveaxis(f, -1, 0)
    conv = plan.conv.on_halves(*_halves(to_sweep(f, sign), sign))
    fy[...] = conv[..., :plan.grids.n_kl]
    volterra_integral(c * plan.w0, c * plan.w1, plan.r, sign, fy)
    return f


def two_sweep_solve_mu_sharp(plan: _VolterraPlan, sign: int,
                             tol: float = 1e-10) -> MuSharpField:
    """scattering.solve_mu_sharp summing its series on natural storage,
    the X norm of every term and sum taken per contiguous (K, M) layer
    (x_norm); the sum is handed on in the sweep layout, as the package's
    solve hands it on."""
    mu, (iterations,), ratios, (residual,) = neumann_series(
        lambda f, rows: two_sweep_apply_g(plan, f, sign),
        two_sweep_g_on_delta(plan, sign),
        lambda f: [x_norm(f, plan.grids)], tol)
    return MuSharpField(to_sweep(mu, sign), sign, plan.grids, iterations,
                        ratios, residual)


def to_sweep(f: np.ndarray, sign: int) -> np.ndarray:
    """A natural f (K, M, n_y) over (k, l, y) in scattering's sweep layout
    (n_y, K, M + 1), a new C-contiguous array."""
    n_k, m, n_y = f.shape
    out = np.empty((n_y, n_k, m + 1), dtype=np.complex128)
    neg, pos = _halves(out, sign)
    fy = np.moveaxis(f, -1, 0)
    neg[...] = fy[..., :m // 2 + 1]
    pos[...] = fy[..., m // 2:]
    return out


def _natural(s: np.ndarray, sign: int) -> np.ndarray:
    """A series in scattering's sweep layout in natural y-leading
    storage, (n_y, K, M) over (y, k, l)."""
    neg, pos = _halves(s, sign)
    h = neg.shape[-1] - 1
    out = np.empty(neg.shape[:-1] + (h + pos.shape[-1],), dtype=np.complex128)
    out[..., :h + 1] = neg
    out[..., h + 1:] = pos[..., 1:]
    return out


def from_sweep(s: np.ndarray, sign: int) -> np.ndarray:
    """A series in scattering's sweep layout as a natural (K, M, n_y) view
    of y-leading storage; l = 0 is read from the first half."""
    return np.moveaxis(_natural(s, sign), 0, -1)


def g_on_delta_kly(plan: _VolterraPlan, sign: int) -> np.ndarray:
    """scattering.g_on_delta, as natural (K, M, n_y)."""
    return from_sweep(g_on_delta(plan, sign), sign)


def apply_g_kly(plan: _VolterraPlan, f: np.ndarray, sign: int) -> np.ndarray:
    """scattering.apply_g on a natural f (K, M, n_y), through the sweep
    layout; f itself is left as it is."""
    return from_sweep(apply_g(plan, to_sweep(f, sign), sign), sign)


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
    dmu = np.gradient(from_sweep(mu.values, mu.sign), g.grid_kl.spacing,
                      axis=0)
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


# -------------------------------------------------------------- inverse step

def cauchy_project(f: np.ndarray, sign: int) -> np.ndarray:
    """Half-line Fourier projection of a sampled function.

    sign +1 keeps the nonnegative-frequency bins (Nyquist included,
    weight one); sign -1 returns minus the strictly negative rest, so
    the plus projection minus the minus projection is the identity.
    """
    f = np.asarray(f, dtype=complex)
    n = f.shape[-1]
    spec = np.fft.fft(f, axis=-1)
    idx = np.arange(n)
    keep_plus = idx <= n // 2
    if sign == +1:
        spec = np.where(keep_plus, spec, 0.0)
        return np.fft.ifft(spec, axis=-1)
    if sign == -1:
        spec = np.where(keep_plus, 0.0, spec)
        return -np.fft.ifft(spec, axis=-1)
    raise ValueError("sign must be +1 or -1")


def ct_norm(op: CTOperator) -> float:
    """Largest singular value of a probe's operator. Applied to the rows
    of the identity the operator yields its transpose, which has the same
    2-norm."""
    return float(np.linalg.norm(op(np.eye(op.base.grids.n_kl)), 2))


def kernel_apply(op: CTOperator, sign: int, f: np.ndarray) -> np.ndarray:
    """One triangular family with its oscillatory weight at the operator's
    points: out(k) = sum_l exp(i(phi(l) - phi(k))) K(k, l) f(l) dl, K the
    family in consumption orientation (T_plus, or -T_minus for the minus
    family), as a full matrix product with the dense arrays of the
    operator's kernel data. f and the result are (P, n) stacks, or
    stacks of them along leading axes."""
    kernels = {+1: op.base.T_plus, -1: op.base.T_minus}
    if sign not in kernels:
        raise ValueError("sign must be +1 or -1")
    return sign * op.e_k * ((op.e_l * f) @ kernels[sign].T)


def sequential_probe(op: CTOperator, tol: float = 1e-10):
    """(u, u1, u2, residual_mu, residual_dmu) at the operator's one point
    by the sequential route, each stage forming its own kernel products:
    the mu series from op(1), the forcing op.derivative(1 + mu), the dmu
    series, and the two field terms from the products of [l, 1] and of
    [l mu, mu, dmu] through kernel_apply, one family at a time."""
    grid = op.base.grids.grid_kl
    pts, dl = grid.points, grid.spacing

    def norm(f):  # one series: the one row of a one-point operator
        return [float(np.sqrt(np.vdot(f, f).real * dl))]

    def apply(f, rows):  # one row, so rows is always every row
        return op(f)

    mu, _, _, (r_mu,) = neumann_series(apply, op(np.ones(grid.n)), norm, tol)
    dmu, _, _, (r_dmu,) = neumann_series(apply, op.derivative(1.0 + mu), norm,
                                         tol)

    def sums(rows):
        a = kernel_apply(op, +1, rows) + kernel_apply(op, -1, rows)
        return a.sum(axis=-1), a @ pts

    s, ks = sums(np.stack([pts, np.ones_like(pts)]))
    u1 = complex(((1j / np.pi) * dl * (s[0] - ks[1])).item())
    s, ks = sums(np.stack([pts * mu, mu, dmu]))
    u2 = complex(((1.0 / np.pi) * dl * (1j * (s[0] - ks[1]) + s[2])).item())
    return u1 + u2, u1, u2, r_mu, r_dmu


def band_factors(band, c_plus: np.ndarray, c_minus: np.ndarray):
    """The factors reconstruct._Band.factors gives, built per grid from
    c_plus and c_minus restricted to the band's own coefficients: near,
    vals and half_diag point by point and then laid on the pad table,
    strict and local gathered from the window's coefficients."""
    c = np.stack([c_plus, c_plus + c_minus])
    v = band.vals
    cols = band.first + np.arange(4)[:, None]
    near = np.einsum("pi,kpqi->kqi", v, c[:, cols[:, None], cols[None, :]])
    half_diag = 0.5 * np.sum(near * v, axis=1)

    def on_table(a):
        return np.where(band.filled, a[..., band.pad], 0.0)

    strict = np.triu(c, 1).transpose(0, 2, 1)
    strict[1] -= c_minus.T
    p, s = np.arange(4), np.arange(band.n_coef - 3)
    q, d = p[:, None, None], np.arange(1, 4)[:, None]
    sign = (d > q) * 1.0 - (d > p)  # (q, d, p)
    local = c[:, s + p[:, None], s + d[:, None]][:, None] * sign[..., None]
    return (on_table(near), on_table(v.astype(complex)), on_table(half_diag),
            strict, local.reshape(2, 12, 4, len(s)))


def adjoint_identity_check(data: ScatteringData, x: float, y: float) -> float:
    """Deviation of the time-zero factorization identity
    (I - A_minus)(I + A_plus*) = I.

    A_sign is the dense matrix of kernel_apply at t = 0
    (families in consumption orientation) and * is the conjugate
    transpose. The identity rests on the pairing conj(T_plus(l, k)) =
    -T_minus(k, l) of the stored kernels, exact at linear order in the
    data. Returns the largest singular value of the residual.

    The deviation vanishes for zero data, scales with the square of the
    data amplitude, and is dominated by the y-quadrature error of the
    kernel assembly: it quarters when n_y doubles and is flat under
    refinement of the spectral grid alone, so the refinement contract
    (ratio at most 0.6 per doubling) is exercised by doubling the full
    grid pair."""
    op = CTOperator.build(data, 0.0, x, y)
    eye = np.eye(data.grids.n_kl)
    # applied to the rows of the identity, a family yields A_sign^T
    a_minus = kernel_apply(op, -1, eye).T
    m = (eye - a_minus) @ (eye + kernel_apply(op, +1, eye).conj()) - eye
    return float(np.linalg.norm(m, 2))


# ----------------------------------------------------------- linearized flow

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
