"""Field evaluation at probe points from evolved kernels, plus the
linear baseline.

The field splits into a leading term built from the kernels alone and a
correction weighted by the solved factorization unknown and its
x-derivative. Both are double spectral sums sharing one oscillatory
weight, evaluated per probe point; probe points rather than fields are
first-class because the large-time statements are statements along rays.
Both go through the solver's kernel operator rhp.CTOperator: the two
families sum to T_plus g - T_minus g, the gap weight i(l - k) acts as
i(K(l g) - k K g), and the functions each term needs share one product
per family, so no combined or gap-weighted kernel is formed.

The linear baseline evolves the potential's 2-D transform under the
dispersion relation p^3 + 3 q^2 / p, excluding the p = 0 line (zero-mean
data carries nothing there). Two independent quadrature routes are
provided for cross-validation: the native rectangular (p, q) sum and a
two-spectral-variable parametrization with Jacobian 2 |l - k|.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
from scipy.interpolate import RectBivariateSpline

from .grids import ConditionsReport, Grid1D, PotentialField, full_fourier
from .phase_airy import RayCoordinates, RegionLabel, DEFAULT_REGION_DELTA
# family_kernel is not called here: perfbench wraps this module's global of
# that name to count negated kernel copies, so the name stays importable
from .rhp import (  # noqa: F401
    EvolvedData,
    RHPSolution,
    build_CT_apply,
    family_kernel,
    solve_dmul_dx,
)
from .scattering import ScatteringData, ScatteringGrids

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
    "working_data",
]

OSCILLATION_THRESHOLD = np.pi / 4.0
SUPPORT_CUTOFF = 1e-3
FRESNEL_CELLS = 4


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


def _family_sums(data: EvolvedData, x: float, y: float, rows: np.ndarray):
    """Plain and k-weighted sums over k of both kernel families with
    their oscillatory weight, applied to each row of rows. Off the
    diagonal one family contributes; on it the two half weights combine."""
    op = build_CT_apply(data, x, y)
    a = op.kernel_apply(+1, rows) + op.kernel_apply(-1, rows)
    return a.sum(axis=1), a @ data.base.grids.grid_kl.points


def eval_u1(data: EvolvedData, x: float, y: float) -> complex:
    """Leading reconstruction term at one probe point.

    (1/pi) double sum of the oscillatory weight times i (l - k) times the
    combined kernel, taken as i(K(l) - k K(1))."""
    base = data.base
    pts = base.grids.grid_kl.points
    dl = base.grids.grid_kl.spacing
    _warn_if_underresolved(base.combined_colmax, pts, dl, data.t, x, y)
    s, ks = _family_sums(data, x, y, np.stack([pts, np.ones_like(pts)]))
    return complex((1j / np.pi) * dl * (s[0] - ks[1]))


def eval_u2(data: EvolvedData, x: float, y: float, rhp: RHPSolution) -> complex:
    """Correction term at one probe point.

    Adds the kernel sum weighted by (mu - 1) at the column argument and
    the plain kernel sum weighted by the x-derivative of mu. Requires the
    solution record solved at exactly this probe point, derivative part
    included."""
    expected = (data.t, x, y)
    if tuple(rhp.point) != expected:
        raise ValueError(
            f"solution record is for point {tuple(rhp.point)}, "
            f"requested {expected}")
    if rhp.dmu_dx is None:
        raise ValueError("solution record lacks the derivative part")
    pts = data.base.grids.grid_kl.points
    dl = data.base.grids.grid_kl.spacing
    mu = rhp.mu_minus_1
    s, ks = _family_sums(data, x, y, np.stack([pts * mu, mu, rhp.dmu_dx]))
    return complex((1.0 / np.pi) * dl * (1j * (s[0] - ks[1]) + s[2]))


def reconstruct(data: ScatteringData | EvolvedData, t: float, x: float,
                y: float, delta: float = DEFAULT_REGION_DELTA,
                tol: float = 1e-10,
                conditions: ConditionsReport | None = None,
                ) -> ReconstructionSample:
    """Solve and evaluate at one probe point."""
    ev = data if isinstance(data, EvolvedData) else EvolvedData(data, t)
    if ev.t != t:
        raise ValueError("evolution time disagrees with the t argument")
    sol = solve_dmul_dx(ev, t, x, y, tol=tol, conditions=conditions)
    u1 = eval_u1(ev, x, y)
    u2 = eval_u2(ev, x, y, sol)
    region = RayCoordinates(t, x, y).region(delta)
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


def ray_resolution_grid(t: float, x: float, y: float,
                        cap: int = 8192, floor: int = 256) -> Grid1D:
    """Spectral grid resolving the oscillatory weight at one probe.

    The domain covers twice the stationary points of the phase rate
    x - 2 y s + 12 t s^2 (half-width at least 1.5, enough for the kernel
    offset decay); the spacing keeps the phase advance per cell below pi
    so periodization images of the stationary points stay off the grid
    with a factor-two margin."""
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
        n = floor
    else:
        needed = 2.0 * half * rate / np.pi
        n = int(2 ** np.ceil(np.log2(max(needed, floor))))
    return Grid1D(-half, half, min(max(n, floor), cap))


def _fill_across_diagonal(tri: np.ndarray, upper: bool) -> np.ndarray:
    """Continue one stored triangle to the full square by transposition.

    The mirror uses genuine stored values of the same family, keeps the
    diagonal fixed, and is continuous across it; the spline consumer
    discards the mirrored half, so only a narrow band near the diagonal
    feels the derivative kink."""
    n = tri.shape[0]
    d = np.arange(n)[None, :] - np.arange(n)[:, None]
    own = d > 0 if upper else d < 0
    return np.where(own | (d == 0), tri, tri.T)


def resample_scattering_data(data: ScatteringData,
                             grid_fine: Grid1D) -> ScatteringData:
    """Kernels interpolated onto a finer (possibly truncated) grid.

    The linear part is smooth over the whole square and splines
    directly. Each quadratic remainder is smooth only on its own closed
    triangle: the stored diagonal half-weight is undone, the triangle is
    mirrored across the diagonal for spline support, and the triangle
    weights are reapplied on the new grid. Direct reassembly at the fine
    size would redo the layered solve at quadratic cost; splines keep
    large-time probes affordable."""
    src = data.grids.grid_kl
    if grid_fine.min < src.min or grid_fine.max > src.max:
        raise ValueError("fine grid must lie inside the source grid")
    sp = src.points
    fp = grid_fine.points
    m = grid_fine.n

    def spline2(arr):
        out = np.empty((m, m), dtype=complex)
        out.real = RectBivariateSpline(sp, sp, arr.real)(fp, fp)
        out.imag = RectBivariateSpline(sp, sp, arr.imag)(fp, fp)
        return out

    t1_fine = spline2(data.T1)
    diag_fine = np.arange(m)
    out = {}
    for sign, stored in ((+1, data.T_plus), (-1, data.T_minus)):
        mask_src = data.mask(sign)
        rem = stored - mask_src * data.T1
        diag = np.arange(src.n)
        rem[diag, diag] *= 2.0
        filled = _fill_across_diagonal(rem, upper=(sign == +1))
        fine = spline2(filled)
        fine += t1_fine
        for i in range(m):  # zero the opposite triangle in place
            fine[i, slice(0, i) if sign == +1 else slice(i + 1, m)] = 0.0
        fine[diag_fine, diag_fine] *= 0.5
        out[sign] = fine

    fine_grids = ScatteringGrids(grid_fine, data.grids.grid_y)
    meta = dict(data.meta)
    meta["resampled_from_n"] = src.n
    meta["resampled_from_half_width"] = src.max
    return ScatteringData(out[+1], out[-1], t1_fine, fine_grids, meta)


def working_data(data: ScatteringData, grid: Grid1D) -> ScatteringData:
    """The data itself when grid is its own spectral grid, otherwise its
    resample onto grid."""
    src = data.grids.grid_kl
    if grid.n == src.n and grid.min == src.min and grid.max == src.max:
        return data
    return resample_scattering_data(data, grid)
