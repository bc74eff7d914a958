"""Grids, partial/full Fourier transforms, and small-data admissibility checks.

Conventions used throughout the package:

  * 1-D transform in x (symmetric normalization):
        ut(l; y) = (2 pi)^(-1/2) Integral e^(-i l x) u(x, y) dx
    inverted with the conjugate kernel and the same constant.
  * 2-D transform (total normalization (2 pi)^(-1)):
        uhat(p, q) = (2 pi)^(-1) Integral e^(-i(p x + q y)) u(x, y) dx dy
  * All grids are uniform, symmetric about 0, and half-open: points
    min + j*spacing for j = 0..n-1 cover [min, max). The dual grid of an
    n-point grid with spacing dx has spacing 2 pi / (n dx) and the same
    half-open layout, which is exactly the (fftshifted) DFT frequency set.
  * Grid quadrature is the plain sum times the spacing; for fields that
    decay below roundoff at the ends this coincides with the trapezoid
    rule on the closed interval.

Admissibility of a potential u with transform ut is measured by

    c       = ||ut||_{L1(dl dy)} / sqrt(2 pi)            (need c < 1)
    c_tilde = ||(1+l^2)^(1/2) ut||_{L1(dl dy)} / sqrt(2 pi)   (need < 1)
    w_norm  = ( Integral |ut|^2 |l|^(-1) dl dy )^(1/2)   (need < (1-c)/4)

together with a weighted-Sobolev size e1w_norm combining position and
spectral weights (see check_conditions). The |l|^(-1) weight makes w_norm
meaningful only for data whose x-mean vanishes row-wise; check_conditions
refuses data whose l = 0 column is not negligible.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

SQRT_2PI = float(np.sqrt(2.0 * np.pi))
# largest |ut(0, y)| / max |ut| that check_conditions accepts as zero-mean
ZERO_MODE_TOL = 1e-8
# carrier wavenumber of the 'cosine_packet' test potential
PACKET_WAVENUMBER = 2.0


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclasses.dataclass(frozen=True)
class Grid1D:
    """Uniform symmetric half-open grid: points min + j*spacing, j = 0..n-1.

    n must be a power of two (>= 8) and min = -max; the point set then
    contains -max but not +max, matching DFT sample layouts.
    """

    min: float
    max: float
    n: int

    def __post_init__(self):
        if not np.isfinite(self.min) or not np.isfinite(self.max):
            raise ValueError("grid bounds must be finite")
        if self.max <= 0 or self.min != -self.max:
            raise ValueError("grid must be symmetric: min = -max < 0")
        if not _is_power_of_two(self.n) or self.n < 8:
            raise ValueError("grid size must be a power of two >= 8")

    @functools.cached_property
    def spacing(self) -> float:
        return (self.max - self.min) / self.n

    @functools.cached_property
    def points(self) -> np.ndarray:
        """The grid points, computed on first access and read-only."""
        pts = self.min + self.spacing * np.arange(self.n)
        pts.flags.writeable = False
        return pts

    @property
    def dual_spacing(self) -> float:
        return 2.0 * np.pi / (self.n * self.spacing)

    def dual(self) -> "Grid1D":
        """Frequency grid of the DFT on this grid (fftshifted order)."""
        half_span = np.pi / self.spacing
        return Grid1D(-half_span, half_span, self.n)


@dataclasses.dataclass
class PotentialField:
    """Real field u(x, y) sampled on a tensor grid; values[i, j] = u(x_i, y_j).

    Rejects non-finite entries. Every y-row must have vanishing x-mean:
    check_conditions holds the l = 0 column of the transform to
    ZERO_MODE_TOL, and the oracle the x-mean defect to ZERO_MEAN_TOL.
    """

    grid_x: Grid1D
    grid_y: Grid1D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.grid_x.n, self.grid_y.n):
            raise ValueError("values shape does not match grids")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def x_mean_defect(self) -> float:
        """Largest per-row |mean in x|, relative to max |u| (0 for u = 0)."""
        scale = self.max_abs()
        if scale == 0.0:
            return 0.0
        row_means = np.abs(self.values.mean(axis=0))
        return float(row_means.max() / scale)

    def l2_norm(self) -> float:
        w = self.grid_x.spacing * self.grid_y.spacing
        return float(np.sqrt(np.sum(self.values**2) * w))


@dataclasses.dataclass
class PartialTransform:
    """Complex array ut(l, y) on the dual-x grid; values[m, j] = ut(l_m, y_j)."""

    grid_l: Grid1D
    grid_y: Grid1D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.grid_l.n, self.grid_y.n):
            raise ValueError("values shape does not match grids")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("transform contains non-finite values")

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclasses.dataclass(frozen=True)
class ConditionsReport:
    """Admissibility report; passed <=> c < 1 and c_tilde < 1 and
    w_norm < (1 - c)/4."""

    c: float
    c_tilde: float
    w_norm: float
    e1w_norm: float
    passed: bool

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"c={self.c:.6g} c_tilde={self.c_tilde:.6g} "
            f"w_norm={self.w_norm:.6g} (limit {(1.0 - self.c) / 4.0:.6g}) "
            f"e1w_norm={self.e1w_norm:.6g} [{status}]"
        )


def partial_fourier_x(field: PotentialField) -> PartialTransform:
    """Row-wise transform in x: ut(l, y) = (2 pi)^(-1/2) sum_x e^(-ilx) u dx."""
    gx = field.grid_x
    raw = np.fft.fft(field.values, axis=0)
    l_raw = 2.0 * np.pi * np.fft.fftfreq(gx.n, d=gx.spacing)
    phase = np.exp(-1j * l_raw * gx.min)[:, None]
    vals = np.fft.fftshift(raw * phase, axes=0) * (gx.spacing / SQRT_2PI)
    return PartialTransform(gx.dual(), field.grid_y, vals)


def _spectral_axis_multiplier(field_vals, grid: Grid1D, axis: int, mult_of_freq):
    """Apply a frequency multiplier along one axis via FFT (periodic grid)."""
    freq = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.spacing)
    shape = [1, 1]
    shape[axis] = grid.n
    m = mult_of_freq(freq).reshape(shape)
    return np.fft.ifft(np.fft.fft(field_vals, axis=axis) * m, axis=axis)


def check_conditions(
    field: PotentialField,
    transform: PartialTransform | None = None,
) -> ConditionsReport:
    """Compute (c, c_tilde, w_norm, e1w_norm) and the pass/fail verdict.

    The w_norm excludes the l = 0 bin of the transform and requires it to
    be negligible (|ut(0, y)| <= ZERO_MODE_TOL * max |ut|); otherwise the
    |l|^(-1) weight is meaningless and a ValueError is raised. All four
    quantities scale exactly linearly with the field amplitude.
    """
    if transform is None:
        transform = partial_fourier_x(field)
    gl, gy = transform.grid_l, transform.grid_y
    ut = transform.values
    dl, dy = gl.spacing, gy.spacing
    l = gl.points

    scale = transform.max_abs()
    zero_bin = int(np.argmin(np.abs(l)))
    if scale > 0 and np.max(np.abs(ut[zero_bin, :])) > ZERO_MODE_TOL * scale:
        raise ValueError(
            "transform has a nonvanishing l = 0 column; the data is not "
            "zero-mean in x, which the |l|^(-1)-weighted norm requires"
        )

    absu = np.abs(ut)
    c = float(absu.sum() * dl * dy / SQRT_2PI)
    c_tilde = float((np.sqrt(1.0 + l**2)[:, None] * absu).sum() * dl * dy / SQRT_2PI)

    inv_l = np.zeros_like(l)
    nz = l != 0.0
    inv_l[nz] = 1.0 / np.abs(l[nz])
    keep = np.ones_like(l, dtype=bool)
    keep[zero_bin] = False
    w_norm = float(
        np.sqrt((absu[keep, :] ** 2 * inv_l[keep, None]).sum() * dl * dy)
    )

    e1w = _e1w_norm(field)
    passed = (c < 1.0) and (c_tilde < 1.0) and (w_norm < (1.0 - c) / 4.0)
    return ConditionsReport(c, c_tilde, w_norm, e1w, passed)


def _e1w_norm(field: PotentialField) -> float:
    """Weighted-Sobolev size of the field.

    Sum of: position-weighted L2 with weights (1+x^2)^2 (1+y^2)^(5/2);
    (1+y^2)^2 (1 - dx^2)^2 u in L2; (1 - dy^2)^2 u in L2; |dx^-1 u| in L2;
    and (1+y^2)^(1/2)-weighted L2 of dx^-1 dy u. Derivatives and
    antiderivatives are spectral; dx^-1 zeroes the p = 0 modes (the data is
    required to be zero-mean in x wherever this norm is used).
    """
    gx, gy = field.grid_x, field.grid_y
    u = field.values.astype(np.complex128)
    x = gx.points[:, None]
    y = gy.points[None, :]
    w = gx.spacing * gy.spacing

    def l2(v):
        return np.sqrt(np.sum(np.abs(v) ** 2) * w)

    weighted = (1.0 + x**2) ** 2 * (1.0 + y**2) ** 2.5 * u
    part_xy = l2(weighted)

    ddx4 = _spectral_axis_multiplier(u, gx, 0, lambda p: (1.0 + p**2) ** 2)
    part_x = l2((1.0 + y**2) ** 2 * ddx4)

    ddy4 = _spectral_axis_multiplier(u, gy, 1, lambda q: (1.0 + q**2) ** 2)
    part_y = l2(ddy4)

    def inv_p(p):
        out = np.zeros_like(p, dtype=np.complex128)
        nz = p != 0.0
        out[nz] = 1.0 / (1j * p[nz])
        return out

    anti = _spectral_axis_multiplier(u, gx, 0, inv_p)
    part_anti = l2(anti)

    anti_dy = _spectral_axis_multiplier(anti, gy, 1, lambda q: 1j * q)
    part_anti_dy = np.sqrt(np.sum((1.0 + y**2) * np.abs(anti_dy) ** 2) * w)

    return float(part_xy + part_x + part_y + part_anti + part_anti_dy)


def make_test_potential(
    kind: str,
    amplitude: float,
    width: float,
    grid_x: Grid1D,
    grid_y: Grid1D,
) -> PotentialField:
    """Analytic test fields with vanishing x-mean.

    kind 'gaussian_dx': amplitude * d/dx exp(-(x^2+y^2)/(2 width^2)), which
    is exactly odd in x (zero mean analytically). kind 'cosine_packet':
    amplitude * cos(k0 x) * exp(-(x^2+y^2)/(2 width^2)), k0 =
    PACKET_WAVENUMBER, with the discrete per-row x-mean subtracted. Grids
    must resolve the width with at least 8 points.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    # resolve the central bump (full width 2*width) with >= 8 samples
    if grid_x.spacing > width / 4.0 or grid_y.spacing > width / 4.0:
        raise ValueError("grid too coarse: need at least 8 points per width")
    x = grid_x.points[:, None]
    y = grid_y.points[None, :]
    env = np.exp(-(x**2 + y**2) / (2.0 * width**2))
    if kind == "gaussian_dx":
        vals = amplitude * (-x / width**2) * env
    elif kind == "cosine_packet":
        vals = amplitude * np.cos(PACKET_WAVENUMBER * x) * env
        vals = vals - vals.mean(axis=0, keepdims=True)
    else:
        raise ValueError(f"unknown test potential kind: {kind!r}")
    return PotentialField(grid_x, grid_y, vals)
