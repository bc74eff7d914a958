"""Probe-point reconstruction, linear baseline, and kernel resampling.

Numeric windows are frozen from calibration on the derivative-of-gaussian
profile: working kernels 128 x 128 on [-8, 8]^2 from a 256-point field
box on [-32, 32]^2. The t = 0 round trip lands at 1.2% (leading term
only) and 0.34% (with correction) of the field maximum at amplitude
0.05; the two linear routes agree to a few times 1e-7 once both
quadratures are dense enough.
"""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline

from kpist import reconstruct as reconstruct_module
from kpist import scattering
from kpist.harness import compute_scattering
from kpist.grids import Grid1D, PotentialField, make_test_potential
from kpist.scattering import (
    ScatteringData,
    ScatteringGrids,
    _fill_across_diagonal,
)
from kpist.oracle import evolve
from kpist.rhp import (CTOperator, family_kernel, phase_weights, solve_dmul_dx,
                       solve_mul)
from kpist.phase_airy import RegionLabel
from kpist.reconstruct import (
    REFINED_PER_SOURCE,
    ReconstructionSample,
    SplineKernels,
    eval_u1,
    eval_u2,
    ray_resolution_grid,
    reconstruct,
    reconstruct_points,
    resample_scattering_data,
)
from reference import (band_factors, dense_data, linear_field, linear_kp,
                       linear_kp_crosscheck, sequential_probe)

WORK_KL = Grid1D(-8.0, 8.0, 128)
WORK_Y = Grid1D(-8.0, 8.0, 128)
FIELD_GRID = Grid1D(-32.0, 32.0, 256)
# the one probe grid whose refinements take dense products
FLOOR_GRID = Grid1D(-reconstruct_module.FLOOR_HALF_WIDTH,
                    reconstruct_module.FLOOR_HALF_WIDTH,
                    reconstruct_module.GRID_FLOOR)


def build_reference(eps, grid_kl=WORK_KL, grid_y=WORK_Y):
    field = make_test_potential("gaussian_dx", eps, 1.0, FIELD_GRID, FIELD_GRID)
    return field, compute_scattering(field, ScatteringGrids(grid_kl, grid_y))[0]


def zero_data():
    z = np.zeros((WORK_KL.n, WORK_KL.n), dtype=complex)
    return ScatteringData(z.copy(), z.copy(), z.copy(),
                          ScatteringGrids(WORK_KL, WORK_Y), {})


def core_probes(field, stride=37, count=6):
    vals = field.values
    mask = np.abs(vals) >= 0.3 * np.max(np.abs(vals))
    out = []
    for i, j in np.argwhere(mask)[::stride][:count]:
        out.append((field.grid_x.points[i], field.grid_y.points[j],
                    vals[i, j]))
    return out


@pytest.fixture(scope="module")
def ref05(map05):
    return map05[:2]


@pytest.fixture(scope="module")
def ref02(map02):
    return map02[:2]


@pytest.fixture(scope="module")
def ref01(map01):
    return map01[:2]


class TestSampleRecord:

    def test_sum_identity_and_immutability(self):
        s = ReconstructionSample((0.0, 1.0, 2.0), 0.5 + 0j, 0.25 + 0j,
                                 0.75 + 0j, RegionLabel.TRANSITION)
        assert s.u == s.u1 + s.u2
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.u1 = 0.0


class TestRoundTrip:

    def test_time_zero_core(self, ref05):
        field, data = ref05
        scale = field.max_abs()
        worst1 = worst = worst_im = 0.0
        for x, y, target in core_probes(field):
            s = reconstruct(data, 0.0, x, y)
            worst1 = max(worst1, abs(s.u1 - target))
            worst = max(worst, abs(s.u - target))
            worst_im = max(worst_im, abs(s.u.imag))
            assert s.region is RegionLabel.TRANSITION
        # contract: leading term within 10 eps, full value within 5% on
        # the core; frozen margins from calibration (0.012 and 0.0034)
        assert worst1 / scale <= 10 * 0.05
        assert worst1 / scale <= 0.03
        assert worst / scale <= 0.05
        assert worst / scale <= 0.01
        # the correction must actually help, not just be small
        assert worst < worst1
        # real input data reconstructs to a real field
        assert worst_im <= 1e-4
        assert worst_im <= 1e-5

    def test_zero_data_reconstructs_zero(self):
        s = reconstruct(zero_data(), 0.0, 1.0, -2.0)
        assert s.u1 == 0.0 and s.u2 == 0.0 and s.u == 0.0
        s5 = reconstruct(zero_data(), 5.0, 1.0, -2.0)
        assert s5.u == 0.0
        assert s5.region is RegionLabel.TRANSITION  # x/t small at t=5

    def test_determinism(self, ref05):
        _, data = ref05
        a = reconstruct(data, 0.0, 1.0, 0.5)
        b = reconstruct(data, 0.0, 1.0, 0.5)
        assert a.u == b.u and a.u1 == b.u1 and a.u2 == b.u2


class TestQuadraticCorrection:

    def test_eps_scaling_window(self, ref01, ref02, ref05):
        # |u2| / |u1| grows linearly in amplitude: the normalized ratio
        # stays in a fixed window and the 5x amplitude span moves the
        # raw ratio by 5x up to quadrature (measured 4.35)
        ratios = {}
        for eps, (field, data) in ((0.01, ref01), (0.02, ref02),
                                   (0.05, ref05)):
            s = reconstruct(data, 0.0, 1.0, 0.5)
            r = abs(s.u2) / abs(s.u1)
            ratios[eps] = r
            assert 0.015 <= r / eps <= 0.06
        assert 3.0 <= ratios[0.05] / ratios[0.01] <= 6.5

    def test_probe_mismatch_rejected(self, ref05):
        _, data = ref05
        sol = solve_dmul_dx(CTOperator.build(data, 0.0, 1.0, 0.5))
        with pytest.raises(ValueError, match="solution record"):
            eval_u2(CTOperator.build(data, 0.0, 2.0, 0.5), sol)

    def test_missing_derivative_rejected(self, ref05):
        _, data = ref05
        op = CTOperator.build(data, 0.0, 1.0, 0.5)
        sol = solve_mul(op)
        assert sol.dmu_dx is None
        with pytest.raises(ValueError, match="derivative"):
            eval_u2(op, sol)


class TestOrchestration:

    def test_one_operator_per_probe(self, ref05, monkeypatch):
        _, data = ref05
        real = CTOperator.build.__func__
        built = []

        def counting(cls, *args):
            built.append(args)
            return real(cls, *args)

        monkeypatch.setattr(CTOperator, "build", classmethod(counting))
        reconstruct(data, 0.5, 1.2, 0.8)
        assert len(built) == 1

    def test_region_labels_follow_ray(self, ref05):
        _, data = ref05
        fine = resample_scattering_data(
            data, ray_resolution_grid(25.0, -75.0, 0.0))
        s = reconstruct(fine, 25.0, -75.0, 0.0)
        assert s.region is RegionLabel.OSCILLATORY
        fine2 = resample_scattering_data(
            data, ray_resolution_grid(25.0, 75.0, 0.0))
        s2 = reconstruct(fine2, 25.0, 75.0, 0.0)
        assert s2.region is RegionLabel.RAPID


class TestOscillationFlag:

    def test_zero_kernel_no_flag(self):
        # a zero kernel at a late-time probe evaluates to exactly zero
        # and raises no warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert eval_u1(CTOperator.build(zero_data(), 30.0, -50.0, 3.0)) == 0.0


class TestLinearBaseline:

    def test_time_zero_identities(self, ref02):
        field, _ = ref02
        scale = field.max_abs()
        v0 = linear_field(field, 0.0)
        assert np.max(np.abs(v0 - field.values)) / scale <= 1e-8
        i, j = 128, 140
        p = linear_kp(field, 0.0, field.grid_x.points[i],
                      field.grid_y.points[j])
        assert abs(p - field.values[i, j]) / scale <= 1e-8

    def test_l2_unitarity(self, ref02):
        field, _ = ref02
        v = linear_field(field, 0.7)
        n0 = np.sqrt(np.sum(field.values ** 2))
        n1 = np.sqrt(np.sum(v ** 2))
        assert abs(n1 - n0) / n0 <= 1e-8

    def test_point_matches_field_on_lattice(self, ref02):
        field, _ = ref02
        v = linear_field(field, 0.7)
        scale = field.max_abs()
        for i, j in [(128, 128), (120, 140), (140, 120)]:
            p = linear_kp(field, 0.7, field.grid_x.points[i],
                          field.grid_y.points[j])
            assert abs(p - v[i, j]) / scale <= 1e-12

    def test_nonzero_mean_rejected(self):
        x = FIELD_GRID.points[:, None]
        y = FIELD_GRID.points[None, :]
        bad = PotentialField(FIELD_GRID, FIELD_GRID,
                             np.exp(-(x ** 2 + y ** 2) / 2.0))
        with pytest.raises(ValueError, match="zero-mean"):
            linear_kp(bad, 0.5, 0.0, 0.0)
        with pytest.raises(ValueError, match="zero-mean"):
            linear_field(bad, 0.5)

    def test_two_route_agreement(self, ref02):
        # dense quadratures on both sides: the rectangular route needs
        # respline because the dispersion rate blows up at the excluded
        # line; the two-variable route needs a wide box for the wedge
        # |q| > |p| (2H - |p|) it cannot reach (measured 5.2e-7, 2.4e-7)
        field, _ = ref02
        scale = field.max_abs()
        kl = Grid1D(-10.0, 10.0, 2048)
        for (t, x, y) in [(0.3, -3.0, 1.0), (0.7, 1.5, -2.0)]:
            a = linear_kp(field, t, x, y, n_quad=8192)
            b = linear_kp_crosscheck(field, t, x, y, kl)
            assert abs(a - b) / scale <= 1e-6


class TestLinearRegimeAtT5:

    def test_leading_term_matches_linear(self, ref01):
        field, data = ref01
        probes = [(-10.0, 8.0), (-20.0, -12.0), (-6.0, 8.0), (-2.0, 0.0)]
        expect_regions = [RegionLabel.OSCILLATORY, RegionLabel.OSCILLATORY,
                          RegionLabel.OSCILLATORY, RegionLabel.TRANSITION]
        u1s, vs = [], []
        for (x, y), reg in zip(probes, expect_regions):
            g = ray_resolution_grid(5.0, x, y)
            fine = resample_scattering_data(data, g)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                s = reconstruct(fine, 5.0, x, y)
            assert s.region is reg
            assert abs(s.u.imag) <= 1e-7
            u1s.append(s.u1)
            vs.append(linear_kp(field, 5.0, x, y, n_quad=2048,
                                quad_half=8.0))
        scale = max(abs(v) for v in vs)
        rel = max(abs(a - b) for a, b in zip(u1s, vs)) / scale
        assert rel <= 10 * 0.01  # contract at this amplitude
        assert rel <= 0.02       # frozen margin (measured 0.0043)


class TestRefinement:

    def test_doubling_settles_value(self, ref05):
        # successive kernel-grid doublings must shrink the change in the
        # reconstructed value by at least 2x per doubling (measured 9.9x)
        _, data128 = ref05
        _, data64 = build_reference(0.05, grid_kl=Grid1D(-8.0, 8.0, 64))
        _, data256 = build_reference(0.05, grid_kl=Grid1D(-8.0, 8.0, 256))
        us = {}
        for n, d in ((64, data64), (128, data128), (256, data256)):
            us[n] = reconstruct(d, 0.0, 1.0, 0.5).u
        d1 = abs(us[128] - us[64])
        d2 = abs(us[256] - us[128])
        assert d1 / d2 >= 2.0
        assert d1 / d2 >= 3.0  # frozen margin


# max|u - oracle| / max|oracle| per core point at t = 0.5, frozen at
# 1.5x the measured 3.06e-3, 3.37e-3, 2.26e-2, 3.46e-3 and 1.24e-3
ORACLE_BOUNDS = {(-2.0, -0.75): 4.6e-3, (-1.25, 1.0): 5.1e-3,
                 (-0.5, 0.75): 3.4e-2, (0.75, 0.75): 5.2e-3,
                 (1.5, 0.5): 1.9e-3}


@pytest.fixture(scope="module")
def oracle_at_05(ref05):
    """(x, y, |u - oracle|, |u1 - oracle|) at the core points at t = 0.5,
    relative to max|oracle|, with u on the path of `kpist reconstruct`."""
    field, data = ref05
    oracle = evolve(field, 0.5)
    scale = oracle.max_abs()
    gx, gy = field.grid_x, field.grid_y
    out = []
    for x, y, _ in core_probes(field):
        ref = oracle.values[int(np.rint((x - gx.min) / gx.spacing)),
                            int(np.rint((y - gy.min) / gy.spacing))]
        fine = resample_scattering_data(data, ray_resolution_grid(0.5, x, y))
        s = reconstruct(fine, 0.5, x, y)
        out.append((x, y, abs(s.u - ref) / scale, abs(s.u1 - ref) / scale))
    return out


class TestAgainstOracle:
    """The kernel pipeline against the spectral solver at amplitude 0.05,
    which share nothing but the field type."""

    def test_core_points_within_frozen_bounds(self, oracle_at_05):
        assert {(x, y) for x, y, _, _ in oracle_at_05} == set(ORACLE_BOUNDS)
        for x, y, err, _ in oracle_at_05:
            assert err <= ORACLE_BOUNDS[(x, y)], (x, y, err)

    @pytest.mark.xfail(strict=True, reason=(
        "open defect: the fixed +-1.5 spectral window of "
        "ray_resolution_grid truncates the kernel tails; at (-0.5, 0.75) "
        "u misses the oracle by 2.3e-2 of max|u| against 1.2e-2 for u1"))
    def test_u_beats_u1_at_every_core_point(self, oracle_at_05):
        for x, y, err, err1 in oracle_at_05:
            assert err < err1, (x, y, err, err1)


class TestResampling:

    def test_same_grid_is_nodally_exact(self, ref05):
        _, data = ref05
        res = resample_scattering_data(data, WORK_KL)
        for name in ("T_plus", "T_minus", "T1"):
            assert np.max(np.abs(getattr(res, name)
                                 - getattr(data, name))) <= 1e-12

    def test_against_direct_fine_assembly(self, ref01):
        # the hard direction: halving the spacing while keeping the
        # domain stresses the band cells whose width matches the source
        # spacing (measured 2.9e-3 Frobenius, 1.0e-2 max, u1 3.5e-4)
        _, coarse = ref01
        fine_grid = Grid1D(-4.0, 4.0, 256)
        _, direct = build_reference(0.01, grid_kl=fine_grid)
        res = resample_scattering_data(coarse, fine_grid)
        dense = dense_data(res)
        for name in ("T_plus", "T_minus", "T1"):
            a, b = getattr(dense, name), getattr(direct, name)
            assert np.linalg.norm(a - b) / np.linalg.norm(b) <= 6e-3
            assert np.max(np.abs(a - b)) / np.max(np.abs(b)) <= 2.5e-2
        for (x, y) in [(1.0, 0.5), (-2.0, 1.5)]:
            va = eval_u1(CTOperator.build(res, 0.0, x, y))
            vb = eval_u1(CTOperator.build(direct, 0.0, x, y))
            assert abs(va - vb) / abs(vb) <= 1e-3

    def test_triangular_structure_preserved(self, ref05):
        _, data = ref05
        res = resample_scattering_data(data, Grid1D(-4.0, 4.0, 256))
        n = 256
        d = np.arange(n)[None, :] - np.arange(n)[:, None]
        assert np.all(res.T_plus[d < 0] == 0.0)
        assert np.all(res.T_minus[d > 0] == 0.0)
        # the linear part is proportional to the offset, so its diagonal
        # is numerically zero; the stored diagonals carry only the
        # half-weighted quadratic remainders
        diag = np.arange(n)
        t1 = dense_data(res).T1
        assert np.max(np.abs(t1[diag, diag])) <= 1e-10 * np.max(np.abs(t1))

    def test_meta_records_source(self, ref05):
        _, data = ref05
        res = resample_scattering_data(data, Grid1D(-4.0, 4.0, 256))
        assert res.meta["resampled_from_n"] == 128
        assert res.meta["resampled_from_half_width"] == 8.0

    def test_fine_grid_outside_source_rejected(self, ref05):
        _, data = ref05
        with pytest.raises(ValueError, match="inside"):
            resample_scattering_data(data, Grid1D(-16.0, 16.0, 64))


class TestRayResolutionGrid:

    def test_default_floor_at_time_zero(self):
        g = ray_resolution_grid(0.0, 3.0, 3.0)
        assert (g.min, g.max, g.n) == (-1.5, 1.5, 256)

    def test_oscillatory_ray_late_time(self):
        # x/t = -3 at t = 100: stationary points at +-0.5, default
        # half-width; the endpoint phase rate 2400 forces 4096 cells
        g = ray_resolution_grid(100.0, -300.0, 0.0)
        assert (g.min, g.max, g.n) == (-1.5, 1.5, 4096)

    def test_widened_domain_for_far_stationary_points(self):
        # x/t = -12: stationary points at +-1, domain widens to +-2
        g = ray_resolution_grid(100.0, -1200.0, 0.0)
        assert (g.min, g.max) == (-2.0, 2.0)
        assert g.n == 8192

    def test_cap_and_power_of_two(self):
        g = ray_resolution_grid(1000.0, -12000.0, 5.0, cap=4096)
        assert g.n <= 4096
        assert g.n & (g.n - 1) == 0
        assert ray_resolution_grid(20.0, -240.0, 0.0, cap=2 ** 62).n == 1024
        for cap in (1000, 128):
            with pytest.raises(ValueError, match=f"fine_cap {cap} "):
                ray_resolution_grid(20.0, -240.0, 0.0, cap=cap)

    @pytest.mark.parametrize("point", [(np.nan, 0.0, 0.0),
                                       (1.0, np.inf, 0.0),
                                       (1.0, 0.0, -np.inf)])
    def test_non_finite_point_rejected(self, point):
        with pytest.raises(ValueError, match="not finite") as err:
            ray_resolution_grid(*point)
        assert str(tuple(float(v) for v in point)) in str(err.value)
        assert "fine grid must lie inside" not in str(err.value)

    def test_phase_advance_bounded(self):
        for (t, x, y) in [(5.0, -10.0, 8.0), (25.0, -75.0, 0.0),
                          (100.0, -300.0, 0.0)]:
            g = ray_resolution_grid(t, x, y)
            ends = [abs(x - 2 * y * s + 12 * t * s * s)
                    for s in (g.min, g.max)]
            assert max(ends) * g.spacing <= np.pi * 1.0001


class TestCombinedKernel:

    def test_orientation(self, ref05):
        _, data = ref05
        f = family_kernel(data, +1) + family_kernel(data, -1)
        assert np.array_equal(f, data.T_plus - data.T_minus)


# a decay-ray probe (x / t = -12) whose resolution grid is 1024 points on
# [-2, 2]
FINE_PROBE = (20.0, -240.0, 0.0)


@pytest.fixture(scope="module")
def fine1024(ref05):
    _, data = ref05
    return resample_scattering_data(data, ray_resolution_grid(*FINE_PROBE))


def combined_kernel_u(base, t, x, y, rhp):
    """u1 and u2 as double sums with the combined kernel formed, at the
    one point of a one-row solution record."""
    f = family_kernel(base, +1) + family_kernel(base, -1)
    pts = base.grids.grid_kl.points
    dl = base.grids.grid_kl.spacing
    phi = phase_weights(pts, t, x, y)
    e_l = np.exp(1j * phi)
    e_k = np.exp(-1j * phi)
    u1 = (1j / np.pi) * dl * dl * (e_k @ (f @ (pts * e_l))
                                   - (pts * e_k) @ (f @ e_l))
    (g_mu,), (g_dmu,) = rhp.mu_minus_1 * e_l, rhp.dmu_dx * e_l
    u2 = ((1j / np.pi) * dl * dl * (e_k @ (f @ (pts * g_mu))
                                    - (pts * e_k) @ (f @ g_mu))
          + (1.0 / np.pi) * dl * dl * (e_k @ (f @ g_dmu)))
    return u1, u2


def resample_with_masks(data, grid_fine):
    """Fine kernels with the triangle weights applied as full masks."""
    src = data.grids.grid_kl
    sp, fp, m = src.points, grid_fine.points, grid_fine.n

    def spline2(arr):
        re = RectBivariateSpline(sp, sp, arr.real)
        im = RectBivariateSpline(sp, sp, arr.imag)
        return re(fp, fp) + 1j * im(fp, fp)

    t1_fine = spline2(data.T1)
    d_fine = np.arange(m)[None, :] - np.arange(m)[:, None]
    out = {}
    for sign, stored in ((+1, data.T_plus), (-1, data.T_minus)):
        rem = stored - scattering._triangle_weights(src.n, sign) * data.T1
        diag = np.arange(src.n)
        rem[diag, diag] *= 2.0
        rem_fine = spline2(_fill_across_diagonal(rem, upper=(sign == +1)))
        w = np.where(sign * d_fine > 0, 1.0, np.where(d_fine == 0, 0.5, 0.0))
        out[sign] = w * (t1_fine + rem_fine)
    return out[+1], out[-1], t1_fine


class TestCopyFreeEvaluation:
    """Evaluation and resampling against the reference definitions."""

    def test_eval_matches_combined_kernel_sums(self, ref05, fine1024):
        _, data = ref05
        for base, (t, x, y) in ((data, (0.5, 1.2, 0.8)),
                                (fine1024, FINE_PROBE)):
            op = CTOperator.build(base, t, x, y)
            sol = solve_dmul_dx(op)
            want1, want2 = combined_kernel_u(base, t, x, y, sol)
            (u1,), (u2,) = eval_u1(op), eval_u2(op, sol)
            assert abs(u1 - want1) <= 1e-13 * abs(want1)
            assert abs(u2 - want2) <= 1e-13 * abs(want2)

    def test_in_place_triangle_weights_match_masks(self, ref05, fine1024):
        # the reference arrays of the factored kernels against the bispev
        # values with full-mask triangle weights (measured 6e-16)
        _, data = ref05
        want = resample_with_masks(data, fine1024.grids.grid_kl)
        dense = dense_data(fine1024)
        for name, w in zip(("T_plus", "T_minus", "T1"), want):
            got = getattr(dense, name)
            assert np.max(np.abs(got - w)) <= 1e-14 * np.max(np.abs(w))
        n = fine1024.grids.n_kl
        d = np.arange(n)[None, :] - np.arange(n)[:, None]
        assert np.all(fine1024.T_plus[d < 0] == 0.0)
        assert np.all(fine1024.T_minus[d > 0] == 0.0)

    def test_resample_returns_the_source_on_its_own_grid(self, ref05):
        _, data = ref05
        own = dataclasses.replace(data)
        assert resample_scattering_data(own, Grid1D(-8.0, 8.0, 128)) is own
        assert "_refined" not in vars(own)
        res = resample_scattering_data(data, Grid1D(-4.0, 4.0, 128))
        assert res.grids.grid_kl == Grid1D(-4.0, 4.0, 128)
        assert res.meta["resampled_from_n"] == 128


def probe_on_route(request, route):
    """Kernel data and probe point of one product route: the stored grid
    and a floor-grid refinement take triangular products, the 1024-point
    refinement banded ones."""
    _, data = request.getfixturevalue("ref05")
    if route == "stored128":
        return data, (0.5, 1.2, 0.8)
    if route == "dense256":
        return (resample_scattering_data(data, Grid1D(-1.5, 1.5, 256)),
                (1.0, 0.3, 0.2))
    return request.getfixturevalue("fine1024"), FINE_PROBE


def traced_reconstruct(monkeypatch, base, t, x, y):
    """reconstruct at one probe with the rows handed to the kernel data's
    products (both families per row) counted; returns (sample, record,
    rows)."""
    rows, records = [0], []
    products = type(base).products

    def counting(self, g):
        rows[0] += np.asarray(g).reshape(-1, self.grids.n_kl).shape[0]
        return products(self, g)

    def recording(*args, **kwargs):
        records.append(solve_dmul_dx(*args, **kwargs))
        return records[-1]

    monkeypatch.setattr(type(base), "products", counting)
    monkeypatch.setattr(reconstruct_module, "solve_dmul_dx", recording)
    sample = reconstruct(base, t, x, y)
    monkeypatch.undo()
    (record,) = records
    return sample, record, rows[0]


class TestProbeProducts:
    """A probe forms each distinct kernel product once: the rows l and 1
    (CTOperator.basis), one per term of the two series and their
    residuals, and l (mu - 1) for the derivative forcing; everything else
    follows by linearity."""

    ROUTES = ["stored128", "dense256", "band1024"]

    @pytest.mark.parametrize("route", ROUTES)
    def test_rows_per_family(self, request, monkeypatch, route):
        # n1 + n2 + 5 rows for both families, n1 + n2 the iterations of
        # the two series (n1 + n2 + 10 when each stage formed its own)
        base, (t, x, y) = probe_on_route(request, route)
        _, record, rows = traced_reconstruct(monkeypatch, base, t, x, y)
        assert record.iterations >= 2
        assert rows == record.iterations + 5

    @pytest.mark.parametrize("route", ROUTES)
    def test_matches_sequential_path(self, request, monkeypatch, route):
        # the residuals are already relative to max(1, |sum|): the mu
        # series runs the same arithmetic, so residual_mu is the same
        # number, and the dmu series starts from a forcing summed by
        # linearity, so residual_dmu may move in its last digits
        base, (t, x, y) = probe_on_route(request, route)
        sample, record, _ = traced_reconstruct(monkeypatch, base, t, x, y)
        u, u1, u2, r_mu, r_dmu = sequential_probe(
            CTOperator.build(base, t, x, y))
        for got, want in ((sample.u, u), (sample.u1, u1), (sample.u2, u2)):
            assert abs(got - want) <= 1e-13 * abs(want)
        assert record.residual_mu == r_mu
        assert abs(record.residual_dmu - r_dmu) <= 1e-13
        assert 0 < record.residual_dmu <= 1e-10

    def test_record_of_other_source_rejected(self, ref02, ref05):
        # eval_u2 reads the products the solves formed, so a record solved
        # at the same point on other kernel data is refused
        t, x, y = 0.5, 1.2, 0.8
        sol = solve_dmul_dx(CTOperator.build(ref02[1], t, x, y))
        op = CTOperator.build(ref05[1], t, x, y)
        with pytest.raises(ValueError, match="other kernel data"):
            eval_u2(op, sol)
        assert np.isfinite(eval_u2(op, solve_dmul_dx(op)))


# reaches past the last source sample (7.875) to the source edge 8
EDGE_WINDOW = Grid1D(-8.0, 8.0, 256)
# the same window on 512 points
EDGE_WINDOW_512 = Grid1D(-8.0, 8.0, 512)
# a decay-ray probe (x / t = -12) whose resolution grid is 2048 points
DECAY_PROBE_2048 = (30.0, -360.0, 0.0)
# a wide window with more than 120 knot intervals
WIDE_1024 = Grid1D(-7.875, 7.875, 1024)
# a grid coarser than its source's knot spacing: some knot intervals
# hold no fine point
COARSE_SOURCE = Grid1D(-4.0, 4.0, 1024)
COARSE_FINE = Grid1D(-3.5, 3.5, 512)


def coarse_refinement():
    """A band-route refinement of smooth synthetic kernels on a source
    finer than the probe grid, so no direct map runs; the band's table
    then has rows that hold no point."""
    assert COARSE_FINE.spacing > COARSE_SOURCE.spacing
    assert COARSE_FINE != FLOOR_GRID
    k, l = np.meshgrid(COARSE_SOURCE.points, COARSE_SOURCE.points,
                       indexing="ij")
    t1 = np.exp(-(k * k + l * l) / 8) * (1 + 0.5j * np.sin(k - 2 * l))
    plus = np.exp(-(k - l) ** 2 / 4 - (k + l) ** 2 / 16) \
        * (0.3 + 1j * np.cos(k + l))
    minus = np.exp(-(k * k + 2 * l * l) / 6) * (np.sin(k * l) - 0.2j)
    m = COARSE_SOURCE.n
    src = ScatteringData(
        scattering._triangle_weights(m, +1) * (plus + t1),
        scattering._triangle_weights(m, -1) * (minus + t1), t1,
        ScatteringGrids(COARSE_SOURCE, Grid1D(-4.0, 4.0, 8)), {})
    res = resample_scattering_data(src, COARSE_FINE)
    assert np.bincount(res._band.first).min() == 0
    return res


def assert_products_match_dense(res):
    """Both families' products against the dense reference arrays, on one
    row (the solves), two (derivative, eval_u1) and three (eval_u2): the
    plus family is the first row of products, the minus family the first
    less the second."""
    n = res.grids.n_kl
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    for g in (rows[0], rows[:2], rows):
        p = res.products(g)
        for got, kernel in ((p[0], res.T_plus), (p[0] - p[1], res.T_minus)):
            want = g @ kernel.T
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestFactoredKernels:
    """resample_scattering_data's factored kernels against their dense
    reference arrays and the bispev values."""

    @pytest.mark.parametrize("grid", [ray_resolution_grid(0.0, 1.0, 0.5),
                                      ray_resolution_grid(*FINE_PROBE),
                                      ray_resolution_grid(*DECAY_PROBE_2048),
                                      EDGE_WINDOW, EDGE_WINDOW_512,
                                      WIDE_1024],
                             ids=["floor256", "probe1024", "probe2048",
                                  "edge256", "edge512", "wide1024"])
    def test_products_match_reference_arrays(self, ref05, grid):
        _, data = ref05
        assert_products_match_dense(
            resample_scattering_data(dataclasses.replace(data), grid))

    def test_empty_knot_intervals(self):
        assert_products_match_dense(coarse_refinement())

    def test_minus_family_takes_non_contiguous_rows(self, fine1024):
        # the band route gathers its input into its table with take, and
        # the minus family comes from the same pass: views give the
        # products of their contiguous copies
        rng = np.random.default_rng(7)
        a = rng.standard_normal((fine1024.grids.n_kl, 6)) * (1 + 2j)
        for view in (a[::-1, 0], a[:, ::2].T, a.T[::-1, ::-1][:2]):
            assert not view.flags.c_contiguous
            assert np.array_equal(fine1024.products(view),
                                  fine1024.products(view.copy()))

    def test_edge_window_matches_bispev(self, ref05):
        # fitpack holds the spline constant past the last sample; the
        # factored form clips to the knot interval (measured 3e-16)
        _, data = ref05
        assert EDGE_WINDOW.max > data.grids.grid_kl.points[-1]
        res = resample_scattering_data(data, EDGE_WINDOW)
        want = resample_with_masks(data, EDGE_WINDOW)
        dense = dense_data(res)
        for name, w in zip(("T_plus", "T_minus", "T1"), want):
            got = getattr(dense, name)
            assert np.max(np.abs(got - w)) <= 1e-14 * np.max(np.abs(w))

    def test_reconstruct_matches_dense_arrays(self, fine1024):
        t, x, y = FINE_PROBE
        dense = dense_data(fine1024)
        a = reconstruct(fine1024, t, x, y)
        b = reconstruct(dense, t, x, y)
        for name in ("u", "u1", "u2"):
            want = getattr(b, name)
            assert abs(getattr(a, name) - want) <= 1e-12 * abs(want)

    def test_route_follows_grid(self, ref05, monkeypatch):
        # the floor grid applies its product arrays; every other grid,
        # a 256-point one on a wider window too, evaluates no dense block
        # on the probe path: every family block of SplineKernels._dense
        # takes its diagonal weights from _triangle_weights, which the
        # band route never calls
        _, data = ref05
        src = dataclasses.replace(data)
        t, x, y = 0.5, 1.0, 0.5
        for grid, dense in ((FLOOR_GRID, True),
                            (Grid1D(-2.0, 2.0, 256), False),
                            (Grid1D(-2.0, 2.0, 512), False)):
            fine = resample_scattering_data(src, grid)
            if not dense:
                monkeypatch.setattr(reconstruct_module, "_triangle_weights",
                                    lambda *a: pytest.fail("dense block"))
            assert np.isfinite(reconstruct(fine, t, x, y).u)
            assert ("T_plus" in vars(fine)) is dense
            assert ("T_minus" in vars(fine)) is dense
            assert "T1" not in vars(fine)

    def test_fit_runs_once_per_source(self, ref05, monkeypatch):
        _, data = ref05
        src = dataclasses.replace(data)  # same arrays, nothing cached
        calls = []
        real = scattering.RectBivariateSpline
        monkeypatch.setattr(scattering, "RectBivariateSpline",
                            lambda *a: calls.append(1) or real(*a))
        first = resample_scattering_data(src, Grid1D(-1.5, 1.5, 256))
        resample_scattering_data(src, Grid1D(-2.0, 2.0, 1024))
        first.products(np.ones(256))
        # real and imaginary parts of T1 and of both remainders
        assert len(calls) == 6
        assert src.spline_fit is src.spline_fit

    def test_window_refused_before_fit(self, ref05, monkeypatch):
        _, data = ref05
        src = dataclasses.replace(data)
        calls = []
        monkeypatch.setattr(scattering, "RectBivariateSpline",
                            lambda *a: calls.append(1))
        with pytest.raises(ValueError, match="inside"):
            resample_scattering_data(src, Grid1D(-16.0, 16.0, 64))
        assert calls == []
        assert "spline_fit" not in vars(src)

    def test_probe_memory_is_linear_in_grid(self, ref05):
        # a dense fine kernel alone would take n^2 * 16 B = 256 MiB
        # (measured peak: 5.2 MB)
        _, data = ref05
        src = dataclasses.replace(data)
        t, x, y = 50.0, -600.0, 0.0
        grid = ray_resolution_grid(t, x, y)
        assert grid.n == 4096
        tracemalloc.start()
        try:
            fine = resample_scattering_data(src, grid)
            sample = reconstruct(fine, t, x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(sample.u)
        assert peak < 10 * 2 ** 20


class TestPairProducts:
    """The band route's kernel data products: both rows the solves
    consume, [T_plus g, T_plus g - T_minus g], from one pass of suffix
    sums, against full products with the dense reference arrays
    (SplineKernels._dense)."""

    @staticmethod
    def assert_pairs_match_dense(res):
        n = res.grids.n_kl
        assert res.grids.grid_kl != FLOOR_GRID
        rng = np.random.default_rng(17)
        rows = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
        plus = rows @ res.T_plus.T
        want = np.stack([plus, plus - rows @ res.T_minus.T])
        for k in (1, 3, 5):
            got = res.products(rows[:k])
            assert got.shape == (2, k, n)
            for part in (0, 1):
                err = np.max(np.abs(got[part] - want[part, :k]))
                assert err <= 1e-13 * np.max(np.abs(want[part, :k]))
            # each row is its own sum: stacked with others or alone, bit
            # for bit
            for i in range(k):
                assert np.array_equal(got[:, i], res.products(rows[i]))

    def test_window_at_the_source_edge(self, ref05):
        # fitpack's interpolating knots skip the second and the
        # second-to-last samples, so the end intervals are twice as wide
        _, data = ref05
        res = resample_scattering_data(dataclasses.replace(data),
                                       EDGE_WINDOW_512)
        lens = np.bincount(res._band.first)
        assert lens[0] >= 1.8 * np.median(lens)
        assert lens[-1] >= 1.8 * np.median(lens)
        self.assert_pairs_match_dense(res)

    def test_grid_coarser_than_the_knots(self):
        self.assert_pairs_match_dense(coarse_refinement())

    def test_decay_grid(self, ref05):
        _, data = ref05
        self.assert_pairs_match_dense(resample_scattering_data(
            dataclasses.replace(data), ray_resolution_grid(*DECAY_PROBE_2048)))


def assert_factors_match_reference(res):
    """A refinement's band factors, sliced from its source's tables,
    against the factors gathered for its grid alone: to 1e-15 of each
    factor's largest entry, and of its largest term for half_diag, whose
    terms cancel (to 1/8 of their size here, 1/300 on the bench data).
    Measured: at most 2.8e-16 for near and 2.6e-16 for half_diag; vals,
    strict and local bit for bit equal. Each is a C-contiguous copy, as
    the pair's broadcast products need."""
    got = res._factors
    want = band_factors(res._band, res._coeffs[+1], res._coeffs[-1])
    terms = np.abs(want[0] * want[1])
    for name, a, b in zip(("near", "vals", "half_diag", "strict", "local"),
                          got, want):
        assert a.shape == b.shape, name
        assert a.flags.c_contiguous, name
        scale = np.max(terms if name == "half_diag" else np.abs(b))
        assert np.max(np.abs(a - b)) <= 1e-15 * scale, name


class TestBandTables:
    """A refinement's band factors are slices of one set of tables per
    source (reconstruct._band_tables), built once and kept with it,
    against the per-grid reference (reference.band_factors)."""

    @pytest.mark.parametrize("grid", [Grid1D(-2.0, 2.0, 256),
                                      Grid1D(-2.0, 2.0, 512),
                                      ray_resolution_grid(*FINE_PROBE),
                                      ray_resolution_grid(*DECAY_PROBE_2048),
                                      EDGE_WINDOW],
                             ids=["wide256", "band512", "probe1024",
                                  "probe2048", "edge256"])
    def test_factors_match_reference(self, ref05, grid):
        _, data = ref05
        assert_factors_match_reference(
            resample_scattering_data(dataclasses.replace(data), grid))

    def test_grid_coarser_than_the_knots(self):
        assert_factors_match_reference(coarse_refinement())

    def test_tables_built_once_per_source(self, ref05, monkeypatch):
        _, data = ref05
        src = dataclasses.replace(data)
        calls = []
        real = reconstruct_module._band_tables
        monkeypatch.setattr(reconstruct_module, "_band_tables",
                            lambda *a: calls.append(1) or real(*a))
        resample_scattering_data(src, Grid1D(-2.0, 2.0, 256))
        tables = vars(src)["_band_tables"]
        resample_scattering_data(src, Grid1D(-3.0, 3.0, 1024))
        assert len(calls) == 1
        assert vars(src)["_band_tables"] is tables
        # the floor grid takes dense products and builds no tables
        floor = dataclasses.replace(data)
        resample_scattering_data(floor, FLOOR_GRID).products(
            np.ones(FLOOR_GRID.n))
        assert len(calls) == 1
        assert "_band_tables" not in vars(floor)

    def test_copy_starts_without_tables(self, ref05):
        _, data = ref05
        src = dataclasses.replace(data)
        resample_scattering_data(src, Grid1D(-2.0, 2.0, 512))
        assert "_band_tables" in vars(src)
        copy = dataclasses.replace(src)
        assert "_band_tables" not in vars(copy)
        resample_scattering_data(copy, Grid1D(-2.0, 2.0, 512))
        assert vars(copy)["_band_tables"] is not vars(src)["_band_tables"]


# five probe points on one grid whose series stop after different numbers
# of terms (8 to 11 for mu and dmu together on both routes)
STACK_POINTS = [(0.5, 1.0, 0.5), (0.2, -2.0, 1.0), (1.0, 0.0, 0.0),
                (0.1, 3.0, -2.0), (2.0, 0.5, 0.3)]


class TestStackedProbes:
    """A set of probe points on one kernel data solved as one stack
    (reconstruct_points) against the same points solved one at a time:
    each row keeps its own series, so the answers agree to rounding."""

    @pytest.mark.parametrize("grid", [Grid1D(-1.5, 1.5, 256),
                                      Grid1D(-2.0, 2.0, 512)],
                             ids=["dense256", "band512"])
    def test_stack_matches_single_probes(self, ref05, monkeypatch, grid):
        _, data = ref05
        fine = resample_scattering_data(dataclasses.replace(data), grid)
        records = []

        def recording(*args, **kwargs):
            records.append(solve_dmul_dx(*args, **kwargs))
            return records[-1]

        monkeypatch.setattr(reconstruct_module, "solve_dmul_dx", recording)
        stacked = reconstruct_points(fine, STACK_POINTS)
        # one solve for the whole set
        (record,) = records
        singles = [reconstruct(fine, *p) for p in STACK_POINTS]
        rows = records[1:]
        assert len(rows) == len(STACK_POINTS)
        assert len({r.iterations for r in rows}) > 1
        # the record of a stack: its rows' total terms and largest
        # residuals, which the benchmark's residual check reads
        assert record.iterations == sum(r.iterations for r in rows)
        assert record.residual_mu == max(r.residual_mu for r in rows)
        assert record.residual_dmu == max(r.residual_dmu for r in rows)
        assert record.mu_minus_1.shape == (len(STACK_POINTS), grid.n)
        for a, b in zip(stacked, singles):
            assert (a.point, a.region) == (b.point, b.region)
            assert a.u == a.u1 + a.u2
            # measured bit for bit equal on both routes
            for name in ("u", "u1", "u2"):
                got, want = getattr(a, name), getattr(b, name)
                assert abs(got - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("grid", [FLOOR_GRID, Grid1D(-2.0, 2.0, 256)],
                             ids=["floor256", "band256"])
    def test_reconstruct_is_its_row_of_a_stack(self, ref05, grid):
        # one point is the stack with P = 1: it takes the path of every
        # row of a three-point stack, and the field terms are arrays over
        # the rows in both
        _, data = ref05
        fine = resample_scattering_data(dataclasses.replace(data), grid)
        points = STACK_POINTS[:3]
        assert eval_u1(CTOperator.build(fine, *points[0])).shape == (1,)
        assert eval_u1(CTOperator.build(fine, *zip(*points))).shape == (3,)
        for p, a in zip(points, reconstruct_points(fine, points)):
            b = reconstruct(fine, *p)
            assert (a.point, a.region) == (b.point, b.region)
            for name in ("u", "u1", "u2"):
                got, want = getattr(a, name), getattr(b, name)
                assert abs(got - want) <= 1e-14 * abs(want)

    def test_one_point_is_reconstruct(self, ref05):
        _, data = ref05
        t, x, y = STACK_POINTS[0]
        (sample,) = reconstruct_points(data, [(t, x, y)])
        assert repr(sample) == repr(reconstruct(data, t, x, y))
        assert reconstruct_points(data, []) == []


class TestRefinementCache:
    """A source keeps its last REFINED_PER_SOURCE refinements by grid."""

    def test_same_grid_same_object(self, ref05):
        _, data = ref05
        src = dataclasses.replace(data)
        a = resample_scattering_data(src, Grid1D(-1.5, 1.5, 256))
        assert resample_scattering_data(src, Grid1D(-1.5, 1.5, 256)) is a
        b = resample_scattering_data(src, Grid1D(-2.0, 2.0, 256))
        assert b is not a
        assert resample_scattering_data(src, Grid1D(-1.5, 1.5, 256)) is a
        # a copy of the source starts with an empty cache
        assert resample_scattering_data(
            dataclasses.replace(src), Grid1D(-1.5, 1.5, 256)) is not a

    def test_cached_refinement_matches_fresh(self, ref05):
        _, data = ref05
        src = dataclasses.replace(data)
        t, x, y = 0.5, 1.0, 0.5
        grid = ray_resolution_grid(t, x, y)
        cached = resample_scattering_data(src, grid)
        first = reconstruct(cached, t, x, y)
        # the second probe reads the cached refinement
        again = reconstruct(resample_scattering_data(src, grid), t, x, y)
        fresh = reconstruct(SplineKernels(src, grid), t, x, y)
        assert repr(again) == repr(fresh) == repr(first)

    def test_least_recently_used_is_rebuilt(self, ref05, monkeypatch):
        _, data = ref05
        src = dataclasses.replace(data)
        built = []

        def counting(source, grid):
            built.append(grid)
            return SplineKernels(source, grid)

        monkeypatch.setattr(reconstruct_module, "SplineKernels", counting)
        grids = [Grid1D(-1.0 - 0.125 * i, 1.0 + 0.125 * i, 64)
                 for i in range(REFINED_PER_SOURCE + 1)]
        for g in grids:
            resample_scattering_data(src, g)
        assert built == grids
        # the oldest was dropped when the last came in; a kept grid used
        # again outlives the ones kept since
        resample_scattering_data(src, grids[1])
        resample_scattering_data(src, grids[0])
        resample_scattering_data(src, grids[1])
        assert built == grids + [grids[0]]
        resample_scattering_data(src, grids[2])
        assert built == grids + [grids[0], grids[2]]

    def test_full_cache_memory_is_bounded(self, ref05):
        # wide 1024-point refinements, the largest the probe path holds
        # per entry (measured 8.0 MiB for the 8 kept entries and the
        # source's band tables, 0.74 MiB, which the first one builds)
        _, data = ref05
        src = dataclasses.replace(data)
        src.spline_fit  # the fit belongs to the source, not the cache
        tracemalloc.start()
        try:
            for i in range(REFINED_PER_SOURCE + 2):
                half = 7.875 - 0.125 * i
                resample_scattering_data(src, Grid1D(-half, half, 1024))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(vars(src)["_refined"]) == REFINED_PER_SOURCE
        assert held < 12 * 2 ** 20

    def test_full_cache_of_dense_refinements_is_bounded(self, ref05):
        # 256-point refinements, the floor grid last: a read floor grid
        # holds its two product arrays, 2 MB, and the others band factors
        # of 0.1-0.2 MB (measured 3.9 MiB for the 8 kept entries and the
        # source's band tables; 16.9 MB when every 256-point grid formed
        # dense arrays)
        _, data = ref05
        src = dataclasses.replace(data)
        src.spline_fit
        rows = np.ones((3, 256), dtype=complex)
        tracemalloc.start()
        try:
            for i in range(REFINED_PER_SOURCE + 2):
                half = 1.5 + 0.125 * (REFINED_PER_SOURCE + 1 - i)
                fine = resample_scattering_data(src, Grid1D(-half, half, 256))
                fine.products(rows)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(vars(src)["_refined"]) == REFINED_PER_SOURCE
        assert "T_plus" in vars(fine)
        assert held < 6 * 2 ** 20
