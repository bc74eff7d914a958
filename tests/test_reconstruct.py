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
from kpist.grids import (
    ConditionsReport,
    Grid1D,
    PotentialField,
    make_test_potential,
    partial_fourier_x,
)
from kpist.scattering import (
    ScatteringData,
    ScatteringGrids,
    _fill_across_diagonal,
    assemble_T,
    resample_transform,
    solve_mu_sharp,
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
    linear_field,
    linear_kp,
    linear_kp_crosscheck,
    ray_resolution_grid,
    reconstruct,
    resample_scattering_data,
    working_data,
)

WORK_KL = Grid1D(-8.0, 8.0, 128)
WORK_Y = Grid1D(-8.0, 8.0, 128)
FIELD_GRID = Grid1D(-32.0, 32.0, 256)


def build_reference(eps, grid_kl=WORK_KL, grid_y=WORK_Y):
    field = make_test_potential("gaussian_dx", eps, 1.0, FIELD_GRID, FIELD_GRID)
    pt = partial_fourier_x(field)
    wg = ScatteringGrids(grid_kl, grid_y)
    ut = resample_transform(pt, wg)
    mu_p = solve_mu_sharp(ut, +1, wg)
    mu_m = solve_mu_sharp(ut, -1, wg)
    return field, assemble_T(mu_p, mu_m, ut, wg)


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
def ref05():
    return build_reference(0.05)


@pytest.fixture(scope="module")
def ref02():
    return build_reference(0.02)


@pytest.fixture(scope="module")
def ref01():
    return build_reference(0.01)


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

    def test_failed_conditions_rejected(self, ref05):
        _, data = ref05
        bad = ConditionsReport(c=2.0, c_tilde=2.0, w_norm=1.0,
                               e1w_norm=1.0, passed=False)
        with pytest.raises(ValueError):
            reconstruct(data, 0.0, 1.0, 0.5, conditions=bad)

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

    def test_silent_on_resolved_probes(self, ref05):
        field, data = ref05
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x, y, _ in core_probes(field):
                eval_u1(CTOperator.build(data, 0.0, x, y))

    def test_fires_on_coarse_late_time(self, ref05):
        _, data = ref05
        with pytest.warns(RuntimeWarning, match="oscillatory weight"):
            eval_u1(CTOperator.build(data, 25.0, -75.0, 0.0))

    def test_silent_after_refinement(self, ref05):
        _, data = ref05
        g = ray_resolution_grid(25.0, -75.0, 0.0)
        fine = resample_scattering_data(data, g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eval_u1(CTOperator.build(fine, 25.0, -75.0, 0.0))

    def test_zero_kernel_no_flag(self):
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
        fine = working_data(data, ray_resolution_grid(0.5, x, y))
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
        for name in ("T_plus", "T_minus", "T1"):
            a, b = getattr(res, name), getattr(direct, name)
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
        assert np.max(np.abs(res.T1[diag, diag])) <= \
            1e-10 * np.max(np.abs(res.T1))

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
    """u1 and u2 as double sums with the combined kernel formed."""
    f = family_kernel(base, +1) + family_kernel(base, -1)
    pts = base.grids.grid_kl.points
    dl = base.grids.grid_kl.spacing
    phi = phase_weights(pts, t, x, y)
    e_l = np.exp(1j * phi)
    e_k = np.exp(-1j * phi)
    u1 = (1j / np.pi) * dl * dl * (e_k @ (f @ (pts * e_l))
                                   - (pts * e_k) @ (f @ e_l))
    g_mu = rhp.mu_minus_1 * e_l
    g_dmu = rhp.dmu_dx * e_l
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
        rem = stored - data.mask(sign) * data.T1
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
            assert abs(eval_u1(op) - want1) <= 1e-13 * abs(want1)
            assert abs(eval_u2(op, sol) - want2) <= 1e-13 * abs(want2)

    def test_cached_column_max_is_exact(self, ref05, fine1024):
        _, data = ref05
        for base in (data, fine1024):
            want = np.max(np.abs(base.T_plus - base.T_minus), axis=0)
            assert np.array_equal(base.combined_colmax, want)
            assert base.combined_colmax is base.combined_colmax

    def test_in_place_triangle_weights_match_masks(self, ref05, fine1024):
        # the reference arrays of the factored kernels against the bispev
        # values with full-mask triangle weights (measured 6e-16)
        _, data = ref05
        want = resample_with_masks(data, fine1024.grids.grid_kl)
        for name, w in zip(("T_plus", "T_minus", "T1"), want):
            got = getattr(fine1024, name)
            assert np.max(np.abs(got - w)) <= 1e-14 * np.max(np.abs(w))
        n = fine1024.grids.n_kl
        d = np.arange(n)[None, :] - np.arange(n)[:, None]
        assert np.all(fine1024.T_plus[d < 0] == 0.0)
        assert np.all(fine1024.T_minus[d > 0] == 0.0)

    def test_working_data_resamples_only_off_grid(self, ref05):
        _, data = ref05
        assert working_data(data, Grid1D(-8.0, 8.0, 128)) is data
        res = working_data(data, Grid1D(-4.0, 4.0, 128))
        assert res.grids.grid_kl == Grid1D(-4.0, 4.0, 128)
        assert res.meta["resampled_from_n"] == 128


# reaches past the last source sample (7.875) to the source edge 8
EDGE_WINDOW = Grid1D(-8.0, 8.0, 256)


class TestFactoredKernels:
    """resample_scattering_data's factored kernels against their dense
    reference arrays and the bispev values."""

    @pytest.mark.parametrize("grid", [ray_resolution_grid(0.0, 1.0, 0.5),
                                      ray_resolution_grid(*FINE_PROBE),
                                      EDGE_WINDOW],
                             ids=["floor256", "probe1024", "edge256"])
    def test_products_match_reference_arrays(self, ref05, grid):
        _, data = ref05
        res = resample_scattering_data(data, grid)
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((3, grid.n)) + 1j * rng.standard_normal((3, grid.n))
        for sign, kernel in ((+1, res.T_plus), (-1, res.T_minus)):
            for g in (rows[0], rows):
                got, want = res.apply(sign, g), g @ kernel.T
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= \
                    1e-13 * np.max(np.abs(want))

    def test_edge_window_matches_bispev(self, ref05):
        # fitpack holds the spline constant past the last sample; the
        # factored form clips to the knot interval (measured 3e-16)
        _, data = ref05
        assert EDGE_WINDOW.max > data.grids.grid_kl.points[-1]
        res = resample_scattering_data(data, EDGE_WINDOW)
        want = resample_with_masks(data, EDGE_WINDOW)
        for name, w in zip(("T_plus", "T_minus", "T1"), want):
            got = getattr(res, name)
            assert np.max(np.abs(got - w)) <= 1e-14 * np.max(np.abs(w))

    def test_reconstruct_matches_dense_arrays(self, fine1024):
        t, x, y = FINE_PROBE
        dense = ScatteringData(fine1024.T_plus, fine1024.T_minus, fine1024.T1,
                               fine1024.grids, dict(fine1024.meta))
        a = reconstruct(fine1024, t, x, y)
        b = reconstruct(dense, t, x, y)
        for name in ("u", "u1", "u2"):
            want = getattr(b, name)
            assert abs(getattr(a, name) - want) <= 1e-12 * abs(want)

    def test_fit_runs_once_per_source(self, ref05, monkeypatch):
        _, data = ref05
        src = dataclasses.replace(data)  # same arrays, nothing cached
        calls = []
        real = scattering.RectBivariateSpline
        monkeypatch.setattr(scattering, "RectBivariateSpline",
                            lambda *a: calls.append(1) or real(*a))
        first = resample_scattering_data(src, Grid1D(-1.5, 1.5, 256))
        resample_scattering_data(src, Grid1D(-2.0, 2.0, 1024))
        first.apply(+1, np.ones(256))
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
        # (measured peak: about 27 MB)
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
        assert peak < 128 * 2 ** 20


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
        # the second probe reads the cached band factors and column max
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
        # wide 1024-point refinements with their column maxima, the
        # largest the probe path holds per entry (measured about 7 MB)
        _, data = ref05
        src = dataclasses.replace(data)
        src.spline_fit  # the fit belongs to the source, not the cache
        tracemalloc.start()
        try:
            for i in range(REFINED_PER_SOURCE + 2):
                half = 7.875 - 0.125 * i
                fine = resample_scattering_data(src,
                                                Grid1D(-half, half, 1024))
                fine.combined_colmax
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(vars(src)["_refined"]) == REFINED_PER_SOURCE
        assert held < REFINED_PER_SOURCE * 10 * 2 ** 20
