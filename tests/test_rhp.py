"""Projection, operator, and solve tests for the nonlocal inverse step.

Numeric windows are frozen from calibration runs on the reference
derivative-of-gaussian profile; grids are the 128-point working pair on
[-8, 8]^2 resampled from a 256-point field box unless a test says
otherwise.
"""

import tracemalloc

import numpy as np
import pytest

from kpist.grids import (
    ConditionsReport,
    Grid1D,
    check_conditions,
    make_test_potential,
    partial_fourier_x,
)
from kpist.scattering import (
    ScatteringData,
    ScatteringGrids,
    assemble_T,
    resample_transform,
    solve_mu_sharp,
)
from kpist.reconstruct import (ray_resolution_grid, reconstruct,
                               resample_scattering_data)
from kpist.rhp import (
    CTOperator,
    adjoint_identity_check,
    cauchy_project,
    derivative_data,
    family_kernel,
    phase_weights,
    solve_dmul_dx,
    solve_mul,
    weighted_l2,
    _neumann,
)


def build_reference(eps, n_kl=128, n_y=128, field_n=256):
    gx = Grid1D(-32.0, 32.0, field_n)
    field = make_test_potential("gaussian_dx", eps, 1.0, gx, gx)
    pt = partial_fourier_x(field)
    wg = ScatteringGrids(Grid1D(-8.0, 8.0, n_kl), Grid1D(-8.0, 8.0, n_y))
    ut = resample_transform(pt, wg)
    mu_p = solve_mu_sharp(ut, +1, wg)
    mu_m = solve_mu_sharp(ut, -1, wg)
    return assemble_T(mu_p, mu_m, ut, wg), check_conditions(field, pt)


def zero_data(grids: ScatteringGrids) -> ScatteringData:
    z = np.zeros((grids.n_kl, grids.n_kl), dtype=complex)
    return ScatteringData(z.copy(), z.copy(), z.copy(), grids, {})


@pytest.fixture(scope="module")
def ref05():
    return build_reference(0.05)


@pytest.fixture(scope="module")
def ref02():
    data, _ = build_reference(0.02)
    return data


@pytest.fixture(scope="module")
def ref_cal():
    # amplitude used to calibrate the quadratic-response coefficient
    data, _ = build_reference(1e-2)
    return data


def apply_family(sign, base, t, x, y, f):
    """One triangular family with its oscillatory weight at (t, x, y)."""
    return CTOperator.build(base, t, x, y).kernel_apply(sign, f)


def random_band_limited(rng, n, band=24):
    spec = np.zeros(n, dtype=complex)
    lo = rng.standard_normal(band) + 1j * rng.standard_normal(band)
    hi = rng.standard_normal(band) + 1j * rng.standard_normal(band)
    spec[:band] = lo
    spec[-band:] = hi
    return np.fft.ifft(spec)


class TestCauchyProject:
    def test_plemelj_difference_is_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = random_band_limited(rng, 512)
            recon = cauchy_project(f, +1) - cauchy_project(f, -1)
            assert np.max(np.abs(recon - f)) <= 1e-12 * np.max(np.abs(f))

    def test_projections_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = random_band_limited(rng, 256)
            p = cauchy_project(f, +1)
            m = cauchy_project(f, -1)
            assert np.max(np.abs(cauchy_project(p, +1) - p)) <= 1e-12
            assert np.max(np.abs(cauchy_project(m, -1) + m)) <= 1e-12

    def test_sign_validation(self):
        with pytest.raises(ValueError):
            cauchy_project(np.ones(8), 0)

    def test_lower_pole_reproduced_with_window_law(self):
        # the plus projection keeps 1/(k + i) up to window truncation;
        # the truncation floor falls like 1/L at fixed sample spacing
        errs = {}
        for half, n in ((4096.0, 2 ** 17), (16384.0, 2 ** 19)):
            k = Grid1D(-half, half, n).points
            f = 1.0 / (k + 1j)
            diff = np.abs(cauchy_project(f, +1) - f)
            assert np.max(diff) <= 5.0 / half
            core = np.abs(k) <= half / 8.0
            interior = np.max(diff[core])
            assert 0.15 / half <= interior <= 0.25 / half
            errs[half] = interior
        assert 3.2 <= errs[4096.0] / errs[16384.0] <= 4.8

    def test_upper_pole_annihilated_to_window_mean(self):
        half, n = 16384.0, 2 ** 19
        k = Grid1D(-half, half, n).points
        f = 1.0 / (k - 1j)
        proj = cauchy_project(f, +1)
        assert np.max(np.abs(proj)) <= 10.0 / half
        # the residual is the periodized mean, kept whole by the
        # zero-frequency bin
        dc = np.mean(f)
        assert abs(dc - 1j * np.pi / (2.0 * half)) <= 0.01 * np.pi / (2.0 * half)

    def test_second_power_poles_reach_tight_tolerance(self):
        half, n = 32768.0, 2 ** 20
        k = Grid1D(-half, half, n).points
        f_lower = 1.0 / (k + 1j) ** 2
        err_keep = np.max(np.abs(cauchy_project(f_lower, +1) - f_lower))
        assert err_keep <= 1e-8
        f_upper = 1.0 / (k - 1j) ** 2
        err_kill = np.max(np.abs(cauchy_project(f_upper, +1)))
        assert err_kill <= 1e-8


class TestPhaseAndEvolvedData:
    def test_phase_weights_closed_form(self):
        s = np.array([-1.5, 0.0, 0.25, 2.0])
        got = phase_weights(s, 0.7, 1.1, -0.3)
        want = 1.1 * s + 0.3 * s ** 2 + 2.8 * s ** 3
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_negative_time_rejected(self, ref05):
        data, _ = ref05
        with pytest.raises(ValueError, match="nonnegative"):
            CTOperator.build(data, -0.1, 0.0, 0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            reconstruct(data, -0.1, 0.0, 0.0)

    @pytest.mark.parametrize("point", [(np.nan, 0.0, 0.0),
                                       (1.0, np.inf, 0.0),
                                       (1.0, 0.0, -np.inf)])
    def test_non_finite_point_rejected(self, ref05, point):
        data, _ = ref05
        for call in (CTOperator.build, reconstruct):
            with pytest.raises(ValueError, match="not finite") as err:
                call(data, *point)
            assert str(tuple(float(v) for v in point)) in str(err.value)
            assert "fine grid must lie inside" not in str(err.value)

    def test_evolution_preserves_kernel_magnitudes(self, ref05):
        data, _ = ref05
        j = 40
        e = np.zeros(data.grids.n_kl)
        e[j] = 1.0
        still = np.abs(apply_family(+1, data, 0.0, 0.4, -0.9, e))
        moved = np.abs(apply_family(+1, data, 7.3, 0.4, -0.9, e))
        assert np.max(np.abs(still - moved)) <= 1e-14


class TestApplyScriptT:
    def test_zero_kernel_gives_zero(self, ref05):
        data, _ = ref05
        out = apply_family(+1, zero_data(data.grids), 1.0, 0.3, 0.2,
                           np.ones(data.grids.n_kl))
        assert np.all(out == 0.0)

    def test_consumption_orientation_of_families(self, ref05):
        data, _ = ref05
        assert np.array_equal(family_kernel(data, +1), data.T_plus)
        assert np.array_equal(family_kernel(data, -1), -data.T_minus)
        with pytest.raises(ValueError):
            family_kernel(data, 0)

    def test_indicator_input_extracts_kernel_column(self, ref05):
        data, _ = ref05
        pts = data.grids.grid_kl.points
        dl = data.grids.grid_kl.spacing
        phi = phase_weights(pts, 0.5, 1.2, 0.8)
        for sign, kernel in ((+1, data.T_plus), (-1, -data.T_minus)):
            for j in (0, 31, 97):
                e = np.zeros(data.grids.n_kl)
                e[j] = 1.0
                got = apply_family(sign, data, 0.5, 1.2, 0.8, e)
                want = np.exp(-1j * phi) * kernel[:, j] * np.exp(1j * phi[j]) * dl
                assert np.max(np.abs(got - want)) <= 1e-14

    def test_linearity(self, ref05):
        data, _ = ref05
        rng = np.random.default_rng(3)
        n = data.grids.n_kl
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a = 0.7 - 0.2j
        lhs = apply_family(-1, data, 0.5, 0.1, 0.9, a * f + g)
        rhs = (a * apply_family(-1, data, 0.5, 0.1, 0.9, f)
               + apply_family(-1, data, 0.5, 0.1, 0.9, g))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_sign_validation(self, ref05):
        data, _ = ref05
        with pytest.raises(ValueError):
            apply_family(2, data, 0.0, 0.0, 0.0, np.ones(data.grids.n_kl))

    def test_hilbert_schmidt_bound_on_random_probes(self, ref05):
        data, _ = ref05
        dl = data.grids.grid_kl.spacing
        rng = np.random.default_rng(17)
        n = data.grids.n_kl
        for sign, kernel in ((+1, data.T_plus), (-1, data.T_minus)):
            hs = np.linalg.norm(kernel) * dl
            for _ in range(20):
                f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                out = apply_family(sign, data, 0.5, -0.8, 1.4, f)
                assert weighted_l2(out, dl) <= hs * weighted_l2(f, dl) * (1 + 1e-12)


class TestCTOperator:
    def test_zero_data_gives_zero_operator(self, ref05):
        data, _ = ref05
        op = CTOperator.build(zero_data(data.grids), 0.0, 0.0, 0.0)
        f = np.ones(data.grids.n_kl)
        assert np.all(op(f) == 0.0)
        assert op.norm() == 0.0

    def test_on_constant_matches_apply_to_ones(self, ref05):
        data, _ = ref05
        op = CTOperator.build(data, 0.5, 1.2, 0.8)
        assert np.array_equal(op.on_constant(), op(np.ones(data.grids.n_kl)))

    def test_norm_within_contraction_budget(self, ref05):
        data, report = ref05
        budget = 2.0 * report.w_norm / (1.0 - report.c)
        for t, x, y in [(0.0, 0.7, -0.4), (0.5, 1.2, 0.8), (5.0, 2.0, 1.0)]:
            sigma = CTOperator.build(data, t, x, y).norm()
            assert 0.015 <= sigma <= 0.05
            assert sigma <= budget
            assert sigma < 0.5

    @staticmethod
    def dense_jump_matrix(base, t, x, y):
        # P = C_plus A_minus + C_minus A_plus from the reference
        # definitions, A_sign = diag(e^{-i phi}) K_sign diag(e^{i phi}) dl;
        # the projections act along the last axis, so applied to the
        # identity they give their transposes
        pts = base.grids.grid_kl.points
        dl = base.grids.grid_kl.spacing
        phi = phase_weights(pts, t, x, y)
        eye = np.eye(len(pts))

        def family(sign):
            k = family_kernel(base, sign) * dl
            return np.exp(-1j * phi)[:, None] * k * np.exp(1j * phi)[None, :]

        return (cauchy_project(eye, +1).T @ family(-1)
                + cauchy_project(eye, -1).T @ family(+1))

    def test_norm_is_largest_singular_value(self, ref05):
        data, _ = ref05
        res = resample_scattering_data(data, Grid1D(-4.0, 4.0, 256))
        for base, (t, x, y) in ((data, (0.0, 0.7, -0.4)),
                                (data, (0.5, 1.2, 0.8)),
                                (res, (1.0, 0.3, 0.2))):
            want = np.linalg.norm(self.dense_jump_matrix(base, t, x, y), 2)
            got = CTOperator.build(base, t, x, y).norm()
            assert got == pytest.approx(want, rel=1e-12)

    def test_linearity(self, ref05):
        data, _ = ref05
        op = CTOperator.build(data, 0.5, 1.2, 0.8)
        rng = np.random.default_rng(5)
        n = data.grids.n_kl
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a = -0.4 + 1.1j
        assert np.max(np.abs(op(a * f + g) - a * op(f) - op(g))) <= 1e-12


def two_projection_reference(op, f):
    """op(f) and op.derivative(f) through two cauchy_project calls each."""
    pts = op.base.grids.grid_kl.points

    def gap(sign):
        a = op.kernel_apply(sign, np.stack([pts * f, f]))
        return 1j * (a[0] - pts * a[1])

    return (cauchy_project(op.kernel_apply(-1, f), +1)
            + cauchy_project(op.kernel_apply(+1, f), -1),
            cauchy_project(gap(-1), +1) + cauchy_project(gap(+1), -1))


class TestFusedProjection:
    """The one-FFT-pair application against the reference projections."""

    @pytest.mark.parametrize("refined", [False, True],
                             ids=["stored", "refined256"])
    def test_matches_two_projections(self, ref05, refined):
        data, _ = ref05
        base, (t, x, y) = data, (0.5, 1.2, 0.8)
        if refined:
            base = resample_scattering_data(data, Grid1D(-1.5, 1.5, 256))
            t, x, y = 1.0, 0.3, 0.2
        op = CTOperator.build(base, t, x, y)
        n = base.grids.n_kl
        rng = np.random.default_rng(9)
        rows = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        for f in (rows[0], rows):
            want, dwant = two_projection_reference(op, f)
            for got, ref in ((op(f), want), (op.derivative(f), dwant)):
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestSolveMu:
    def test_zero_data_solves_immediately(self, ref05):
        data, _ = ref05
        sol = solve_mul(CTOperator.build(zero_data(data.grids), 0.0, 0.0, 0.0))
        assert np.all(sol.mu_minus_1 == 0.0)
        assert sol.iterations == 1
        assert sol.residual_mu == 0.0

    def test_reference_solve_bound_and_residual(self, ref05):
        data, _ = ref05
        sol = solve_mul(CTOperator.build(data, 0.0, 0.7, -0.4))
        assert sol.residual_mu <= 1e-11
        assert 3 <= sol.iterations <= 7
        op = CTOperator.build(data, 0.0, 0.7, -0.4)
        dl = data.grids.grid_kl.spacing
        ratio = weighted_l2(sol.mu_minus_1, dl) / (2.0 * weighted_l2(op.on_constant(), dl))
        assert ratio <= 1.05
        assert 0.35 <= ratio <= 0.65

    def test_accumulation_ratios_stay_contractive(self, ref05):
        data, _ = ref05
        op = CTOperator.build(data, 0.5, 1.2, 0.8)
        _, _, ratios = _neumann(op, op.on_constant(), 1e-10, 200)
        assert ratios
        assert max(ratios) <= 0.55
        assert max(ratios) <= 0.1

    def test_quadratic_response_coefficient(self, ref_cal, ref02, ref05):
        # departure of mu - 1 from its leading term, normalized so the
        # coefficient is amplitude-independent; frozen at the
        # calibration amplitude, then required to persist at the two
        # working amplitudes
        frozen = {(0.0, 0.7, -0.4): 0.1993, (0.5, 1.2, 0.8): 0.3274}

        def coefficient(data, eps, probe):
            t, x, y = probe
            sol = solve_mul(CTOperator.build(data, t, x, y), tol=1e-12)
            op = CTOperator.build(data, t, x, y)
            dl = data.grids.grid_kl.spacing
            ct1 = weighted_l2(op.on_constant(), dl)
            return weighted_l2(sol.mu_minus_1 - op.on_constant(), dl) / (eps * ct1)

        for probe, k0 in frozen.items():
            k_cal = coefficient(ref_cal, 1e-2, probe)
            assert abs(k_cal - k0) <= 0.05 * k0
            data5, _ = ref05
            for data, eps in ((ref02, 0.02), (data5, 0.05)):
                k_eps = coefficient(data, eps, probe)
                assert 0.8 * k0 <= k_eps <= 1.2 * k0

    def test_failing_conditions_rejected(self, ref05):
        data, report = ref05
        bad = ConditionsReport(c=2.0, c_tilde=2.0, w_norm=1.0, e1w_norm=1.0,
                               passed=False)
        with pytest.raises(ValueError):
            solve_mul(CTOperator.build(data, 0.0, 0.0, 0.0), conditions=bad)
        solve_mul(CTOperator.build(data, 0.0, 0.0, 0.0), conditions=report)

    def test_determinism_bitwise(self, ref05):
        data, _ = ref05
        a = solve_mul(CTOperator.build(data, 0.5, 1.2, 0.8))
        b = solve_mul(CTOperator.build(data, 0.5, 1.2, 0.8))
        assert np.array_equal(a.mu_minus_1, b.mu_minus_1)
        assert a.residual_mu == b.residual_mu
        assert a.iterations == b.iterations


class TestSolveDmu:
    def test_zero_data_gives_zero_derivative(self, ref05):
        data, _ = ref05
        sol = solve_dmul_dx(CTOperator.build(zero_data(data.grids), 0.0, 0.0, 0.0))
        assert np.all(sol.dmu_dx == 0.0)

    def test_centered_difference_oracle(self, ref05):
        data, _ = ref05
        dl = data.grids.grid_kl.spacing
        x0 = 1.2
        full = solve_dmul_dx(CTOperator.build(data, 0.5, x0, 0.8), tol=1e-12)
        windows = {0.08: (2.4e-5, 4.0e-5), 0.04: (6.0e-6, 1.0e-5),
                   0.02: (1.5e-6, 2.5e-6)}
        errs = []
        for h, (lo, hi) in windows.items():
            up = solve_mul(CTOperator.build(data, 0.5, x0 + h, 0.8), tol=1e-12)
            dn = solve_mul(CTOperator.build(data, 0.5, x0 - h, 0.8), tol=1e-12)
            fd = (up.mu_minus_1 - dn.mu_minus_1) / (2.0 * h)
            err = weighted_l2(full.dmu_dx - fd, dl)
            assert lo <= err <= hi
            errs.append(err)
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_norm_bound_with_hilbert_schmidt_proxies(self, ref05):
        data, _ = ref05
        dl = data.grids.grid_kl.spacing
        pts = data.grids.grid_kl.points
        op = CTOperator.build(data, 0.5, 1.2, 0.8)
        full = solve_dmul_dx(op, tol=1e-12)
        dop = CTOperator.build(derivative_data(data), 0.5, 1.2, 0.8)
        gaps = pts[None, :] - pts[:, None]
        hs = (np.linalg.norm(gaps * data.T_plus) + np.linalg.norm(gaps * data.T_minus)) * dl
        bound = 2.0 * weighted_l2(dop.on_constant(), dl) \
            + 4.0 * hs * weighted_l2(op.on_constant(), dl)
        nrm = weighted_l2(full.dmu_dx, dl)
        assert nrm <= bound * 1.1
        assert 0.3 <= nrm / bound <= 0.6

    def test_residual_and_iteration_accounting(self, ref05):
        data, _ = ref05
        mu_only = solve_mul(CTOperator.build(data, 0.5, 1.2, 0.8))
        full = solve_dmul_dx(CTOperator.build(data, 0.5, 1.2, 0.8), mu=mu_only)
        assert full.residual_dmu <= 1e-11
        assert full.iterations > mu_only.iterations
        assert np.array_equal(full.mu_minus_1, mu_only.mu_minus_1)
        assert full.residual_mu == mu_only.residual_mu

    def test_derivative_kernels_are_gap_weighted(self, ref05):
        data, _ = ref05
        dbase = derivative_data(data)
        pts = data.grids.grid_kl.points
        factor = 1j * (pts[None, :] - pts[:, None])
        assert np.array_equal(dbase.T_plus, factor * data.T_plus)
        assert np.array_equal(dbase.T_minus, factor * data.T_minus)
        assert np.array_equal(dbase.T1, factor * data.T1)
        # triangular zero pattern survives the diagonal reweighting
        assert np.all(dbase.T_plus[data.T_plus == 0.0] == 0.0)


class TestSolutionContinuity:
    def test_lipschitz_in_x_within_derivative_budget(self, ref05):
        data, _ = ref05
        dl = data.grids.grid_kl.spacing
        pts = data.grids.grid_kl.points
        h = 0.1
        a = solve_mul(CTOperator.build(data, 0.5, 1.2, 0.8), tol=1e-12)
        b = solve_mul(CTOperator.build(data, 0.5, 1.2 + h, 0.8), tol=1e-12)
        step = weighted_l2(b.mu_minus_1 - a.mu_minus_1, dl)
        dop = CTOperator.build(derivative_data(data), 0.5, 1.2, 0.8)
        op = CTOperator.build(data, 0.5, 1.2, 0.8)
        gaps = pts[None, :] - pts[:, None]
        hs = (np.linalg.norm(gaps * data.T_plus) + np.linalg.norm(gaps * data.T_minus)) * dl
        budget = 2.0 * weighted_l2(dop.on_constant(), dl) \
            + 4.0 * hs * weighted_l2(op.on_constant(), dl)
        assert step <= budget * h


class TestAdjointIdentity:
    def test_zero_data_deviation_zero(self, ref05):
        data, _ = ref05
        assert adjoint_identity_check(zero_data(data.grids), 1.3, -0.8) == 0.0

    def test_reference_value_and_quadratic_scaling(self, ref02, ref05):
        data5, _ = ref05
        dev2 = adjoint_identity_check(ref02, 1.3, -0.8)
        dev5 = adjoint_identity_check(data5, 1.3, -0.8)
        assert 6.0e-8 <= dev2 <= 9.0e-8
        assert 5.5 <= dev5 / dev2 <= 7.0

    def test_deviation_independent_of_evaluation_point(self, ref02):
        a = adjoint_identity_check(ref02, 1.3, -0.8)
        b = adjoint_identity_check(ref02, -2.0, 0.55)
        assert abs(a - b) <= 1e-9 * a

    def test_deviation_quarters_when_y_resolution_doubles(self, ref02):
        fine, _ = build_reference(0.02, n_kl=128, n_y=256)
        coarse_dev = adjoint_identity_check(ref02, 1.3, -0.8)
        fine_dev = adjoint_identity_check(fine, 1.3, -0.8)
        ratio = fine_dev / coarse_dev
        assert ratio <= 0.6
        assert 0.15 <= ratio <= 0.40


# a decay-ray probe (x / t = -12) whose resolution grid is 1024 points on
# [-2, 2]: the large-n case of the copy-free operator
FINE_PROBE = (20.0, -240.0, 0.0)


@pytest.fixture(scope="module")
def fine1024(ref05):
    data, _ = ref05
    grid = ray_resolution_grid(*FINE_PROBE)
    assert grid.n == 1024
    return resample_scattering_data(data, grid)


class TestCopyFreeOperator:
    """The operator against the reference kernel definitions."""

    def test_derivative_matches_gap_weighted_reference(self, ref05, fine1024):
        data, _ = ref05
        for base, (t, x, y) in ((data, (0.5, 1.2, 0.8)),
                                (fine1024, FINE_PROBE)):
            op = CTOperator.build(base, t, x, y)
            dop = CTOperator.build(derivative_data(base), t, x, y)
            mu = solve_mul(op).mu_minus_1
            ones = np.ones(base.grids.n_kl)
            for f, want in ((ones, dop.on_constant()), (mu, dop(mu))):
                got = op.derivative(f)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_solve_dmu_forcing_is_derivative_of_full_unknown(self, ref05):
        data, _ = ref05
        op = CTOperator.build(data, 0.5, 1.2, 0.8)
        dl = data.grids.grid_kl.spacing
        sol = solve_dmul_dx(op, tol=1e-12)
        dop = CTOperator.build(derivative_data(data), 0.5, 1.2, 0.8)
        forcing = dop.on_constant() + dop(sol.mu_minus_1)
        resid = sol.dmu_dx - forcing - op(sol.dmu_dx)
        assert weighted_l2(resid, dl) <= 1e-11 * weighted_l2(sol.dmu_dx, dl)

    def test_no_kernel_sized_allocation(self, fine1024):
        t, x, y = FINE_PROBE
        n = fine1024.grids.n_kl
        op = CTOperator.build(fine1024, t, x, y)
        mu = solve_mul(op)
        f = np.ones(n, dtype=complex)
        tracemalloc.start()
        try:
            op(f)
            _, peak_apply = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            sol = solve_dmul_dx(op, mu=mu)
            _, peak_dmu = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sol.residual_dmu <= 1e-11
        assert peak_apply < n * n * 16
        assert peak_dmu < n * n * 16
