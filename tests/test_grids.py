"""Grid/transform layer: frozen analytic values and exact identities.

Oracle notes. For u = A * d/dx exp(-(x^2+y^2)/(2 w^2)) with w = 1:
    ut(l, y)   = A * i l * exp(-l^2/2) * exp(-y^2/2)
    uhat(p, q) = A * i p * exp(-(p^2+q^2)/2)
    c          = 2 A                      (exact, any width)
    w_norm     = A * pi^(1/4)             = 1.3313353638003897 * A
    c_tilde    = A * 3.3113590848375987   (adaptive quadrature, err < 2e-8)
    ||u||_L2   = A * sqrt(pi/2)           = 1.2533141373155001 * A
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpist.grids import (
    ConditionsReport,
    Grid1D,
    PotentialField,
    check_conditions,
    make_test_potential,
    partial_fourier_x,
)
from reference import full_fourier, inverse_partial_fourier_x


def std_grids(n=128, half=16.0):
    g = Grid1D(-half, half, n)
    return g, g


def reference_field(eps=0.05, n=128, half=16.0):
    gx, gy = std_grids(n, half)
    return make_test_potential("gaussian_dx", eps, 1.0, gx, gy)


class TestGrid1D:
    def test_points_layout(self):
        g = Grid1D(-8.0, 8.0, 16)
        assert g.spacing == 1.0
        assert g.points[0] == -8.0
        assert g.points[-1] == 7.0
        assert len(g.points) == 16

    def test_dual_matches_fft_frequencies(self):
        g = Grid1D(-16.0, 16.0, 64)
        freqs = np.fft.fftshift(2.0 * np.pi * np.fft.fftfreq(g.n, d=g.spacing))
        assert np.allclose(g.dual().points, freqs, rtol=0, atol=1e-14)
        assert g.dual().dual().spacing == pytest.approx(g.spacing, rel=1e-15)

    @pytest.mark.parametrize("bad", [(-8.0, 8.0, 12), (-8.0, 8.0, 4),
                                     (-8.0, 7.0, 16), (8.0, -8.0, 16)])
    def test_rejects_bad_grids(self, bad):
        with pytest.raises(ValueError):
            Grid1D(*bad)


class TestPartialTransform:
    def test_matches_analytic_gaussian_transform(self):
        eps = 0.05
        field = reference_field(eps)
        pt = partial_fourier_x(field)
        l = pt.grid_l.points[:, None]
        y = pt.grid_y.points[None, :]
        exact = eps * 1j * l * np.exp(-l**2 / 2.0) * np.exp(-y**2 / 2.0)
        assert np.max(np.abs(pt.values - exact)) < 1e-12 * eps

    def test_round_trip(self):
        field = reference_field()
        back = inverse_partial_fourier_x(partial_fourier_x(field))
        assert np.max(np.abs(back.imag)) < 1e-12
        assert np.max(np.abs(back.real - field.values)) < 1e-12

    def test_parseval(self):
        field = reference_field()
        pt = partial_fourier_x(field)
        a = np.sum(field.values**2) * field.grid_x.spacing * field.grid_y.spacing
        b = np.sum(np.abs(pt.values) ** 2) * pt.grid_l.spacing * pt.grid_y.spacing
        assert a == pytest.approx(b, rel=1e-10)

    def test_spectral_derivative_against_finite_difference(self):
        # il * ut inverts to du/dx; a centered difference of the sampled field
        # must agree to its own O(dx^2) accuracy (~0.05 * A here).
        eps = 0.05
        field = reference_field(eps)
        pt = partial_fourier_x(field)
        pt.values *= 1j * pt.grid_l.points[:, None]
        dudx = inverse_partial_fourier_x(pt).real
        x = field.grid_x.points[:, None]
        y = field.grid_y.points[None, :]
        exact = eps * (x**2 - 1.0) * np.exp(-(x**2 + y**2) / 2.0)
        assert np.max(np.abs(dudx - exact)) < 1e-10 * eps
        fd = (np.roll(field.values, -1, axis=0) - np.roll(field.values, 1, axis=0))
        fd /= 2.0 * field.grid_x.spacing
        interior = slice(1, -1)
        assert np.max(np.abs(fd[interior] - dudx[interior])) < 0.05 * eps


class TestFullFourier:
    def test_matches_analytic_2d_transform(self):
        eps = 0.05
        field = reference_field(eps)
        gp, gq, uhat = full_fourier(field)
        p = gp.points[:, None]
        q = gq.points[None, :]
        exact = eps * 1j * p * np.exp(-(p**2 + q**2) / 2.0)
        assert np.max(np.abs(uhat - exact)) < 1e-12 * eps


class TestConditions:
    def test_frozen_reference_values(self):
        # The |l| kink at the spectral origin leaves an O(dl^2) quadrature
        # defect (-dl^2/12 relative, from the Euler-Maclaurin boundary term);
        # dl = 0.196 here, so compare at 4e-3 and check the defect is
        # second order in the span below.
        eps = 0.05
        rep = check_conditions(reference_field(eps))
        assert rep.c == pytest.approx(2.0 * eps, rel=4e-3)
        assert rep.w_norm == pytest.approx(eps * 1.3313353638003897, rel=4e-3)
        assert rep.c_tilde == pytest.approx(eps * 3.3113590848375987, rel=4e-3)
        assert rep.e1w_norm > 0
        assert rep.passed

    def test_quadrature_defect_is_second_order_in_dual_spacing(self):
        eps = 0.05
        err = []
        for n, half in [(128, 16.0), (256, 32.0)]:
            rep = check_conditions(reference_field(eps, n=n, half=half))
            err.append(abs(rep.c - 2.0 * eps))
        assert err[1] / err[0] == pytest.approx(0.25, abs=0.05)

    def test_fails_for_large_amplitude(self):
        rep = check_conditions(reference_field(0.8))
        assert not rep.passed

    def test_rejects_nonzero_mean_data(self):
        gx, gy = std_grids()
        x = gx.points[:, None]
        y = gy.points[None, :]
        vals = np.exp(-(x**2 + y**2) / 2.0)  # even in x: nonzero mean
        with pytest.raises(ValueError):
            check_conditions(PotentialField(gx, gy, vals))

    @given(st.floats(min_value=0.01, max_value=0.99),
           st.floats(min_value=1.5, max_value=8.0))
    @settings(max_examples=20, deadline=None)
    def test_homogeneity(self, eps, scale):
        base = check_conditions(reference_field(eps, n=64, half=8.0))
        scaled = check_conditions(reference_field(eps * scale, n=64, half=8.0))
        for attr in ("c", "c_tilde", "w_norm", "e1w_norm"):
            assert getattr(scaled, attr) == pytest.approx(
                scale * getattr(base, attr), rel=1e-12
            )


class TestMakeTestPotential:
    def test_gaussian_dx_is_exactly_odd(self):
        field = reference_field()
        v = field.values
        assert np.array_equal(v[1:], -v[1:][::-1])
        assert field.x_mean_defect() < 1e-12

    def test_gaussian_dx_l2_norm(self):
        eps = 0.05
        field = reference_field(eps)
        assert field.l2_norm() == pytest.approx(eps * 1.2533141373155001, rel=1e-8)

    def test_cosine_packet_zero_mean(self):
        gx, gy = std_grids()
        field = make_test_potential("cosine_packet", 0.05, 1.0, gx, gy)
        assert field.x_mean_defect() < 1e-14

    def test_rejects_coarse_grid(self):
        g = Grid1D(-16.0, 16.0, 16)  # spacing 2: fewer than 8 points per width
        with pytest.raises(ValueError):
            make_test_potential("gaussian_dx", 0.05, 1.0, g, g)

    def test_rejects_unknown_kind(self):
        gx, gy = std_grids()
        with pytest.raises(ValueError):
            make_test_potential("mystery", 0.05, 1.0, gx, gy)

    def test_rejects_nonfinite_values(self):
        gx, gy = std_grids()
        vals = np.zeros((gx.n, gy.n))
        vals[3, 4] = np.nan
        with pytest.raises(ValueError):
            PotentialField(gx, gy, vals)


class TestReport:
    def test_summary_line(self):
        rep = ConditionsReport(0.1, 0.2, 0.05, 1.0, True)
        assert "PASS" in rep.summary()
        assert "c=0.1" in rep.summary()
