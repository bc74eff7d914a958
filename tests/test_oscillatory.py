"""Oscillatory quadrature engine vs independent oracles.

Oracles: adaptive quadrature (scipy.integrate.quad on real/imaginary
parts), the Fresnel integrals, and Int_0^inf e^(i l^3) dl =
Gamma(1/3)/3 * e^(i pi/6) = 0.7733518… + 0.4464965…i.
"""

import numpy as np
import pytest
from scipy import integrate, special

from kpist.oscillatory import (
    filon_moments,
    oscillatory_integral,
    oscillatory_tail,
)
from reference import cumulative_phase_integral, phase_integral


def quad_complex(f, a, b, **kw):
    re = integrate.quad(lambda x: f(x).real, a, b, limit=400, **kw)[0]
    im = integrate.quad(lambda x: f(x).imag, a, b, limit=400, **kw)[0]
    return re + 1j * im


class TestFilonMoments:
    @pytest.mark.parametrize("z", [1e-9, 0.1, 0.59, 0.61, 3.0, 40.0, -7.0])
    def test_against_quadrature(self, z):
        m0, m1 = filon_moments(z)
        q0 = quad_complex(lambda s: np.exp(1j * z * s), 0, 1)
        q1 = quad_complex(lambda s: s * np.exp(1j * z * s), 0, 1)
        assert abs(m0 - q0) < 1e-12
        assert abs(m1 - q1) < 1e-12

    def test_branch_continuity(self):
        # series and closed form must agree where they hand over
        for z in (0.5999, 0.6001, -0.5999, -0.6001):
            m0, m1 = filon_moments(z)
            q0 = quad_complex(lambda s: np.exp(1j * z * s), 0, 1)
            assert abs(m0 - q0) < 1e-13


class TestPhaseIntegral:
    def setup_method(self):
        self.n = 257
        self.y = np.linspace(-8.0, 8.0, self.n)
        self.dy = self.y[1] - self.y[0]

    def test_gaussian_at_zero_rate(self):
        c = np.exp(-self.y**2 / 2.0)
        val = phase_integral(c, self.dy, 0.0)
        assert val == pytest.approx(np.sqrt(2.0 * np.pi), rel=2e-5)

    def test_no_aliasing_at_high_rate(self):
        # theta = 100 aliases to -0.53 on this grid (2 pi / dy = 100.53), so
        # the naive Riemann sum returns an O(1) wrong value while the exact
        # per-panel phase keeps the true, essentially zero, integral.
        c = np.exp(-self.y**2 / 2.0)
        theta = 100.0
        assert theta * self.dy > np.pi
        val = phase_integral(c, self.dy, theta)
        naive = np.sum(c * np.exp(1j * theta * self.y)) * self.dy
        assert abs(val) < 1e-3
        assert abs(naive) > 1.0

    def test_error_does_not_grow_with_rate(self):
        c = np.exp(-self.y**2 / 2.0)
        errs = []
        for theta in (0.0, 37.0):
            exact = quad_complex(
                lambda t, th=theta: np.exp(1j * th * t - t**2 / 2.0), -8, 8
            )
            # phase origin: engine measures y from the first sample
            val = phase_integral(c, self.dy, theta) * np.exp(1j * theta * self.y[0])
            errs.append(abs(val - exact))
        assert errs[1] < 3.0 * max(errs[0], 1e-6)

    def test_vectorized_over_rates_and_rows(self):
        c = np.exp(-self.y**2 / 2.0) * np.ones((3, 1))
        thetas = np.array([0.0, 1.0, 2.0])
        vals = phase_integral(c, self.dy, thetas)
        for i, th in enumerate(thetas):
            single = phase_integral(c[i], self.dy, th)
            assert vals[i] == pytest.approx(single, rel=1e-14)


class TestCumulativePhaseIntegral:
    def test_matches_quadrature_at_interior_points(self):
        y = np.linspace(-8.0, 8.0, 129)
        dy = y[1] - y[0]
        c = np.exp(-(y**2) / 2.0) * (1.0 + 0.3j * y)
        theta = 4.3
        cum = cumulative_phase_integral(c, dy, theta) * np.exp(1j * theta * y[0])
        # accuracy is set by linear interpolation of the amplitude at this
        # spacing (~1e-4 absolute), independent of the phase rate
        for j in (13, 64, 100):
            exact = quad_complex(
                lambda t: np.exp(1j * theta * t) * np.exp(-t**2 / 2) * (1 + 0.3j * t),
                y[0], y[j],
            )
            assert abs(cum[j] - exact) < 1e-3

    def test_up_plus_down_equals_total(self):
        y = np.linspace(-4.0, 4.0, 65)
        dy = y[1] - y[0]
        rng = np.random.default_rng(7)
        c = rng.normal(size=(5, 65)) + 1j * rng.normal(size=(5, 65))
        theta = np.array([0.0, 1.0, -2.5, 17.0, 100.0])
        up = cumulative_phase_integral(c, dy, theta)
        down = cumulative_phase_integral(c, dy, theta, from_top=True)
        total = phase_integral(c, dy, theta)
        assert np.max(np.abs(up + down - total[:, None])) < 1e-12 * np.max(np.abs(total))

    def test_endpoints(self):
        y = np.linspace(0.0, 1.0, 17)
        c = np.ones_like(y)
        up = cumulative_phase_integral(c, y[1], 0.0)
        assert up[0] == 0.0
        assert up[-1] == pytest.approx(1.0, rel=1e-14)


class TestOscillatoryIntegral:
    def test_fresnel(self):
        X = 10.0
        s, c = special.fresnel(X * np.sqrt(2.0 / np.pi))
        exact = np.sqrt(np.pi / 2.0) * (c + 1j * s)
        # working refinement: a few 1e-6; deep refinement: quadrature-grade
        val = oscillatory_integral(
            0.0, X, lambda t: t**2, lambda t: 2.0 * t, pts_per_wave=32, n_cells=32
        )
        assert abs(val - exact) < 3e-5
        deep = oscillatory_integral(
            0.0, X, lambda t: t**2, lambda t: 2.0 * t, pts_per_wave=1024, n_cells=32
        )
        assert abs(deep - exact) < 1e-9


class TestOscillatoryTail:
    def test_cube_phase_classic(self):
        # Int_0^inf e^(i l^3) dl = Gamma(1/3)/3 * e^(i pi/6)
        phi = lambda l: l**3
        dphi = lambda l: 3.0 * l**2
        d2phi = lambda l: 6.0 * l
        L = 9.0
        head = oscillatory_integral(0.0, L, phi, dphi, pts_per_wave=24, n_cells=96)
        tail, bound = oscillatory_tail(phi, dphi, d2phi, L)
        exact = special.gamma(1.0 / 3.0) / 3.0 * np.exp(1j * np.pi / 6.0)
        assert abs(head + tail - exact) < 3e-5
        assert bound < 1e-3

    def test_cut_independence(self):
        phi = lambda l: 12.0 * l + 4.0 * l**3
        dphi = lambda l: 12.0 + 12.0 * l**2
        d2phi = lambda l: 24.0 * l
        vals = []
        for L in (6.0, 11.0):
            head = oscillatory_integral(1.0, L, phi, dphi, pts_per_wave=24, n_cells=64)
            tail, _ = oscillatory_tail(phi, dphi, d2phi, L)
            vals.append(head + tail)
        assert abs(vals[0] - vals[1]) < 1e-6

    def test_left_tail_direction(self):
        # Int_{-inf}^{L} for the same cubic by symmetry of the real part
        phi = lambda l: l**3
        dphi = lambda l: 3.0 * l**2
        d2phi = lambda l: 6.0 * l
        right, _ = oscillatory_tail(phi, dphi, d2phi, 9.0, direction=1)
        left, _ = oscillatory_tail(phi, dphi, d2phi, -9.0, direction=-1)
        # phase is odd: left tail = conj of right tail
        assert abs(left - np.conj(right)) < 1e-12
