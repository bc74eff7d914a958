"""Phases, region labels, Airy evaluator, and stationary-phase integrals.

Oracles: mpmath.airyai at 30 digits and direct oscillatory quadrature
through the independently validated cell-Simpson engine. The closed-form/quadrature agreement below pins the
sign convention inside cubic_phase_transform's Airy argument.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpist.oscillatory import oscillatory_integral, oscillatory_tail
from kpist.phase_airy import (
    RayCoordinates,
    RegionLabel,
    airy,
    airy_envelope_max,
    classify,
    cubic_phase_transform,
    half_airy_H,
)
from kpist.rhp import phase_weights


class TestAiry:
    def test_against_mpmath_dense(self):
        xs = np.concatenate([
            np.linspace(-40.0, 40.0, 161),
            [-5.503, -5.5, -5.497, 5.497, 5.5, 5.503, 0.0],
        ])
        ours = airy(xs)
        theirs = np.array([float(mpmath.airyai(mpmath.mpf(float(x)))) for x in xs])
        assert np.max(np.abs(ours - theirs)) < 1e-10

    def test_value_at_zero(self):
        assert airy(0.0) == pytest.approx(0.3550280538878172, abs=1e-15)

    def test_first_zero(self):
        assert abs(airy(-2.338107410459767)) < 1e-10

    def test_scalar_and_array_forms(self):
        assert np.isscalar(float(airy(1.0)))
        assert airy(np.array([1.0, 2.0])).shape == (2,)

    def test_envelope_bound(self):
        m = airy_envelope_max()
        assert 0.55 < m <= 0.72


class TestRegions:
    def test_classify_boundaries(self):
        assert classify(0.0500001) is RegionLabel.RAPID
        assert classify(0.05) is RegionLabel.TRANSITION
        assert classify(-0.05) is RegionLabel.TRANSITION
        assert classify(-0.0500001) is RegionLabel.OSCILLATORY
        assert classify(0.3, delta=0.5) is RegionLabel.TRANSITION

    def test_ray_coordinates(self):
        rc = RayCoordinates.from_ray(10.0, -3.0, 0.0)
        assert rc.x == -30.0 and rc.y == 0.0
        assert rc.a == pytest.approx(-0.25, rel=1e-14)
        assert rc.region() is RegionLabel.OSCILLATORY

    def test_from_region_params_round_trip(self):
        rc = RayCoordinates.from_region_params(20.0, 0.25, eta=1.5)
        assert rc.a == pytest.approx(0.25, rel=1e-12)
        assert rc.eta == pytest.approx(1.5, rel=1e-12)
        assert rc.region() is RegionLabel.RAPID

    def test_time_zero_is_transition(self):
        rc = RayCoordinates(0.0, 3.0, -2.0)
        assert rc.xi == 0.0 and rc.eta == 0.0 and rc.a == 0.0
        assert rc.region() is RegionLabel.TRANSITION


class TestPhases:
    """The two-point kernel phase phi(l) - phi(k) as the solver forms it
    (rhp.phase_weights), in the ray frame of RayCoordinates."""

    def test_spot_value(self):
        phi = phase_weights(np.array([0.0, 1.0]), 1.0, 1.0, 0.0)
        assert phi[1] - phi[0] == 5.0

    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-10, 10),
           st.floats(-3, 3), st.floats(0.01, 100))
    @settings(max_examples=50, deadline=None)
    def test_shift_identity(self, k, l, xi, eta, t):
        # centering by eta/12 leaves t (12 a (l - k) + 4 (l^3 - k^3))
        rc = RayCoordinates.from_ray(t, xi, eta)
        phi = phase_weights(np.array([k, l]) + eta / 12.0, t, rc.x, rc.y)
        rhs = t * (12.0 * rc.a * (l - k) + 4.0 * (l**3 - k**3))
        scale = 1.0 + abs(xi) * 4 + (abs(l) + abs(eta)) ** 3
        assert abs(phi[1] - phi[0] - rhs) <= 1e-12 * scale * t


def cpt_quadrature(a, t, xi):
    """Independent route: (2 pi)^(-1/2) * 2 Int_0^inf cos(w k + 4 t k^3) dk
    with w = xi + 12 t a, via refined Simpson plus two-term tails."""
    w = xi + 12.0 * t * a
    phi = lambda k: w * k + 4.0 * t * k**3
    dphi = lambda k: w + 12.0 * t * k**2
    d2phi = lambda k: 24.0 * t * k
    s_max = np.sqrt(max(0.0, -w) / (12.0 * t))
    L = s_max + 2.0
    while abs(d2phi(L)) / abs(dphi(L)) ** 3 > 1e-10:
        L *= 1.3
    head = oscillatory_integral(0.0, L, phi, dphi, pts_per_wave=128,
                                n_cells=max(256, int(16 * L)))
    tail, _ = oscillatory_tail(phi, dphi, d2phi, L)
    val = head + tail
    return 2.0 * val.real / np.sqrt(2.0 * np.pi)


class TestCubicPhaseTransform:
    @pytest.mark.parametrize("a", [-1.0, -0.1, 0.5])
    @pytest.mark.parametrize("xi", [-2.0, 0.0, 3.0])
    @pytest.mark.parametrize("t", [0.5, 2.0, 10.0])
    def test_closed_form_matches_quadrature(self, a, xi, t):
        closed = cubic_phase_transform(a, t, xi)
        assert abs(closed - cpt_quadrature(a, t, xi)) < 1e-6

    def test_mpmath_spot_value(self):
        a, t, xi = -1.0, 2.0, 0.5
        s = (12.0 * t) ** (1.0 / 3.0)
        exact = float(
            mpmath.sqrt(2 * mpmath.pi) / s
            * mpmath.airyai(s**2 * (a + xi / (12.0 * t)))
        )
        assert cubic_phase_transform(a, t, xi) == pytest.approx(exact, abs=1e-12)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            cubic_phase_transform(0.0, 0.0, 1.0)


class TestHalfAiryH:
    @pytest.mark.parametrize("a,t,xi", [
        (-1.0, 1.0, 0.0), (-0.5, 4.0, 1.0), (0.0, 2.0, -1.5), (0.3, 8.0, 0.5),
    ])
    def test_full_line_equals_airy_closed_form(self, a, t, xi):
        h = half_airy_H(t, a, xi, k_lower=-np.inf)
        s = (12.0 * t) ** (1.0 / 3.0)
        exact = 2.0 * np.pi / s * airy(s**2 * (a - xi / (12.0 * t)))
        assert abs(h - exact) < 1e-5
        assert abs(h.imag) < 1e-5

    def test_half_line_against_explicit_composition(self):
        t, a, xi, k0 = 1.0, -0.5, 0.7, -0.3
        phi = lambda l: -xi * l + t * (12 * a * l + 4 * l**3)
        dphi = lambda l: -xi + 12 * t * a + 12 * t * l**2
        d2phi = lambda l: 24 * t * l
        L = 40.0
        head = oscillatory_integral(k0, L, phi, dphi, pts_per_wave=48,
                                    n_cells=512, crit_points=(0.0,))
        tail, _ = oscillatory_tail(phi, dphi, d2phi, L)
        ours = half_airy_H(t, a, xi, k_lower=k0)
        assert abs(ours - (head + tail)) < 1e-5

    def test_oscillatory_region_decay_trend(self):
        # a = -1: the half-line integral decays like t^(-1/2)
        vals = [abs(half_airy_H(t, -1.0, 1.0, k_lower=0.0)) for t in (4.0, 64.0)]
        expected = (64.0 / 4.0) ** -0.5
        assert vals[1] / vals[0] == pytest.approx(expected, rel=0.6)

    def test_transition_region_decay_trend(self):
        # a = 0: decay like t^(-1/3)
        vals = [abs(half_airy_H(t, 0.0, 0.0, k_lower=0.0)) for t in (4.0, 64.0)]
        scaled = vals[1] * 64.0 ** (1 / 3) / (vals[0] * 4.0 ** (1 / 3))
        assert scaled == pytest.approx(1.0, rel=0.3)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            half_airy_H(0.0, -1.0, 0.0)
