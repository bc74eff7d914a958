"""Direct-solver tests: conservation, convergence order, linear regime.

The box is [-32, 32]^2 at 128 points per axis with width-2 profiles;
calibration numbers are frozen from runs on this configuration. The
fixed-step tests march at FIXED_DT, half the inverse of the fastest
dealiased dispersion rate on this grid, where their figures were frozen.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from kpist import oracle
from kpist.grids import Grid1D, PotentialField, make_test_potential
from kpist.oracle import OracleState, cfl_bound, evolve, step
from kpist.reconstruct import linear_field

GRID = Grid1D(-32.0, 32.0, 128)
# 0.5 / max dealiased |p^3 + 3 q^2/p| on GRID, frozen
FIXED_DT = 0.0009623864140562327


def profile(amplitude):
    return make_test_potential("gaussian_dx", amplitude, 2.0, GRID, GRID)


class TestStateConstruction:

    def test_round_trip_field(self):
        u0 = profile(0.05)
        s = OracleState.from_field(u0)
        back = s.to_field()
        assert np.max(np.abs(back.values - u0.values)) <= \
            1e-13 * u0.max_abs()
        assert s.t == 0.0

    def test_zero_column_bitwise(self):
        s = OracleState.from_field(profile(0.05))
        for _ in range(3):
            s = step(s)
        assert np.all(s.u_hat[0] == 0.0)

    def test_nonzero_mean_rejected(self):
        x = GRID.points[:, None]
        y = GRID.points[None, :]
        bad = PotentialField(GRID, GRID, np.exp(-(x**2 + y**2) / 8.0))
        with pytest.raises(ValueError, match="x-mean"):
            OracleState.from_field(bad)

    def test_step_bound_enforced(self):
        b = cfl_bound(profile(0.05))
        with pytest.raises(ValueError, match="bound"):
            OracleState.from_field(profile(0.05), dt=2.0 * b)
        with pytest.raises(ValueError, match="positive"):
            OracleState.from_field(profile(0.05), dt=-1e-4)
        s = OracleState.from_field(profile(0.05))
        with pytest.raises(ValueError, match="bound"):
            step(s, 2.0 * b)

    def test_bound_values(self):
        # 1/(6 p_max max|u|): p_max = 42 * 2 pi/64 on GRID, max|u| =
        # 0.05 e^{-1/2}/2 for the width-2 profile (measured 2.6657)
        assert 2.6 <= cfl_bound(profile(0.05)) <= 2.7
        # p_max = 85 * 2 pi/64 on 256 points (measured 1.3172)
        g256 = Grid1D(-32.0, 32.0, 256)
        u256 = make_test_potential("gaussian_dx", 0.05, 2.0, g256, g256)
        assert 1.28 <= cfl_bound(u256) <= 1.35
        # inverse in the amplitude; no bound at all for a zero field
        assert cfl_bound(profile(0.1)) == pytest.approx(
            0.5 * cfl_bound(profile(0.05)), rel=1e-14)
        assert cfl_bound(profile(0.0)) == np.inf

    def test_dealias_mask_extent(self):
        s = OracleState.from_field(profile(0.05))
        n = GRID.n
        assert bool(s.dealias_mask[0, 0])
        assert not bool(s.dealias_mask[n // 2, 0])
        # the half spectrum keeps q >= 0 only
        assert s.dealias_mask.shape == (n, n // 2 + 1)
        assert int(s.dealias_mask.sum()) == (2 * (n // 3) + 1) * (n // 3 + 1)


class TestEvolve:

    def test_zero_to_zero(self):
        out = evolve(profile(0.0), 0.5)
        assert np.max(np.abs(out.values)) == 0.0

    def test_time_zero_identity(self):
        u0 = profile(0.05)
        out = evolve(u0, 0.0)
        assert np.array_equal(out.values, u0.values)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            evolve(profile(0.05), -1.0)

    def test_determinism(self):
        a = evolve(profile(0.05), 0.1)
        b = evolve(profile(0.05), 0.1)
        assert np.array_equal(a.values, b.values)

    def test_l2_conservation(self):
        # the dealiased spectral form integrates u * (u^2)_x to zero
        # exactly, so the drift sits at roundoff (measured 4.9e-15)
        u0 = profile(0.05)
        s = OracleState.from_field(u0)
        n_steps = int(np.ceil(1.0 / FIXED_DT))
        dt = 1.0 / n_steps
        n0 = s.l2_norm()
        for _ in range(n_steps):
            s = step(s, dt)
        drift = abs(s.l2_norm() - n0) / n0
        assert drift <= 1e-6
        assert drift <= 1e-12

    def test_linear_regime_matches_baseline(self):
        # amplitude 1e-4: quadratic effects sit near 1e-4 relative, and
        # the linear part of the scheme is exact (measured 4.8e-5)
        u0 = profile(1e-4)
        v_direct = evolve(u0, 1.0)
        v_lin = linear_field(u0, 1.0)
        scale = np.max(np.abs(v_lin))
        rel = np.max(np.abs(v_direct.values - v_lin)) / scale
        assert rel <= 1e-3
        assert rel <= 2e-4

    def test_nonlinear_term_active(self):
        # at amplitude 0.05 the quadratic term must visibly separate the
        # solver from the linear baseline (measured 2.4%)
        u0 = profile(0.05)
        v_direct = evolve(u0, 1.0)
        v_lin = linear_field(u0, 1.0)
        rel = np.max(np.abs(v_direct.values - v_lin)) / np.max(np.abs(v_lin))
        assert 0.005 <= rel <= 0.10

    def test_nan_guard_names_the_step(self):
        s = OracleState.from_field(profile(0.05))
        bad = s.u_hat.copy()
        bad[3, 5] = np.inf
        s = dataclasses.replace(s, u_hat=bad)
        with warnings.catch_warnings():
            # numpy's FFT complains about the injected infinity before
            # the guard sees the result
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(RuntimeError, match="non-finite"):
                step(s)


def recording_steps(monkeypatch):
    """Route evolve's calls of `step` through a recorder of their dt."""
    dts = []

    def recording(state, dt=None):
        dts.append(dt)
        return step(state, dt)

    monkeypatch.setattr(oracle, "step", recording)
    return dts


class TestStepControl:

    def test_default_matches_quarter_step(self, monkeypatch):
        # the accepted run moved by at most STEP_TOL of max|u| from the
        # run at twice its step, so a run at a quarter of its step must
        # agree with it to the same tolerance (measured 3.0e-11 relative
        # at an accepted dt of 1/128)
        dts = recording_steps(monkeypatch)
        u0 = profile(0.05)
        v = evolve(u0, 0.5)
        accepted = dts[-1]
        assert accepted <= cfl_bound(u0)
        dts.clear()
        w = evolve(u0, 0.5, accepted / 4)
        assert len(dts) == round(2.0 / accepted)
        err = np.max(np.abs(v.values - w.values))
        assert err <= oracle.STEP_TOL * w.max_abs()

    def test_zero_field_accepts_at_once(self, monkeypatch):
        # max|u_k - u_2k| <= STEP_TOL max|u_2k| reads 0 <= 0: no 0/0
        dts = recording_steps(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = evolve(profile(0.0), 0.5)
        assert np.max(np.abs(out.values)) == 0.0
        assert len(dts) == 3  # one coarse step, two fine steps

    def test_non_convergence_raises(self, monkeypatch):
        # with STEP_TOL = 0 no step size is accepted: the call gives up
        # at MAX_STEPS with the last estimate instead of looping
        g = Grid1D(-8.0, 8.0, 32)
        u0 = make_test_potential("cosine_packet", 0.05, 2.0, g, g)
        monkeypatch.setattr(oracle, "STEP_TOL", 0.0)
        dts = recording_steps(monkeypatch)
        with pytest.raises(RuntimeError, match="last relative change"):
            evolve(u0, 0.1)
        assert len(dts) < 2 * oracle.MAX_STEPS


class TestTemporalOrder:

    def test_two_halvings_fourth_order(self):
        # measured 16.0 and 17.0 against the dt/8 reference at amplitude
        # 3, where the quadratic term is strong enough to lift the
        # temporal error well above roundoff
        u0 = profile(3.0)
        tf = 0.2
        b = FIXED_DT
        sols = {}
        for k in (1, 2, 4, 8):
            n = int(np.ceil(tf / (b / k)))
            sols[k] = evolve(u0, tf, tf / n).values
        e1 = np.max(np.abs(sols[1] - sols[8]))
        e2 = np.max(np.abs(sols[2] - sols[8]))
        e4 = np.max(np.abs(sols[4] - sols[8]))
        assert e4 > 1e-14  # above the roundoff floor
        for ratio in (e1 / e2, e2 / e4):
            assert 16.0 * 0.7 <= ratio <= 16.0 * 1.3
            assert np.log2(ratio) >= 3.5
