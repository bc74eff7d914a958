"""Fit mechanics, envelope clusters, rerun determinism, the linear
baseline's rates, verify rows."""

import dataclasses
import io
import tracemalloc
import warnings

import numpy as np
import pytest

from kpist import harness, scattering
from kpist import reconstruct as reconstruct_module
from kpist.grids import Grid1D, check_conditions, make_test_potential
from kpist.harness import (CLUSTER_SIZE, BoundRow, DecayFit, VerifyReport,
                           _airy_bound_rows, _cubic_phase_quadrature,
                           _hs_proxy, airy_ratio_tables, cluster_times,
                           compute_scattering, decay_fit_passes,
                           fit_power_law, run_decay_fit, run_linear_baseline,
                           run_verify_suite, write_airy_csv,
                           write_decay_csv, write_verify_csv)
from kpist.grids import PotentialField
from kpist.io import ExperimentConfig, RaySpec, save_potential
from kpist.phase_airy import RegionLabel, cubic_phase_transform
from kpist.scattering import ScatteringData, ScatteringGrids


def small_config(**over):
    base = dict(
        potential_path=None,
        potential_spec={"kind": "gaussian_dx", "amplitude": 0.02,
                        "width": 2.0, "half_width": 16.0, "n": 128},
        kl_half_width=6.0, n_kl=32, n_y=32, delta=0.05, tol=1e-9,
        rays=(RaySpec(-3.0, 0.0, "osc"), RaySpec(0.0, 0.0, "mid")),
        t_min=2.0, t_max=6.0, n_times=6, output_dir="out", fine_cap=512)
    base.update(over)
    return ExperimentConfig(**base)


def smooth_synthetic_data(n=32, amp=0.01):
    g = Grid1D(-6.0, 6.0, n)
    grids = ScatteringGrids(g, g)
    k = g.points[:, None]
    l = g.points[None, :]
    bump = amp * np.exp(-(k**2 + l**2) / 2.0) * (1.0 + 0.3j)
    d = np.arange(n)[None, :] - np.arange(n)[:, None]
    wp = np.where(d > 0, 1.0, np.where(d == 0, 0.5, 0.0))
    wm = np.where(d < 0, 1.0, np.where(d == 0, 0.5, 0.0))
    return ScatteringData(wp * bump, wm * bump, bump, grids, {})


def zero_data(n=32):
    g = Grid1D(-6.0, 6.0, n)
    z = np.zeros((n, n), dtype=complex)
    return ScatteringData(z.copy(), z.copy(), z.copy(),
                          ScatteringGrids(g, g), {})


class TestFitPowerLaw:
    def test_exact_recovery(self):
        ts = np.geomspace(10.0, 100.0, 12)
        for s in (-1.0, -2.0 / 3.0, -0.5):
            vals = 3.7 * ts**s
            slope, stderr, dropped = fit_power_law(ts, vals)
            assert abs(slope - s) <= 1e-10
            assert stderr <= 1e-10
            assert dropped == 0

    def test_drop_rule_fires(self):
        ts = np.geomspace(10.0, 100.0, 12)
        vals = ts**-1.0
        # early-time transient concentrated on the first sample
        vals[0] *= np.exp(1.0)
        vals[1] *= np.exp(0.25)
        slope, stderr, dropped = fit_power_law(ts, vals)
        assert dropped == 2
        assert abs(slope + 1.0) <= 1e-10

    def test_drop_rule_quiet_on_clean_data(self):
        ts = np.geomspace(10.0, 100.0, 12)
        rng = np.random.default_rng(3)
        vals = ts**-1.0 * np.exp(0.01 * rng.standard_normal(12))
        slope, stderr, dropped = fit_power_law(ts, vals)
        assert dropped == 0
        assert abs(slope + 1.0) <= 0.05
        assert stderr > 0

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least 6"):
            fit_power_law([1, 2, 3, 4, 5], [1] * 5)
        with pytest.raises(ValueError, match="increasing"):
            fit_power_law([1, 2, 2, 3, 4, 5], [1] * 6)
        with pytest.raises(ValueError, match="positive"):
            fit_power_law([1, 2, 3, 4, 5, 6], [1, 1, 0.0, 1, 1, 1])


class TestClusterTimes:
    def test_single_outside_oscillatory(self):
        assert cluster_times(20.0, 0.0, RegionLabel.TRANSITION) == (20.0,)
        assert cluster_times(20.0, 0.3, RegionLabel.RAPID) == (20.0,)

    def test_symmetric_cluster(self):
        a = -0.25
        cl = cluster_times(20.0, a, RegionLabel.OSCILLATORY)
        assert len(cl) == 5
        spacing = 2.0 * np.pi / (16.0 * abs(a) ** 1.5 * 3.0)
        assert cl[2] == pytest.approx(20.0)
        assert np.allclose(np.diff(cl), spacing)
        assert all(b > a_ for a_, b in zip(cl, cl[1:]))

    def test_one_sided_near_zero(self):
        cl = cluster_times(1.0, -0.25, RegionLabel.OSCILLATORY)
        assert len(cl) == 5
        assert cl[0] == pytest.approx(1.0)
        assert min(cl) > 0


class TestDecayFitRecord:
    def test_invariants(self):
        rc_args = dict(ray=None, slope=-1.0, slope_stderr=0.01,
                       region=RegionLabel.TRANSITION)
        with pytest.raises(ValueError, match="at least 6"):
            DecayFit(t_samples=(1, 2, 3), values=(1, 1, 1), **rc_args)
        with pytest.raises(ValueError, match="increasing"):
            DecayFit(t_samples=(1, 2, 2, 3, 4, 5), values=(1,) * 6, **rc_args)

    def test_failure_bypasses_invariants(self):
        fit = DecayFit(ray=None, t_samples=(), values=(),
                       slope=float("nan"), slope_stderr=float("nan"),
                       region=RegionLabel.TRANSITION, failure="boom")
        assert fit.failure == "boom"

    def test_frozen(self):
        fit = DecayFit(ray=None, t_samples=(), values=(), slope=0.0,
                       slope_stderr=0.0, region=RegionLabel.RAPID,
                       failure="x")
        with pytest.raises(dataclasses.FrozenInstanceError):
            fit.slope = 1.0


class TestDecayFitPasses:
    def _fit(self, slope, failure=None):
        return DecayFit(ray=None, t_samples=() if failure else tuple(
            float(i) for i in range(1, 8)),
            values=(1.0,) * (0 if failure else 7), slope=slope,
            slope_stderr=0.0 if failure else 0.01,
            region=RegionLabel.OSCILLATORY, failure=failure)

    def test_window(self):
        specs = [RaySpec(-3.0, 0.0, slope_window=(-1.15, -0.85))]
        assert decay_fit_passes(specs, [self._fit(-1.0)])
        assert not decay_fit_passes(specs, [self._fit(-0.5)])

    def test_failure_blocks(self):
        specs = [RaySpec(-3.0, 0.0)]
        assert not decay_fit_passes(specs, [self._fit(0.0, failure="no")])

    def test_linear_window_selected(self):
        specs = [RaySpec(-3.0, 0.0, slope_window=(-9.0, 9.0),
                         linear_slope_window=(-1.05, -0.95))]
        assert decay_fit_passes(specs, [self._fit(-3.0)])
        assert not decay_fit_passes(specs, [self._fit(-3.0)],
                                    use_linear=True)
        assert decay_fit_passes(specs, [self._fit(-1.0)], use_linear=True)


class TestRunDecayFit:
    def test_zero_data_aborts_rays_individually(self):
        cfg = small_config()
        fits = run_decay_fit(cfg, data=zero_data(), conditions=None)
        assert len(fits) == 2
        for fit in fits:
            assert fit.failure is not None
            assert "positive" in fit.failure
        # regions still classified from the ray geometry
        assert fits[0].region is RegionLabel.OSCILLATORY
        assert fits[1].region is RegionLabel.TRANSITION

    def test_synthetic_data_fits_complete(self):
        cfg = small_config()
        fits = run_decay_fit(cfg, data=smooth_synthetic_data(),
                             conditions=None)
        for fit in fits:
            assert fit.failure is None
            assert len(fit.values) == 6
            assert len(fit.values_u1) == 6 and len(fit.values_u2) == 6
            assert all(v > 0 for v in fit.values)
            assert np.isfinite(fit.slope)
            assert fit.ray.xi in (-3.0, 0.0)

    def test_rerun_bitwise(self, tmp_path):
        cfg = small_config()
        data = smooth_synthetic_data()
        a = write_decay_csv(run_decay_fit(cfg, data=data, conditions=None),
                            tmp_path / "a.csv")
        b = write_decay_csv(run_decay_fit(cfg, data=data, conditions=None),
                            tmp_path / "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_failing_report_refused_before_any_probe(self, monkeypatch):
        # admissibility is decided where the data enters: a supplied report
        # that failed stops the fit once, before its first probe, where
        # each ray used to record its own failure
        big = small_config(
            potential_spec={"kind": "gaussian_dx", "amplitude": 8.0,
                            "width": 2.0, "half_width": 16.0, "n": 128})
        bad = check_conditions(big.resolve_potential())
        assert not bad.passed
        probes = []
        real = harness.reconstruct_points
        monkeypatch.setattr(harness, "reconstruct_points",
                            lambda *a, **k: probes.append(a) or real(*a, **k))
        with pytest.raises(ValueError, match="smallness conditions fail"):
            run_decay_fit(small_config(), smooth_synthetic_data(), bad)
        assert probes == []
        # the counter sees the probes of a fit whose report passed
        cfg = small_config(rays=(RaySpec(-3.0, 0.0),))
        good = check_conditions(cfg.resolve_potential())
        assert good.passed
        run_decay_fit(cfg, smooth_synthetic_data(), good)
        assert probes


    def test_one_solve_per_cluster(self, monkeypatch):
        # the oscillatory ray's 5-probe clusters, each one stack, and the
        # other ray's single probes each reach reconstruct.solve_dmul_dx
        # once
        cfg = small_config()
        stacks = []
        real = reconstruct_module.solve_dmul_dx

        def counting(op, *args, **kwargs):
            stacks.append(len(op.e_l))
            return real(op, *args, **kwargs)

        monkeypatch.setattr(reconstruct_module, "solve_dmul_dx", counting)
        fits = run_decay_fit(cfg, smooth_synthetic_data())
        assert all(f.failure is None for f in fits)
        assert stacks == [CLUSTER_SIZE] * cfg.n_times + [1] * cfg.n_times


class TestLinearBaseline:
    def test_fits_complete_and_deterministic(self, tmp_path):
        cfg = small_config(rays=(RaySpec(-3.0, 0.0, "osc"),
                                 RaySpec(3.0, 0.0, "rap")))
        fits = run_linear_baseline(cfg)
        assert [f.label for f in fits] == ["osc", "rap"]
        for fit in fits:
            assert fit.failure is None
            assert all(v > 0 for v in fit.values)
            # u2 has no linear analogue; its slope stays nan
            assert np.isnan(fit.slope_u2)
            assert fit.values_u1 == fit.values
        again = run_linear_baseline(cfg)
        assert [f.values for f in again] == [f.values for f in fits]

    def test_reference_rates(self):
        # the decay reference setting: the bench potential on 128-point
        # grids over [-8, 8], t in [10, 50]. Oscillatory rays decay like
        # t^-1 (2-D stationary phase); the rapid-decay ray falls faster
        # than t^-2. Measured: -1.006 +- 0.019, -1.336 +- 0.007 (xi = 0)
        # and -2.69 +- 0.21.
        cfg = ExperimentConfig(
            potential_path=None,
            potential_spec={"kind": "gaussian_dx", "amplitude": 0.02,
                            "width": 1.0, "half_width": 32.0, "n": 256},
            kl_half_width=8.0, n_kl=128, n_y=128, delta=0.05, tol=1e-10,
            rays=(RaySpec(-12.0, 0.0), RaySpec(0.0, 0.0), RaySpec(6.0, 0.0)),
            t_min=10.0, t_max=50.0, n_times=6, output_dir="",
            fine_cap=8192)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            osc, mid, rapid = run_linear_baseline(cfg)
        assert osc.region is RegionLabel.OSCILLATORY
        assert rapid.region is RegionLabel.RAPID
        assert mid.failure is None
        assert -1.05 <= osc.slope <= -0.95
        assert rapid.slope <= -2.0

    def test_nonzero_mean_refused(self, tmp_path):
        cfg = small_config()
        g = cfg.resolve_potential().grid_x
        x, y = g.points[:, None], g.points[None, :]
        save_potential(PotentialField(g, g, 0.02 * np.exp(-(x**2 + y**2))),
                       tmp_path / "even")
        cfg = small_config(potential_path=str(tmp_path / "even"))
        with pytest.raises(ValueError, match="zero-mean"):
            run_linear_baseline(cfg)


class TestDecayCsv:
    def test_rows_carry_ray_frame(self, tmp_path):
        cfg = small_config()
        fits = run_decay_fit(cfg, data=smooth_synthetic_data(),
                             conditions=None)
        path = write_decay_csv(fits, tmp_path / "d.csv")
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        for key in ("label", "region", "xi", "eta", "a", "t", "value",
                    "slope"):
            assert key in header
        assert len(lines) == 1 + 2 * 6
        first = dict(zip(header, lines[1].split(",")))
        assert float(first["xi"]) == -3.0
        assert first["region"] == "oscillatory"
        assert float(first["t"]) == 2.0

    def test_failed_ray_row(self, tmp_path):
        fit = DecayFit(ray=None, t_samples=(), values=(),
                       slope=float("nan"), slope_stderr=float("nan"),
                       region=RegionLabel.RAPID, label="bad",
                       failure="RuntimeError: solver")
        fit = dataclasses.replace(
            fit, ray=__import__("kpist.phase_airy",
                                fromlist=["RayCoordinates"])
            .RayCoordinates.from_ray(2.0, 3.0, 0.0))
        path = write_decay_csv([fit], tmp_path / "d.csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert "RuntimeError: solver" in lines[1]


class TestVerifySuite:
    def test_zero_potential_trivially_passes(self):
        cfg = small_config(
            potential_spec={"kind": "gaussian_dx", "amplitude": 0.0,
                            "width": 2.0, "half_width": 16.0, "n": 128})
        rep = run_verify_suite(cfg, include_airy=False)
        assert rep.passed
        names = [r.name for r in rep.rows]
        assert "rhp.contraction" in names and "rhp.derivative.l2" in names
        for r in rep.rows:
            if r.name.startswith(("layered", "kernel", "rhp")):
                assert r.measured == 0.0

    def test_reference_small_grid_passes(self):
        rep = run_verify_suite(small_config(), include_airy=False)
        assert rep.passed
        rows = {r.name: r for r in rep.rows}
        assert rows["rhp.contraction"].measured < 0.5
        assert rows["rhp.solution.l2"].measured <= \
            rows["rhp.solution.l2"].limit
        assert len(rep.airy_rows) == 0

    def test_contraction_row_is_the_uniform_bound(self):
        # the row certifies every probe on the stored kernels, not one: it
        # reads sqrt(l2_norm_plus^2 + l2_norm_minus^2) from meta
        cfg = small_config()
        row = {r.name: r for r in run_verify_suite(
            cfg, include_airy=False).rows}["rhp.contraction"]
        data, _ = compute_scattering(cfg.resolve_potential(),
                                     cfg.scattering_grids(), tol=cfg.tol)
        assert row.measured == np.hypot(data.meta["l2_norm_plus"],
                                        data.meta["l2_norm_minus"])
        assert "every (t,x,y)" in row.note

    def test_violated_smallness_blocks_solves(self):
        cfg = small_config(
            potential_spec={"kind": "gaussian_dx", "amplitude": 8.0,
                            "width": 2.0, "half_width": 16.0, "n": 128})
        rep = run_verify_suite(cfg, include_airy=False)
        assert not rep.passed
        assert [r.name for r in rep.rows] == ["smallness.conditions",
                                              "rhp.contraction"]
        assert not rep.rows[0].passed
        assert not rep.rows[1].passed
        assert "not attempted" in rep.rows[1].note

    def test_compute_scattering_refuses_large_data(self):
        cfg = small_config(
            potential_spec={"kind": "gaussian_dx", "amplitude": 8.0,
                            "width": 2.0, "half_width": 16.0, "n": 128})
        with pytest.raises(ValueError, match="smallness"):
            compute_scattering(cfg.resolve_potential(),
                               cfg.scattering_grids())

    def test_csv_writers(self, tmp_path):
        rep = VerifyReport(
            (BoundRow("x", 0.1, 0.2, True, "n"),),
            (("nondegenerate", 10.0, 1.0),), True)
        vb = write_verify_csv(rep, tmp_path / "vb.csv")
        va = write_airy_csv(rep.airy_rows, tmp_path / "va.csv")
        assert vb.read_text().splitlines()[0] == \
            "name,measured,limit,passed,note"
        assert va.read_text().splitlines()[1] == "nondegenerate,10.0,1.0"


class TestMemoryBudget:
    """The direct map checks its working set against the memory available
    (MemAvailable, and the headroom under the cgroup v1 and v2 limits over
    the process) before it resamples or solves."""

    def test_refused_before_any_field_is_made(self, monkeypatch):
        monkeypatch.setattr(harness, "_available_bytes", lambda: 1 << 20)
        gx = Grid1D(-32.0, 32.0, 256)
        field = make_test_potential("gaussian_dx", 0.02, 1.0, gx, gx)
        g = Grid1D(-8.0, 8.0, 128)
        field_bytes = 16 * 128 ** 3
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                compute_scattering(field, ScatteringGrids(g, g))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < field_bytes
        # one block of k rows per family, not the whole field, and the
        # whole-grid tables beside them: five M^2 tables of the plan, T1
        # and the two kernels, and two convolution plans (3M/2 + 2M values
        # per layer)
        rows = scattering.direct_map_blocks(ScatteringGrids(g, g))[0]
        tables = (3 * 16 + 2 * 8) * 128 ** 2 + 3 * 16 * 128 ** 2 \
            + 16 * 7 * 128 // 2 * 128
        needed = 2 * 6 * 16 * (rows.stop - rows.start) * 128 ** 2 + tables
        assert needed < field_bytes
        assert str(err.value) == (
            f"the direct map needs about {needed} bytes but only 1048576 "
            f"are available (n_kl = 128, n_y = 128)")

    def test_verify_suite_is_refused_too(self, monkeypatch):
        monkeypatch.setattr(harness, "_available_bytes", lambda: 1 << 20)
        with pytest.raises(ValueError, match="are available"):
            run_verify_suite(small_config(), include_airy=False)

    def test_no_figure_means_no_check(self, monkeypatch):
        monkeypatch.setattr(harness, "_available_bytes", lambda: None)
        cfg = small_config()
        data, _ = compute_scattering(cfg.resolve_potential(),
                                     cfg.scattering_grids())
        assert data.meta["mu_plus_iterations"] > 0

    @pytest.mark.parametrize("text, want", [
        ("MemTotal: 8000 kB\nMemAvailable:    2048 kB\n", 2 << 20),
        ("MemTotal: 8000 kB\n", None),
        ("MemAvailable: many kB\n", None),
        (None, None)])
    def test_reader(self, monkeypatch, tmp_path, text, want):
        path = tmp_path / "meminfo"
        if text is not None:
            path.write_text(text)
        monkeypatch.setattr(harness, "open", lambda name: open(path),
                            raising=False)
        assert harness._available_bytes() == want

    @staticmethod
    def serve_files(monkeypatch, texts):
        # harness opens only these paths; any other is missing
        def fake_open(name):
            if name not in texts:
                raise FileNotFoundError(name)
            return io.StringIO(texts[name])

        monkeypatch.setattr(harness, "open", fake_open, raising=False)

    @pytest.mark.parametrize("cgroup, want", [
        ({"memory.max": "8388608\n", "memory.current": "2097152\n"}, 6 << 20),
        ({"memory.max": "2097152\n", "memory.current": "4194304\n"}, 0),
        ({"memory.max": "1073741824\n", "memory.current": "0\n"}, 64 << 20),
        ({"memory.max": "max\n", "memory.current": "2097152\n"}, 64 << 20),
        ({"memory.max": "8388608\n"}, 64 << 20),
        ({}, 64 << 20)])
    def test_cgroup_limit(self, monkeypatch, cgroup, want):
        # the smaller of MemAvailable (64 MiB here) and memory.max less
        # memory.current; no limit ("max") or a missing figure leaves
        # MemAvailable. Without /proc/self/cgroup the v2 root is read
        texts = {"/proc/meminfo": "MemAvailable:   65536 kB\n"}
        texts.update({f"/sys/fs/cgroup/{k}": v for k, v in cgroup.items()})
        self.serve_files(monkeypatch, texts)
        assert harness._available_bytes() == want

    V1 = "/sys/fs/cgroup/memory"
    V1_LINES = "4:memory:/jobs/7\n3:cpu,cpuacct:/jobs/7\n0::/\n"

    @pytest.mark.parametrize("own, files, want", [
        # v1: the memory controller's own cgroup, not its root
        (V1_LINES, {f"{V1}/jobs/7/memory.limit_in_bytes": "8388608\n",
                    f"{V1}/jobs/7/memory.usage_in_bytes": "2097152\n",
                    f"{V1}/memory.limit_in_bytes": "9223372036854771712\n",
                    f"{V1}/memory.usage_in_bytes": "2097152\n"}, 6 << 20),
        # v1: a limit on an ancestor bounds its descendants
        (V1_LINES, {f"{V1}/jobs/memory.limit_in_bytes": "4194304\n",
                    f"{V1}/jobs/memory.usage_in_bytes": "1048576\n",
                    f"{V1}/jobs/7/memory.limit_in_bytes": "8388608\n",
                    f"{V1}/jobs/7/memory.usage_in_bytes": "0\n"}, 3 << 20),
        # v1: the process's cgroup is not visible, the root is unlimited
        (V1_LINES, {f"{V1}/memory.limit_in_bytes": "9223372036854771712\n",
                    f"{V1}/memory.usage_in_bytes": "2097152\n"}, 64 << 20),
        # nested v2 without a cgroup namespace
        ("0::/user.slice/job.scope\n",
         {"/sys/fs/cgroup/user.slice/job.scope/memory.max": "8388608\n",
          "/sys/fs/cgroup/user.slice/job.scope/memory.current": "1048576\n",
          "/sys/fs/cgroup/memory.max": "1073741824\n",
          "/sys/fs/cgroup/memory.current": "0\n"}, 7 << 20),
        ("0::/user.slice/job.scope\n",
         {"/sys/fs/cgroup/user.slice/job.scope/memory.max": "max\n",
          "/sys/fs/cgroup/user.slice/job.scope/memory.current": "1048576\n",
          "/sys/fs/cgroup/user.slice/memory.max": "5242880\n",
          "/sys/fs/cgroup/user.slice/memory.current": "1048576\n"}, 4 << 20),
        # hybrid: v2 mounted beside v1, the smaller headroom of the two
        ("4:memory:/jobs/7\n0::/jobs/7\n",
         {f"{V1}/jobs/7/memory.limit_in_bytes": "8388608\n",
          f"{V1}/jobs/7/memory.usage_in_bytes": "1048576\n",
          "/sys/fs/cgroup/unified/jobs/7/memory.max": "4194304\n",
          "/sys/fs/cgroup/unified/jobs/7/memory.current": "2097152\n"},
         2 << 20),
        ("4:memory:/jobs/7\n0::/jobs/7\n",
         {f"{V1}/jobs/7/memory.limit_in_bytes": "8388608\n",
          f"{V1}/jobs/7/memory.usage_in_bytes": "1048576\n",
          "/sys/fs/cgroup/unified/jobs/7/memory.max": "max\n",
          "/sys/fs/cgroup/unified/jobs/7/memory.current": "2097152\n"},
         7 << 20),
        # a listing without a memory line or a v2 line reads no limit
        ("3:cpu:/jobs/7\n", {"/sys/fs/cgroup/memory.max": "1048576\n",
                              "/sys/fs/cgroup/memory.current": "0\n"},
         64 << 20)])
    def test_cgroup_limit_of_own_cgroup(self, monkeypatch, own, files, want):
        # the limits over the process are found from /proc/self/cgroup
        texts = {"/proc/meminfo": "MemAvailable:   65536 kB\n",
                 "/proc/self/cgroup": own, **files}
        self.serve_files(monkeypatch, texts)
        assert harness._available_bytes() == want

    def test_cgroup_limit_alone_refuses(self, monkeypatch):
        # no MemAvailable, and a cgroup limit with 1 MiB of headroom
        self.serve_files(monkeypatch, {
            "/sys/fs/cgroup/memory.max": "3145728\n",
            "/sys/fs/cgroup/memory.current": "2097152\n"})
        with pytest.raises(ValueError, match="only 1048576 are available"):
            run_verify_suite(small_config(), include_airy=False)


class TestHSProxy:
    def test_matches_frobenius(self):
        # Frobenius norms of the gap kernels i(l - k)K, reference definition
        data = smooth_synthetic_data()
        dl = data.grids.grid_kl.spacing
        from kpist.rhp import derivative_data
        gap = derivative_data(data)
        expect = (np.linalg.norm(gap.T_plus)
                  + np.linalg.norm(gap.T_minus)) * dl
        assert _hs_proxy(data) == pytest.approx(expect, rel=1e-14)


class TestAiryTables:
    def test_bound_rows_logic(self):
        rows = [("nondegenerate", 10.0, 1.00),
                ("nondegenerate", 40.0, 1.05),
                ("nondegenerate", 160.0, 1.02),
                ("degenerate", 10.0, 1.47),
                ("degenerate", 40.0, 1.46),
                ("degenerate", 160.0, 1.48)]
        out = _airy_bound_rows(rows)
        by = {r.name: r for r in out}
        assert by["halfline.nondegenerate.monotone"].passed
        assert by["halfline.nondegenerate.monotone"].measured == \
            pytest.approx(1.05)
        assert by["halfline.degenerate.stable"].passed
        assert by["halfline.degenerate.stable"].measured == \
            pytest.approx(1.48 / 1.46)
        assert by["airy.quadrature.identity"].passed

    def test_bound_rows_fail_on_growth(self):
        rows = [("nondegenerate", 10.0, 1.0),
                ("nondegenerate", 40.0, 1.4),
                ("degenerate", 10.0, 1.0),
                ("degenerate", 40.0, 1.3)]
        out = {r.name: r for r in _airy_bound_rows(rows)}
        assert not out["halfline.nondegenerate.monotone"].passed
        assert not out["halfline.degenerate.stable"].passed

    def test_quadrature_identity(self):
        closed = cubic_phase_transform(-1.0, 2.0, 0.5)
        quad = _cubic_phase_quadrature(-1.0, 2.0, 0.5)
        assert abs(closed - quad) / abs(quad) <= 1e-6

    def test_small_t_tables_sane(self):
        rows = airy_ratio_tables(t_values=(4.0, 8.0))
        nd = [r[2] for r in rows if r[0] == "nondegenerate"]
        dg = [r[2] for r in rows if r[0] == "degenerate"]
        assert len(nd) == 2 and len(dg) == 2
        assert all(0.3 < v < 2.0 for v in nd)
        assert all(1.3 < v < 1.6 for v in dg)
