"""File format round trips, probe parsing, CSV determinism, configs."""

import re

import numpy as np
import pytest
import yaml

from kpist.grids import Grid1D, PotentialField, make_test_potential
from kpist.io import (ExperimentConfig, RaySpec, format_cell, load_config,
                      load_potential, load_probes, load_scattering,
                      read_array, save_potential, save_scattering, write_array,
                      write_csv)
from kpist.scattering import ScatteringData, ScatteringGrids


def small_field():
    g = Grid1D(-8.0, 8.0, 32)
    return make_test_potential("gaussian_dx", 0.03, 2.0, g, g)


def synthetic_data(n=16):
    g = Grid1D(-4.0, 4.0, n)
    grids = ScatteringGrids(g, g)
    rng = np.random.default_rng(7)
    base = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.arange(n)[None, :] - np.arange(n)[:, None]
    t_plus = np.where(d > 0, 1.0, np.where(d == 0, 0.5, 0.0)) * base * 0.01
    t_minus = np.where(d < 0, 1.0, np.where(d == 0, 0.5, 0.0)) * base * 0.01
    return ScatteringData(t_plus, t_minus, base * 0.01, grids,
                          {"l2_norm_plus": 0.1, "l2_norm_minus": 0.2})


class TestArrays:
    def test_real_round_trip(self, tmp_path):
        arr = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        p = tmp_path / "a.bin"
        write_array(p, arr)
        back = read_array(p, (3, 4), False)
        assert np.array_equal(back, arr)

    def test_complex_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        p = tmp_path / "c.bin"
        write_array(p, arr)
        assert np.array_equal(read_array(p, (5, 5), True), arr)

    def test_interleaved_layout(self, tmp_path):
        # the complex file is readable as (re, im) float64 pairs
        arr = np.array([[1.0 + 2.0j, 3.0 - 4.0j]])
        p = tmp_path / "c.bin"
        write_array(p, arr)
        flat = np.fromfile(p, dtype="<f8")
        assert list(flat) == [1.0, 2.0, 3.0, -4.0]

    def test_size_mismatch(self, tmp_path):
        p = tmp_path / "a.bin"
        write_array(p, np.zeros(6))
        with pytest.raises(ValueError, match="expected"):
            read_array(p, (4, 4), False)


class TestPotentialFiles:
    def test_round_trip(self, tmp_path):
        field = small_field()
        out = save_potential(field, tmp_path / "pot", extra={"kind": "g"})
        assert out.exists()
        back = load_potential(tmp_path / "pot")
        assert np.array_equal(back.values, field.values)
        assert back.grid_x.n == field.grid_x.n
        assert back.grid_y.max == field.grid_y.max

    def test_suffix_tolerated(self, tmp_path):
        field = small_field()
        save_potential(field, tmp_path / "pot.yaml")
        back = load_potential(tmp_path / "pot.bin")
        assert np.array_equal(back.values, field.values)

    def test_wrong_format_rejected(self, tmp_path):
        (tmp_path / "x.yaml").write_text(yaml.safe_dump({"format": "other"}))
        with pytest.raises(ValueError, match="not a potential"):
            load_potential(tmp_path / "x")

    @pytest.mark.parametrize("text", ["", "[1, 2]\n"], ids=["empty", "list"])
    def test_sidecar_not_a_mapping(self, tmp_path, text):
        # an empty or list sidecar is refused naming the file, not with
        # an AttributeError from its .get
        (tmp_path / "x.yaml").write_text(text)
        with pytest.raises(ValueError, match=re.escape(
                f"{tmp_path / 'x.yaml'}: the sidecar must be a mapping")):
            load_potential(tmp_path / "x")

    def test_sidecar_without_a_grid(self, tmp_path):
        # refused naming the file and the key, where it raised KeyError
        save_potential(small_field(), tmp_path / "x")
        side = yaml.safe_load((tmp_path / "x.yaml").read_text())
        del side["grid_y"]
        (tmp_path / "x.yaml").write_text(yaml.safe_dump(side))
        with pytest.raises(ValueError, match=re.escape(
                f"{tmp_path / 'x.yaml'}: grid_y must be a mapping, got None")):
            load_potential(tmp_path / "x")


class TestScatteringFiles:
    def test_round_trip(self, tmp_path):
        data = synthetic_data()
        save_scattering(data, tmp_path / "d")
        back = load_scattering(tmp_path / "d")
        assert np.array_equal(back.T_plus, data.T_plus)
        assert np.array_equal(back.T_minus, data.T_minus)
        assert np.array_equal(back.T1, data.T1)
        assert back.grids.grid_kl.n == data.grids.grid_kl.n
        assert back.grids.grid_y.spacing == data.grids.grid_y.spacing
        assert back.meta["l2_norm_plus"] == 0.1

    def test_three_files_present(self, tmp_path):
        save_scattering(synthetic_data(), tmp_path / "d")
        for name in ("t_plus.bin", "t_minus.bin", "t1.bin",
                     "scattering.yaml"):
            assert (tmp_path / "d" / name).exists()

    @pytest.mark.parametrize("name, k, l", [("t_plus.bin", 9, 3),
                                             ("t_minus.bin", 3, 9)])
    def test_entry_beyond_the_triangle_rejected(self, tmp_path, name, k, l):
        # the products read only each family's own triangle, so a file
        # with an entry in the other would serve other numbers unwarned
        data = synthetic_data()
        save_scattering(data, tmp_path / "d")
        path = tmp_path / "d" / name
        arr = read_array(path, data.T_plus.shape, True)
        arr[k, l] = 1e-3
        write_array(path, arr)
        with pytest.raises(ValueError, match=re.escape(name)):
            load_scattering(tmp_path / "d")

    def test_wrong_format_rejected(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        (d / "scattering.yaml").write_text(yaml.safe_dump({"format": "x"}))
        with pytest.raises(ValueError, match="not a scattering"):
            load_scattering(d)

    @pytest.mark.parametrize("text", ["", "8\n"], ids=["empty", "scalar"])
    def test_sidecar_not_a_mapping(self, tmp_path, text):
        d = tmp_path / "d"
        d.mkdir()
        (d / "scattering.yaml").write_text(text)
        with pytest.raises(ValueError, match=re.escape(
                f"{d / 'scattering.yaml'}: the sidecar must be a mapping")):
            load_scattering(d)

    def test_sidecar_without_a_grid(self, tmp_path):
        save_scattering(synthetic_data(), tmp_path / "d")
        path = tmp_path / "d" / "scattering.yaml"
        side = yaml.safe_load(path.read_text())
        del side["grid_y"]
        path.write_text(yaml.safe_dump(side))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: grid_y must be a mapping, got None")):
            load_scattering(tmp_path / "d")


class TestProbes:
    def test_parse(self, tmp_path):
        p = tmp_path / "probes.txt"
        p.write_text("# header comment\n"
                     "0.0  1.5 -2.0\n"
                     "\n"
                     "0.5, 3.0, 0.25  # trailing note\n")
        assert load_probes(p) == [(0.0, 1.5, -2.0), (0.5, 3.0, 0.25)]

    def test_bad_width(self, tmp_path):
        p = tmp_path / "probes.txt"
        p.write_text("0.0 1.0\n")
        with pytest.raises(ValueError, match="probes.txt:1"):
            load_probes(p)

    def test_negative_time(self, tmp_path):
        p = tmp_path / "probes.txt"
        p.write_text("-1.0 0.0 0.0\n")
        with pytest.raises(ValueError, match="negative time"):
            load_probes(p)
        # non-finite rows fail here, with their file and line
        for row in ("nan 0.0 0.0", "0.5 inf 0.0", "0.5 0.0 -inf"):
            p.write_text(f"0.5 0.0 0.0\n{row}\n")
            with pytest.raises(ValueError,
                               match=r"probes\.txt:2: non-finite probe"):
                load_probes(p)

    def test_empty(self, tmp_path):
        p = tmp_path / "probes.txt"
        p.write_text("# nothing\n")
        with pytest.raises(ValueError, match="no probe rows"):
            load_probes(p)


class TestCSV:
    def test_float_cells_round_trip(self):
        for v in (0.1, -0.0, 1e-17, 2.0 / 3.0, 1.2345678901234567e100):
            assert float(format_cell(v)) == v or (v == 0.0)

    def test_bool_and_int(self):
        assert format_cell(True) == "true"
        assert format_cell(False) == "false"
        assert format_cell(np.int64(7)) == "7"

    def test_deterministic_bytes(self, tmp_path):
        rows = [(1, 0.1, "x"), (2, 2.0 / 3.0, "y")]
        a = write_csv(tmp_path / "a.csv", ("i", "v", "s"), rows)
        b = write_csv(tmp_path / "b.csv", ("i", "v", "s"), rows)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[0] == "i,v,s"

    def test_row_width_checked(self, tmp_path):
        with pytest.raises(ValueError, match="row width"):
            write_csv(tmp_path / "a.csv", ("a", "b"), [(1,)])


CONFIG_TEXT = """
potential:
  kind: gaussian_dx
  amplitude: 0.05
  width: 1.0
  half_width: 16.0
  n: 128
scattering: {half_width: 6.0, n_kl: 32, n_y: 32}
delta: 0.05
tol: 1.0e-09
times: {t_min: 2.0, t_max: 8.0, n: 6}
rays:
  - {xi: -3.0, eta: 0.0, label: osc, slope_window: [-1.15, -0.85],
     linear_slope_window: [-1.1, -0.9]}
  - {xi: 0.0, eta: 0.0, label: mid}
output_dir: out
"""


class TestConfig:
    def test_load(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text(CONFIG_TEXT)
        cfg = load_config(p)
        assert cfg.n_kl == 32 and cfg.kl_half_width == 6.0
        assert cfg.delta == 0.05 and cfg.tol == 1e-9
        assert cfg.rays[0].slope_window == (-1.15, -0.85)
        assert cfg.rays[0].linear_slope_window == (-1.1, -0.9)
        assert cfg.rays[1].slope_window is None
        assert cfg.rays[0].a == pytest.approx(-0.25)
        ts = cfg.t_samples()
        assert ts[0] == 2.0 and ts[-1] == 8.0 and len(ts) == 6
        assert np.all(np.diff(np.log(ts)) > 0)

    def test_resolve_potential(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text(CONFIG_TEXT)
        cfg = load_config(p)
        field = cfg.resolve_potential()
        g = Grid1D(-16.0, 16.0, 128)
        ref = make_test_potential("gaussian_dx", 0.05, 1.0, g, g)
        assert np.array_equal(field.values, ref.values)

    def test_potential_by_path(self, tmp_path):
        save_potential(small_field(), tmp_path / "pot")
        p = tmp_path / "c.yaml"
        p.write_text("potential: pot\noutput_dir: out\n")
        cfg = load_config(p)
        assert cfg.potential_path is not None
        assert cfg.resolve_potential().grid_x.n == 32

    def test_missing_potential_file(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("potential: nowhere\n")
        with pytest.raises(ValueError, match="does not exist"):
            load_config(p)

    def test_bad_delta(self, tmp_path):
        p = tmp_path / "c.yaml"
        for delta in ("0.0", "nan", "inf"):
            p.write_text(f"potential: {{amplitude: 0.05}}\ndelta: {delta}\n")
            with pytest.raises(ValueError, match="delta"):
                load_config(p)

    def test_bad_tol(self, tmp_path):
        p = tmp_path / "c.yaml"
        for tol in ("0.0", "-1.0e-10", "nan", "inf"):
            p.write_text(f"potential: {{amplitude: 0.05}}\ntol: {tol}\n")
            with pytest.raises(ValueError,
                               match="tol must be finite and positive"):
                load_config(p)

    @pytest.mark.parametrize("key, value, text", [
        ("n_kl", "100", "n_kl must be a power of two >= 8, got 100"),
        ("n_y", "4", "n_y must be a power of two >= 8, got 4"),
        ("half_width", "-4", "half_width must be finite and positive"),
        ("half_width", ".nan", "half_width must be finite and positive")])
    def test_bad_scattering_grid(self, tmp_path, key, value, text):
        # refused at load, naming the file and the key, not later by the
        # grid constructor with neither
        p = tmp_path / "c.yaml"
        p.write_text("potential: {amplitude: 0.05}\n"
                     f"scattering: {{{key}: {value}}}\n")
        with pytest.raises(ValueError,
                           match=re.escape(f"{p}: scattering.{text}")):
            load_config(p)

    def test_nonfinite_times(self, tmp_path):
        # an infinite t_max passes 0 < t_min < t_max; the sample times
        # would then be nan and every probe of a decay fit refused
        p = tmp_path / "c.yaml"
        for key, other, value in (("t_max", "t_min: 1.0", ".inf"),
                                  ("t_max", "t_min: 1.0", ".nan"),
                                  ("t_min", "t_max: 2.0", ".nan")):
            p.write_text("potential: {amplitude: 0.05}\n"
                         f"times: {{{key}: {value}, {other}}}\n")
            msg = re.escape(f"{p}: times.{key} must be finite")
            with pytest.raises(ValueError, match=msg):
                load_config(p)

    def test_too_few_times(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("potential: {amplitude: 0.05}\n"
                     "times: {t_min: 1.0, t_max: 2.0, n: 4}\n")
        with pytest.raises(ValueError, match="6 time samples"):
            load_config(p)

    def test_fine_cap_must_be_a_power_of_two(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("potential: {amplitude: 0.05}\nfine_cap: 1000\n")
        with pytest.raises(ValueError, match="fine_cap 1000 "):
            load_config(p)

    def test_window_order_checked(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("potential: {amplitude: 0.05}\n"
                     "rays: [{xi: 1.0, slope_window: [0.5, -0.5]}]\n")
        with pytest.raises(ValueError, match="out of order"):
            load_config(p)

    # malformed entries are refused naming the file and the key, where
    # they raised KeyError, TypeError or AttributeError, or a ValueError
    # naming neither, from deep inside the parse, or were truncated
    # (int(128.5) = 128); the potential table is checked where it is
    # read, not when resolve_potential uses it
    @pytest.mark.parametrize("body, text", [
        ("rays: [{eta: 0.0}]", "rays[0] needs xi"),
        ("rays: [[1.0, 0.0]]", "rays[0] must be a mapping"),
        ("rays: 5", "rays must be a list"),
        ("times: 5", "times must be a mapping"),
        ("scattering: 8", "scattering must be a mapping"),
        ("rays: [{xi: 1.0, slope_window: [1]}]",
         "rays[0].slope_window must be a pair"),
        ("delta: null", "delta must be a number, got None"),
        ("potential: {amplitude: null}",
         "potential.amplitude must be a number, got None"),
        ("rays: [{xi: 1.0, slope_window: [a, 1]}]",
         "rays[0].slope_window[0] must be a number, got 'a'"),
        ("scattering: {n_kl: 128.5}",
         "scattering.n_kl must be an integer, got 128.5"),
        ("times: {n: 6.9}", "times.n must be an integer, got 6.9"),
        ("potential: {amplitude: 0.05, n: 100}",
         "potential.n must be a power of two >= 8, got 100"),
        ("potential: {amplitude: 0.05, kind: foo}",
         "potential.kind must be one of gaussian_dx, cosine_packet, "
         "got 'foo'")],
        ids=["ray_without_xi", "ray_as_list", "rays_scalar", "times_scalar",
             "scattering_scalar", "window_of_one", "null_delta",
             "null_amplitude", "window_not_a_number", "fractional_n_kl",
             "fractional_times_n", "potential_n", "potential_kind"])
    def test_malformed_entry(self, tmp_path, body, text):
        p = tmp_path / "c.yaml"
        p.write_text(body if body.startswith("potential") else
                     f"potential: {{amplitude: 0.05}}\n{body}\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}: {text}")):
            load_config(p)

    def test_potential_table_completed(self, tmp_path):
        # resolve_potential reads every key of the table load_config fills
        p = tmp_path / "c.yaml"
        p.write_text("potential: {amplitude: 0.05, half_width: 16}\n")
        cfg = load_config(p)
        assert cfg.potential_spec == {"kind": "gaussian_dx", "amplitude": 0.05,
                                      "n": 256, "width": 1.0,
                                      "half_width": 16.0}
        g = Grid1D(-16.0, 16.0, 256)
        ref = make_test_potential("gaussian_dx", 0.05, 1.0, g, g)
        assert np.array_equal(cfg.resolve_potential().values, ref.values)
