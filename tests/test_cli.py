"""The command line front end, run in-process on tiny inputs.

One chain of commands shares a module-scoped directory: a 128^2 potential
over [-16, 16]^2, its scattering data on 32-point grids, then
reconstruction on per-probe grids (the stored grid at t = 0), raw
solves, the direct spectral evolution, the bound sweep and a decay fit
with its linear baseline. Written values are checked against the same
calls made in-process, by repr. Commands given invalid arguments exit 1
and write nothing.
"""

import numpy as np
import pytest
import yaml

from kpist import harness
from kpist.cli import RECON_HEADER, main
from kpist.harness import DECAY_HEADER, run_linear_baseline, write_decay_csv
from kpist.io import format_cell, load_config, load_scattering, read_array
from kpist.phase_airy import RayCoordinates
from kpist.reconstruct import (ray_resolution_grid, reconstruct,
                               resample_scattering_data)
from kpist.rhp import CTOperator, solve_dmul_dx

PROBES = [(0.5, 1.2, 0.8), (2.0, -3.0, 1.0), (1.0, 2.0, -1.5),
          (0.0, 0.5, -0.25)]

CONFIG = """\
potential: pot
scattering: {half_width: 6.0, n_kl: 32, n_y: 32}
tol: 1.0e-9
fine_cap: 512
times: {t_min: 2.0, t_max: 6.0, n: 6}
rays:
  - {xi: -3.0, label: osc}
  - {xi: 0.0, label: mid}
"""


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "probes.txt").write_text(
        "# t x y\n" + "".join(f"{t} {x} {y}\n" for t, x, y in PROBES))
    (d / "config.yaml").write_text(CONFIG)
    probes = str(d / "probes.txt")
    commands = {
        "make-potential": ["make-potential", "--amplitude", "0.02",
                           "--half-width", "16", "--n", "128",
                           "-o", str(d / "pot")],
        "scatter": ["scatter", str(d / "pot"), "-o", str(d / "scat"),
                    "--n-kl", "32", "--n-y", "32"],
        "reconstruct": ["reconstruct", str(d / "scat"), "--probes", probes,
                        "-o", str(d / "recon.csv")],
        "rhp-solve": ["rhp-solve", str(d / "scat"), "--probes", probes,
                      "-o", str(d / "rhp")],
        "evolve-direct": ["evolve-direct", str(d / "pot"), "--t", "0.002",
                          "-o", str(d / "evolved")],
        "verify": ["verify", str(d / "config.yaml"), "--skip-airy",
                   "-o", str(d / "verify")],
        "decay-fit": ["decay-fit", str(d / "config.yaml"),
                      "-o", str(d / "decay")],
    }
    codes = {name: main(argv) for name, argv in commands.items()}
    return d, codes


def csv_lines(path):
    return path.read_text().splitlines()


def recon_line(t, x, y, s):
    rc = RayCoordinates(t, x, y)
    return ",".join(format_cell(v) for v in (
        t, x, y, rc.xi, rc.eta, rc.a, s.region.value, s.u1.real, s.u1.imag,
        s.u2.real, s.u2.imag, s.u.real, s.u.imag))


class TestChain:
    def test_every_command_exits_zero(self, chain):
        _, codes = chain
        assert codes == dict.fromkeys(codes, 0)

    def test_csv_headers(self, chain):
        d, _ = chain
        headers = {
            d / "recon.csv": ",".join(RECON_HEADER),
            d / "rhp" / "residuals.csv":
                "index,t,x,y,xi,eta,a,region,residual_mu,residual_dmu,"
                "iterations,n_grid",
            d / "evolved" / "conservation.csv": "t,l2_norm,rel_drift",
            d / "verify" / "verify_bounds.csv":
                "name,measured,limit,passed,note",
            d / "decay" / "decay_nonlinear.csv": ",".join(DECAY_HEADER),
            d / "decay" / "decay_linear.csv": ",".join(DECAY_HEADER),
        }
        for path, header in headers.items():
            lines = csv_lines(path)
            assert lines[0] == header
            assert len(lines) > 1

    def test_reconstruct_rows_match_in_process(self, chain):
        d, _ = chain
        data = load_scattering(d / "scat")
        want = []
        for t, x, y in PROBES:
            work = data if t == 0.0 else resample_scattering_data(
                data, ray_resolution_grid(t, x, y))
            want.append(recon_line(t, x, y, reconstruct(work, t, x, y)))
        assert csv_lines(d / "recon.csv")[1:] == want

    def test_rhp_solution_matches_in_process(self, chain):
        d, _ = chain
        data = load_scattering(d / "scat")
        t, x, y = PROBES[0]
        work = resample_scattering_data(data, ray_resolution_grid(t, x, y))
        sol = solve_dmul_dx(CTOperator.build(work, t, x, y))
        n = work.grids.n_kl
        # the record holds the one probe as a one-row stack; the files
        # hold its row, n values each
        assert np.array_equal(read_array(d / "rhp" / "mu_000.bin", (n,), True),
                              sol.mu_minus_1[0])
        assert np.array_equal(read_array(d / "rhp" / "dmu_000.bin", (n,), True),
                              sol.dmu_dx[0])

    def test_linear_baseline_matches_in_process(self, chain, tmp_path):
        d, _ = chain
        cfg = load_config(d / "config.yaml")
        fits = run_linear_baseline(cfg)
        summary = yaml.safe_load((d / "decay" / "summary.yaml").read_text())
        assert [(e["label"], e["xi"], e["eta"]) for e in summary["linear"]] \
            == [(s.label, s.xi, s.eta) for s in cfg.rays]
        assert [e["slope"] for e in summary["linear"]] == \
            [f.slope for f in fits]
        want = write_decay_csv(fits, tmp_path / "linear.csv")
        assert csv_lines(d / "decay" / "decay_linear.csv") == csv_lines(want)


class TestVerifyAiry:
    """`kpist verify airy`: the Airy rows alone, from run_verify_suite."""

    def test_writes_the_airy_report(self, tmp_path, monkeypatch):
        # fixed tables in place of the 16 s sweep; the files are those the
        # command wrote when it assembled the report itself
        rows = [("nondegenerate", 10.0, 1.0), ("nondegenerate", 40.0, 1.05),
                ("nondegenerate", 160.0, 1.02), ("degenerate", 10.0, 1.47),
                ("degenerate", 40.0, 1.46), ("degenerate", 160.0, 1.48)]
        monkeypatch.setattr(harness, "airy_ratio_tables", lambda: list(rows))
        assert main(["verify", "airy", "-o", str(tmp_path)]) == 0
        assert (tmp_path / "verify_airy.csv").read_text() == (
            "table,t,sup_value\nnondegenerate,10.0,1.0\n"
            "nondegenerate,40.0,1.05\nnondegenerate,160.0,1.02\n"
            "degenerate,10.0,1.47\ndegenerate,40.0,1.46\n"
            "degenerate,160.0,1.48\n")
        lines = csv_lines(tmp_path / "verify_bounds.csv")
        assert lines[:3] == [
            "name,measured,limit,passed,note",
            "halfline.nondegenerate.monotone,1.05,1.15,true,successive "
            "envelope sup ratio, scaled t^-1/2 (1+|xi|)",
            "halfline.degenerate.stable,1.0136986301369864,1.15,true,max/min "
            "across t of sup |H| t^(1/3) over |a| <= 0.05"]
        assert len(lines) == 4
        assert lines[3].startswith("airy.quadrature.identity,")
        assert ",1e-06,true,closed form vs half_airy_H" in lines[3]


class TestInvalidArguments:
    """Refused arguments exit 1 before any output is written."""

    @pytest.mark.parametrize("flags", [
        ["--segments", "0"], ["--segments", "-1"], ["--t", "inf"],
        ["--t", "nan"]])
    def test_evolve_direct_refuses(self, chain, tmp_path, flags):
        d, _ = chain
        argv = ["evolve-direct", str(d / "pot"), "--t", "0.002",
                "-o", str(tmp_path / "out")] + flags
        assert main(argv) == 1
        assert not (tmp_path / "out").exists()

    def test_reconstruct_refuses_nan_delta(self, chain, tmp_path):
        d, _ = chain
        out = tmp_path / "recon.csv"
        assert main(["reconstruct", str(d / "scat"), "--probes",
                     str(d / "probes.txt"), "--delta", "nan",
                     "-o", str(out)]) == 1
        assert not out.exists()

    def test_rhp_solve_refuses_nan_delta(self, chain, tmp_path):
        d, _ = chain
        out = tmp_path / "rhp"
        assert main(["rhp-solve", str(d / "scat"), "--probes",
                     str(d / "probes.txt"), "--delta", "nan",
                     "-o", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["reconstruct", "rhp-solve"])
    def test_fine_cap_refused_without_a_fine_grid(self, chain, tmp_path,
                                                  capsys, command):
        # a t = 0 probe keeps the stored grid and never sizes a fine one
        d, _ = chain
        probes = tmp_path / "probes.txt"
        probes.write_text("0 0.5 0.5\n")
        out = tmp_path / "out"
        assert main([command, str(d / "scat"), "--probes", str(probes),
                     "--fine-cap", "1000", "-o", str(out)]) == 1
        assert "fine_cap" in capsys.readouterr().err
        assert not out.exists()

    def test_rhp_solve_refused_later_probe_writes_nothing(self, chain,
                                                          tmp_path, capsys):
        # the first probe solves; the second one's window (half-width
        # about 12.9) leaves the stored [-8, 8] grid and is refused
        d, _ = chain
        probes = tmp_path / "probes.txt"
        probes.write_text("0.5 1.0 0.5\n0.1 -50 0\n")
        out = tmp_path / "rhp"
        assert main(["rhp-solve", str(d / "scat"), "--probes", str(probes),
                     "-o", str(out)]) == 1
        assert "inside the source grid" in capsys.readouterr().err
        assert not out.exists()

    def test_scatter_over_the_memory_budget_writes_nothing(
            self, chain, tmp_path, monkeypatch, capsys):
        d, _ = chain
        monkeypatch.setattr(harness, "_available_bytes", lambda: 1 << 20)
        out = tmp_path / "scat"
        assert main(["scatter", str(d / "pot"), "-o", str(out)]) == 1
        assert "are available (n_kl = 128, n_y = 128)" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_decay_fit_refuses_a_null_delta(self, tmp_path, capsys):
        # a null entry is refused naming the file and the key, where
        # float(None) raised TypeError and main printed a traceback
        cfg = tmp_path / "config.yaml"
        cfg.write_text(CONFIG.replace("potential: pot",
                                      "potential: {amplitude: 0.02}\n"
                                      "delta: null"))
        out = tmp_path / "decay"
        assert main(["decay-fit", str(cfg), "-o", str(out)]) == 1
        assert f"{cfg}: delta must be a number, got None" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_scatter_refuses_a_sidecar_without_a_grid(self, chain, tmp_path,
                                                       capsys):
        d, _ = chain
        side = yaml.safe_load((d / "pot.yaml").read_text())
        del side["grid_y"]
        (tmp_path / "pot.yaml").write_text(yaml.safe_dump(side))
        out = tmp_path / "scat"
        assert main(["scatter", str(tmp_path / "pot"), "-o", str(out)]) == 1
        assert "pot.yaml: grid_y must be a mapping" in capsys.readouterr().err
        assert not out.exists()

    def test_decay_fit_refused_potential_writes_nothing(self, tmp_path,
                                                        capsys):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(CONFIG.replace(
            "potential: pot",
            "potential: {amplitude: 5.0, n: 64, half_width: 16}"))
        out = tmp_path / "decay"
        assert main(["decay-fit", str(cfg), "-o", str(out)]) == 1
        assert "grid too coarse" in capsys.readouterr().err
        assert not out.exists()
