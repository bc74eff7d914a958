"""The command line front end, run in-process on tiny inputs.

One chain of commands shares a module-scoped directory: a 128^2 potential
over [-16, 16]^2, its scattering data on 32-point grids, then
reconstruction (per-probe grids and --direct), raw solves, the direct
spectral evolution, the bound sweep and a decay fit with its linear
baseline. Written values are checked against the same calls made
in-process, by repr.
"""

import numpy as np
import pytest
import yaml

from kpist.cli import RECON_HEADER, main
from kpist.harness import DECAY_HEADER, run_linear_baseline, write_decay_csv
from kpist.io import format_cell, load_config, load_scattering, read_array
from kpist.phase_airy import RayCoordinates
from kpist.reconstruct import ray_resolution_grid, reconstruct, working_data
from kpist.rhp import CTOperator, solve_dmul_dx

PROBES = [(0.5, 1.2, 0.8), (2.0, -3.0, 1.0), (1.0, 2.0, -1.5)]

# --direct keeps the 32-point grid, which the later probes' phase outruns:
# the under-resolution warning is the documented outcome there
pytestmark = pytest.mark.filterwarnings(
    "ignore:oscillatory weight advances:RuntimeWarning")

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
        "reconstruct --direct": ["reconstruct", str(d / "scat"), "--probes",
                                 probes, "--direct",
                                 "-o", str(d / "recon_direct.csv")],
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
            d / "recon_direct.csv": ",".join(RECON_HEADER),
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
        for name, direct in (("recon.csv", False), ("recon_direct.csv", True)):
            want = []
            for t, x, y in PROBES:
                work = data if direct else working_data(
                    data, ray_resolution_grid(t, x, y))
                want.append(recon_line(t, x, y, reconstruct(work, t, x, y)))
            assert csv_lines(d / name)[1:] == want

    def test_rhp_solution_matches_in_process(self, chain):
        d, _ = chain
        data = load_scattering(d / "scat")
        t, x, y = PROBES[0]
        work = working_data(data, ray_resolution_grid(t, x, y))
        sol = solve_dmul_dx(CTOperator.build(work, t, x, y))
        n = work.grids.n_kl
        assert np.array_equal(read_array(d / "rhp" / "mu_000.bin", (n,), True),
                              sol.mu_minus_1)
        assert np.array_equal(read_array(d / "rhp" / "dmu_000.bin", (n,), True),
                              sol.dmu_dx)

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
