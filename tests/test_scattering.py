"""Tests for the layered Volterra solve and scattering-kernel assembly.

Oracles: direct triple-loop summation with the same per-panel phase
moments (indexing and vectorization), adaptive quadrature on the closed
form of the reference data (quadrature fidelity), and a stable
Faddeeva-function evaluation of the second-order term (support structure
and magnitude of the nonlinear part). Tolerances carry 2-5x margin over
measured errors at the stated resolutions.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import wofz

from kpist.grids import (
    SQRT_2PI,
    Grid1D,
    check_conditions,
    make_test_potential,
    partial_fourier_x,
)
from kpist import harness, scattering
from kpist.oscillatory import filon_moments
from kpist.scattering import (
    FamilyKernel,
    MuSharpField,
    ScatteringData,
    ScatteringGrids,
    _ConvolutionPlan,
    _VolterraPlan,
    apply_g,
    assemble_T,
    assemble_T1,
    g_on_delta,
    neumann_series,
    resample_transform,
    solve_mu_sharp,
    triangular_products,
)
from reference import (
    _layer_sq,
    _offset_kernel,
    apply_g_kly,
    cumulative_phase_integral,
    diagnostic_mu_k_growth,
    from_sweep,
    g_on_delta_kly,
    kernel_continuity_constant,
    split_T,
    to_sweep,
    transform_norms,
    two_sweep_apply_g,
    two_sweep_g_on_delta,
    two_sweep_solve_mu_sharp,
    x_norm,
)

EPS_REF = 0.05


def small_grids(n_kl=16, n_y=16, half=4.0):
    return ScatteringGrids(Grid1D(-half, half, n_kl), Grid1D(-half, half, n_y))


def given_field(values, sign, grids):
    """A MuSharpField of given natural (K, M, n_y) values, as a one-term
    solve would hand it on: in the sweep layout."""
    return MuSharpField(to_sweep(values, sign), sign, grids, 1, [], 0.0)


@pytest.fixture(scope="module")
def reference_setup():
    gx = Grid1D(-32.0, 32.0, 256)
    field = make_test_potential("gaussian_dx", EPS_REF, 1.0, gx, gx)
    pt = partial_fourier_x(field)
    report = check_conditions(field, pt)
    return field, pt, report


@pytest.fixture(scope="module")
def work128(reference_setup):
    _, pt, report = reference_setup
    wg = ScatteringGrids(Grid1D(-8.0, 8.0, 128), Grid1D(-8.0, 8.0, 128))
    ut = resample_transform(pt, wg)
    return wg, ut, report


@pytest.fixture(scope="module")
def solved128(work128):
    wg, ut, _ = work128
    plan = _VolterraPlan(ut, wg)
    mu_p = solve_mu_sharp(plan, +1)
    mu_m = solve_mu_sharp(plan, -1)
    T1 = assemble_T1(plan)
    data = ScatteringData.from_families(
        assemble_T(mu_p, plan, T1, FamilyKernel.empty(wg)),
        assemble_T(mu_m, plan, T1, FamilyKernel.empty(wg)), T1, plan)
    return wg, ut, mu_p, mu_m, data


def small_field(eps, width=1.0):
    gx = Grid1D(-32.0, 32.0, 256)
    return make_test_potential("gaussian_dx", eps, width, gx, gx)


def build_small(eps, n_kl=64, n_y=64, width=1.0):
    wg = ScatteringGrids(Grid1D(-8.0, 8.0, n_kl), Grid1D(-8.0, 8.0, n_y))
    return wg, resample_transform(partial_fourier_x(small_field(eps, width)),
                                  wg)


def small_data(eps, width=1.0):
    """Kernels of the reference profile on 64-point grids by the
    harness's direct map, with the transform and grids they came from."""
    wg, ut = build_small(eps, width=width)
    data, _ = harness.compute_scattering(small_field(eps, width), wg)
    return data, ut, wg


# ---------------------------------------------------------------- convolution

def circular_kly(plan, f):
    """The plan's circular convolution of a natural (K, M, n_y) operand,
    on its halves in the sweep layout, with the result in the same index
    order, (K, pad, n_y)."""
    halves = scattering._halves(to_sweep(f, +1), +1)
    return np.moveaxis(plan.on_halves(*halves), 0, -1)


def test_conv_same_matches_direct_loop():
    rng = np.random.default_rng(7)
    g = small_grids()
    m, ny = g.n_kl, g.n_y
    ut = rng.standard_normal((m, ny)) + 1j * rng.standard_normal((m, ny))
    f = rng.standard_normal((m, m, ny)) + 1j * rng.standard_normal((m, m, ny))
    offs = _offset_kernel(ut, g)
    got = circular_kly(_ConvolutionPlan(ut, g, 2 * m), f)[..., :m, :]
    want = np.zeros_like(f)
    for i in range(m):
        for j in range(m):
            acc = np.zeros(ny, complex)
            for jp in range(m):
                acc += offs[(j - jp) + m - 1] * f[i, jp]
            want[i, j] = acc * g.grid_kl.spacing
    assert np.max(np.abs(got - want)) < 1e-12


def test_conv_full_evaluation_points():
    # table index t of the full output holds the convolution evaluated at
    # offset (t - (m-1) - m/2) * dl
    rng = np.random.default_rng(8)
    g = small_grids()
    m, ny = g.n_kl, g.n_y
    dl = g.grid_kl.spacing
    lpts = g.grid_kl.points
    ut = rng.standard_normal((m, ny)) + 1j * rng.standard_normal((m, ny))
    f = rng.standard_normal((2, m, ny)) + 1j * rng.standard_normal((2, m, ny))
    d = np.arange(-(m - 1), m)
    full = circular_kly(_ConvolutionPlan(ut, g, 3 * m), f)[..., d % (3 * m), :]

    def ut_at(offset_val, iy):
        idx = int(round(offset_val / dl)) + m // 2
        if 0 <= idx < m:
            return ut[idx, iy]
        return 0.0

    for t in (0, 3, m - 1, m, 2 * m - 2):
        p = (t - (m - 1) - m // 2) * dl
        for iy in (0, ny // 2):
            want = sum(ut_at(p - lpts[jp], iy) * f[1, jp, iy] for jp in range(m)) * dl
            assert abs(full[1, t, iy] - want) < 1e-12


def _linear_convolution(ut, f, g, t):
    """Direct loop: the linear convolution at l indices t of f (K, M, n_y)."""
    m = g.n_kl
    offs = _offset_kernel(ut, g)
    out = np.zeros((f.shape[0], len(t), f.shape[-1]), complex)
    for i, ti in enumerate(t):
        for jp in range(m):
            if abs(ti - jp) <= m - 1:
                out[:, i] += offs[(ti - jp) + m - 1] * f[:, jp]
    return out * g.grid_kl.spacing


@pytest.mark.parametrize("reads,pad", [
    # the solve reads l indices 0..M-1 and takes pad 3M/2
    (lambda m: np.arange(m), lambda m: 3 * m // 2),
    # assembly reads -(M/2-1)..3M/2-1 and takes pad 2M
    (lambda m: np.arange(-(m // 2 - 1), 3 * m // 2), lambda m: 2 * m),
])
def test_conv_pads_are_exact_and_minimal(reads, pad):
    rng = np.random.default_rng(17)
    g = small_grids()
    m, ny = g.n_kl, g.n_y
    ut = rng.standard_normal((m, ny)) + 1j * rng.standard_normal((m, ny))
    f = rng.standard_normal((3, m, ny)) + 1j * rng.standard_normal((3, m, ny))
    t = reads(m)
    want = _linear_convolution(ut, f, g, t)
    p = pad(m)
    got = circular_kly(_ConvolutionPlan(ut, g, p), f)[:, t % p]
    assert np.max(np.abs(got - want)) < 1e-12
    # one point shorter, an alias of the support wraps onto a read index
    short = circular_kly(_ConvolutionPlan(ut, g, p - 1), f)[:, t % (p - 1)]
    assert np.max(np.abs(short - want)) > 1e-2


# ------------------------------------------------------------------- volterra

def _volterra_reference(amp_row, theta, grids, start_top):
    dy = grids.grid_y.spacing
    y = grids.grid_y.points
    cum = cumulative_phase_integral(amp_row[None, :], dy, np.array([theta]))[0]
    carrier = np.exp(-1j * theta * (y - y[0]))
    if start_top:
        return -carrier * (cum[-1] - cum)
    return carrier * cum


def test_volterra_direction_semantics():
    rng = np.random.default_rng(9)
    g = small_grids()
    m, ny = g.n_kl, g.n_y
    l = g.grid_kl.points
    ut = rng.standard_normal((m, ny)) + 1j * rng.standard_normal((m, ny))
    plan = _VolterraPlan(ut, g)
    gd = g_on_delta_kly(plan, +1)
    ik = 3
    kv = l[ik]
    # l > 0 with the plus family: integration starts at +inf
    il = m - 3
    want = 1j * _volterra_reference(ut[il], l[il] * (l[il] + 2 * kv), g, True)
    assert np.max(np.abs(gd[ik, il] - want)) < 1e-13
    # l < 0: starts at -inf
    il = 2
    want = 1j * _volterra_reference(ut[il], l[il] * (l[il] + 2 * kv), g, False)
    assert np.max(np.abs(gd[ik, il] - want)) < 1e-13
    # l = 0: average of both ends
    il = m // 2
    assert l[il] == 0.0
    want = 1j * 0.5 * (_volterra_reference(ut[il], 0.0, g, False)
                       + _volterra_reference(ut[il], 0.0, g, True))
    assert np.max(np.abs(gd[ik, il] - want)) < 1e-13
    # the minus family mirrors the map
    gdm = g_on_delta_kly(plan, -1)
    il = m - 3
    want = 1j * _volterra_reference(ut[il], l[il] * (l[il] + 2 * kv), g, False)
    assert np.max(np.abs(gdm[ik, il] - want)) < 1e-13


def test_apply_g_direct_oracle():
    rng = np.random.default_rng(10)
    g = small_grids()
    m, ny = g.n_kl, g.n_y
    l = g.grid_kl.points
    dl = g.grid_kl.spacing
    ut = rng.standard_normal((m, ny)) + 1j * rng.standard_normal((m, ny))
    f = rng.standard_normal((m, m, ny)) + 1j * rng.standard_normal((m, m, ny))
    offs = _offset_kernel(ut, g)
    plan = _VolterraPlan(ut, g)
    for sign in (+1, -1):
        got = apply_g_kly(plan, f, sign)
        for ik in (1, m // 2, m - 2):
            for il in (0, 2, m // 2, m - 1):
                conv = np.zeros(ny, complex)
                for jp in range(m):
                    conv += offs[(il - jp) + m - 1] * f[ik, jp]
                conv *= dl
                theta = l[il] * (l[il] + 2 * l[ik])
                sl = sign * l[il]
                if sl > 0:
                    want = _volterra_reference(conv, theta, g, True)
                elif sl < 0:
                    want = _volterra_reference(conv, theta, g, False)
                else:
                    want = 0.5 * (_volterra_reference(conv, theta, g, False)
                                  + _volterra_reference(conv, theta, g, True))
                want = (1j / SQRT_2PI) * want
                assert np.max(np.abs(got[ik, il] - want)) < 1e-12


def test_volterra_every_column_matches_cumulative_filon():
    # the recurrences against the cumulative Filon integral times its
    # carrier, at every (k, l) column of both families, l = 0 included;
    # the convolution comes from an explicit Toeplitz sum, not the FFT
    rng = np.random.default_rng(13)
    g = small_grids()
    m, ny = g.n_kl, g.n_y
    l = g.grid_kl.points
    ut = rng.standard_normal((m, ny)) + 1j * rng.standard_normal((m, ny))
    f = rng.standard_normal((m, m, ny)) + 1j * rng.standard_normal((m, m, ny))
    offs = _offset_kernel(ut, g)
    toe = offs[np.arange(m)[:, None] - np.arange(m)[None, :] + m - 1]
    conv = np.einsum("ljy,kjy->kly", toe, f) * g.grid_kl.spacing
    plan = _VolterraPlan(ut, g)
    for sign in (+1, -1):
        cases = ((g_on_delta_kly(plan, sign), np.broadcast_to(ut, f.shape),
                  1j),
                 (apply_g_kly(plan, f, sign), conv, 1j / SQRT_2PI))
        for got, amps, scale in cases:
            want = np.empty_like(got)
            for ik in range(m):
                for il in range(m):
                    theta = l[il] * (l[il] + 2 * l[ik])
                    up = _volterra_reference(amps[ik, il], theta, g, False)
                    down = _volterra_reference(amps[ik, il], theta, g, True)
                    sl = sign * l[il]
                    want[ik, il] = scale * (
                        up if sl < 0 else down if sl > 0 else 0.5 * (up + down))
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_solve_memory_stays_within_a_few_fields(monkeypatch):
    # a solve on one block of K k rows holds the source, the sum and one
    # work term, which apply_g overwrites in place, all in the sweep layout
    # (M + 1 values per (y, k)), plus one application's padded buffer:
    # measured 4.59 block sizes (K M n_y complex values) for blocks of 42
    # and 22 rows, which a 32 MiB budget for the two families' blocks
    # makes at this grid (the default budget fits it in one block); that
    # is 3.0 field sizes for the first, against 4.6 for a whole-field solve
    monkeypatch.setattr(scattering, "_BLOCK_BYTES", 1 << 25)
    wg, ut = build_small(0.02, 64, 64)
    plan = _VolterraPlan(ut, wg)
    blocks = scattering.direct_map_blocks(wg)
    assert [b.stop - b.start for b in blocks] == [42, 22]
    for rows in blocks:
        part = plan.block(rows)
        block_bytes = part.n_rows * wg.n_kl * wg.n_y * 16
        tracemalloc.start()
        try:
            solve_mu_sharp(part, +1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.8 * block_bytes


def test_direct_map_holds_one_block_per_family(monkeypatch):
    # the plan and T1 once, then each block of k rows of each family
    # solved, assembled and released, both families at the same time:
    # per family the three arrays of one block's solve and one
    # application's padded transform, never a whole mu# (measured 3.5
    # field sizes at this grid with a 16 MiB budget for both families'
    # blocks, of 21, 21, 21 and 1 rows each, 6.4 with 32 MiB and blocks of
    # 42 and 22; the default budget fits it in one block, and solving
    # each family whole takes 4.9, holding both families for assembly 6.9)
    monkeypatch.setattr(scattering, "_BLOCK_BYTES", 1 << 24)
    field = small_field(0.02)
    wg = ScatteringGrids(Grid1D(-8.0, 8.0, 64), Grid1D(-8.0, 8.0, 64))
    assert [b.stop - b.start for b in scattering.direct_map_blocks(wg)] == \
        [21, 21, 21, 1]
    m, ny = wg.n_kl, wg.n_y
    field_bytes = m ** 2 * ny * 16
    tracemalloc.start()
    try:
        harness.compute_scattering(field, wg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.1 * field_bytes
    # direct_map_bytes counts two blocks, one per family, and the
    # whole-grid tables beside them: the plan's five M^2 tables (w0, w1,
    # r complex, at and q 8 bytes), T1 and the two kernels, and the two
    # convolution plans (3M/2 + 2M values per layer)
    tables = (3 * 16 + 2 * 8) * m ** 2 + 3 * 16 * m ** 2 + 16 * 7 * m // 2 * ny
    rows = scattering.direct_map_blocks(wg)[0]
    assert scattering.direct_map_bytes(wg) == \
        2 * (rows.stop - rows.start) * scattering._row_bytes(wg) + tables
    assert peak <= scattering.direct_map_bytes(wg)


@pytest.mark.parametrize("n_kl", [256, 512])
def test_direct_map_bytes_covers_the_tables_at_few_y_layers(n_kl):
    # with few y layers the M^2 tables outweigh the blocks: traced peaks
    # of 26.6 MiB at n_kl = 256 and 47.9 MiB at 512, n_y = 16, against
    # 24 MiB for the two blocks, one per family, which were all
    # direct_map_bytes once counted
    wg = ScatteringGrids(Grid1D(-8.0, 8.0, n_kl), Grid1D(-8.0, 8.0, 16))
    field = small_field(0.02)
    tracemalloc.start()
    try:
        harness.compute_scattering(field, wg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = scattering.direct_map_blocks(wg)[0]
    assert peak > 2 * (rows.stop - rows.start) * scattering._row_bytes(wg)
    assert peak <= scattering.direct_map_bytes(wg)


def test_direct_map_builds_its_tables_once(monkeypatch):
    # one plan per map: the solve's convolution plan (3M/2) and assembly's
    # (2M) are built once and shared by every block of both families
    built = []

    class Counted(_ConvolutionPlan):
        def __init__(self, ut_work, grids, pad):
            built.append(pad)
            super().__init__(ut_work, grids, pad)

    monkeypatch.setattr(scattering, "_ConvolutionPlan", Counted)
    monkeypatch.setattr(scattering, "_BLOCK_BYTES", 40 * 6 * 16 * 64 * 64)
    wg = ScatteringGrids(Grid1D(-8.0, 8.0, 64), Grid1D(-8.0, 8.0, 64))
    assert len(scattering.direct_map_blocks(wg)) == 4
    harness.compute_scattering(small_field(0.02), wg)
    assert built == [96, 128]


def test_direct_map_blocks_match_one_block(monkeypatch):
    # G couples no two k rows, so a blocked direct map is the one-block
    # map up to where each block's series stops: a budget of 20 rows per
    # family gives blocks of 20, 20, 20 and 4 on the 64-point grid
    field = small_field(0.02)
    wg = ScatteringGrids(Grid1D(-8.0, 8.0, 64), Grid1D(-8.0, 8.0, 64))
    with monkeypatch.context() as mp:
        mp.setattr(scattering, "_BLOCK_BYTES", 1 << 41)
        assert len(scattering.direct_map_blocks(wg)) == 1
        one, _ = harness.compute_scattering(field, wg)
    monkeypatch.setattr(scattering, "_BLOCK_BYTES", 40 * 6 * 16 * 64 * 64)
    assert [b.stop - b.start for b in scattering.direct_map_blocks(wg)] == \
        [20, 20, 20, 4]
    iterations = {+1: [], -1: []}

    def counted(plan, sign, **kwargs):
        mu = solve_mu_sharp(plan, sign, **kwargs)
        iterations[sign].append(mu.iterations)
        return mu

    monkeypatch.setattr(harness, "solve_mu_sharp", counted)
    blocked, _ = harness.compute_scattering(field, wg)
    for name in ("T_plus", "T_minus"):
        want = getattr(one, name)
        err = np.max(np.abs(getattr(blocked, name) - want))
        assert err <= 1e-14 * np.max(np.abs(want))
    plan = _VolterraPlan(resample_transform(partial_fourier_x(field), wg), wg)
    for sign, name in ((+1, "plus"), (-1, "minus")):
        whole = solve_mu_sharp(plan, sign)
        # the X norm the series stops on, and the reference's per-layer
        # vdot of the natural values to rounding
        want = scattering._sup_norm(
            scattering._sweep_layer_sq(whole.values, sign), wg.grid_kl.spacing)
        assert abs(x_norm(from_sweep(whole.values, sign), wg) - want) \
            <= 1e-15 * want
        assert one.meta[f"mu_{name}_xnorm"] == want
        assert abs(blocked.meta[f"mu_{name}_xnorm"] - want) <= 1e-15 * want
        assert one.meta[f"mu_{name}_iterations"] == whole.iterations
        assert len(iterations[sign]) == 4
        assert blocked.meta[f"mu_{name}_iterations"] == max(iterations[sign])
        assert blocked.meta[f"mu_{name}_residual"] <= 1e-10


def test_direct_map_threads_keep_the_answers(monkeypatch):
    # the families share only read-only tables (the plan and T1), so one
    # worker, which runs them one after the other, and two, which run
    # them at the same time, give the same kernels and figures bit for
    # bit, over four blocks a family
    field = small_field(0.02)
    wg = ScatteringGrids(Grid1D(-8.0, 8.0, 64), Grid1D(-8.0, 8.0, 64))
    monkeypatch.setattr(scattering, "_BLOCK_BYTES", 40 * 6 * 16 * 64 * 64)
    assert len(scattering.direct_map_blocks(wg)) == 4
    threads = {}

    def spied(plan, sign, **kwargs):
        threads.setdefault(sign, set()).add(threading.get_ident())
        return solve_mu_sharp(plan, sign, **kwargs)

    monkeypatch.setattr(harness, "solve_mu_sharp", spied)
    maps = {}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the threads trade the lock often
    try:
        for workers in (1, 2):
            threads.clear()
            monkeypatch.setattr(harness, "_workers", lambda: workers)
            maps[workers], _ = harness.compute_scattering(field, wg)
            # each family runs on one thread, the same one with one worker
            assert len(threads[+1]) == len(threads[-1]) == 1
            assert len(threads[+1] | threads[-1]) == workers
    finally:
        sys.setswitchinterval(switch)
    for name in ("T_plus", "T_minus", "T1"):
        assert np.array_equal(getattr(maps[1], name), getattr(maps[2], name))
    assert maps[1].meta == maps[2].meta


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("failing", [(+1,), (-1,), (+1, -1)])
def test_a_failing_family_stops_the_direct_map(monkeypatch, workers,
                                               failing):
    # compute_scattering raises the error the serial map raised, the +1
    # family's where both fail, and only once its threads have stopped
    def failing_solve(plan, sign, **kwargs):
        if sign in failing:
            raise RuntimeError(f"family {sign} failed")
        return solve_mu_sharp(plan, sign, **kwargs)

    monkeypatch.setattr(harness, "solve_mu_sharp", failing_solve)
    monkeypatch.setattr(harness, "_workers", lambda: workers)
    wg = ScatteringGrids(Grid1D(-8.0, 8.0, 32), Grid1D(-8.0, 8.0, 32))
    caught = []

    def run():
        try:
            harness.compute_scattering(small_field(0.02), wg)
        except RuntimeError as exc:
            caught.append(str(exc))

    before = threading.active_count()
    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive()
    assert caught == [f"family {failing[0]} failed"]
    assert threading.active_count() == before


def test_apply_g_works_in_place(work128):
    # the result is the operand itself, and its one temporary is the
    # convolution's padded buffer, 3M/2 values per (y, k) against the
    # operand's M + 1, which direct_map_bytes counts; no operand-sized
    # copy is made beside it (measured 1.492 operand sizes at 128^3)
    wg, ut, _ = work128
    plan = _VolterraPlan(ut, wg)
    f = g_on_delta(plan, +1)
    want = apply_g(plan, f.copy(order="K"), +1)
    tracemalloc.start()
    try:
        got = apply_g(plan, f, +1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got is f
    assert np.array_equal(got, want)
    assert peak < 1.6 * f.nbytes


def test_neumann_series_never_hands_the_source_to_apply():
    # apply sees only the series' work array, so an apply that overwrites
    # its argument, as apply_g does, sums the same series as one that
    # returns a new array, and the source keeps its values; one series
    # over the whole operand, whose norm is a one-item list, as the
    # direct map's block sums it
    rng = np.random.default_rng(29)
    a = 0.1 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    source = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    kept = source.copy()

    def norm(f):
        return [np.linalg.norm(f)]

    def overwriting(f, rows):
        f[...] = a @ f
        return f

    copied = neumann_series(lambda f, rows: a @ f, source, norm, 1e-12)
    assert np.array_equal(source, kept)
    inplace = neumann_series(overwriting, source, norm, 1e-12)
    assert np.array_equal(source, kept)
    assert np.array_equal(inplace[0], copied[0])
    assert inplace[1:] == copied[1:]
    assert inplace[1][0] > 3


def test_neumann_series_stops_each_row_of_a_stack_on_its_own():
    # rows contracting at different rates stop after different numbers of
    # terms; a stopped row leaves the stack, and each row's sum, terms
    # and residual are those of its own series bit for bit
    rng = np.random.default_rng(31)
    rates = np.array([0.5, 0.05, 0.2])
    source = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    # an elementwise operator, so a row's arithmetic is the same alone
    weight = np.exp(1j * rng.standard_normal(8))
    seen = []

    def stacked(f, rows):
        seen.append(len(f))
        return rates[rows][:, None] * (weight * np.roll(f, 1, axis=-1))

    def row_norms(f):
        return [np.linalg.norm(row) for row in f]

    u, terms, ratios, resid = neumann_series(stacked, source, row_norms,
                                             1e-12)
    assert len(set(terms)) == 3
    # three running rows until the fastest stops, then fewer; the
    # residual's application takes all three
    assert seen[0] == 3 and seen[-2] == 1 and seen[-1] == 3
    assert seen[:-1] == sorted(seen[:-1], reverse=True)
    assert len(seen) == max(terms) + 1
    for i, rate in enumerate(rates):
        one = neumann_series(
            lambda f, rows: rate * (weight * np.roll(f, 1, axis=-1)),
            source[i:i + 1], row_norms, 1e-12)
        assert np.array_equal(u[i], one[0][0])
        assert (terms[i], resid[i]) == (one[1][0], one[3][0])
    # the largest over the running rows: the slowest row's, which runs
    # to the end
    assert ratios == pytest.approx([0.5] * max(terms), rel=1e-12)


def test_solve_hands_its_layer_sums_to_the_kernel():
    # the kernel takes the block's per-layer sums from the field the solve
    # hands on, in the sweep layout, counting l = 0 once: those of its
    # natural values (reference._layer_sq) to rounding, for both families
    g = small_grids()
    rng = np.random.default_rng(37)
    ut = 0.02 * (rng.standard_normal((g.n_kl, g.n_y))
                 + 1j * rng.standard_normal((g.n_kl, g.n_y)))
    for sign in (+1, -1):
        mu = solve_mu_sharp(_VolterraPlan(ut, g), sign)
        kernel = FamilyKernel.empty(g)
        kernel.add_block(mu)
        want = _layer_sq(from_sweep(mu.values, sign))
        assert np.all(np.abs(kernel.layer_sq - want) <= 1e-15 * want)


def test_operands_in_either_memory_order_give_identical_output():
    # the series' operands are C-contiguous in the sweep layout, (n_y, K,
    # M + 1), and G is the same on an operand in another memory order and
    # from a transform in either order
    rng = np.random.default_rng(19)
    g = small_grids()
    m, ny = g.n_kl, g.n_y
    ut = rng.standard_normal((m, ny)) + 1j * rng.standard_normal((m, ny))
    f = rng.standard_normal((m, m, ny)) + 1j * rng.standard_normal((m, m, ny))
    plan = _VolterraPlan(ut, g)
    plan_f = _VolterraPlan(np.asfortranarray(ut), g)
    for sign in (+1, -1):
        s = to_sweep(f, sign)
        s_f = np.asfortranarray(s)
        assert s.flags.c_contiguous and not s_f.flags.c_contiguous
        got = apply_g(plan, s.copy(), sign)
        assert got.shape == (ny, m, m + 1) and got.flags.c_contiguous
        assert np.array_equal(got, apply_g(plan_f, s_f, sign))
        gd = g_on_delta(plan, sign)
        assert gd.shape == (ny, m, m + 1) and gd.flags.c_contiguous
        assert np.array_equal(gd, g_on_delta(plan_f, sign))


def test_solve_stores_fields_y_leading(monkeypatch):
    # the series sums C-contiguous operands in the sweep layout, and the
    # field it hands on is its sum as it returns it: C-contiguous in the
    # same layout, with both l = 0 copies equal
    wg, ut = build_small(0.02, 16, 16)
    plan = _VolterraPlan(ut, wg)
    seen = []

    def recorded(plan, f, sign):
        seen.append((f.shape, f.flags.c_contiguous))
        return apply_g(plan, f, sign)

    monkeypatch.setattr(scattering, "apply_g", recorded)
    mu = solve_mu_sharp(plan, -1)
    assert seen == [((16, 16, 17), True)] * (mu.iterations + 1)
    assert mu.values.shape == (16, 16, 17)
    assert mu.values.flags.c_contiguous
    neg, pos = scattering._halves(mu.values, -1)
    assert np.array_equal(neg[..., -1], pos[..., 0])


@pytest.mark.parametrize("n", [16, 128])
def test_sweep_layout_matches_the_two_sweep_reference(n):
    # g_on_delta and apply_g in the sweep layout against the two strided
    # sweeps on natural storage (reference.volterra_integral), bit for
    # bit at every column, l = 0 included, on the whole grid and on a
    # block of k rows, for both families; both l = 0 copies agree
    rng = np.random.default_rng(41)
    g = small_grids(n, n)
    ut = 0.1 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    plan = _VolterraPlan(ut, g)
    for part in (plan, plan.block(slice(3, 11))):
        f = (rng.standard_normal((part.n_rows, n, n))
             + 1j * rng.standard_normal((part.n_rows, n, n)))
        for sign in (+1, -1):
            for got, want in (
                    (g_on_delta(part, sign), two_sweep_g_on_delta(part, sign)),
                    (apply_g(part, to_sweep(f, sign), sign),
                     two_sweep_apply_g(part, f.copy(), sign))):
                neg, pos = scattering._halves(got, sign)
                assert np.array_equal(neg[..., -1], pos[..., 0])
                assert np.array_equal(from_sweep(got, sign), want)


def test_direct_map_matches_the_two_sweep_reference(monkeypatch):
    # the map on the sweep layout against one whose every block is solved
    # on natural storage by two strided sweeps per integral: the kernels
    # and T1 bit for bit, the same iteration counts and X norms, and the
    # residuals to rounding of their norms
    field = small_field(0.02)
    wg = ScatteringGrids(Grid1D(-8.0, 8.0, 32), Grid1D(-8.0, 8.0, 32))
    monkeypatch.setattr(scattering, "_BLOCK_BYTES", 24 * 6 * 16 * 32 * 32)
    assert len(scattering.direct_map_blocks(wg)) == 3
    data, _ = harness.compute_scattering(field, wg)
    monkeypatch.setattr(harness, "solve_mu_sharp", two_sweep_solve_mu_sharp)
    want, _ = harness.compute_scattering(field, wg)
    for name in ("T_plus", "T_minus", "T1"):
        assert np.array_equal(getattr(data, name), getattr(want, name))
    for name in ("plus", "minus"):
        for key in ("iterations", "xnorm"):
            key = f"mu_{name}_{key}"
            assert data.meta[key] == want.meta[key]
        key = f"mu_{name}_residual"
        assert data.meta[key] == pytest.approx(want.meta[key], rel=1e-12)


def test_apply_g_zero_and_linearity():
    rng = np.random.default_rng(11)
    g = small_grids()
    m, ny = g.n_kl, g.n_y
    ut = rng.standard_normal((m, ny)) + 1j * rng.standard_normal((m, ny))
    plan = _VolterraPlan(ut, g)
    zero = np.zeros((m, m, ny), complex)
    assert np.array_equal(apply_g_kly(plan, zero, +1), zero)
    f1 = rng.standard_normal((m, m, ny)) + 1j * rng.standard_normal((m, m, ny))
    f2 = rng.standard_normal((m, m, ny)) + 1j * rng.standard_normal((m, m, ny))
    lhs = apply_g_kly(plan, 2.0 * f1 + f2, -1)
    rhs = 2.0 * apply_g_kly(plan, f1, -1) + apply_g_kly(plan, f2, -1)
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) < 1e-13 * max(1.0, scale)


def test_apply_g_rejects_bad_operands():
    # non-finite operands are caught by neumann_series, which checks the
    # norm of every term (tests/test_rhp.py)
    g = small_grids()
    ut = np.zeros((g.n_kl, g.n_y), complex)
    plan = _VolterraPlan(ut, g)
    with pytest.raises(ValueError):
        apply_g(plan, np.zeros((4, 4, 4), complex), +1)
    # a natural (k, l, y) operand is not in the sweep layout
    with pytest.raises(ValueError, match="does not match grids"):
        apply_g(plan, np.zeros((g.n_kl, g.n_kl, g.n_y), complex), +1)


def test_assemble_T_refuses_a_field_in_another_layout():
    # a natural (k, l, y) mu# on a 16^3 grid would slice into halves and
    # broadcast against the (n_y, 1, 2M) kernel, giving rows of T with no
    # error; assembly refuses it as apply_g does, and so a field solved on
    # other rows, and leaves the kernel as it was
    rng = np.random.default_rng(43)
    g = small_grids()
    m, ny = g.n_kl, g.n_y
    ut = rng.standard_normal((m, ny)) + 1j * rng.standard_normal((m, ny))
    plan = _VolterraPlan(ut, g)
    T1 = assemble_T1(plan)
    values = rng.standard_normal((m, m, ny)) + 1j * rng.standard_normal((m, m, ny))
    kernel = FamilyKernel.empty(g)
    for sign in (+1, -1):
        natural = MuSharpField(values, sign, g, 1, [], 0.0)
        with pytest.raises(ValueError, match="does not match grids"):
            assemble_T(natural, plan, T1, kernel)
        with pytest.raises(ValueError, match="does not match grids"):
            assemble_T(given_field(values, sign, g), plan.block(slice(0, 4)),
                       T1, kernel)
    assert np.array_equal(kernel.T, np.zeros((m, m)))
    assert kernel.iterations == 0 and not np.any(kernel.layer_sq)


def test_single_cell_kernel_one_term():
    # one kernel cell acting on one operand column: the output is a single
    # hat contribution whose panel weights can be written down directly
    g = small_grids()
    m, ny = g.n_kl, g.n_y
    dl, dy = g.grid_kl.spacing, g.grid_y.spacing
    l = g.grid_kl.points
    y = g.grid_y.points
    a, b = m // 2 + 3, ny // 2          # kernel cell: offset (a - m/2) dl
    ut = np.zeros((m, ny), complex)
    ut[a, b] = 1.0
    i0, j0 = 2, 3
    f = np.zeros((m, m, ny), complex)
    f[i0, j0, b] = 1.0
    out = apply_g_kly(_VolterraPlan(ut, g), f, +1)
    j_out = j0 + (a - m // 2)
    theta = l[j_out] * (l[j_out] + 2.0 * l[i0])
    m0, m1 = filon_moments(np.array([theta * dy]))
    rising = dy * m1[0] * np.exp(1j * theta * (y[b - 1] - y[0]))
    falling = dy * (m0[0] - m1[0]) * np.exp(1j * theta * (y[b] - y[0]))
    carrier = np.exp(-1j * theta * (y - y[0]))
    # l[j_out] < 0 here, so the plus family integrates upward from -inf
    assert l[j_out] < 0
    want_full = (1j / SQRT_2PI) * dl * carrier * (rising + falling)
    assert np.max(np.abs(out[i0, j_out][b + 1:] - want_full[b + 1:])) < 1e-14
    assert np.max(np.abs(out[i0, j_out][: b - 1])) < 1e-16
    # other columns carry only transform roundoff
    mask = np.ones(m, bool)
    mask[j_out] = False
    assert np.max(np.abs(out[i0, mask])) < 1e-15
    assert np.max(np.abs(out[i0 + 1:])) < 1e-15


# ----------------------------------------------------------------- delta term

def quad_complex(fn, lo, hi):
    re = quad(lambda t: fn(t).real, lo, hi, limit=400)[0]
    im = quad(lambda t: fn(t).imag, lo, hi, limit=400)[0]
    return re + 1j * im


@pytest.mark.parametrize("l_target,k_target", [(0.5, 0.25), (1.5, -5.0)])
def test_g_on_delta_quadrature_oracle(work128, l_target, k_target):
    wg, ut, _ = work128
    pts = wg.grid_kl.points
    li = int(np.argmin(np.abs(pts - l_target)))
    ki = int(np.argmin(np.abs(pts - k_target)))
    yi = 80
    lv, kv, yv = pts[li], pts[ki], wg.grid_y.points[yi]
    theta = lv * (lv + 2.0 * kv)

    def ut_closed(yy):
        return EPS_REF * 1j * lv * np.exp(-lv * lv / 2.0) * np.exp(-yy * yy / 2.0)

    # l > 0 and the plus family: start at +inf
    want = 1j * (-quad_complex(
        lambda e: np.exp(-1j * theta * (yv - e)) * ut_closed(e), yv, 14.0))
    got = g_on_delta_kly(_VolterraPlan(ut, wg), +1)[ki, li, yi]
    assert abs(got - want) / abs(want) < 2e-2


def test_g_on_delta_zero():
    g = small_grids()
    ut = np.zeros((g.n_kl, g.n_y), complex)
    assert np.array_equal(g_on_delta_kly(_VolterraPlan(ut, g), +1),
                          np.zeros((g.n_kl, g.n_kl, g.n_y), complex))


@pytest.mark.parametrize("sign", [+1, -1])
def test_g_on_delta_norm_bound(work128, sign):
    wg, ut, _ = work128
    _, w = transform_norms(ut, wg)
    gd = g_on_delta_kly(_VolterraPlan(ut, wg), sign)
    assert x_norm(gd, wg) <= np.sqrt(np.pi) * w * 1.05


@pytest.mark.parametrize("y_leading", [True, False])
def test_x_norm_is_sup_over_y_of_layer_l2(y_leading):
    g = small_grids(n_kl=32, n_y=16)
    rng = np.random.default_rng(23)
    shape = (g.n_y, g.n_kl, g.n_kl) if y_leading else (g.n_kl, g.n_kl, g.n_y)
    f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if y_leading:
        f = np.moveaxis(f, 0, -1)
    want = np.sqrt(np.max(np.sum(np.abs(f) ** 2, axis=(0, 1)))) \
        * g.grid_kl.spacing
    assert x_norm(f, g) == pytest.approx(want, rel=1e-14, abs=0.0)
    f[3, 4, 5] = np.nan
    assert np.isnan(x_norm(f, g))


def test_x_norm_allocates_no_field_sized_temporary():
    g = small_grids(n_kl=64, n_y=64)
    f = np.moveaxis(np.ones((64, 64, 64), dtype=complex), 0, -1)
    tracemalloc.start()
    try:
        x_norm(f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < f.nbytes / 8


def test_operator_norm_proxy(work128):
    wg, ut, _ = work128
    c, _ = transform_norms(ut, wg)
    rng = np.random.default_rng(12)
    m, ny = wg.n_kl, wg.n_y
    plan = _VolterraPlan(ut, wg)
    cut = 8
    for trial in range(20):
        spec = np.zeros((m, m, ny), complex)
        blk = rng.standard_normal((m, 2 * cut, 2 * cut)) \
            + 1j * rng.standard_normal((m, 2 * cut, 2 * cut))
        spec[:, :cut, :cut] = blk[:, :cut, :cut]
        spec[:, -cut:, :cut] = blk[:, cut:, :cut]
        spec[:, :cut, -cut:] = blk[:, :cut, cut:]
        spec[:, -cut:, -cut:] = blk[:, cut:, cut:]
        f = np.fft.ifft2(spec, axes=(1, 2))
        sign = +1 if trial % 2 == 0 else -1
        f_norm = x_norm(f, wg)
        ratio = x_norm(apply_g_kly(plan, f, sign), wg) / f_norm
        assert ratio <= c + 0.05


# --------------------------------------------------------------------- solver

def test_solve_zero_potential():
    g = small_grids()
    ut = np.zeros((g.n_kl, g.n_y), complex)
    mu = solve_mu_sharp(_VolterraPlan(ut, g), +1)
    assert mu.iterations == 1
    assert np.array_equal(mu.values, np.zeros_like(mu.values))
    assert mu.residual == 0.0


def test_solve_contraction_and_x_bound(work128, solved128):
    wg, ut, _ = work128
    _, _, mu_p, mu_m, _ = solved128
    c, w = transform_norms(ut, wg)
    for mu in (mu_p, mu_m):
        assert mu.residual <= 1e-10
        for r in mu.contraction_ratios[3:]:
            assert r <= c + 0.05
        assert x_norm(from_sweep(mu.values, mu.sign), wg) <= \
            np.sqrt(np.pi) * w / (1.0 - c) * 1.05


def test_solve_calls_the_module_global_operators(monkeypatch):
    # profilers wrap scattering.g_on_delta and scattering.apply_g by name:
    # a solve makes one source call, then one apply per Neumann term and
    # one for the residual
    calls = dict.fromkeys(("g_on_delta", "apply_g"), 0)

    def counting(name, orig):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(scattering, name,
                            counting(name, getattr(scattering, name)))
    wg, ut = build_small(0.02, 32, 32)
    mu = solve_mu_sharp(_VolterraPlan(ut, wg), +1)
    assert mu.iterations > 0
    assert calls == {"g_on_delta": 1, "apply_g": mu.iterations + 1}


def test_born_remainder_scaling():
    K = {}
    for eps in (1e-2, 1e-3):
        wg, ut = build_small(eps)
        plan = _VolterraPlan(ut, wg)
        mu = solve_mu_sharp(plan, +1)
        gd = g_on_delta_kly(plan, +1)
        K[eps] = x_norm(from_sweep(mu.values, +1) - gd, wg) / eps**2
    assert 0.9 < K[1e-2] / K[1e-3] < 1.1


def test_solve_rejects_failing_conditions(monkeypatch):
    # admissibility is decided where the data enters the direct map, not
    # in the solve: failing data reaches no solve_mu_sharp
    field = small_field(0.8)
    assert not check_conditions(field).passed
    solves = []
    monkeypatch.setattr(harness, "solve_mu_sharp",
                        lambda *a, **k: solves.append(a))
    wg = ScatteringGrids(Grid1D(-8.0, 8.0, 64), Grid1D(-8.0, 8.0, 64))
    with pytest.raises(ValueError, match="smallness conditions fail"):
        harness.compute_scattering(field, wg)
    assert solves == []


# ---------------------------------------------------------------- assembly

def test_assemble_T_matches_direct_toeplitz_assembly():
    # both families and T1 at every (k, l), the convolution at p = l - k
    # from an explicit Toeplitz sum (far offsets included) and the y
    # integral from the cumulative Filon sum: no FFT and no Horner sum
    rng = np.random.default_rng(23)
    g = small_grids()
    m, ny = g.n_kl, g.n_y
    dl, dy = g.grid_kl.spacing, g.grid_y.spacing
    kl = g.grid_kl.points
    y0 = g.grid_y.points[0]
    ut = rng.standard_normal((m, ny)) + 1j * rng.standard_normal((m, ny))
    values = {sign: rng.standard_normal((m, m, ny))
              + 1j * rng.standard_normal((m, m, ny)) for sign in (+1, -1)}
    mus = {sign: given_field(values[sign], sign, g) for sign in (+1, -1)}
    plan = _VolterraPlan(ut, g)
    T1 = assemble_T1(plan)
    kernels = {sign: assemble_T(mus[sign], plan, T1, FamilyKernel.empty(g))
               for sign in (+1, -1)}
    offs = _offset_kernel(ut, g)

    def y_integral(amp, q):
        cum = cumulative_phase_integral(amp[None, :], dy, np.array([q]))[0]
        return np.exp(1j * q * y0) * cum[-1]

    want = {+1: np.empty((m, m), complex), -1: np.empty((m, m), complex),
            0: np.empty((m, m), complex)}
    for ik in range(m):
        for il in range(m):
            q = kl[il] ** 2 - kl[ik] ** 2
            lin = offs[il - ik + m - 1]
            want[0][ik, il] = -(1j / SQRT_2PI) * y_integral(lin, q)
            t = il - ik + m // 2  # l index of the offset p = l - k
            for sign in (+1, -1):
                conv = np.zeros(ny, complex)
                for jp in range(m):
                    if abs(t - jp) <= m - 1:
                        conv += offs[t - jp + m - 1] * values[sign][ik, jp]
                want[sign][ik, il] = -(1j / (2.0 * np.pi)) * y_integral(
                    SQRT_2PI * lin + conv * dl, q)
    d = np.arange(m)[None, :] - np.arange(m)[:, None]
    for sign, got in ((+1, kernels[+1].T), (-1, kernels[-1].T), (0, T1)):
        w = want[sign]
        if sign:
            w = w * np.where(sign * d > 0, 1.0, np.where(d == 0, 0.5, 0.0))
        assert np.max(np.abs(got - w)) <= 3e-15 * np.max(np.abs(w))


def test_assemble_T_chunks_sum_only_their_triangle():
    # the whole grid as one block sums every column; on blocks of one k
    # row each block sums only the columns its triangle keeps, and the
    # kernel must come out the same bit for bit
    rng = np.random.default_rng(29)
    g = small_grids()
    m, ny = g.n_kl, g.n_y
    ut = rng.standard_normal((m, ny)) + 1j * rng.standard_normal((m, ny))
    plan = _VolterraPlan(ut, g)
    T1 = assemble_T1(plan)
    d = np.arange(m)[None, :] - np.arange(m)[:, None]
    for sign in (+1, -1):
        values = (rng.standard_normal((m, m, ny))
                  + 1j * rng.standard_normal((m, m, ny)))
        whole = assemble_T(given_field(values, sign, g), plan,
                           T1, FamilyKernel.empty(g)).T
        by_row = FamilyKernel.empty(g)
        for i in range(m):
            assemble_T(given_field(values[i:i + 1], sign, g),
                       plan.block(slice(i, i + 1)), T1, by_row)
        by_row = by_row.T
        assert np.array_equal(by_row, whole)
        assert np.all(by_row[sign * d < 0] == 0.0)
        assert np.all(by_row[sign * d >= 0] != 0.0)


@pytest.mark.parametrize("sign", [+1, -1])
def test_triangular_apply_reads_only_its_triangle(sign):
    # the family's other triangle holds garbage here and the other
    # family's kernel is zero: its product, the first row of
    # triangular_products for the plus family and minus the second for
    # the minus one, must equal the full one with that triangle zeroed,
    # for a row, a stack and a view
    m = 24
    rng = np.random.default_rng(3)
    K = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    d = np.arange(m)[None, :] - np.arange(m)[:, None]
    own = np.where(sign * d >= 0, K, 0.0)
    kernels = (K, np.zeros_like(K)) if sign > 0 else (np.zeros_like(K), K)
    rows = rng.standard_normal((m, 3)) + 1j * rng.standard_normal((m, 3))
    for f in (rows[:, 0], rows.T):
        want = f @ own.T
        p = triangular_products(*kernels, f)
        got = p[0] if sign > 0 else -p[1]
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        # the zero family adds nothing: the second row is the first, or
        # the first is zero
        if sign > 0:
            assert np.array_equal(p[1], p[0])
        else:
            assert not np.any(p[0])
    with pytest.raises(ValueError, match="rows of shape"):
        triangular_products(*kernels, np.ones(m + 1))


def test_masks_bitwise(solved128):
    _, _, _, _, data = solved128
    m = data.grids.n_kl
    d = np.arange(m)[None, :] - np.arange(m)[:, None]
    zeros = np.zeros(np.count_nonzero(d < 0), complex)
    assert np.array_equal(data.T_plus[d < 0], zeros)
    assert np.array_equal(data.T_minus[d > 0], zeros)
    # the unmasked linear route keeps both triangles
    assert np.max(np.abs(data.T1[d < 0])) > 0
    assert np.max(np.abs(data.T1[d > 0])) > 0


def test_T1_closed_form(solved128):
    wg, _, _, _, data = solved128
    kk = wg.grid_kl.points
    p = kk[None, :] - kk[:, None]
    q = kk[None, :] ** 2 - kk[:, None] ** 2
    exact = EPS_REF * p * np.exp(-(p**2 + q**2) / 2.0)
    assert np.max(np.abs(data.T1 - exact)) < 1e-4


def _born2_oracle(k, l, sign, eps):
    """Second-order kernel term by adaptive quadrature; the inner layered
    integral of the Gaussian closed form is a Faddeeva evaluation."""

    def F(y, th):
        # int_{-inf}^y exp(i th s - s^2/2) ds, stable at large |th|
        if y >= 0:
            z = (th + 1j * y) / np.sqrt(2.0)
            return SQRT_2PI * np.exp(-th * th / 2.0) \
                - np.sqrt(np.pi / 2.0) * np.exp(-y * y / 2.0 + 1j * y * th) * wofz(z)
        z = (-th - 1j * y) / np.sqrt(2.0)
        return np.sqrt(np.pi / 2.0) * np.exp(-y * y / 2.0 + 1j * y * th) * wofz(z)

    def amp(s):
        return 1j * eps * s * np.exp(-s * s / 2.0)

    def g_delta_closed(s, y):
        th = s * (s + 2.0 * k)
        if sign * s > 0:
            base = F(y, th) - SQRT_2PI * np.exp(-th * th / 2.0)
        else:
            base = F(y, th)
        return 1j * amp(s) * np.exp(-1j * th * y) * base

    q = l * l - k * k
    p = l - k

    def inner(y):
        return quad_complex(
            lambda s: np.exp(1j * q * y) * amp(p - s)
            * np.exp(-y * y / 2.0) * g_delta_closed(s, y), -8.0, 8.0)

    ys = np.linspace(-9.0, 9.0, 241)
    vals = np.array([inner(y) for y in ys])
    return -(1j / (2.0 * np.pi)) * np.trapezoid(vals, ys)


def test_second_order_term_pointwise_oracle():
    eps = 0.01
    data, _, wg = small_data(eps)
    sp = split_T(data)
    pts = wg.grid_kl.points

    def idx(v):
        return int(np.argmin(np.abs(pts - v)))

    cases = [("T2_minus", -1, 1.0, 0.0), ("T2_minus", -1, 0.5, -0.5),
             ("T2_plus", +1, 0.0, 1.0), ("T2_plus", +1, -0.5, 0.5)]
    for key, sign, k, l in cases:
        got = sp[key][idx(k), idx(l)]
        want = _born2_oracle(k, l, sign, eps)
        assert abs(got - want) / abs(want) < 0.08, (key, k, l)


def test_T_norm_bounds(work128, solved128):
    wg, ut, _ = work128
    _, _, _, _, data = solved128
    c, w = transform_norms(ut, wg)
    sp = split_T(data)
    loose = w / (1.0 - c) * 1.05
    sharp = loose / np.sqrt(2.0)
    for name in ("plus", "minus"):
        assert sp[f"l2_T_{name}"] <= sharp  # implies the looser bound too
        assert sp[f"l2_T2_{name}"] <= (c / (1.0 - c)) * w / (2.0 * np.sqrt(np.pi)) * 1.05


def test_split_recomposition_and_ratio(solved128):
    _, _, _, _, data = solved128
    sp = split_T(data)
    for name, tfull in (("plus", data.T_plus), ("minus", data.T_minus)):
        recomposed = sp[f"T1_{name}"] + sp[f"T2_{name}"]
        assert np.max(np.abs(recomposed - tfull)) < 1e-16
        assert sp[f"ratio_{name}"] <= 10.0 * EPS_REF


def test_linearization_ratio_scales_with_amplitude():
    ratios = {}
    for eps in (0.01, 0.02):
        sp = split_T(small_data(eps)[0])
        assert sp["ratio_plus"] <= 10.0 * eps
        assert sp["ratio_minus"] <= 10.0 * eps
        ratios[eps] = sp["ratio_plus"]
    assert 0.8 < ratios[0.02] / (2.0 * ratios[0.01]) < 1.2


def test_family_conjugation_symmetry(solved128):
    # real data ties the two families: conj transpose of one kernel is the
    # negative of the other, exactly at linear order and to O(amplitude)
    # beyond
    _, _, _, _, data = solved128
    lhs = np.conj(data.T_plus.T)
    rel = np.linalg.norm(lhs + data.T_minus) / np.linalg.norm(data.T_minus)
    assert rel < 0.6 * EPS_REF


def test_two_route_linear_kernel_interior():
    # route one: y-quadrature of the partial transform on a fine working
    # grid; route two: the closed-form 2-D transform of the same data.
    # Interior means offsets well inside the kernel table.
    eps = 0.01
    gx = Grid1D(-64.0, 64.0, 1024)
    gy = Grid1D(-64.0, 64.0, 2048)
    field = make_test_potential("gaussian_dx", eps, 1.0, gx, gy)
    pt = partial_fourier_x(field)
    wg = ScatteringGrids(Grid1D(-4.0, 4.0, 64), Grid1D(-8.0, 8.0, 8192))
    ut = resample_transform(pt, wg)
    T1 = assemble_T1(_VolterraPlan(ut, wg))
    kk = wg.grid_kl.points
    p = kk[None, :] - kk[:, None]
    q = kk[None, :] ** 2 - kk[:, None] ** 2
    exact = eps * p * np.exp(-(p**2 + q**2) / 2.0)
    scale = np.max(np.abs(exact))
    interior = np.abs(p) <= 3.5
    err = np.max(np.abs(T1 - exact)[interior])
    assert err <= 1e-6 * scale


def test_assembly_metadata(solved128):
    _, _, _, _, data = solved128
    meta = data.meta
    assert meta["offset_tail_ratio"] < 1e-5
    assert meta["y_truncation_radius"] == 8.0
    assert meta["y_edge_max_abs_ut"] < 1e-13
    assert meta["mu_plus_iterations"] >= 3
    assert meta["mu_plus_residual"] <= 1e-10
    assert meta["n_fast_phase_pairs"] > 0  # informational; moments are exact


# -------------------------------------------------------------- diagnostics

def test_diagnostic_zero():
    g = small_grids()
    mu = given_field(np.zeros((g.n_kl, g.n_kl, g.n_y), complex), +1, g)
    assert diagnostic_mu_k_growth(mu)["sup_ratio"] == 0.0


def test_diagnostic_bounded_under_window_growth(reference_setup):
    # the growth ratio profile must not grow with the window: its sup is
    # window-independent and the edge value saturates like 1/(1+|y|)
    _, pt, _ = reference_setup
    sups = []
    edges = []
    for half_y, n_y in ((8.0, 64), (16.0, 128)):
        wg = ScatteringGrids(Grid1D(-8.0, 8.0, 64), Grid1D(-half_y, half_y, n_y))
        ut = resample_transform(pt, wg)
        rep = diagnostic_mu_k_growth(solve_mu_sharp(_VolterraPlan(ut, wg), +1))
        sups.append(rep["sup_ratio"])
        edges.append(rep["edge_value"] * (1.0 + half_y))
    assert abs(sups[1] / sups[0] - 1.0) < 0.02
    assert abs(edges[1] / edges[0] - 1.0) < 0.05


def test_diagnostic_amplitude_linearity():
    vals = {}
    for eps in (0.02, 0.05):
        wg, ut = build_small(eps)
        vals[eps] = diagnostic_mu_k_growth(
            solve_mu_sharp(_VolterraPlan(ut, wg), +1))["sup_ratio"]
    assert 0.9 < (vals[0.05] / 0.05) / (vals[0.02] / 0.02) < 1.1


def test_kernel_continuity_constant_stable():
    base, ut_base, wg = small_data(0.05, 1.0)
    consts = []
    for eps, width in ((0.055, 1.0), (0.05, 1.08), (0.045, 1.0)):
        other, ut_other, _ = small_data(eps, width)
        consts.append(kernel_continuity_constant(
            base.T_plus, other.T_plus, ut_base, ut_other, wg))
    assert max(consts) / min(consts) < 2.0


# ------------------------------------------------------------------- plumbing

def test_resample_rejects_wider_targets(reference_setup):
    _, pt, _ = reference_setup
    wg = ScatteringGrids(Grid1D(-64.0, 64.0, 128), Grid1D(-8.0, 8.0, 64))
    with pytest.raises(ValueError):
        resample_transform(pt, wg)


def test_transform_norms_match_field_report(work128):
    wg, ut, report = work128
    c, w = transform_norms(ut, wg)
    assert abs(c - report.c) / report.c < 1e-2
    assert abs(w - report.w_norm) / report.w_norm < 1e-2
