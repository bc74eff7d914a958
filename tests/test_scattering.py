"""Tests for the layered Volterra solve and scattering-kernel assembly.

Oracles: direct triple-loop summation with the same per-panel phase
moments (indexing and vectorization), adaptive quadrature on the closed
form of the reference data (quadrature fidelity), and a stable
Faddeeva-function evaluation of the second-order term (support structure
and magnitude of the nonlinear part). Tolerances carry 2-5x margin over
measured errors at the stated resolutions.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import wofz

from kpist.grids import (
    SQRT_2PI,
    Grid1D,
    check_conditions,
    full_fourier,
    make_test_potential,
    partial_fourier_x,
)
from kpist.oscillatory import cumulative_phase_integral, filon_moments
from kpist.scattering import (
    MuSharpField,
    ScatteringGrids,
    _ConvolutionPlan,
    _offset_kernel,
    apply_g,
    assemble_T,
    assemble_T1,
    continuity_modulus,
    diagnostic_mu_k_growth,
    g_on_delta,
    kernel_continuity_constant,
    linearized_T,
    resample_transform,
    solve_mu_sharp,
    split_T,
    transform_norms,
    x_norm,
)

EPS_REF = 0.05


def small_grids(n_kl=16, n_y=16, half=4.0):
    return ScatteringGrids(Grid1D(-half, half, n_kl), Grid1D(-half, half, n_y))


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
    wg, ut, report = work128
    mu_p = solve_mu_sharp(ut, +1, wg, conditions=report)
    mu_m = solve_mu_sharp(ut, -1, wg, conditions=report)
    data = assemble_T(mu_p, mu_m, ut, wg)
    return wg, ut, mu_p, mu_m, data


def build_small(eps, n_kl=64, n_y=64, width=1.0):
    gx = Grid1D(-32.0, 32.0, 256)
    field = make_test_potential("gaussian_dx", eps, width, gx, gx)
    pt = partial_fourier_x(field)
    wg = ScatteringGrids(Grid1D(-8.0, 8.0, n_kl), Grid1D(-8.0, 8.0, n_y))
    return wg, resample_transform(pt, wg)


# ---------------------------------------------------------------- convolution

def test_conv_same_matches_direct_loop():
    rng = np.random.default_rng(7)
    g = small_grids()
    m, ny = g.n_kl, g.n_y
    ut = rng.standard_normal((m, ny)) + 1j * rng.standard_normal((m, ny))
    f = rng.standard_normal((m, m, ny)) + 1j * rng.standard_normal((m, m, ny))
    offs = _offset_kernel(ut, g)
    got = _ConvolutionPlan(ut, g, 2 * m).circular(f)[..., :m, :]
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
    full = _ConvolutionPlan(ut, g, 3 * m).circular(f)[..., d % (3 * m), :]

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
    gd = g_on_delta(ut, +1, g)
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
    gdm = g_on_delta(ut, -1, g)
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
    for sign in (+1, -1):
        got = apply_g(ut, f, sign, g)
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
    for sign in (+1, -1):
        cases = ((g_on_delta(ut, sign, g), np.broadcast_to(ut, f.shape), 1j),
                 (apply_g(ut, f, sign, g), conv, 1j / SQRT_2PI))
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


def test_solve_memory_stays_within_a_few_fields():
    # one solve holds source, mu, the current term and the operator's
    # output, plus chunk temporaries of bounded size: measured 6.2 field
    # sizes at this grid (the fields are M^2 n_y complex values)
    wg, ut = build_small(0.02, 64, 64)
    field_bytes = wg.n_kl ** 2 * wg.n_y * 16
    tracemalloc.start()
    try:
        solve_mu_sharp(ut, +1, wg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * field_bytes


def test_apply_g_zero_and_linearity():
    rng = np.random.default_rng(11)
    g = small_grids()
    m, ny = g.n_kl, g.n_y
    ut = rng.standard_normal((m, ny)) + 1j * rng.standard_normal((m, ny))
    zero = np.zeros((m, m, ny), complex)
    assert np.array_equal(apply_g(ut, zero, +1, g), zero)
    f1 = rng.standard_normal((m, m, ny)) + 1j * rng.standard_normal((m, m, ny))
    f2 = rng.standard_normal((m, m, ny)) + 1j * rng.standard_normal((m, m, ny))
    lhs = apply_g(ut, 2.0 * f1 + f2, -1, g)
    rhs = 2.0 * apply_g(ut, f1, -1, g) + apply_g(ut, f2, -1, g)
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) < 1e-13 * max(1.0, scale)


def test_apply_g_rejects_bad_operands():
    g = small_grids()
    ut = np.zeros((g.n_kl, g.n_y), complex)
    with pytest.raises(ValueError):
        apply_g(ut, np.zeros((4, 4, 4), complex), +1, g)
    bad = np.zeros((g.n_kl, g.n_kl, g.n_y), complex)
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        apply_g(ut, bad, +1, g)


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
    out = apply_g(ut, f, +1, g)
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
    got = g_on_delta(ut, +1, wg)[ki, li, yi]
    assert abs(got - want) / abs(want) < 2e-2


def test_g_on_delta_zero():
    g = small_grids()
    ut = np.zeros((g.n_kl, g.n_y), complex)
    assert np.array_equal(g_on_delta(ut, +1, g),
                          np.zeros((g.n_kl, g.n_kl, g.n_y), complex))


def test_g_on_delta_norm_bound(work128):
    wg, ut, _ = work128
    _, w = transform_norms(ut, wg)
    gd = g_on_delta(ut, +1, wg)
    assert x_norm(gd, wg) <= np.sqrt(np.pi) * w * 1.05


def test_operator_norm_proxy(work128):
    wg, ut, _ = work128
    c, _ = transform_norms(ut, wg)
    rng = np.random.default_rng(12)
    m, ny = wg.n_kl, wg.n_y
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
        ratio = x_norm(apply_g(ut, f, sign, wg), wg) / x_norm(f, wg)
        assert ratio <= c + 0.05


# --------------------------------------------------------------------- solver

def test_solve_zero_potential():
    g = small_grids()
    ut = np.zeros((g.n_kl, g.n_y), complex)
    mu = solve_mu_sharp(ut, +1, g)
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
        assert x_norm(mu.values, wg) <= np.sqrt(np.pi) * w / (1.0 - c) * 1.05
        assert mu.source_norm <= np.sqrt(np.pi) * w * 1.05


def test_born_remainder_scaling():
    K = {}
    for eps in (1e-2, 1e-3):
        wg, ut = build_small(eps)
        mu = solve_mu_sharp(ut, +1, wg)
        gd = g_on_delta(ut, +1, wg)
        K[eps] = x_norm(mu.values - gd, wg) / eps**2
    assert 0.9 < K[1e-2] / K[1e-3] < 1.1


def test_solve_rejects_failing_conditions():
    gx = Grid1D(-32.0, 32.0, 256)
    field = make_test_potential("gaussian_dx", 0.8, 1.0, gx, gx)
    pt = partial_fourier_x(field)
    report = check_conditions(field, pt)
    assert not report.passed
    wg = ScatteringGrids(Grid1D(-8.0, 8.0, 64), Grid1D(-8.0, 8.0, 64))
    ut = resample_transform(pt, wg)
    with pytest.raises(ValueError):
        solve_mu_sharp(ut, +1, wg, conditions=report)


# ---------------------------------------------------------------- assembly

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
    wg, ut = build_small(eps)
    mu_p = solve_mu_sharp(ut, +1, wg)
    mu_m = solve_mu_sharp(ut, -1, wg)
    sp = split_T(assemble_T(mu_p, mu_m, ut, wg))
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
        wg, ut = build_small(eps)
        mu_p = solve_mu_sharp(ut, +1, wg)
        mu_m = solve_mu_sharp(ut, -1, wg)
        sp = split_T(assemble_T(mu_p, mu_m, ut, wg))
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
    T1 = assemble_T1(ut, wg)
    kk = wg.grid_kl.points
    p = kk[None, :] - kk[:, None]
    q = kk[None, :] ** 2 - kk[:, None] ** 2
    exact = eps * p * np.exp(-(p**2 + q**2) / 2.0)
    scale = np.max(np.abs(exact))
    interior = np.abs(p) <= 3.5
    err = np.max(np.abs(T1 - exact)[interior])
    assert err <= 1e-6 * scale


def test_linearized_T_bilinear_route(reference_setup, work128):
    field, _, _ = reference_setup
    wg, ut, _ = work128
    gp, gq, uhat = full_fourier(field)
    Tlin, n_out = linearized_T(gp, gq, uhat, wg)
    kk = wg.grid_kl.points
    p = kk[None, :] - kk[:, None]
    q = kk[None, :] ** 2 - kk[:, None] ** 2
    exact = EPS_REF * p * np.exp(-(p**2 + q**2) / 2.0)
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(Tlin - exact)) <= 1e-2 * scale
    # rays leaving the sampled transform window: counted, value exactly 0.
    # The window is the sampled transform's own (asymmetric) point range.
    assert n_out > 0
    outside = ((p < gp.points[0]) | (p > gp.points[-1])
               | (-q < gq.points[0]) | (-q > gq.points[-1]))
    assert np.count_nonzero(outside) == n_out
    assert np.all(Tlin[outside] == 0.0)
    # the diagonal reads the transform's origin bin exactly, and that bin
    # is the field mean, which vanishes for derivative data
    i0 = int(np.argmin(np.abs(gp.points)))
    j0 = int(np.argmin(np.abs(gq.points)))
    origin = -1j * uhat[i0, j0]
    assert abs(origin) < 1e-16
    assert np.all(np.diag(Tlin) == origin)
    # agreement with the delta route at the working resolution
    T1 = assemble_T1(ut, wg)
    assert np.max(np.abs(Tlin - T1)) <= 1e-2 * scale


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
    mu = MuSharpField(np.zeros((g.n_kl, g.n_kl, g.n_y), complex), +1, g, 1, [], 0.0, 0.0)
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
        rep = diagnostic_mu_k_growth(solve_mu_sharp(ut, +1, wg))
        sups.append(rep["sup_ratio"])
        edges.append(rep["edge_value"] * (1.0 + half_y))
    assert abs(sups[1] / sups[0] - 1.0) < 0.02
    assert abs(edges[1] / edges[0] - 1.0) < 0.05


def test_diagnostic_amplitude_linearity():
    vals = {}
    for eps in (0.02, 0.05):
        wg, ut = build_small(eps)
        vals[eps] = diagnostic_mu_k_growth(solve_mu_sharp(ut, +1, wg))["sup_ratio"]
    assert 0.9 < (vals[0.05] / 0.05) / (vals[0.02] / 0.02) < 1.1


def test_kernel_continuity_constant_stable():
    def make(eps, width):
        wg, ut = build_small(eps, width=width)
        mu_p = solve_mu_sharp(ut, +1, wg)
        mu_m = solve_mu_sharp(ut, -1, wg)
        return assemble_T(mu_p, mu_m, ut, wg), ut, wg

    base, ut_base, wg = make(0.05, 1.0)
    consts = []
    for eps, width in ((0.055, 1.0), (0.05, 1.08), (0.045, 1.0)):
        other, ut_other, _ = make(eps, width)
        consts.append(kernel_continuity_constant(
            base.T_plus, other.T_plus, ut_base, ut_other, wg))
    assert max(consts) / min(consts) < 2.0


def test_continuity_modulus_stable_under_refinement(reference_setup):
    _, pt, _ = reference_setup
    vals = []
    for n in (64, 128):
        wg = ScatteringGrids(Grid1D(-8.0, 8.0, n), Grid1D(-8.0, 8.0, 64))
        ut = resample_transform(pt, wg)
        vals.append(continuity_modulus(assemble_T1(ut, wg), wg))
    assert max(vals) / min(vals) < 1.2


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
