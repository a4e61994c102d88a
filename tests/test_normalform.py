import tracemalloc
import warnings

import numpy as np
import pytest

from kgzsim.kgz import SimConfig, gaussian_data, run_simulation
from kgzsim.normalform import (
    SYMBOL_KINDS,
    BilinearOperator,
    BilinearSymbol,
    _pair_support,
    _symbol_weight,
    annulus_guard,
    dense_bilinear_reference,
    duhamel_residual,
    estimate_sweep,
    normal_form_terms,
)
from kgzsim.radial import (
    _CHUNK,
    RadialGrid,
    SpectralField,
    eta0,
    pointwise_product,
    smooth_random_field,
    spectral_l2,
    synthesize,
    to_physical,
    to_spectral,
)
from kgzsim.resonance import Branch, ResonanceParams, compute_params

ALPHA = 0.5


@pytest.fixture(scope="module")
def params(grid):
    with pytest.warns(UserWarning):
        return compute_params(ALPHA, band=grid)


@pytest.fixture(scope="module")
def smooth_pair(grid):
    rng = np.random.default_rng(99)
    f = to_physical(smooth_random_field(grid, rng, xi_top=4.0))
    g = to_physical(smooth_random_field(grid, rng, xi_top=4.0))
    return f, g


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

def test_symbol_validation(params):
    with pytest.raises(ValueError, match="kind"):
        BilinearSymbol("misc")
    with pytest.raises(ValueError, match="resonance parameters"):
        BilinearSymbol("omega")
    assert BilinearSymbol("omega", params).conjugates_second is False
    assert BilinearSymbol("omega_tilde", params).conjugates_second is True


def test_annulus_guard_profile(params):
    c, d = params.c_alpha, params.delta_alpha
    assert annulus_guard(np.array([c]), params)[0] == 0.0
    assert annulus_guard(np.array([c + 0.49 * d]), params)[0] == 0.0
    assert annulus_guard(np.array([c + d]), params)[0] == 1.0
    mid = annulus_guard(np.array([c + 0.75 * d]), params)[0]
    assert 0.0 < mid < 1.0


def _quadrature_geometry(grid, cos, rows=slice(None)):
    xo, rho = grid.xi[rows, None, None], grid.xi[None, :, None]
    return xo, np.sqrt(np.maximum(xo**2 + rho**2 - 2.0 * xo * rho * cos, 0.0)), rho


def test_symbol_finite_on_support(grid, params):
    cos, _ = np.polynomial.legendre.leggauss(32)
    for kind, mask in (("omega", "xl_mask"), ("omega_tilde", "xl_lx_mask")):
        sym = BilinearSymbol(kind, params)
        op = BilinearOperator(grid, sym, 32)
        num = BilinearOperator(grid, BilinearSymbol(mask, params), 32)
        assert np.isfinite(op.max_abs_weight) and op.max_abs_weight > 0
        assert 0.0 < op.min_abs_phase < np.inf
        assert num.min_abs_phase is None
        # each symbol divides its mask by the phase on the mask's support, so the
        # guarded reciprocal cannot exceed max|mask| / min|phase|
        assert op.max_abs_weight <= num.max_abs_weight / op.min_abs_phase * (1.0 + 1e-12)
        # the recorded phase is the smallest one divided by on the full (m, j, q) grid
        smallest = np.inf
        for lo in range(0, grid.M, 64):
            xo, u, rho = _quadrature_geometry(grid, cos, slice(lo, lo + 64))
            if kind == "omega":
                phase = -np.sqrt(1.0 + xo**2) + params.alpha * u + np.sqrt(1.0 + rho**2)
            else:
                phase = np.sqrt(1.0 + u**2) - np.sqrt(1.0 + rho**2) - params.alpha * xo
            divided = _symbol_weight(sym, grid, xo, u, rho) != 0.0
            smallest = min(smallest, np.abs(phase[divided]).min(initial=np.inf))
        assert op.min_abs_phase == pytest.approx(smallest, rel=1e-12)


# the C8 grid, where the band cap on k_alpha binds, and the sweep grid
SUPPORT_GRIDS = pytest.mark.parametrize("alpha, M", [(0.5, 256), (2.0, 128)])


def _grid_and_params(alpha, M):
    grid = RadialGrid(40.0, M)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return grid, compute_params(alpha, band=grid)


def _gauss_and_end_points(grid):
    # eight Gauss nodes and the end points c = -1, 1, where u = xi + rho and |xi - rho|
    nodes, _ = np.polynomial.legendre.leggauss(8)
    return _quadrature_geometry(grid, np.concatenate([[-1.0], nodes, [1.0]]))


@SUPPORT_GRIDS
def test_weight_vanishes_off_pair_support(alpha, M):
    grid, params = _grid_and_params(alpha, M)
    xo, u, rho = _gauss_and_end_points(grid)
    c = np.linspace(-1.0, 1.0, 257)
    for kind in SYMBOL_KINDS[1:]:
        sym = BilinearSymbol(kind, params)
        w = _symbol_weight(sym, grid, xo, u, rho)
        support = _pair_support(sym, grid)
        assert np.all(w[~support] == 0.0), kind
        assert np.any(w[support] != 0.0), kind
        # the converse: every support pair carries a nonzero weight at some angle
        hit = np.zeros_like(support)
        for lo in range(0, M, 16):
            rows = _symbol_weight(sym, grid, *_quadrature_geometry(grid, c, slice(lo, lo + 16)))
            hit[lo : lo + 16] = np.any(rows != 0.0, axis=-1)
        assert np.array_equal(hit, support), kind


def _all_blocks_weight(sym, grid, xi_out, u, rho):
    """The weight as one formula: every dyadic block on every entry, the phase on the full array."""
    p, ka = sym.params, sym.params.k_alpha
    xl = [k for k in grid.resolved_k if abs(2.0**k - p.c_alpha) > p.delta_alpha]
    num = np.zeros(np.broadcast_shapes(u.shape, rho.shape))
    for k in xl:
        num = num + (eta0(u / 2.0**k) - eta0(u / 2.0 ** (k - 1))) * eta0(rho / 2.0 ** (k - ka))
    num = num * annulus_guard(u, p, sym.guard_fraction)
    if sym.conjugates_second:
        lx = np.zeros_like(num)
        for k in xl:
            lx = lx + eta0(u / 2.0 ** (k - ka)) * (eta0(rho / 2.0**k) - eta0(rho / 2.0 ** (k - 1)))
        num = num + lx
    num = np.broadcast_to(num, np.broadcast_shapes(num.shape, xi_out.shape))
    if sym.kind in ("xl_mask", "xl_lx_mask"):
        return num.copy()
    if sym.kind == "omega":
        phase = -np.sqrt(1.0 + xi_out**2) + p.alpha * u + np.sqrt(1.0 + rho**2)
    else:
        phase = np.sqrt(1.0 + u**2) - np.sqrt(1.0 + rho**2) - p.alpha * xi_out
    out = np.zeros(num.shape)
    np.divide(num, phase, out=out, where=num != 0.0)
    return out


@SUPPORT_GRIDS
def test_weight_matches_all_blocks_formula(alpha, M):
    # the per-block evaluation skips only exact zeros, so it is bit-identical
    grid, params = _grid_and_params(alpha, M)
    xo, u, rho = _gauss_and_end_points(grid)
    for kind in SYMBOL_KINDS[1:]:
        sym = BilinearSymbol(kind, params)
        want = _all_blocks_weight(sym, grid, xo, u, rho)
        assert np.any(want != 0.0), kind
        assert np.array_equal(_symbol_weight(sym, grid, xo, u, rho), want), kind


# ---------------------------------------------------------------------------
# quadrature operator
# ---------------------------------------------------------------------------

def test_zero_second_argument(grid, params, smooth_pair):
    f, _ = smooth_pair
    op = BilinearOperator(grid, BilinearSymbol("omega", params), 32)
    out = op.apply_batch(to_spectral(f).coeffs, np.zeros(grid.M))
    assert np.max(np.abs(out)) == 0.0


def test_bilinearity_exact(grid, params, smooth_pair):
    f, g = smooth_pair
    rng = np.random.default_rng(5)
    h = to_physical(smooth_random_field(grid, rng, xi_top=4.0))
    sym = BilinearSymbol("omega", params)
    cf, cg, ch = (to_spectral(x).coeffs for x in (f, g, h))
    # 72 angular nodes: M^2 Q above 2^22 entries, where kernels once dropped to float32
    for n_angular in (32, 72):
        op = BilinearOperator(grid, sym, n_angular)
        lhs, a, b = op.apply_batch([cf + 2.0 * ch, cf, ch], [cg, cg, cg])
        rhs = a + 2.0 * b
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(np.max(np.abs(rhs)), 1e-30)
        lhs, a, b = op.apply_batch([cf, cf, cf], [cg + 3.0 * ch, cg, ch])
        rhs = a + 3.0 * b
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(np.max(np.abs(rhs)), 1e-30)


def _loop_apply(grid, sym, n_angular, cf, cg):
    """The quadrature as an explicit loop over output m, input rho_j, angle node q."""
    M = grid.M
    cos, glw = np.polynomial.legendre.leggauss(n_angular)
    xi = grid.xi
    trap = np.ones(M)
    trap[0] = trap[-1] = 0.5
    g = np.conj(cg) if sym.conjugates_second else cg
    xo, rho = xi[:, None, None], xi[None, :, None]
    u = np.sqrt(np.maximum(xo**2 + rho**2 - 2.0 * xo * rho * cos, 0.0))
    w = _symbol_weight(sym, grid, xo, u, rho)
    out = np.zeros(cf.shape, dtype=complex)
    for m in range(M):
        for j in range(M):
            for q in range(n_angular):
                um = u[m, j, q]
                if um < xi[0] or um > xi[-1]:
                    continue
                pos = (um - xi[0]) / grid.dxi
                i = min(int(np.floor(pos)), M - 1)
                frac = pos - i
                fu = (1.0 - frac) * cf[:, i] + (frac * cf[:, i + 1] if i + 1 < M else 0.0)
                out[:, m] += w[m, j, q] * glw[q] * trap[j] * xi[j] ** 2 * fu * g[:, j]
    return out * grid.dxi / (4.0 * np.pi**2)


@pytest.mark.parametrize("kind", SYMBOL_KINDS)
def test_apply_matches_loop_reference(kind):
    grid = RadialGrid(20.0, 48)
    params = ResonanceParams(0.5, 4.0 / 3.0, 1.0 / 3.0, 5, 0.0596, Branch.ALPHA_LT_1)
    sym = BilinearSymbol(kind, None if kind == "plain" else params)
    op = BilinearOperator(grid, sym, n_angular=8)
    rng = np.random.default_rng(17)
    rows = max(1, _CHUNK // len(op.m_p))  # stack rows per apply chunk
    S = 3 * rows + 1  # spans four chunks, the last one short
    cf = rng.standard_normal((S, grid.M)) + 1j * rng.standard_normal((S, grid.M))
    cg = rng.standard_normal((S, grid.M)) + 1j * rng.standard_normal((S, grid.M))
    got = op.apply_batch(cf, cg)
    want = _loop_apply(grid, sym, 8, cf[:4], cg[:4])
    assert np.max(np.abs(want)) > 0
    assert np.max(np.abs(got[:4] - want)) < 1e-12 * np.max(np.abs(want))
    rows = np.concatenate([op.apply_batch(a[None], b[None]) for a, b in zip(cf, cg)])
    assert np.array_equal(got, rows)


def test_plain_symbol_is_pointwise_product(grid, smooth_pair):
    f, g = smooth_pair
    got = BilinearOperator(grid, BilinearSymbol("plain")).apply_batch(to_spectral(f).coeffs, to_spectral(g).coeffs)
    want = to_spectral(pointwise_product(f, g))
    err = spectral_l2(SpectralField(grid, got[0]) - want)
    assert err < 1e-3 * spectral_l2(want)


def test_support_violation_gives_zero(grid, params):
    # both factors in nearby blocks: separation < k_alpha, mask empty
    cf = np.where((grid.xi >= 2.2) & (grid.xi <= 3.6), 1.0, 0.0).astype(complex)
    cg = np.where((grid.xi >= 1.1) & (grid.xi <= 1.9), 1.0, 0.0).astype(complex)
    out = BilinearOperator(grid, BilinearSymbol("omega", params), 32).apply_batch(cf, cg)
    assert spectral_l2(SpectralField(grid, out[0])) < 1e-12


def test_against_dense_quadrature_oracle():
    # high factor in dyadic block 5, low factor in block 0 with separation
    # k_alpha = 5: the non-resonant high-low piece compared against a denser
    # independent quadrature; both factors are smooth and grid-resolved
    grid = RadialGrid(14.0 * np.pi, 1024)
    params = ResonanceParams(0.5, 4.0 / 3.0, 1.0 / 3.0, 5, 0.0596, Branch.ALPHA_LT_1)
    cf = np.exp(-(((grid.xi - 34.0) / 7.0) ** 2)).astype(complex)
    cf[(grid.xi < 18.0) | (grid.xi > 60.0)] = 0.0
    cg = np.exp(-(((grid.xi - 1.1) / 0.3) ** 2)).astype(complex)
    cg[grid.xi > 1.9] = 0.0
    f, g = to_physical(SpectralField(grid, cf)), to_physical(SpectralField(grid, cg))
    sym = BilinearSymbol("omega", params)
    op = BilinearOperator(grid, sym, 16)
    got = op.apply_batch(cf, cg)
    oracle = dense_bilinear_reference(sym, f, g, refine=4, n_angular=64, rho_max=4.0)
    n_got = spectral_l2(SpectralField(grid, got[0]))
    n_oracle = spectral_l2(to_spectral(oracle))
    assert n_oracle > 0
    assert abs(n_got - n_oracle) < 1e-3 * n_oracle
    # the apply's temporaries scale with the kernel's pairs, not with M^2:
    # forming the (M, M) outer product of each row pair peaks at 128 MB here
    stack = np.tile(cf, (8, 1)), np.tile(cg, (8, 1))
    tracemalloc.start()
    try:
        op.apply_batch(*stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# boundary and cubic terms
# ---------------------------------------------------------------------------

def test_boundary_term_zero_cases(grid, params, smooth_pair):
    _, U = smooth_pair
    cU, z = to_spectral(U).coeffs, np.zeros(grid.M)
    out = normal_form_terms(grid, params, z, cU, ("bd_U",), 32)["bd_U"]
    assert np.max(np.abs(out)) == 0.0
    out = normal_form_terms(grid, params, z, z, ("bd_N",), 32)["bd_N"]
    assert np.max(np.abs(out)) == 0.0


CUBIC = ("cubic_1", "cubic_2", "cubic_3")


def test_cubic_dependence_structure(grid, params, smooth_pair):
    N, U = smooth_pair
    cN, cU, z = to_spectral(N).coeffs, to_spectral(U).coeffs, np.zeros(grid.M)
    # rows: (N, 0), (0, U), (N, U); physical values, as the terms enter the equations
    nf = normal_form_terms(grid, params, [cN, z, cN], [z, cU, cU], CUBIC, 32)
    (t1, a1, b1), (t2, a2, _), (t3, a3, _) = (synthesize(grid, nf[k]) for k in CUBIC)
    for t in (t1, t2, t3):
        assert np.max(np.abs(t)) == 0.0
    assert np.max(np.abs(a2)) == 0.0
    assert np.max(np.abs(a3)) == 0.0
    assert np.max(np.abs(a1 - b1)) < 1e-12 * max(np.max(np.abs(b1)), 1e-30)


def test_cubic_trilinear_scaling(grid, params, smooth_pair):
    _, U = smooth_pair
    cU, z = to_spectral(U).coeffs, np.zeros(grid.M)
    one, eight = synthesize(grid, normal_form_terms(grid, params, [z, z], [cU, 2.0 * cU], CUBIC, 32)["cubic_1"])
    err = np.max(np.abs(eight - 8.0 * one))
    assert err < 1e-8 * np.max(np.abs(eight))


# ---------------------------------------------------------------------------
# transformed-equation residuals
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def simplified_traj(grid):
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=1e-3, T=0.5, model="simplified", dealias=False, snapshot_stride=10)
    return run_simulation(cfg, gaussian_data(grid, 0.01))


def test_residual_linear_run(grid):
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=1e-2, T=1.0, model="linear", dealias=False, snapshot_stride=10)
    traj = run_simulation(cfg, gaussian_data(grid, 0.01))
    assert duhamel_residual(traj, None, "U") < 1e-10
    assert duhamel_residual(traj, None, "N") < 1e-10


def test_residual_zero_data(grid, params):
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=1e-2, T=0.1, model="simplified", dealias=False, snapshot_stride=1)
    traj = run_simulation(cfg, gaussian_data(grid, 0.0))
    assert duhamel_residual(traj, params, "U") == 0.0


def test_residual_small_data(grid, params, simplified_traj):
    assert duhamel_residual(simplified_traj, params, "U") < 1e-3
    assert duhamel_residual(simplified_traj, params, "N") < 1e-3


def test_residual_rejects_full_model(grid, params):
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=1e-2, T=0.1, model="full", dealias=False, snapshot_stride=1)
    traj = run_simulation(cfg, gaussian_data(grid, 0.01))
    with pytest.raises(ValueError, match="simplified"):
        duhamel_residual(traj, params, "U")


def test_residual_rejects_dealiased_run(grid, params):
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=1e-2, T=0.1, model="simplified", dealias=True, snapshot_stride=1)
    traj = run_simulation(cfg, gaussian_data(grid, 0.01))
    with pytest.raises(ValueError, match="dealias"):
        duhamel_residual(traj, params, "U")


def test_residual_rejects_mismatched_params(grid, simplified_traj):
    other = compute_params(0.3)
    with pytest.raises(ValueError, match="alpha"):
        duhamel_residual(simplified_traj, other, "U")


# ---------------------------------------------------------------------------
# estimate sweep
# ---------------------------------------------------------------------------

def test_estimate_sweep_smoke():
    report = estimate_sweep(2.0, sizes=(64, 128), trials=3, n_angular=24)
    assert len(report.rows) == 2 * 3 * 8
    assert all(np.isfinite(r.value) and r.value > 0 for r in report.rows)
    ratios = report.stability_ratios()
    assert set(ratios) == set(
        ("bd_U", "bd_N", "cubic_1", "cubic_2", "cubic_3", "bi_LH", "bi_HH", "bi_DHH")
    )


def test_sweep_report_csv(tmp_path):
    report = estimate_sweep(2.0, sizes=(64,), trials=2, n_angular=16)
    report.write_csv(tmp_path / "sweep.csv")
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "estimate,M,trial,value"
    assert len(lines) == 1 + len(report.rows)
