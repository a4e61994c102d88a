import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from kgzsim import normalform
from kgzsim.kgz import SimConfig, gaussian_data, run_simulation
from kgzsim.normalform import (
    BilinearOperator,
    BilinearSymbol,
    _block_support,
    _cutoff,
    _pair_support,
    _simpson,
    _symbol_weight,
    annulus_guard,
    duhamel_residual,
    estimate_sweep,
    normal_form_terms,
)
from kgzsim.radial import _CHUNK, RadialGrid, analyze, l2_norms, synthesize
from kgzsim.resonance import (
    Branch,
    InteractionTag,
    ResonanceParams,
    _block_resonant,
    compute_params,
    decompose_bilinear,
    interaction_distance,
)
from references import all_blocks_cutoff, bilinear_reference, resonance_phase, smooth_random_field

ALPHA = 0.5
PHASES = ("omega", "omega_tilde")
# the two data of a phase's kernel: Omega = cutoff / phase, and the cutoff alone
KERNEL_DATA = [(kind, cutoff) for kind in PHASES for cutoff in (False, True)]
DATA_IDS = ["omega", "omega-cutoff", "omega_tilde", "omega_tilde-cutoff"]
# a small grid whose band hosts a high-low separation of k_alpha = 5
SMALL_GRID = dict(R=20.0, M=48)
SMALL_PARAMS = ResonanceParams(0.5, 4.0 / 3.0, 1.0 / 3.0, 5, 0.0596, Branch.ALPHA_LT_1)


@pytest.fixture(scope="module")
def params(grid):
    with pytest.warns(UserWarning):
        return compute_params(ALPHA, band=grid)


@pytest.fixture(scope="module")
def smooth_pair(grid):
    # the coefficients of two smooth fields, passed once through their samples
    rng = np.random.default_rng(99)
    f = analyze(grid, synthesize(grid, smooth_random_field(grid, rng, xi_top=4.0)))
    g = analyze(grid, synthesize(grid, smooth_random_field(grid, rng, xi_top=4.0)))
    return f, g


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

def test_symbol_validation(params):
    with pytest.raises(ValueError, match="kind"):
        BilinearSymbol("plain", params)
    with pytest.raises(TypeError, match="params"):
        BilinearSymbol("omega")
    assert BilinearSymbol("omega", params).conjugates_second is False
    assert BilinearSymbol("omega_tilde", params).conjugates_second is True


def test_counts_rejected_before_any_work(params):
    with pytest.raises(ValueError, match="n_angular must be at least 1, got 0"):
        BilinearOperator(RadialGrid(40.0, 64), BilinearSymbol("omega", params), n_angular=0)
    with pytest.raises(ValueError, match="trials must be at least 1, got 0"):
        estimate_sweep(trials=0)


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


def _weights(sym, grid, xo, u, rho, cutoff=False):
    """The cutoff (with ``cutoff``) or Omega = cutoff / phase on quadrature geometry arrays."""
    cut = _cutoff(sym, grid, u, rho)
    return cut if cutoff else _symbol_weight(sym, grid, cut, sym.phase(xo, u, rho))


def test_symbol_finite_on_support(grid, params):
    cos, _ = np.polynomial.legendre.leggauss(32)
    for kind in PHASES:
        sym = BilinearSymbol(kind, params)
        op = BilinearOperator(grid, sym, 32)
        assert np.isfinite(op.max_abs_weight) and op.max_abs_weight > 0
        assert 0.0 < op.min_abs_phase < np.inf
        # the recorded phase is the smallest one divided by on the full (m, j, q) grid
        smallest, largest_cutoff = np.inf, 0.0
        for lo in range(0, grid.M, 64):
            xo, u, rho = _quadrature_geometry(grid, cos, slice(lo, lo + 64))
            phase = resonance_phase(kind, params.alpha, xo, u, rho)
            cut = _cutoff(sym, grid, u, rho)
            smallest = min(smallest, np.abs(phase[cut != 0.0]).min(initial=np.inf))
            largest_cutoff = max(largest_cutoff, np.abs(cut).max())
        assert op.min_abs_phase == pytest.approx(smallest, rel=1e-12)
        # each symbol divides its cutoff by the phase on the cutoff's support, so the
        # guarded reciprocal cannot exceed max|cutoff| / min|phase|
        assert op.max_abs_weight <= largest_cutoff / op.min_abs_phase * (1.0 + 1e-12)


# the C8 grid, where the band cap on k_alpha binds, and the sweep grid
SUPPORT_GRIDS = pytest.mark.parametrize("alpha, M", [(0.5, 256), (2.0, 128)])
# and a grid with xi_m = m / 16 (R = 16 pi), where u = xi + rho and |xi - rho| at the end points
# c = -1, 1 fall exactly on powers of 2: the lower edges of the dyadic shells
WEIGHT_GRIDS = pytest.mark.parametrize(
    "alpha, M, R",
    [(0.5, 256, 40.0), (2.0, 128, 40.0), (2.0, 128, 16.0 * np.pi)],
    ids=["0.5-256", "2.0-128", "2.0-128-R16pi"],
)


def _grid_and_params(alpha, M, R=40.0):
    grid = RadialGrid(R, M)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return grid, compute_params(alpha, band=grid)


def _gauss_and_end_points(grid):
    # eight Gauss nodes and the end points c = -1, 1, where u = xi + rho and |xi - rho|
    nodes, _ = np.polynomial.legendre.leggauss(8)
    return _quadrature_geometry(grid, np.concatenate([[-1.0], nodes, [1.0]]))


@WEIGHT_GRIDS
def test_weight_vanishes_off_pair_support(alpha, M, R):
    grid, params = _grid_and_params(alpha, M, R)
    xo, u, rho = _gauss_and_end_points(grid)
    c = np.linspace(-1.0, 1.0, 257)
    for kind, cutoff in KERNEL_DATA:
        sym = BilinearSymbol(kind, params)
        w = _weights(sym, grid, xo, u, rho, cutoff)
        support = _pair_support(sym, grid)
        assert np.all(w[~support] == 0.0), (kind, cutoff)
        assert np.any(w[support] != 0.0), (kind, cutoff)
        # the converse: every support pair carries a nonzero weight at some angle
        hit = np.zeros_like(support)
        for lo in range(0, M, 16):
            rows = _weights(sym, grid, *_quadrature_geometry(grid, c, slice(lo, lo + 16)), cutoff)
            hit[lo : lo + 16] = np.any(rows != 0.0, axis=-1)
        assert np.array_equal(hit, support), (kind, cutoff)


def _full_grid_support(sym, grid):
    """The pair support as one formula: every block's conditions on the full (M, M) grid."""
    xi, rho = grid.xi[:, None], grid.xi
    lo, hi = interaction_distance(xi, rho, 1.0), interaction_distance(xi, rho, -1.0)
    keep = np.zeros((grid.M, grid.M), dtype=bool)
    for k in (k for k in grid.resolved_k if not _block_resonant(k, sym.params)):
        xl, lx = _block_support(k, sym.params.k_alpha, lo, hi, rho)
        keep |= xl | lx if sym.conjugates_second else xl
    return keep


@SUPPORT_GRIDS
def test_pair_support_matches_full_grid(alpha, M):
    grid, params = _grid_and_params(alpha, M)
    for kind in PHASES:
        sym = BilinearSymbol(kind, params)
        assert np.array_equal(_pair_support(sym, grid), _full_grid_support(sym, grid)), kind


def _all_blocks_weight(sym, grid, xi_out, u, rho, cutoff):
    """The cutoff (with ``cutoff``) or Omega as one formula: every dyadic block on every entry, the
    phase on the full array."""
    num = all_blocks_cutoff(sym.kind, sym.params, grid, u, rho)
    num = np.broadcast_to(num, np.broadcast_shapes(num.shape, xi_out.shape))
    if cutoff:
        return num.copy()
    out = np.zeros(num.shape)
    np.divide(num, resonance_phase(sym.kind, sym.params.alpha, xi_out, u, rho), out=out, where=num != 0.0)
    return out


@WEIGHT_GRIDS
def test_weight_matches_all_blocks_formula(alpha, M, R):
    # the per-node evaluation skips only exact zeros, so it is bit-identical
    grid, params = _grid_and_params(alpha, M, R)
    xo, u, rho = _gauss_and_end_points(grid)
    edges = np.frexp(u)[0] == 0.5  # u on a shell's lower edge
    on_edges = 0
    for kind, cutoff in KERNEL_DATA:
        sym = BilinearSymbol(kind, params)
        want = _all_blocks_weight(sym, grid, xo, u, rho, cutoff)
        assert np.any(want != 0.0), (kind, cutoff)
        assert np.array_equal(_weights(sym, grid, xo, u, rho, cutoff), want), (kind, cutoff)
        on_edges += np.count_nonzero(edges & (want != 0.0))
    # on the R = 16 pi grid some of the compared weights sit on shell edges
    assert on_edges > 0 or R != 16.0 * np.pi


# ---------------------------------------------------------------------------
# quadrature operator
# ---------------------------------------------------------------------------

def test_zero_second_argument(grid, params, smooth_pair):
    f, _ = smooth_pair
    op = BilinearOperator(grid, BilinearSymbol("omega", params), 32)
    out = op.apply_batch(f, np.zeros(grid.M))
    assert np.max(np.abs(out)) == 0.0


def test_bilinearity_exact(grid, params, smooth_pair):
    cf, cg = smooth_pair
    rng = np.random.default_rng(5)
    ch = analyze(grid, synthesize(grid, smooth_random_field(grid, rng, xi_top=4.0)))
    sym = BilinearSymbol("omega", params)
    # 72 angular nodes: M^2 Q above 2^22 entries, where kernels once dropped to float32
    for n_angular in (32, 72):
        op = BilinearOperator(grid, sym, n_angular)
        lhs, a, b = op.apply_batch([cf + 2.0 * ch, cf, ch], [cg, cg, cg])
        rhs = a + 2.0 * b
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(np.max(np.abs(rhs)), 1e-30)
        lhs, a, b = op.apply_batch([cf, cf, cf], [cg + 3.0 * ch, cg, ch])
        rhs = a + 3.0 * b
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(np.max(np.abs(rhs)), 1e-30)


def _loop_apply(grid, sym, n_angular, cf, cg, cutoff):
    """The quadrature of the cutoff (with ``cutoff``) or Omega as an explicit loop over output m, input
    rho_j, angle node q."""
    M = grid.M
    cos, glw = np.polynomial.legendre.leggauss(n_angular)
    xi = grid.xi
    trap = np.ones(M)
    trap[0] = trap[-1] = 0.5
    g = np.conj(cg) if sym.conjugates_second else cg
    xo, rho = xi[:, None, None], xi[None, :, None]
    u = np.sqrt(np.maximum(xo**2 + rho**2 - 2.0 * xo * rho * cos, 0.0))
    w = _weights(sym, grid, xo, u, rho, cutoff)
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


@pytest.mark.parametrize("kind, cutoff", KERNEL_DATA, ids=DATA_IDS)
def test_apply_matches_loop_reference(kind, cutoff):
    grid = RadialGrid(**SMALL_GRID)
    sym = BilinearSymbol(kind, SMALL_PARAMS)
    op = BilinearOperator(grid, sym, n_angular=8, cutoff=cutoff)
    rng = np.random.default_rng(17)
    rows = max(1, _CHUNK // len(op.m_p))  # stack rows per apply chunk
    S = 3 * rows + 1  # spans four chunks, the last one short
    cf = rng.standard_normal((S, grid.M)) + 1j * rng.standard_normal((S, grid.M))
    cg = rng.standard_normal((S, grid.M)) + 1j * rng.standard_normal((S, grid.M))
    got = op.apply_batch(cf, cg, cutoff=cutoff)
    want = _loop_apply(grid, sym, 8, cf[:4], cg[:4], cutoff)
    assert np.max(np.abs(want)) > 0
    assert np.max(np.abs(got[:4] - want)) < 1e-12 * np.max(np.abs(want))
    rows = np.concatenate([op.apply_batch(a[None], b[None], cutoff=cutoff) for a, b in zip(cf, cg)])
    assert np.array_equal(got, rows)


def test_cutoff_apply_needs_cutoff_data():
    grid = RadialGrid(**SMALL_GRID)
    op = BilinearOperator(grid, BilinearSymbol("omega", SMALL_PARAMS), n_angular=8)
    with pytest.raises(ValueError, match="built without cutoff data"):
        op.apply_batch(np.ones(grid.M), np.ones(grid.M), cutoff=True)


def test_support_violation_gives_zero(grid, params):
    # both factors in nearby blocks: separation < k_alpha, mask empty
    cf = np.where((grid.xi >= 2.2) & (grid.xi <= 3.6), 1.0, 0.0).astype(complex)
    cg = np.where((grid.xi >= 1.1) & (grid.xi <= 1.9), 1.0, 0.0).astype(complex)
    out = BilinearOperator(grid, BilinearSymbol("omega", params), 32).apply_batch(cf, cg)
    assert l2_norms(grid, out[0]) < 1e-12


@pytest.fixture(scope="module")
def high_low():
    # a high factor in dyadic block 5 and a low factor in block 0, k_alpha = 5 levels apart; both are
    # smooth and grid-resolved, and the annulus guard is 1 on the high factor's band
    grid = RadialGrid(14.0 * np.pi, 1024)
    high = np.exp(-(((grid.xi - 34.0) / 7.0) ** 2)).astype(complex)
    high[(grid.xi < 18.0) | (grid.xi > 60.0)] = 0.0
    low = np.exp(-(((grid.xi - 1.1) / 0.3) ** 2)).astype(complex)
    low[grid.xi > 1.9] = 0.0
    return grid, high, low


@pytest.fixture(scope="module")
def phase_ops(high_low):
    grid = high_low[0]
    # 16 angular nodes for omega; omega_tilde at 64, where its LX cutoff keeps some of its pairs
    return {kind: BilinearOperator(grid, BilinearSymbol(kind, SMALL_PARAMS), Q, cutoff=True)
            for kind, Q in (("omega", 16), ("omega_tilde", 64))}


def _relative_error(grid, got, want):
    assert l2_norms(grid, want) > 0
    return l2_norms(grid, got - want) / l2_norms(grid, want)


def test_against_dense_quadrature_oracle(high_low, phase_ops):
    # Omega and the cutoff on the high-low pair, as full vectors, against the quadrature of their
    # definitions (references.bilinear_reference)
    grid, high, low = high_low
    op = phase_ops["omega"]
    omega, cutoff = bilinear_reference("omega", SMALL_PARAMS, grid, high, low)
    assert _relative_error(grid, op.apply_batch(high, low)[0], omega) <= 1e-3
    assert _relative_error(grid, op.apply_batch(high, low, cutoff=True)[0], cutoff) <= 1e-3
    # the apply's temporaries scale with the kernel's pairs, not with M^2:
    # forming the (M, M) outer product of each row pair peaks at 128 MB here
    stack = np.tile(high, (8, 1)), np.tile(low, (8, 1))
    tracemalloc.start()
    try:
        op.apply_batch(*stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# the Gauss rule in the angle puts too few nodes in omega_tilde's LX term, which lives only where
# u < 2^(k - k_alpha + 1): a sliver of width about 2^(1 - 2 k_alpha) in the cosine
LX_SLIVER_MISSED = pytest.mark.xfail(
    reason="the Gauss rule misses most of omega_tilde's LX sliver", raises=AssertionError, strict=True
)


@pytest.mark.parametrize(
    "kind, tag",
    [
        ("omega", InteractionTag.XL),
        ("omega_tilde", InteractionTag.XL),
        pytest.param("omega_tilde", InteractionTag.LX, marks=LX_SLIVER_MISSED),
    ],
    ids=["omega", "omega_tilde", "omega_tilde-lx"],
)
def test_cutoff_data_is_the_tagged_product(high_low, phase_ops, kind, tag):
    # the quadrature's normalization, against the tagged part of f g (f conj(g) for omega_tilde)
    # formed in physical space: the XL term alone acts on the high-low pair, the LX term on the low-high one
    grid, high, low = high_low
    f, g = (high, low) if tag is InteractionTag.XL else (low, high)
    vf, vg = synthesize(grid, f), synthesize(grid, g)
    if kind == "omega_tilde":
        vg = np.conj(vg)
    want = analyze(grid, decompose_bilinear(grid, vf, vg, tag, SMALL_PARAMS, dealiased=False))
    assert _relative_error(grid, phase_ops[kind].apply_batch(f, g, cutoff=True)[0], want) <= 1e-3


@LX_SLIVER_MISSED
def test_omega_tilde_against_the_oracle_on_a_low_high_pair(high_low, phase_ops):
    grid, high, low = high_low
    omega, _ = bilinear_reference("omega_tilde", SMALL_PARAMS, grid, low, high)
    assert _relative_error(grid, phase_ops["omega_tilde"].apply_batch(low, high)[0], omega) <= 1e-3


def _dense_kernel(grid, sym, n_angular, cutoff, rows=8):
    """The kernel of the cutoff (with ``cutoff``) or Omega with every quadrature term written out: each
    (m, j, q) term is added with np.add.at
    into row m M + j of a dense (M M, M + 1) array, at the two columns of its linear interpolation
    (column M is the zero pad, dropped), a block of ``rows`` output frequencies m at a time.  Returns
    the pair index m M + j, the CSR indptr and indices, and the data of the rows any nonzero term reached."""
    M, xi, dxi = grid.M, grid.xi, grid.dxi
    cos, glw = np.polynomial.legendre.leggauss(n_angular)
    trap = np.ones(M)
    trap[0] = trap[-1] = 0.5
    base = (dxi / (4.0 * np.pi**2)) * trap * xi**2
    pairs, lengths, cols, data = [], [], [], []
    for lo in range(0, M, rows):
        xo, u, rho = _quadrature_geometry(grid, cos, slice(lo, lo + rows))
        w = _weights(sym, grid, xo, u, rho, cutoff)
        m, j, q = np.nonzero(w)
        u, term, row = u[m, j, q], w[m, j, q] * (base[j] * glw[q]), m * M + j
        pos = (u - xi[0]) / dxi
        i = np.floor(pos).astype(int)
        inside = (u >= xi[0]) & (u <= xi[-1])
        dense = np.zeros((len(xo) * M, M + 1))
        reached = np.zeros(dense.shape, dtype=bool)
        for col, part in ((i, term * (1.0 - (pos - i))), (i + 1, term * (pos - i))):
            on = inside & (part != 0.0)
            np.add.at(dense, (row[on], col[on]), part[on])
            reached[row[on], col[on]] = True
        reached[:, M] = False
        r = np.flatnonzero(reached.any(axis=1))
        pairs.append(lo * M + r)
        lengths.append(reached[r].sum(axis=1))
        cols.append(np.nonzero(reached[r])[1])
        data.append(dense[r][reached[r]])
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(lengths))])
    return np.concatenate(pairs), indptr, np.concatenate(cols), np.concatenate(data)


@SUPPORT_GRIDS
@pytest.mark.parametrize("kind, cutoff", KERNEL_DATA, ids=DATA_IDS)
def test_kernel_matches_dense_assembly(alpha, M, kind, cutoff):
    # the chunked band assembly against the quadrature summed term by term on the full (m, j, q)
    # grid: the same pairs and CSR pattern, and the data up to the order of the sums
    grid, params = _grid_and_params(alpha, M)
    sym = BilinearSymbol(kind, params)
    op = BilinearOperator(grid, sym, cutoff=cutoff)
    kernel = op._C if cutoff else op._A
    pairs, indptr, indices, data = _dense_kernel(grid, sym, op.n_angular, cutoff)
    assert len(pairs) > 0
    assert np.array_equal(op.m_p, pairs // M) and np.array_equal(op.j_p, pairs % M)
    assert np.array_equal(kernel.indptr, indptr) and np.array_equal(kernel.indices, indices)
    assert np.all(np.abs(kernel.data - data) <= 4e-15 * np.abs(data))


def test_build_temporaries_do_not_grow_with_the_angular_order(monkeypatch):
    # at Q = 1024 a build of 8 output rows at a time held 28 MB for a 0.3 MB kernel (alpha = 2, M = 128)
    grid, params = _grid_and_params(2.0, 128)
    # numpy's Gauss rule solves a Q x Q eigenproblem (8 MB here): computed before tracing, returned as is
    rule = np.polynomial.legendre.leggauss(1024)
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: rule)
    # a chunk holds normalform._ENTRIES (pair, node) entries, with at most 16 float64 temporaries per
    # entry; and the (M, M) support mask with, at most, an (m, j) index pair for each of its entries
    bound = 16 * 8 * normalform._ENTRIES + grid.M**2 * (1 + 2 * 8)
    for cutoff in (False, True):
        tracemalloc.start()
        try:
            op = BilinearOperator(grid, BilinearSymbol("omega_tilde", params), 1024, cutoff=cutoff)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kernel = [op._A.data, op._A.indices, op._A.indptr, op._B.data, op._B.indices, op._B.indptr, op.m_p, op.j_p]
        kernel += [op._C.data] if cutoff else []
        assert peak - sum(a.nbytes for a in kernel) < bound, (cutoff, peak, bound)


# ---------------------------------------------------------------------------
# boundary and cubic terms
# ---------------------------------------------------------------------------

def test_boundary_term_zero_cases(grid, params, smooth_pair):
    _, cU = smooth_pair
    z = np.zeros(grid.M)
    out = normal_form_terms(grid, params, z, cU, ("bd_U",), 32)["bd_U"]
    assert np.max(np.abs(out)) == 0.0
    out = normal_form_terms(grid, params, z, z, ("bd_N",), 32)["bd_N"]
    assert np.max(np.abs(out)) == 0.0


def _scale_omega(monkeypatch, factor):
    """Scale Omega and OmegaTilde by ``factor`` through a wrapper of ``normalform._symbol_weight`` that sees
    its leading (symbol, grid) arguments, as a per-kind, per-grid mutation of the symbols does."""
    weight = normalform._symbol_weight

    def scaled(sym, grid, *rest):
        w = weight(sym, grid, *rest)
        return w * factor if sym.kind in ("omega", "omega_tilde") else w

    monkeypatch.setattr(normalform, "_symbol_weight", scaled)


@pytest.mark.parametrize("factor", [-1.0, 0.0])
def test_scaled_omega_leaves_the_cutoff_and_the_pattern(grid, params, smooth_pair, factor, monkeypatch):
    # the wrapper reaches Omega alone: the boundary and cubic terms scale with it, while the
    # guarded pieces and the kernel's pattern, which come from the cutoff, stay bit-identical
    cN, cU = smooth_pair
    names = ("bd_U", "bd_N", "cubic_1", "cubic_2", "cubic_3", "cubic_3b", "nonres_U", "nonres_N")
    before = normal_form_terms(grid, params, cN, cU, names, 32)
    kernels = [BilinearOperator(grid, BilinearSymbol(kind, params), 32, cutoff=True) for kind in PHASES]
    _scale_omega(monkeypatch, factor)
    after = normal_form_terms(grid, params, cN, cU, names, 32)
    for name in names:
        if name.startswith("nonres_"):
            assert np.array_equal(after[name], before[name]), name
        else:
            assert np.any(before[name] != 0.0), name
            assert np.array_equal(after[name], factor * before[name]), name
    for old in kernels:
        op = BilinearOperator(grid, old.symbol, 32, cutoff=True)
        assert np.array_equal(op.m_p, old.m_p) and np.array_equal(op.j_p, old.j_p)
        assert np.array_equal(op._A.indptr, old._A.indptr) and np.array_equal(op._A.indices, old._A.indices)
        assert np.array_equal(op._C.data, old._C.data)
        assert np.array_equal(op._A.data, factor * old._A.data)


@pytest.fixture()
def builds(monkeypatch):
    """Counts of the operators normalform builds, and the most it holds at once."""
    stats = {"built": 0, "live": 0, "most": 0}

    class Counted(BilinearOperator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            stats["built"] += 1
            stats["live"] += 1
            stats["most"] = max(stats["most"], stats["live"])

        def __del__(self):
            stats["live"] -= 1

    monkeypatch.setattr(normalform, "BilinearOperator", Counted)
    return stats


def test_one_build_per_phase(grid, params, smooth_pair, builds, simplified_traj):
    cN, cU = smooth_pair
    normal_form_terms(grid, params, cN, cU, tuple(normalform.NORMAL_FORM_TERMS), 16)
    assert builds["built"] == 2
    # one residual builds the operator of its phase alone, with the cutoff's data on it
    duhamel_residual(simplified_traj, params, "U", n_angular=16)
    assert builds["built"] == 3
    duhamel_residual(simplified_traj, params, "N", n_angular=16)
    assert builds["built"] == 4
    estimate_sweep(2.0, sizes=(64, 128), trials=2, n_angular=16)
    assert builds["built"] == 4 + 2 * 2
    assert builds["most"] == 1 and builds["live"] == 0


CUBIC = ("cubic_1", "cubic_2", "cubic_3")


def test_cubic_dependence_structure(grid, params, smooth_pair):
    cN, cU = smooth_pair
    z = np.zeros(grid.M)
    # rows: (N, 0), (0, U), (N, U); physical values, as the terms enter the equations
    nf = normal_form_terms(grid, params, [cN, z, cN], [z, cU, cU], CUBIC, 32)
    (t1, a1, b1), (t2, a2, _), (t3, a3, _) = (synthesize(grid, nf[k]) for k in CUBIC)
    for t in (t1, t2, t3):
        assert np.max(np.abs(t)) == 0.0
    assert np.max(np.abs(a2)) == 0.0
    assert np.max(np.abs(a3)) == 0.0
    assert np.max(np.abs(a1 - b1)) < 1e-12 * max(np.max(np.abs(b1)), 1e-30)


def test_cubic_trilinear_scaling(grid, params, smooth_pair):
    _, cU = smooth_pair
    z = np.zeros(grid.M)
    one, eight = synthesize(grid, normal_form_terms(grid, params, [z, z], [cU, 2.0 * cU], CUBIC, 32)["cubic_1"])
    err = np.max(np.abs(eight - 8.0 * one))
    assert err < 1e-8 * np.max(np.abs(eight))


# ---------------------------------------------------------------------------
# Simpson rule
# ---------------------------------------------------------------------------

def _simpson_mismatches(rule) -> list[tuple[int, str, tuple[int, ...]]]:
    """The cases in which ``rule(y, x)`` differs in any bit from scipy's ``simpson(y, x=x, axis=0)``."""
    from scipy.integrate import simpson

    rng = np.random.default_rng(7)
    out = []
    for n in range(3, 13):
        spacings = {"uniform": np.linspace(0.0, 2.0, n), "non-uniform": np.cumsum(rng.uniform(0.1, 1.0, n))}
        for label, x in spacings.items():
            for shape in [(n,), (n, 5), (n, 3, 64)]:
                y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                got, want = np.asarray(rule(y, x)), np.asarray(simpson(y, x=x, axis=0))
                if got.shape != want.shape or got.tobytes() != want.tobytes():
                    out.append((n, label, shape))
    return out


def test_simpson_matches_scipy_bit_for_bit():
    assert _simpson_mismatches(_simpson) == []


def test_simpson_oracle_catches_a_missing_even_count_correction():
    def without_correction(y, x):
        # scipy < 1.11's even="first": Simpson on the first n-1 points, a trapezoid on the last interval
        if len(x) % 2:
            return _simpson(y, x)
        return _simpson(y[:-1], x[:-1]) + 0.5 * (x[-1] - x[-2]) * (y[-1] + y[-2])

    missed = _simpson_mismatches(without_correction)
    assert {n for n, _, _ in missed} == {4, 6, 8, 10, 12}
    assert len(missed) == 5 * 2 * 3


def test_package_import_leaves_out_unused_scipy_subpackages():
    # scipy.integrate alone brings scipy.optimize, scipy.linalg and scipy.spatial: ~23 MB and ~0.3 s per process
    src = str(Path(normalform.__file__).parents[1])
    code = "import sys, kgzsim, kgzsim.cli; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert "kgzsim.cli" in loaded
    assert loaded & {"scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.spatial"} == set()


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
    report = estimate_sweep(2.0, sizes=(64, 128), trials=2, n_angular=16)
    report.write_csv(tmp_path / "sweep.csv")
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "estimate,M,trial,value"
    assert len(lines) == 1 + len(report.rows)


@pytest.mark.parametrize("sizes", [(128,), (128, 128)])
def test_estimate_sweep_needs_two_distinct_sizes(sizes, monkeypatch):
    def no_grid(*args):
        raise AssertionError("the sweep built a grid")

    monkeypatch.setattr(normalform, "RadialGrid", no_grid)
    with pytest.raises(ValueError, match="at least two distinct sizes"):
        estimate_sweep(2.0, sizes=sizes, trials=2)


def test_estimate_sweep_rejects_a_repeated_size(monkeypatch):
    def no_grid(*args):
        raise AssertionError("the sweep built a grid")

    monkeypatch.setattr(normalform, "RadialGrid", no_grid)
    with pytest.raises(ValueError, match=r"must not repeat, got \(64, 128, 64\)"):
        estimate_sweep(2.0, sizes=(64, 128, 64), trials=2)
