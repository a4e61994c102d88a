import numpy as np
import pytest
from scipy.fft import dst
from scipy.integrate import quad

from kgzsim.export import write_field
from kgzsim import radial
from kgzsim.radial import (
    _CHUNK,
    RadialGrid,
    analyze,
    besov_norms,
    chi_k,
    eta0,
    kg_propagate,
    l2_norms,
    lebesgue_norms,
    random_band_limited,
    sobolev_norms,
    synthesize,
    wave_propagate,
)
from references import band_limited, pointwise_product, read_field


def eigenmode(grid: RadialGrid, m: int, amp: complex = 1.0):
    return (amp * np.sin(grid.xi[m - 1] * grid.r) / grid.r).astype(np.complex128)


# ---------------------------------------------------------------------------
# forward transform
# ---------------------------------------------------------------------------

def test_single_eigenmode_diagonalizes(grid):
    c = analyze(grid, eigenmode(grid, 1))
    assert abs(c[0]) > 0
    assert np.max(np.abs(c[1:])) < 1e-12 * abs(c[0])


def test_zero_transforms_to_zero(grid):
    assert np.all(analyze(grid, np.zeros(grid.M, dtype=np.complex128)) == 0)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_sine_matrix_rule():
    for M in range(4, 600):
        grid = RadialGrid(1.0, M)
        dense = M <= 256 and (_is_prime(M + 1) or (M % 2 == 1 and _is_prime((M + 1) // 2)))
        assert (grid.sine_matrix is not None) == dense, M
    S = RadialGrid(1.0, 256).sine_matrix
    assert S.shape == (256, 256) and not S.flags.writeable


def _dst1_reference(x):
    """The DST-I as a long double matrix product, the sine arguments reduced exactly in integers."""
    M = x.shape[-1]
    m = np.arange(1, M + 1)
    pi = 4 * np.arctan(np.longdouble(1))
    S = 2 * np.sin(pi * (np.outer(m, m) % (2 * (M + 1))) / (M + 1))
    if np.iscomplexobj(x):
        return x.real.astype(np.longdouble) @ S + 1j * (x.imag.astype(np.longdouble) @ S)
    return x.astype(np.longdouble) @ S


@pytest.mark.parametrize("M", [64, 126, 255, 256, 257, 512])
@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
def test_dst1_paths(M, complex_input, monkeypatch):
    calls = []

    def counted(x, **kw):
        calls.append(x.shape)
        return dst(x, **kw)

    monkeypatch.setattr(radial, "dst", counted)
    grid = RadialGrid(40.0, M)
    rng = np.random.default_rng(M)
    stack = rng.standard_normal((11, M))
    if complex_input:
        stack = stack + 1j * rng.standard_normal((11, M))
    y = radial._dst1(grid, stack)
    # M+1 = 127 and 257 are prime, so 126 and 256 take the sine matrix and the rest the FFT;
    # complex input takes one transform of its interleaved (..., M, 2) view
    assert calls == ([] if M in (126, 256) else [stack.shape + ((2,) if complex_input else ())])
    assert np.abs(y - _dst1_reference(stack)).max() <= 2e-15 * np.abs(y).max()
    # a row's result does not depend on the other rows of the call
    assert np.array_equal(np.stack([radial._dst1(grid, row.copy()) for row in stack]), y)


@pytest.mark.parametrize("M", [64, 255, 420, 511, 512, 1023])
@pytest.mark.parametrize("shape", [(11,), (3, 4)], ids=["11", "3x4"])
@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
def test_dst1_is_scipy_fft_dst_bit_for_bit(M, shape, complex_input):
    # the FFT path equals scipy.fft.dst bit for bit, for 2-smooth, odd and prime M+1 (421 takes
    # pocketfft's slow prime-size pass) and for stacks of any rank
    grid = RadialGrid(40.0, M)
    assert grid.sine_matrix is None
    rng = np.random.default_rng(M)
    stack = rng.standard_normal((*shape, M))
    if complex_input:
        stack = stack + 1j * rng.standard_normal((*shape, M))
    y = radial._dst1(grid, stack)
    assert y.dtype == stack.dtype and y.shape == stack.shape
    assert y.tobytes() == dst(stack, type=1).tobytes()


def test_gaussian_against_quadrature_oracle():
    # high-precision quadrature: the relative tolerance at coefficients nine
    # orders below the integrand scale sits at the float64 cancellation floor,
    # which a float64 oracle cannot certify
    from mpmath import mp, mpf, quad as mpquad
    from mpmath import exp as mpexp, sin as mpsin

    mp.dps = 25
    grid = RadialGrid(40.0, 512)
    c = analyze(grid, np.exp(-grid.r**2).astype(np.complex128))
    scale = np.linalg.norm(c)
    pieces = [mpf(p) for p in np.linspace(0.0, 40.0, 33)]
    checked = 0
    for m, xi in enumerate(grid.xi):
        if abs(c[m]) <= 1e-10 * scale:
            continue
        checked += 1
        x = mpf(xi)
        oracle = float(mpquad(lambda r: r * mpexp(-r * r) * mpsin(r * x), pieces))
        oracle *= 4.0 * np.pi / xi
        assert abs(c[m] - oracle) < 1e-8 * abs(oracle)
    assert checked > 100


# ---------------------------------------------------------------------------
# inverse transform
# ---------------------------------------------------------------------------

def test_delta_coeff_gives_basis_function(grid):
    c = np.zeros(grid.M, dtype=complex)
    c[0] = 1.0
    f = synthesize(grid, c)
    shape = np.sin(grid.xi[0] * grid.r) / grid.r
    ratio = f / shape
    assert np.max(np.abs(ratio - ratio[0])) < 1e-12 * abs(ratio[0])


def test_roundtrip_random_band_limited(grid, rng):
    for _ in range(20):
        f = synthesize(grid, random_band_limited(grid, rng))
        back = synthesize(grid, analyze(grid, f))
        assert np.max(np.abs(back - f)) < 1e-12 * np.max(np.abs(f))


def test_gaussian_reconstruction_truncation_limited():
    # synthesizing from the continuum coefficients -> sampled Gaussian
    grid = RadialGrid(40.0, 512)
    f = synthesize(grid, (np.pi**1.5 * np.exp(-grid.xi**2 / 4.0)).astype(np.complex128))
    target = np.exp(-grid.r**2)
    assert np.max(np.abs(f - target)) < 1e-8 * np.max(target)


# ---------------------------------------------------------------------------
# propagators
# ---------------------------------------------------------------------------

def test_propagators_at_zero_time(grid, rng):
    c = random_band_limited(grid, rng)
    assert np.array_equal(kg_propagate(grid, c, 0.0), c)
    assert np.array_equal(wave_propagate(grid, c, 0.0, 0.5), c)


def test_kg_phase_on_single_mode(grid):
    c = analyze(grid, eigenmode(grid, 1))
    t = 3.7
    out = kg_propagate(grid, c, t)
    phase = np.exp(1j * t * np.sqrt(1.0 + grid.xi[0] ** 2))
    assert abs(out[0] - phase * c[0]) < 1e-13 * abs(c[0])


def test_propagator_unitarity(grid, rng):
    c = random_band_limited(grid, rng)
    n0 = l2_norms(grid, c)
    assert abs(l2_norms(grid, kg_propagate(grid, c, 7.3)) - n0) < 1e-13 * n0
    assert abs(l2_norms(grid, wave_propagate(grid, c, 7.3, 1.8)) - n0) < 1e-13 * n0


@pytest.mark.parametrize("flow", ["kg", "wave"])
def test_propagators_take_arrays_of_times(grid, rng, flow):
    def prop(c, t):
        return kg_propagate(grid, c, t) if flow == "kg" else wave_propagate(grid, c, t, 0.7)

    ts = np.linspace(-2.0, 3.0, 7)
    c = random_band_limited(grid, rng)
    rows = prop(c, ts)
    assert rows.shape == (len(ts), grid.M)
    # an (S, M) stack flows row by row, each row over its own time
    stack = np.stack([random_band_limited(grid, rng) for _ in ts])
    paired = prop(stack, ts)
    for i, t in enumerate(ts):
        assert np.array_equal(rows[i], prop(c, t))
        assert np.array_equal(paired[i], prop(stack[i], t))


@pytest.mark.parametrize("flow", ["kg", "wave"])
def test_propagated_rows_do_not_depend_on_the_stack(rng, flow):
    # past 16,384 complex elements numpy elides the temporary of `coeffs * np.exp(...)` into
    # `exp *= coeffs`, and its complex multiply is not bitwise commutative: over this stack a
    # third of the entries differed from their own calls, by up to 2.2e-16 relative
    grid = RadialGrid(40.0, 512)

    def prop(c, t):
        return kg_propagate(grid, c, t) if flow == "kg" else wave_propagate(grid, c, t, 0.7)

    ts = np.linspace(-2.0, 3.0, 64)
    stack = np.stack([random_band_limited(grid, rng) for _ in ts])
    assert stack.size >= 2**14
    paired, profile = prop(stack, ts), prop(stack[0], ts)
    for i, t in enumerate(ts):
        assert np.array_equal(paired[i], prop(stack[i], t)), i
        assert np.array_equal(profile[i], prop(stack[0], t)), i


def test_propagate_forward_backward(grid, rng):
    c = random_band_limited(grid, rng)
    back = kg_propagate(grid, kg_propagate(grid, c, 11.0), -11.0)
    assert np.max(np.abs(back - c)) < 1e-12 * np.max(np.abs(c))


# ---------------------------------------------------------------------------
# Littlewood-Paley projectors
# ---------------------------------------------------------------------------

def test_bump_profile():
    assert eta0(0.3) == 1.0
    assert eta0(1.0) == 1.0
    assert eta0(2.0) == 0.0
    assert 0.0 < eta0(1.5) < 1.0


def test_partition_of_unity(grid, rng):
    f = band_limited(grid, rng, 8, 200)
    total = np.zeros(grid.M, dtype=complex)
    for k in grid.resolved_k:
        total += f * chi_k(grid.xi, k)
    assert l2_norms(grid, total - f) < 1e-10 * l2_norms(grid, f)


def test_block_support(grid):
    # spectral support inside [2^(k-1), 2^k] only meets chi_j for j in {k-1, k, k+1}
    k = 3
    sel = (grid.xi >= 2.0 ** (k - 1)) & (grid.xi <= 2.0**k)
    f = np.where(sel, 1.0, 0.0).astype(complex)
    for j in grid.resolved_k:
        if j < k - 1 or j > k + 1:
            assert l2_norms(grid, f * chi_k(grid.xi, j)) == 0.0


def test_out_of_band_projection_is_zero(grid, rng):
    f = random_band_limited(grid, rng)
    assert l2_norms(grid, f * chi_k(grid.xi, grid.k_max + 3)) == 0.0
    assert l2_norms(grid, f * chi_k(grid.xi, grid.k_min - 3)) == 0.0


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_parseval_on_eigenmode(grid):
    f = eigenmode(grid, 5, amp=0.7)
    phys = lebesgue_norms(grid, f, 2.0)
    spec = l2_norms(grid, analyze(grid, f))
    assert abs(phys - spec) < 1e-10 * phys


def test_gaussian_l2_closed_form():
    grid = RadialGrid(40.0, 512)
    f = np.exp(-grid.r**2).astype(np.complex128)
    oracle, _ = quad(lambda r: 4.0 * np.pi * r * r * np.exp(-2.0 * r * r), 0.0, 40.0)
    assert abs(lebesgue_norms(grid, f, 2.0) - np.sqrt(oracle)) < 1e-6
    assert abs(np.sqrt(oracle) - (np.pi / 2.0) ** 0.75) < 1e-12


def test_norm_rejects_p_below_one(grid):
    f = eigenmode(grid, 1)
    with pytest.raises(ValueError, match="p >= 1"):
        lebesgue_norms(grid, f, 0.5)
    with pytest.raises(ValueError, match="p >= 1"):
        besov_norms(grid, analyze(grid, f), 0.0, 0.5)


def test_sup_norm(grid):
    f = np.linspace(0, 1, grid.M).astype(np.complex128)
    assert lebesgue_norms(grid, f, np.inf) == 1.0


def test_besov_zero_regularity_matches_l2_on_flat_blocks():
    # R = 16 pi puts xi = 1, 2, 4 exactly on the grid, where precisely one
    # dyadic bump is active and equal to one
    grid = RadialGrid(16.0 * np.pi, 256)
    coeffs = np.zeros(grid.M, dtype=complex)
    for m, a in ((16, 1.0), (32, 0.5 - 0.25j), (64, -0.25)):
        coeffs[m - 1] = a
    l2 = l2_norms(grid, coeffs)
    assert abs(besov_norms(grid, coeffs, 0.0, 2.0, homogeneous=True) - l2) < 1e-6 * l2


def test_besov_homogeneity(grid, rng):
    f = band_limited(grid, rng, 4, 200)
    one = besov_norms(grid, f, 0.5, 3.0)
    two = besov_norms(grid, 2.0 * f, 0.5, 3.0)
    assert abs(two - 2.0 * one) < 1e-12 * two


def _lp_reference(grid, values, p):
    if np.isinf(p):
        return np.max(np.abs(values))
    return (4.0 * np.pi * grid.dr * np.sum(np.abs(values) ** p * grid.r**2)) ** (1.0 / p)


def _besov_reference(grid, c, s, p, homogeneous):
    """The Besov norm of one coefficient row, block by block."""
    total = 0.0
    for k in grid.resolved_k:
        weight = 2.0 ** (s * k) if homogeneous else np.sqrt(1.0 + 4.0**k) ** s
        total += (weight * _lp_reference(grid, synthesize(grid, c * chi_k(grid.xi, k)), p)) ** 2
    return np.sqrt(total)


@pytest.fixture(scope="module")
def norm_stack():
    # over three chunks of the norms with M-element rows; the Besov norm's rows
    # hold every dyadic block, so its chunks are shorter
    grid = RadialGrid(20.0, 128)
    rng = np.random.default_rng(11)
    S = 3 * (_CHUNK // grid.M) + 6
    stack = (rng.standard_normal((S, grid.M)) + 1j * rng.standard_normal((S, grid.M))) * np.exp(-grid.xi / 4.0)
    stack[[0, _CHUNK // grid.M - 1, S - 1]] = 0.0  # zero rows, one at a chunk end
    return grid, stack


def _assert_rows_match(got, reference, stack):
    zero = ~stack.any(axis=1)
    assert np.all(got[zero] == 0.0)
    assert np.all(got[~zero] > 0.0)
    assert np.max(np.abs(got - reference) / np.maximum(reference, 1e-300)) <= 1e-14


def test_array_norms_match_field_norms_row_by_row(norm_stack):
    # each row of the stack is one field, checked against a per-field reference
    grid, stack = norm_stack
    l2 = np.sqrt(np.sum(grid.xi**2 * np.abs(stack) ** 2, axis=1) * grid.dxi / (2.0 * np.pi**2))
    _assert_rows_match(l2_norms(grid, stack), l2, stack)
    h1 = np.sqrt(np.sum(grid.xi**2 * (1.0 + grid.xi**2) * np.abs(stack) ** 2, axis=1) * grid.dxi / (2.0 * np.pi**2))
    _assert_rows_match(sobolev_norms(grid, stack, 1.0), h1, stack)
    values = synthesize(grid, stack)
    for p in (1.2, 2.0, 6.0, np.inf):
        want = np.array([_lp_reference(grid, v, p) for v in values])
        _assert_rows_match(lebesgue_norms(grid, values, p), want, stack)
        for s, homogeneous in ((0.3, True), (-0.7, False)):
            want = np.array([_besov_reference(grid, c, s, p, homogeneous) for c in stack])
            _assert_rows_match(besov_norms(grid, stack, s, p, homogeneous), want, stack)
    # leading axes beyond one are kept
    flat = besov_norms(grid, stack, 0.3, 6.0)
    assert np.array_equal(besov_norms(grid, stack.reshape(2, -1, grid.M), 0.3, 6.0), flat.reshape(2, -1))
    for p in (0.5, 0.99):
        with pytest.raises(ValueError, match="p >= 1"):
            lebesgue_norms(grid, values, p)
        with pytest.raises(ValueError, match="p >= 1"):
            besov_norms(grid, stack, 0.0, p)


def test_besov_multiplier_skips_the_blocks_it_vanishes_on(monkeypatch):
    # the resolution norm's low and high parts on the scattering grid: the low
    # part meets 6 of the 11 dyadic blocks, the high part 7
    grid = RadialGrid(100.0, 512)
    rng = np.random.default_rng(5)
    stack = (rng.standard_normal((5, grid.M)) + 1j * rng.standard_normal((5, grid.M))) * np.exp(-grid.xi)
    low = radial.chi_le(grid.xi, -1)
    blocks = []
    real_synthesize = radial.synthesize

    def counting(g, c):
        blocks.append(c.shape[0])
        return real_synthesize(g, c)

    monkeypatch.setattr(radial, "synthesize", counting)
    for multiplier, live in ((low, 6), (1.0 - low, 7), (1.0, len(grid.resolved_k))):
        for s, p, homogeneous in ((0.3, 3.5, True), (2.0 / 3.0, 3.5, False)):
            blocks.clear()
            got = besov_norms(grid, stack, s, p, homogeneous, multiplier)
            assert set(blocks) == {live}
            assert np.array_equal(got, besov_norms(grid, stack * multiplier, s, p, homogeneous))
    assert np.all(besov_norms(grid, stack, 0.3, 3.5, multiplier=np.zeros(grid.M)) == 0.0)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def test_dealiased_product_semantics(grid, rng):
    # products of radial sine series carry an algebraic spectral tail (the
    # 1/r^2 factor), so truncation removes a small but genuine remainder
    f = synthesize(grid, band_limited(grid, rng, 1, 40))
    g = synthesize(grid, band_limited(grid, rng, 1, 40))
    plain = pointwise_product(grid, f, g)
    deal = pointwise_product(grid, f, g, dealiased=True)
    cutoff = (2.0 / 3.0) * grid.xi[-1]
    cd = analyze(grid, deal)
    assert np.max(np.abs(cd[grid.xi > cutoff])) < 1e-13 * np.max(np.abs(cd))
    num = l2_norms(grid, cd - analyze(grid, plain))
    assert num < 1e-3 * l2_norms(grid, analyze(grid, plain))


# ---------------------------------------------------------------------------
# snapshot files
# ---------------------------------------------------------------------------

def test_field_file_roundtrip(tmp_path, grid, rng):
    f = synthesize(grid, random_band_limited(grid, rng))
    write_field(tmp_path / "f.fld", grid, f)
    back_grid, kind, back = read_field(tmp_path / "f.fld")
    assert back_grid == grid and kind == 0
    assert np.array_equal(back, f)


def test_field_file_golden_bytes(tmp_path):
    # the .fld format: a <dQBB header (R, M, kind 0, complex flag 1), then
    # little-endian (re, im) float64 pairs
    grid = RadialGrid(2.5, 4)
    write_field(tmp_path / "f.fld", grid, np.array([1.0, complex(0.0, -0.5), complex(0.25, 2.0), -3.0]))
    expected = bytes.fromhex(
        "0000000000000440" "0400000000000000" "00" "01"
        "000000000000f03f" "0000000000000000"
        "0000000000000000" "000000000000e0bf"
        "000000000000d03f" "0000000000000040"
        "00000000000008c0" "0000000000000000"
    )
    assert (tmp_path / "f.fld").read_bytes() == expected
