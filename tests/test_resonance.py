import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgzsim import resonance
from kgzsim.cli import write_lemma_bounds
from kgzsim.radial import RadialGrid, analyze, l2_norms, synthesize
from kgzsim.resonance import (
    InteractionTag,
    LemmaGridSpec,
    ResonanceParams,
    compute_params,
    decompose_bilinear,
    in_support,
    interaction_distance,
    omega,
    omega_tilde,
    resonant_index,
    resonant_profile,
    verify_lemma_bounds,
    verify_profile_bound,
)
from references import band_limited, dealiased_tagged_product, pointwise_product

#: sign s_j in the duality  w_j(xi -> eta - xi) = s_j * wt_j
DUALITY_SIGNS = {1: -1.0, 2: 1.0, 3: -1.0, 4: 1.0}


@pytest.fixture(scope="module")
def params_half(grid):
    return compute_params(0.5)


# ---------------------------------------------------------------------------
# phase functions
# ---------------------------------------------------------------------------

def dual_point(xi, eta, cos_theta):
    """Image of (|xi|, |eta|, cos) under the substitution xi -> eta - xi.

    Returns (|eta - xi|, |eta|, cos') where cos' is the cosine of the angle
    between eta - xi and eta.  Requires |eta - xi| > 0.
    """
    d = interaction_distance(xi, eta, cos_theta)
    if np.any(d == 0.0):
        raise ValueError("dual point undefined at xi = eta")
    cos_new = (np.asarray(eta, dtype=float) - np.asarray(xi) * np.asarray(cos_theta)) / d
    return d, np.asarray(eta, dtype=float), np.clip(cos_new, -1.0, 1.0)


def test_resonance_zero_at_critical_radius():
    # alpha = 1/2: c = 4/3 and w1(4/3, 0, .) = -5/3 + 2/3 + 1 = 0
    assert abs(omega(1, 4.0 / 3.0, 0.0, 1.0, 0.5)) < 1e-15


@pytest.mark.parametrize("alpha, j", [(0.5, 1), (2.0, 3)])
def test_resonant_profile_is_the_resonant_phase_at_zero_input(alpha, j):
    assert resonant_index(alpha) == j
    c = 2.0 * alpha / abs(1.0 - alpha**2)
    r = np.linspace(0.0, 4.0 * c, 101)
    assert np.allclose(resonant_profile(r, alpha), omega(j, r, 0.0, 1.0, alpha), rtol=0.0, atol=1e-14)
    assert abs(resonant_profile(c, alpha)) < 1e-14


def test_omega4_bounded_away_from_zero(rng):
    xi = rng.uniform(0.0, 30.0, 200)
    eta = rng.uniform(0.0, 30.0, 200)
    cos = rng.uniform(-1.0, 1.0, 200)
    vals = omega(4, xi, eta, cos, 0.7)
    assert np.all(vals <= -2.0)


def test_omega_index_validation():
    with pytest.raises(ValueError):
        omega(5, 1.0, 1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        omega_tilde(0, 1.0, 1.0, 0.0, 0.5)


@settings(deadline=None, max_examples=50)
@given(
    xi=st.floats(0.05, 5.0),
    eta=st.floats(0.05, 5.0),
    cos=st.floats(-0.999, 0.999),
    alpha=st.sampled_from([0.3, 0.5, 0.8, 1.25, 2.0, 3.0]),
)
def test_duality_identity(xi, eta, cos, alpha):
    d = np.sqrt(xi**2 + eta**2 - 2 * xi * eta * cos)
    if d < 1e-3:
        return
    dxi, deta, dcos = dual_point(xi, eta, cos)
    for j in (1, 2, 3, 4):
        lhs = omega(j, dxi, deta, dcos, alpha)
        rhs = DUALITY_SIGNS[j] * omega_tilde(j, xi, eta, cos, alpha)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


@settings(deadline=None, max_examples=50)
@given(
    xi=st.floats(0.05, 40.0),
    eta=st.floats(0.05, 40.0),
    cos=st.floats(-1.0, 1.0),
    alpha=st.sampled_from([0.5, 2.0]),
)
def test_duality_identity_wide_range(xi, eta, cos, alpha):
    # tolerance follows the conditioning of the two distance reconstructions:
    # |xi - eta| from the original point and |xi| back from the dual point
    d = np.sqrt(max(xi**2 + eta**2 - 2 * xi * eta * cos, 0.0))
    if d < 1e-3:
        return
    cond = max(1.0, (xi + eta) ** 2 / (2.0 * d), (d + eta) ** 2 / (2.0 * xi))
    dxi, deta, dcos = dual_point(xi, eta, cos)
    for j in (1, 2, 3, 4):
        lhs = omega(j, dxi, deta, dcos, alpha)
        rhs = DUALITY_SIGNS[j] * omega_tilde(j, xi, eta, cos, alpha)
        assert abs(lhs - rhs) < 2e-13 * (1.0 + alpha) * cond


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_params_alpha_half(params_half):
    p = params_half
    assert resonant_index(p.alpha) == 1
    assert p.c_alpha == pytest.approx(4.0 / 3.0, abs=1e-14)
    assert p.delta_alpha == pytest.approx(1.0 / 3.0, abs=1e-14)
    # the annulus edge sits above the profile maximizer r0 = 1/sqrt(3)
    assert 1.0 / np.sqrt(3.0) < p.c_alpha - p.delta_alpha < p.c_alpha
    assert p.k_alpha >= max(5, int(np.ceil(abs(np.log2(p.rho)) + 5)))
    assert p.rho > 0


def test_params_alpha_two():
    p = compute_params(2.0)
    assert resonant_index(p.alpha) == 3
    assert p.c_alpha == pytest.approx(4.0 / 3.0, abs=1e-14)
    assert p.rho == pytest.approx(0.5)
    assert p.k_alpha == 5
    # crossings of |g| with r/2 have closed forms 2b/(b^2-1), b = (3a-1)/2, (a+1)/2
    rc1 = 2 * 2.5 / (2.5**2 - 1)
    rc2 = 2 * 1.5 / (1.5**2 - 1)
    delta = max(p.c_alpha - rc1, rc2 - p.c_alpha)
    assert p.delta_alpha == pytest.approx(delta, rel=1e-15)
    # rc2 = 12/5 binds: delta = 12/5 - 4/3 = 16/15, to one ulp
    assert abs(p.delta_alpha - 16.0 / 15.0) <= np.spacing(16.0 / 15.0)


@pytest.mark.parametrize("alpha", [0.01, 0.3, 0.5, 0.9, 0.999])
def test_rho_is_the_safety_factor_times_the_edge_minimum(alpha):
    # f(r)/r = alpha - r/(1 + <r>) is monotone, so off the annulus |f|/r is smallest at an edge
    p = compute_params(alpha)
    c, d = p.c_alpha, p.delta_alpha
    edges = [float(resonance._profile_over_r(np.array([r]), alpha)[0]) for r in (c - d, c + d)]
    assert p.rho == 0.9 * min(edges)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.25, 2.0, 3.0])
def test_profile_bound_dense_sweep(alpha):
    ok, margin = verify_profile_bound(compute_params(alpha))
    assert ok, f"margin {margin}"


def test_params_alpha_just_above_one():
    # the outer crossing sits near r = 1e6: its closed form takes y - 1 = (alpha - 1)/2 = 1e-6
    # as it is, since 1 + 1e-6 squared minus 1 would keep only ten of its digits
    p = compute_params(1.000002)
    assert resonant_index(p.alpha) == 3 and p.c_alpha == pytest.approx(5e5, rel=1e-5)
    ok, margin = verify_profile_bound(p)
    assert ok, f"margin {margin}"


def test_alpha_near_one_rejected():
    with pytest.raises(ValueError):
        compute_params(1.0)
    with pytest.raises(ValueError):
        compute_params(1.0000001)
    with pytest.raises(ValueError):
        compute_params(-0.5)
    for alpha in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            compute_params(alpha)


def test_band_cap_warns(grid):
    with pytest.warns(UserWarning, match="capped"):
        p = compute_params(0.5, band=grid)
    assert p.k_alpha == (grid.k_max - grid.k_min) - 2


def test_band_cap_warns_only_when_it_moves_k_alpha():
    # alpha = 2 separates by the floor 5, which the band [-4, 0] of M = 8 caps to 5 again
    band = RadialGrid(40.0, 8)
    assert (band.k_min, band.k_max) == (-4, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = compute_params(2.0, band=band)
    assert p.k_alpha == compute_params(2.0).k_alpha == 5


def test_params_validation():
    with pytest.raises(ValueError, match="k_alpha"):
        ResonanceParams(0.5, 0.3, 4, 0.05)


def test_params_where_the_profile_bound_fails(monkeypatch):
    # no safety factor of 1.2 holds: rho then exceeds |f|/r at the outer annulus edge
    monkeypatch.setattr(resonance, "_SAFETY", 1.2)
    with pytest.raises(ValueError, match=r"off-annulus profile bound failed \(margin -1\.324e-02\)"):
        compute_params(0.5)


@pytest.mark.parametrize("alpha", [1e8, 1e12, 1e16])
def test_params_at_large_alpha(alpha):
    # the closed-form crossings scale with c = 2 alpha/(alpha^2 - 1), about 2/alpha; at 1e16 delta/c
    # rounds to 1 - 2^-52, still below 1
    p = compute_params(alpha)
    assert p.rho == 0.5 * (alpha - 1.0) and p.c_alpha == pytest.approx(2.0 / alpha, rel=1e-12)
    ok, margin = verify_profile_bound(p)
    assert ok, f"margin {margin}"


@settings(deadline=None, max_examples=100)
@given(
    st.one_of(
        st.floats(0.01, 0.999, exclude_min=True, exclude_max=True),
        st.floats(1.00001, 1e15, exclude_min=True),
    )
)
def test_params_pass_their_dense_check(alpha):
    ok, margin = verify_profile_bound(compute_params(alpha))
    assert ok, f"margin {margin}"


@pytest.mark.parametrize("alpha", [0.5, 2.0, 1e6, 1e12])
def test_dense_check_catches_rho_one_percent_high(alpha):
    # the check samples c * [1e-9, 10], so it meets the binding edge at every scale of c
    p = compute_params(alpha)
    exact = p.rho / 0.9 if alpha < 1.0 else p.rho
    ok, margin = verify_profile_bound(ResonanceParams(alpha, p.delta_alpha, p.k_alpha, 1.01 * exact))
    assert not ok and margin < 0.0


@pytest.mark.parametrize("alpha", [1.35e154, 1e200])
def test_alpha_whose_square_overflows_rejected(alpha):
    with pytest.raises(ValueError, match=re.escape(f"got {alpha}")):
        compute_params(alpha)


@pytest.mark.parametrize("alpha", [1e200, 1.0, 1.0 + 1e-7])
def test_params_whose_resonant_radius_is_not_finite_rejected(alpha):
    # c_alpha = 2 alpha/|1 - alpha^2| raised an OverflowError or a ZeroDivisionError before alpha was checked;
    # within 1e-6 of 1 it is finite, but every other constructor of a run refuses that alpha
    message = f"alpha must be positive and finite, with |alpha-1| > 1e-6 and a finite square, got {alpha}"
    with pytest.raises(ValueError, match=re.escape(message)):
        ResonanceParams(alpha, 1e-200, 5, 1.0)


@pytest.mark.parametrize("alpha", [5.9e15, 1e100])
def test_alpha_whose_annulus_fills_its_radius_rejected(alpha):
    # delta/c = 1 - O(1/alpha) rounds to 1
    message = f"alpha={alpha} is too large: the annulus half-width delta rounds up to c_alpha"
    with pytest.raises(ValueError, match=re.escape(message)):
        compute_params(alpha)


# ---------------------------------------------------------------------------
# interaction tags
# ---------------------------------------------------------------------------

def test_tag_membership(params_half):
    ka = params_half.k_alpha
    for k1 in range(-6, 7):
        for k2 in range(-6, 7):
            assert in_support(InteractionTag.LH, k1, k2, params_half) == (k1 <= k2 - ka)
            assert in_support(InteractionTag.HH, k1, k2, params_half) == (abs(k1 - k2) < ka)
    # HL splits exactly into AL and XL
    for k1 in range(-6, 7):
        for k2 in range(-6, 7):
            hl = in_support(InteractionTag.HL, k1, k2, params_half)
            al = in_support(InteractionTag.AL, k1, k2, params_half)
            xl = in_support(InteractionTag.XL, k1, k2, params_half)
            assert hl == (al or xl) and not (al and xl)


def test_resonant_annulus_blocks_alpha_half(params_half):
    # |2^k - 4/3| <= 1/3 admits k = 0 only
    resonant = [
        k
        for k in range(-10, 11)
        if in_support(InteractionTag.AL, k, k - params_half.k_alpha, params_half)
    ]
    assert resonant == [0]


# ---------------------------------------------------------------------------
# tagged decompositions
# ---------------------------------------------------------------------------

def spectral_l2(grid, values):
    """L^2 norm of (M,) samples from their coefficients."""
    return l2_norms(grid, analyze(grid, values))


def test_decomposition_completeness(grid, rng, params_half):
    params = compute_params(0.5, band=grid)
    f = synthesize(grid, band_limited(grid, rng, 1, 150))
    g = synthesize(grid, band_limited(grid, rng, 1, 150))
    total = np.zeros(grid.M, dtype=complex)
    for tag in (InteractionTag.LH, InteractionTag.HL, InteractionTag.HH):
        total += dealiased_tagged_product(grid, f, g, tag, params)
    prod = pointwise_product(grid, f, g, dealiased=True)
    err = spectral_l2(grid, total - prod)
    assert err < 1e-8 * spectral_l2(grid, prod)


def test_hl_splits_into_al_xl(grid, rng):
    params = compute_params(0.5, band=grid)
    f = synthesize(grid, band_limited(grid, rng, 1, 150))
    g = synthesize(grid, band_limited(grid, rng, 1, 150))
    hl = dealiased_tagged_product(grid, f, g, InteractionTag.HL, params)
    al = dealiased_tagged_product(grid, f, g, InteractionTag.AL, params)
    xl = dealiased_tagged_product(grid, f, g, InteractionTag.XL, params)
    err = spectral_l2(grid, al + xl - hl)
    assert err < 1e-10 * max(spectral_l2(grid, hl), 1e-30)


def test_decomposition_of_a_stack_is_row_by_row(grid, rng):
    params = compute_params(0.5, band=grid)
    f = np.stack([band_limited(grid, rng, 1, 150) for _ in range(3)])
    g = np.stack([band_limited(grid, rng, 1, 150) for _ in range(3)])
    for tag in InteractionTag:
        stack = decompose_bilinear(grid, f, g, tag, params)
        rows = [decompose_bilinear(grid, fr, gr, tag, params) for fr, gr in zip(f, g)]
        assert np.array_equal(stack, np.stack(rows)), tag


def test_single_pair_support():
    # f in dyadic block 8, g in block 0, separation 5: the product is pure HL
    grid = RadialGrid(np.pi, 1024)  # xi_m = m
    params = compute_params(2.0)  # k_alpha = 5
    cf = np.where((grid.xi >= 160) & (grid.xi <= 480), 1.0, 0.0).astype(complex)
    cg = np.zeros(grid.M, dtype=complex)
    cg[0] = 1.0  # xi = 1, inside block 0
    f, g = synthesize(grid, cf), synthesize(grid, cg)
    prod = pointwise_product(grid, f, g, dealiased=True)
    hl = dealiased_tagged_product(grid, f, g, InteractionTag.HL, params)
    scale = spectral_l2(grid, prod)
    assert l2_norms(grid, analyze(grid, hl) - analyze(grid, prod)) < 1e-10 * scale
    for tag in (InteractionTag.LH, InteractionTag.HH, InteractionTag.AL):
        part = dealiased_tagged_product(grid, f, g, tag, params)
        assert spectral_l2(grid, part) < 1e-10 * scale


# ---------------------------------------------------------------------------
# phase lower bounds on grids
# ---------------------------------------------------------------------------

def test_lemma_bounds_alpha_half(params_half):
    rep = verify_lemma_bounds(params_half)
    values = {r.quantity: r.value for r in rep.rows}
    assert rep.passed
    assert rep.summary()["resonant_index"] == 1
    assert values["min|w1|/|xi|"] > 0
    assert values["min|w3|/<xi>"] > 0
    assert values["min|w4|/<xi>"] > 1.0
    assert rep.sign_change


def test_omega2_floor_away_from_origin(params_half):
    # |w2|/<xi> degrades like alpha*|xi| at low output frequency, so the 0.2
    # floor holds on grids bounded away from zero
    rep = verify_lemma_bounds(params_half, LemmaGridSpec(xi_min=0.5))
    assert {r.quantity: r.value for r in rep.rows}["min|w2|/<xi>"] > 0.2


@pytest.mark.parametrize(
    "fields",
    [{"xi_min": 0.0}, {"xi_min": 64.0}, {"n_xi": 0}, {"n_eta": 0}, {"n_cos": 0}],
    ids=["xi_min-zero", "xi-range-empty", "n_xi", "n_eta", "n_cos"],
)
def test_lemma_grid_spec_rejects_empty_grids(fields):
    with pytest.raises(ValueError):
        LemmaGridSpec(**fields)


def test_lemma_report_csv(tmp_path, params_half):
    rep = verify_lemma_bounds(params_half)
    write_lemma_bounds(tmp_path / "rep.csv", rep)
    lines = (tmp_path / "rep.csv").read_text().strip().splitlines()
    assert lines[0].startswith("alpha,quantity,region")
    assert len(lines) == len(rep.rows) + 1
    summary = rep.summary()
    assert summary["passed"] is True
