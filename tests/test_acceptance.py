"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The whole module takes
around ten minutes; the estimate sweep (criterion 7) and the transformed-
equation residuals (criterion 8) dominate.
"""

import numpy as np
import pytest

from kgzsim.kgz import SimConfig, from_first_order, gaussian_data, run_simulation
from kgzsim.normalform import duhamel_residual, estimate_sweep
from kgzsim.radial import (
    RadialGrid,
    analyze,
    l2_norms,
    lebesgue_norms,
    random_band_limited,
    synthesize,
    wave_propagate,
)
from kgzsim.resonance import (
    InteractionTag,
    compute_params,
    decompose_bilinear,
    verify_lemma_bounds,
    verify_profile_bound,
)
from kgzsim.strichartz import resolution_norms, scattering_profile, sharpness_witness, strichartz_scan
from references import oracle_evolve, pointwise_product

ALPHA = 0.5


def report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


# ---------------------------------------------------------------------------
# 1. transform fidelity
# ---------------------------------------------------------------------------

def test_c01_transform_fidelity():
    grid = RadialGrid(40.0, 256)
    rng = np.random.default_rng(1)
    worst_rt, worst_pv = 0.0, 0.0
    for _ in range(100):
        c = random_band_limited(grid, rng)
        f = synthesize(grid, c)
        back = synthesize(grid, analyze(grid, f))
        worst_rt = max(worst_rt, np.max(np.abs(back - f)) / np.max(np.abs(f)))
        phys = lebesgue_norms(grid, f, 2.0)
        spec = l2_norms(grid, analyze(grid, f))
        worst_pv = max(worst_pv, abs(phys**2 - spec**2) / phys**2)
    assert worst_rt < 1e-12
    assert worst_pv < 1e-10
    report("criterion 1", f"roundtrip {worst_rt:.2e} (tol 1e-12), Parseval {worst_pv:.2e} (tol 1e-10)")


# ---------------------------------------------------------------------------
# 2. exact linear dynamics
# ---------------------------------------------------------------------------

def test_c02_exact_linear_dynamics():
    grid = RadialGrid(40.0, 256)
    m = 3
    init = np.zeros((4, grid.M), dtype=np.complex128)
    init[[0, 2]] = np.sin(grid.xi[m - 1] * grid.r) / grid.r  # u = n = mode, zero velocities
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=1e-2, T=10.0, model="linear", snapshot_stride=10**9)
    traj = run_simulation(cfg, init)
    # the coefficients of the first and last snapshots' samples
    cU0, cU = (analyze(grid, synthesize(grid, c)) for c in traj.cU[[0, -1]])
    phase_kg = np.exp(1j * 10.0 * np.sqrt(1.0 + grid.xi[m - 1] ** 2))
    err_kg = abs(cU[m - 1] - phase_kg * cU0[m - 1]) / abs(cU0[m - 1])
    cN0, cN = (analyze(grid, synthesize(grid, c)) for c in traj.cN[[0, -1]])
    phase_w = np.exp(1j * ALPHA * 10.0 * grid.xi[m - 1])
    err_w = abs(cN[m - 1] - phase_w * cN0[m - 1]) / abs(cN0[m - 1])
    direct = wave_propagate(grid, cN0, 10.0, ALPHA)
    err_direct = abs(direct[m - 1] - phase_w * cN0[m - 1]) / abs(cN0[m - 1])
    assert err_kg < 1e-10 and err_w < 1e-10 and err_direct < 1e-13
    report("criterion 2", f"single-mode phase errors: KG {err_kg:.2e}, wave {err_w:.2e} (tol 1e-10)")


# ---------------------------------------------------------------------------
# 3. energy conservation
# ---------------------------------------------------------------------------

def test_c03_energy_conservation():
    cfg = SimConfig(ALPHA, 40.0, 512, dt=1e-3, T=10.0, model="full", snapshot_stride=100)
    traj = run_simulation(cfg, gaussian_data(cfg.grid, 0.01))
    drift = np.max(np.abs(traj.energies - traj.energies[0])) / abs(traj.energies[0])
    assert drift < 1e-6
    report("criterion 3", f"relative energy drift over T=10: {drift:.2e} (tol 1e-6)")


# ---------------------------------------------------------------------------
# 4. oracle equivalence
# ---------------------------------------------------------------------------

def test_c04_oracle_equivalence():
    grid = RadialGrid(40.0, 512)
    init = gaussian_data(grid, 0.01)
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=2e-3, T=1.0, model="full", snapshot_stride=10**9)
    traj = run_simulation(cfg, init)
    spec = from_first_order(grid, synthesize(grid, np.stack([traj.cU[-1], traj.cN[-1]])), ALPHA)
    fd = oracle_evolve(grid, init, ALPHA, 1.0, refine=4)
    num = den = 0.0
    for i in (0, 2):  # u and n
        num += float(np.sum(np.abs(spec[i] - fd[i]) ** 2))
        den += float(np.sum(np.abs(spec[i]) ** 2))
    rel = np.sqrt(num / den)
    assert rel < 1e-2
    report("criterion 4", f"spectral vs 4x finite-difference at T=1: {rel:.2e} (tol 1e-2)")


# ---------------------------------------------------------------------------
# 5. decomposition algebra
# ---------------------------------------------------------------------------

def test_c05_decomposition_algebra():
    grid = RadialGrid(40.0, 256)
    with pytest.warns(UserWarning):
        params = compute_params(ALPHA, band=grid)
    rng = np.random.default_rng(2)
    worst_complete, worst_split = 0.0, 0.0
    for _ in range(50):
        f = synthesize(grid, random_band_limited(grid, rng, (1, 150)))
        g = synthesize(grid, random_band_limited(grid, rng, (1, 150)))
        parts = {
            tag: decompose_bilinear(grid, f, g, tag, params)
            for tag in (
                InteractionTag.LH,
                InteractionTag.HL,
                InteractionTag.HH,
                InteractionTag.AL,
                InteractionTag.XL,
            )
        }
        prod = pointwise_product(grid, f, g, dealiased=True)
        den = l2_norms(grid, analyze(grid, prod))
        total = parts[InteractionTag.LH] + parts[InteractionTag.HL] + parts[InteractionTag.HH]
        worst_complete = max(worst_complete, l2_norms(grid, analyze(grid, total - prod)) / den)
        split = parts[InteractionTag.AL] + parts[InteractionTag.XL] - parts[InteractionTag.HL]
        worst_split = max(worst_split, l2_norms(grid, analyze(grid, split)) / den)
    assert worst_complete < 1e-8
    assert worst_split < 1e-10
    report(
        "criterion 5",
        f"HH+LH+HL completeness {worst_complete:.2e} (tol 1e-8), AL+XL=HL {worst_split:.2e} (tol 1e-10)",
    )


# ---------------------------------------------------------------------------
# 6. resonance lower bounds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.25, 2.0, 3.0])
def test_c06_lemma_verification(alpha):
    params = compute_params(alpha)
    rep = verify_lemma_bounds(params)
    assert rep.passed, rep.summary()
    ok, margin = verify_profile_bound(params)
    assert ok, f"profile margin {margin}"
    mins = {r.quantity: r.value for r in rep.rows if r.quantity.startswith("min")}
    assert all(v > 0 for v in mins.values())
    report(
        "criterion 6",
        f"alpha={alpha}: minima " + ", ".join(f"{k}={v:.3g}" for k, v in mins.items()) + "; sign change ok",
    )


# ---------------------------------------------------------------------------
# 7. estimate-constant stability
# ---------------------------------------------------------------------------

def test_c07_boundedness_sweeps():
    # alpha = 2 keeps the dyadic separation at its floor of 5; the coarsest
    # band cannot host the sub-unit branch's separation >= 10 with mass on
    # both sides of the split
    sweep = estimate_sweep(2.0, sizes=(128, 256, 512), trials=50, n_angular=64)
    ratios = sweep.stability_ratios()
    assert sweep.passed(2.0), ratios
    report(
        "criterion 7",
        "refinement ratios " + ", ".join(f"{k}={v:.3f}" for k, v in sorted(ratios.items())) + " (tol 2.0)",
    )


# ---------------------------------------------------------------------------
# 8. transformed-equation residuals
# ---------------------------------------------------------------------------

def test_c08_duhamel_residuals():
    grid = RadialGrid(40.0, 256)
    with pytest.warns(UserWarning):
        params = compute_params(ALPHA, band=grid)
    init = gaussian_data(grid, 0.01)
    residuals = {}
    for label, dt, stride in (("coarse", 2e-3, 20), ("fine", 1e-3, 10)):
        cfg = SimConfig(
            ALPHA, grid.R, grid.M, dt=dt, T=2.0, model="simplified", dealias=False, snapshot_stride=stride
        )
        traj = run_simulation(cfg, init)
        residuals[label] = tuple(duhamel_residual(traj, params, w) for w in ("U", "N"))
    fine_u, fine_n = residuals["fine"]
    coarse_u, coarse_n = residuals["coarse"]
    assert fine_u < 1e-3 and fine_n < 1e-3
    assert coarse_u >= 2.0 * fine_u and coarse_n >= 2.0 * fine_n
    report(
        "criterion 8",
        f"residuals U {fine_u:.2e}, N {fine_n:.2e} (tol 1e-3); "
        f"refinement ratios {coarse_u / fine_u:.0f}, {coarse_n / fine_n:.0f} (need >= 2)",
    )


# ---------------------------------------------------------------------------
# 9. dispersive-decay slopes
# ---------------------------------------------------------------------------

def test_c09_strichartz_scaling():
    grid = RadialGrid(24.0, 2048)
    window = (0.0, 10.0)
    wave = strichartz_scan(grid, range(1, 6), 2.0, 5.0, "wave", window, alpha=1.0, n_samples=256, seed=7)
    kg = strichartz_scan(grid, range(1, 6), 2.0, 4.5, "schrodinger", window, n_samples=256, seed=7)
    assert wave.warning is None and kg.warning is None  # horizon guard satisfied
    assert abs(wave.slope - wave.predicted_slope) <= 0.15, (wave.slope, wave.predicted_slope)
    assert abs(kg.slope - kg.predicted_slope) <= 0.15, (kg.slope, kg.predicted_slope)
    report(
        "criterion 9",
        f"wave (2,5) slope {wave.slope:.3f} vs {wave.predicted_slope:.3f}; "
        f"KG (2,4.5) slope {kg.slope:.3f} vs {kg.predicted_slope:.3f} (tol 0.15)",
    )


# ---------------------------------------------------------------------------
# 10. sharpness witness
# ---------------------------------------------------------------------------

def test_c10_sharpness_witness():
    ratios = [sharpness_witness(k, 2.0, 4.0).ratio for k in range(2, 7)]
    assert min(ratios) > 0
    spread = max(ratios) / min(ratios)
    assert spread <= 4.0
    report(
        "criterion 10",
        f"witness ratios at (2,4): min {min(ratios):.4f}, spread factor {spread:.2f} (tol 4)",
    )


# ---------------------------------------------------------------------------
# 11. scattering manifestation
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def scattering_run():
    cfg = SimConfig(ALPHA, 100.0, 512, dt=1e-3, T=20.0, model="full", snapshot_stride=10)
    return run_simulation(cfg, gaussian_data(cfg.grid, 0.01))


def test_c11a_profile_cauchy_contraction(scattering_run):
    rep = scattering_profile(scattering_run, ALPHA, [5.0, 10.0, 20.0])
    first, second = rep.rows
    assert second.d_U < 0.8 * first.d_U
    assert second.d_N < 0.8 * first.d_N
    report(
        "criterion 11 (profiles)",
        f"d_U(10,20)/d_U(5,10) = {second.d_U / first.d_U:.3f}, "
        f"d_N ratio = {second.d_N / first.d_N:.3f} (tol 0.8)",
    )


def test_c11b_resolution_norm_bounded(scattering_run):
    n10, n20 = resolution_norms(scattering_run, 0.05, [(0.0, 10.0), (0.0, 20.0)])
    assert np.isfinite(n20.total) and n20.total > 0
    assert n20.total <= 2.0 * n10.total
    report(
        "criterion 11 (norm)",
        f"resolution norm window T=10: {n10.total:.4f}, T=20: {n20.total:.4f}, "
        f"ratio {n20.total / n10.total:.3f} (tol 2)",
    )
