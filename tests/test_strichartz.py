from fractions import Fraction

import numpy as np
import pytest

from kgzsim.kgz import SimConfig, gaussian_data, run_simulation
from kgzsim.radial import RadialGrid, kg_propagate, l2_norms, random_band_limited
from kgzsim import strichartz
from kgzsim.strichartz import (
    GuardError,
    beta_exponent,
    check_horizon,
    checkpoint_indices,
    measure_spacetime_norm,
    resolution_norm,
    resolution_norms,
    scattering_profile,
    sharpness_witness,
    strichartz_scan,
)

ALPHA = 0.5


# ---------------------------------------------------------------------------
# exponent map
# ---------------------------------------------------------------------------

def test_beta_energy_pair():
    out = beta_exponent(np.inf, 2.0, "schrodinger")
    assert out.value == 0.0 and not out.eps_augmented


def test_beta_high_line_case():
    eps = 0.05
    q_eps = 1.0 / (0.25 + eps / 3.0)
    out = beta_exponent(2.0, q_eps, "schrodinger")
    assert out.value == pytest.approx(0.25 + eps / 3.0, abs=1e-12)
    assert not out.eps_augmented


def test_beta_wave_pair():
    out = beta_exponent(2.0, 5.0, "wave")
    assert out.value == pytest.approx(0.5 + 0.6 - 1.5, abs=1e-12)
    # the same pair lies below the line 1/q + 2/r = 1, where the Klein-Gordon beta is 3/2 - 3/r - 1/q
    assert beta_exponent(2.0, 5.0, "schrodinger").value == pytest.approx(1.5 - 3.0 / 5.0 - 0.5)


def test_beta_borderline_marker():
    out = beta_exponent(2.0, 4.0, "schrodinger")
    assert out.value == pytest.approx(0.25)
    assert out.eps_augmented


def test_beta_rejections_name_inequality():
    with pytest.raises(ValueError, match="2/q \\+ 5/r"):
        beta_exponent(2.0, 3.0, "schrodinger")
    with pytest.raises(ValueError, match="2/q \\+ 5/r"):
        beta_exponent(2.0, 10.0 / 3.0, "schrodinger")  # on the edge 2/q + 5/r = 5/2
    with pytest.raises(ValueError, match="1/q \\+ 2/r"):
        beta_exponent(2.0, 3.5, "wave")
    with pytest.raises(ValueError, match="flavor"):
        beta_exponent(2.0, 5.0, "other")


def beta_cases_agree_on_borderline(samples=None) -> bool:
    """Exact rational check that both case formulas coincide when 1/q + 2/r = 1."""
    if samples is None:
        samples = []
        for denom in (3, 4, 5, 7, 9, 16):
            ir = Fraction(1, denom)
            iq = 1 - 2 * ir
            if 0 <= iq <= Fraction(1, 2):
                samples.append((iq, ir))
    for iq, ir in samples:
        if iq + 2 * ir != 1:
            raise ValueError("sample not on the borderline")
        low = Fraction(3, 2) - 3 * ir - iq
        high = ir + iq - Fraction(1, 2)
        if low != high:
            return False
    return True


def test_borderline_continuity_symbolic():
    assert beta_cases_agree_on_borderline()


# ---------------------------------------------------------------------------
# space-time norms
# ---------------------------------------------------------------------------

def kg_norm(grid, phi, q, r, window):
    """L^q_t L^r_x norm of the free Klein-Gordon flow of phi over 64 sample times in the window."""
    ts = np.linspace(*window, 64)
    return measure_spacetime_norm(grid, kg_propagate(grid, phi, ts), ts, q, r)


def test_zero_field_norm(grid):
    assert kg_norm(grid, np.zeros(grid.M, dtype=np.complex128), 2.0, 4.0, (0.0, 1.0)) == 0.0


def test_free_flow_l2_constancy(grid, rng):
    phi = random_band_limited(grid, rng, (1, 150))
    sup = kg_norm(grid, phi, np.inf, 2.0, (0.0, 5.0))
    assert abs(sup - l2_norms(grid, phi)) < 1e-10 * l2_norms(grid, phi)


def test_norm_homogeneity(grid, rng):
    phi = random_band_limited(grid, rng, (1, 150))
    one = kg_norm(grid, phi, 2.0, 4.0, (0.0, 2.0))
    two = kg_norm(grid, 2.0 * phi, 2.0, 4.0, (0.0, 2.0))
    assert abs(two - 2.0 * one) < 1e-10 * two


def test_trajectory_window_guards(grid):
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=1e-2, T=1.0, model="linear", snapshot_stride=1)
    traj = run_simulation(cfg, gaussian_data(grid, 0.01))
    with pytest.raises(GuardError, match="window"):
        resolution_norm(traj, window=(0.0, 3.0))
    for window in ((0.0, np.nan), (np.nan, 1.0)):
        with pytest.raises(GuardError, match="exceeds trajectory range"):
            resolution_norm(traj, window=window)
    with pytest.raises(GuardError, match="snapshots"):
        resolution_norm(traj, window=(0.0, 0.2))


# ---------------------------------------------------------------------------
# dyadic scans
# ---------------------------------------------------------------------------

def test_scan_linearity(rng):
    grid = RadialGrid(16.0, 512)
    phi = random_band_limited(grid, np.random.default_rng(3))
    a = strichartz_scan(grid, [2, 3], 2.0, 5.0, "wave", (0.0, 2.0), profile=phi, n_samples=64)
    b = strichartz_scan(grid, [2, 3], 2.0, 5.0, "wave", (0.0, 2.0), profile=10.0 * phi, n_samples=64)
    # blocks are unit-normalized before evolving, so the table is scale-free
    assert a.norms == b.norms


def test_scan_reflection_warning():
    grid = RadialGrid(8.0, 256)
    table = strichartz_scan(grid, [1, 2], 2.0, 5.0, "wave", (0.0, 6.0), n_samples=64)
    assert table.warning is not None


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_scan_warning_and_horizon_guard_share_the_edge(alpha):
    # on R = 8 the wave flow at speed alpha reaches R/2 = 4 at the window end 4/alpha exactly
    grid = RadialGrid(8.0, 256)
    for end, beyond in ((4.0 / alpha, False), (np.nextafter(4.0 / alpha, np.inf), True)):
        table = strichartz_scan(grid, [1, 2], 2.0, 5.0, "wave", (0.0, end), alpha=alpha, n_samples=8)
        assert (table.warning is not None) == beyond, end
        if beyond:
            with pytest.raises(GuardError, match="horizon"):
                check_horizon([end], alpha, grid.R)
        else:
            check_horizon([end], alpha, grid.R)


@pytest.mark.parametrize("window", [(0.0, np.nan), (np.nan, 2.0), (0.0, np.inf)], ids=["end-nan", "start-nan", "end-inf"])
def test_scan_rejects_a_non_finite_window(window):
    grid = RadialGrid(16.0, 256)
    with pytest.raises(ValueError, match="not finite"):
        strichartz_scan(grid, [1, 2], 2.0, 5.0, "wave", window, n_samples=8)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_horizon_and_checkpoints_reject_non_finite_times(t):
    # NaN compares false with every bound, so it must be caught before the comparison
    with pytest.raises(ValueError, match="not finite"):
        check_horizon([0.5, t, 2.0], ALPHA, 40.0)
    with pytest.raises(ValueError, match="no snapshot near checkpoint"):
        checkpoint_indices(np.linspace(0.0, 2.0, 201), [0.5, t, 2.0], 0.01)


@pytest.mark.parametrize("checkpoints", [[1.0, 1.0, 2.0], [2.0, 1.0], [1.5, 1.0, 2.0], [1.0, 1.004, 2.0]])
def test_checkpoints_must_fall_on_increasing_snapshots(checkpoints):
    # two checkpoints within dt/2 of one snapshot, or out of order, give a Cauchy row that compares nothing
    with pytest.raises(ValueError, match="increasing snapshots"):
        checkpoint_indices(np.linspace(0.0, 2.0, 201), checkpoints, 0.01)


def test_scan_needs_two_sample_times():
    grid = RadialGrid(16.0, 512)
    with pytest.raises(ValueError, match="at least 2 sample times"):
        strichartz_scan(grid, [1, 2], 2.0, 5.0, "wave", (0.0, 2.0), n_samples=1)


def test_scan_csv(tmp_path):
    grid = RadialGrid(16.0, 512)
    table = strichartz_scan(grid, [1, 2, 3], 2.0, 5.0, "wave", (0.0, 2.0), n_samples=64)
    table.write_csv(tmp_path / "scan.csv")
    lines = (tmp_path / "scan.csv").read_text().strip().splitlines()
    assert lines[0] == "k,norm,log2_norm,fit_residual"
    assert len([l for l in lines if not l.startswith("#")]) == 4


# ---------------------------------------------------------------------------
# sharpness witness
# ---------------------------------------------------------------------------

def test_witness_preconditions():
    with pytest.raises(ValueError, match="k >= 1"):
        sharpness_witness(0, 2.0, 4.0)
    with pytest.raises(GuardError, match="horizon"):
        sharpness_witness(8, 2.0, 4.0, R=64.0)
    with pytest.raises(ValueError, match="at least 2 sample times"):
        sharpness_witness(2, 2.0, 4.0, n_samples=1)
    for R in (np.inf, np.nan, 0.0):
        with pytest.raises(ValueError, match="positive finite R"):
            sharpness_witness(2, 2.0, 4.0, R=R)


def test_witness_ratio_positive_and_stable():
    r2 = sharpness_witness(2, 2.0, 4.0)
    r3 = sharpness_witness(3, 2.0, 4.0)
    assert r2.ratio > 0 and r3.ratio > 0
    assert max(r2.ratio, r3.ratio) / min(r2.ratio, r3.ratio) < 2.0


# ---------------------------------------------------------------------------
# scattering profiles
# ---------------------------------------------------------------------------

def test_linear_profiles_constant(grid):
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=1e-2, T=8.0, model="linear", snapshot_stride=100)
    traj = run_simulation(cfg, gaussian_data(grid, 0.01))
    rep = scattering_profile(traj, ALPHA, [2.0, 4.0, 8.0])
    for row in rep.rows:
        assert row.d_U < 1e-12
        assert row.d_N < 1e-12


def test_zero_data_profiles(grid):
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=1e-2, T=4.0, snapshot_stride=100)
    traj = run_simulation(cfg, gaussian_data(grid, 0.0))
    rep = scattering_profile(traj, ALPHA, [2.0, 4.0])
    assert rep.profiles_U.shape == (2, grid.M)
    assert np.all(l2_norms(grid, rep.profiles_U) == 0.0)


def test_profile_horizon_guard(grid):
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=1e-2, T=1.0, snapshot_stride=10)
    traj = run_simulation(cfg, gaussian_data(grid, 0.01))
    with pytest.raises(GuardError, match="horizon"):
        scattering_profile(traj, ALPHA, [30.0])


def test_profile_missing_checkpoint(grid):
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=1e-2, T=1.0, snapshot_stride=50)
    traj = run_simulation(cfg, gaussian_data(grid, 0.01))
    with pytest.raises(ValueError, match="no snapshot"):
        scattering_profile(traj, ALPHA, [0.77])


def test_cauchy_csv(tmp_path, grid):
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=1e-2, T=4.0, model="linear", snapshot_stride=50)
    traj = run_simulation(cfg, gaussian_data(grid, 0.01))
    rep = scattering_profile(traj, ALPHA, [2.0, 4.0])
    rep.write_csv(tmp_path / "cauchy.csv")
    assert (tmp_path / "cauchy.csv").read_text().splitlines()[0] == "t1,t2,d_U_H1,d_N_L2"


# ---------------------------------------------------------------------------
# resolution-space norm
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def short_traj(grid):
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=1e-2, T=2.0, snapshot_stride=1)
    return run_simulation(cfg, gaussian_data(grid, 0.01))


def test_resolution_norm_zero(grid):
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=1e-2, T=2.0, snapshot_stride=1)
    traj = run_simulation(cfg, gaussian_data(grid, 0.0))
    assert resolution_norm(traj).total == 0.0


def test_resolution_norm_scaling(grid, short_traj):
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=1e-2, T=2.0, snapshot_stride=1)
    double = run_simulation(cfg, gaussian_data(grid, 0.02))
    a = resolution_norm(short_traj)
    b = resolution_norm(double)
    # the simplified dynamics is not exactly linear, but at eps = 1e-2 the
    # quadratic correction sits far below the homogeneity check tolerance
    assert b.total == pytest.approx(2.0 * a.total, rel=1e-3)


def test_resolution_norm_window_monotone(short_traj):
    a = resolution_norm(short_traj, window=(0.0, 1.0))
    b = resolution_norm(short_traj, window=(0.0, 2.0))
    assert b.x_l2_besov >= a.x_l2_besov
    assert b.y_l2_besov >= a.y_l2_besov
    assert b.n_l2_besov >= a.n_l2_besov


def test_windows_are_slices_of_one_table(short_traj, monkeypatch):
    windows = [(0.0, 1.0), (0.5, 2.0), (0.0, 2.0), (1.0, 1.7)]
    each = [resolution_norm(short_traj, 0.1, w) for w in windows]
    calls = []
    real_besov = strichartz.besov_norms
    monkeypatch.setattr(strichartz, "besov_norms", lambda g, c, *a: calls.append(len(c)) or real_besov(g, c, *a))
    assert resolution_norms(short_traj, 0.1, windows) == each  # every field bit for bit
    # the three Besov columns once each, over the snapshots that the windows span
    assert calls == [len(short_traj)] * 3


def test_resolution_norms_need_a_window(short_traj):
    with pytest.raises(ValueError, match="at least one window"):
        resolution_norms(short_traj, 0.05, [])


def test_resolution_norm_eps_validation(short_traj):
    with pytest.raises(ValueError):
        resolution_norm(short_traj, eps=0.5)
