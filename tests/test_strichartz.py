import re
from fractions import Fraction

import numpy as np
import pytest

from kgzsim.cli import write_cauchy, write_scan
from kgzsim.kgz import SimConfig, gaussian_data, run_simulation
from kgzsim.radial import RadialGrid, kg_propagate, l2_norms
from kgzsim import strichartz
from kgzsim.strichartz import (
    GuardError,
    WitnessReport,
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
from references import band_limited

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


def test_borderline_pairs_are_decided_once():
    # r = 2q/(q-1) puts 1/q + 2/r on 1 up to rounding: at q = 10 the sum reads 1 - 1.1e-16
    k = 3
    for q in range(3, 101):
        r = 2.0 * q / (q - 1.0)
        beta = beta_exponent(q, r, "schrodinger")
        assert beta.eps_augmented and beta.value == 0.5 - 1.0 / r, (q, r)
        # the witness applies the <k>^{1/q} borderline constant exactly where the exponent says borderline
        borderline = (1.0 + k * k) ** (0.5 / q) * 2.0 ** (beta.value * k)
        assert WitnessReport(k, q, r, 1.0, 1.0).scale_constant == borderline, (q, r)


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
    phi = band_limited(grid, rng, 1, 150)
    sup = kg_norm(grid, phi, np.inf, 2.0, (0.0, 5.0))
    assert abs(sup - l2_norms(grid, phi)) < 1e-10 * l2_norms(grid, phi)


def test_norm_homogeneity(grid, rng):
    phi = band_limited(grid, rng, 1, 150)
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

def test_scan_linearity(monkeypatch):
    grid = RadialGrid(16.0, 512)
    a = strichartz_scan(grid, [2, 3], 2.0, 5.0, "wave", (0.0, 2.0), n_samples=64, seed=3)
    seeded = strichartz.random_band_limited
    monkeypatch.setattr(strichartz, "random_band_limited", lambda *args: 10.0 * seeded(*args))
    b = strichartz_scan(grid, [2, 3], 2.0, 5.0, "wave", (0.0, 2.0), n_samples=64, seed=3)
    # blocks are unit-normalized before evolving, so the table is scale-free
    assert a.norms == b.norms


def test_scan_reflection_warning():
    # a scan window past the reflection-safe horizon is refused before any flow, not returned with a warning
    grid = RadialGrid(8.0, 256)
    with pytest.raises(GuardError, match="reflection-safe horizon"):
        strichartz_scan(grid, [1, 2], 2.0, 5.0, "wave", (0.0, 6.0), n_samples=64)


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_scan_warning_and_horizon_guard_share_the_edge(alpha):
    # on R = 8 the wave flow at speed alpha reaches R/2 = 4 at the window end 4/alpha exactly
    grid = RadialGrid(8.0, 256)
    end = 4.0 / alpha
    strichartz_scan(grid, [1, 2], 2.0, 5.0, "wave", (0.0, end), alpha=alpha, n_samples=8)
    check_horizon([end], alpha, grid.R)
    beyond = np.nextafter(end, np.inf)
    with pytest.raises(GuardError, match="horizon"):
        strichartz_scan(grid, [1, 2], 2.0, 5.0, "wave", (0.0, beyond), alpha=alpha, n_samples=8)
    with pytest.raises(GuardError, match="horizon"):
        check_horizon([beyond], alpha, grid.R)


class FlowReached(Exception):
    """Raised by a patched free flow: the horizon guard let the analysis through."""


def _scan_until(flavor, alpha):
    grid = RadialGrid(8.0, 64)
    return lambda end: strichartz_scan(grid, [1, 2], 2.0, 5.0, flavor, (0.0, end), alpha=alpha, n_samples=8)


def _witness_on(R):
    return sharpness_witness(2, 2.0, 4.0, R=R, n_samples=8)


def _profile_until(end):
    cfg = SimConfig(2.0, 8.0, 32, dt=0.01, T=2.1, model="linear", snapshot_stride=10)
    return scattering_profile(run_simulation(cfg, gaussian_data(cfg.grid, 0.01)), 2.0, [1.0, end])


@pytest.mark.parametrize(
    "analysis, edge, past",
    [
        # on R = 8 the faster of the Klein-Gordon flow (speed 1) and the wave (speed alpha) reaches R/2 = 4
        (_scan_until("wave", 0.5), 4.0, np.nextafter(4.0, np.inf)),
        (_scan_until("schrodinger", 2.0), 4.0, np.nextafter(4.0, np.inf)),
        # the witness window of k = 2 ends at 2, which is R/2 on R = 4 and past it on a smaller R
        (_witness_on, 4.0, np.nextafter(4.0, 0.0)),
        # a run at alpha = 2 on R = 8 reaches its horizon at t = 2; the profile reads snapshots, so
        # the first checkpoint past the edge is the next snapshot's, at t = 2.1
        (_profile_until, 2.0, 2.1),
    ],
    ids=["scan-wave-alpha0.5", "scan-kg-alpha2", "witness", "profile"],
)
def test_analyses_share_the_horizon_edge(monkeypatch, analysis, edge, past):
    def flow(*args, **kwargs):
        raise FlowReached

    for name in ("kg_propagate", "wave_propagate"):
        monkeypatch.setattr(strichartz, name, flow)
    with pytest.raises(FlowReached):
        analysis(edge)
    with pytest.raises(GuardError, match="reflection-safe horizon"):
        analysis(past)


@pytest.mark.parametrize("window", [(0.0, np.nan), (np.nan, 2.0), (0.0, np.inf)], ids=["end-nan", "start-nan", "end-inf"])
def test_scan_rejects_a_non_finite_window(window):
    grid = RadialGrid(16.0, 256)
    with pytest.raises(ValueError, match="not finite"):
        strichartz_scan(grid, [1, 2], 2.0, 5.0, "wave", window, n_samples=8)


@pytest.mark.parametrize("window", [(1.0, 1.0), (0.0, -1.0)], ids=["empty", "reversed"])
def test_scan_rejects_an_empty_or_reversed_window(window):
    grid = RadialGrid(16.0, 256)
    with pytest.raises(ValueError, match="must come after its start"):
        strichartz_scan(grid, [1, 2], 2.0, 5.0, "wave", window, n_samples=8)


CHECKPOINT_RUN = SimConfig(ALPHA, 40.0, 64, dt=0.01, T=2.0)  # snapshots every 0.01 up to 2


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_horizon_and_checkpoints_reject_non_finite_times(t):
    # NaN compares false with every bound, so it must be caught before the comparison
    with pytest.raises(ValueError, match="not finite"):
        check_horizon([0.5, t, 2.0], ALPHA, 40.0)
    with pytest.raises(ValueError, match="no snapshot near checkpoint"):
        checkpoint_indices(CHECKPOINT_RUN, [0.5, t, 2.0])


@pytest.mark.parametrize("checkpoints", [[1.0, 1.0, 2.0], [2.0, 1.0], [1.5, 1.0, 2.0], [1.0, 1.004, 2.0]])
def test_checkpoints_must_fall_on_increasing_snapshots(checkpoints):
    # two checkpoints within dt/2 of one snapshot, or out of order, give a Cauchy row that compares nothing
    with pytest.raises(ValueError, match="increasing snapshots"):
        checkpoint_indices(CHECKPOINT_RUN, checkpoints)


@pytest.mark.parametrize(
    "M, ks, message",
    [
        (512, [3], "at least two distinct blocks"),
        (512, [3, 3], "at least two distinct blocks"),
        (512, [], "at least two distinct blocks"),
        # R = 16 and M = 1024 resolve the blocks -3..8: block 9 holds no mode, after two blocks that do
        (1024, [1, 2, 9], "blocks (1, 2, 9) leave the grid's resolved blocks -3..8"),
    ],
    ids=["one", "repeated", "none", "unresolved"],
)
def test_scan_needs_two_distinct_blocks(M, ks, message, monkeypatch):
    # each block rule is checked before the first space-time norm
    calls = []
    monkeypatch.setattr(strichartz, "measure_spacetime_norm", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=re.escape(message)):
        strichartz_scan(RadialGrid(16.0, M), ks, 2.0, 5.0, "wave", (0.0, 2.0), n_samples=64)
    assert calls == []


def test_scan_needs_two_sample_times():
    grid = RadialGrid(16.0, 512)
    with pytest.raises(ValueError, match="at least 2 sample times"):
        strichartz_scan(grid, [1, 2], 2.0, 5.0, "wave", (0.0, 2.0), n_samples=1)


def test_scan_csv(tmp_path):
    grid = RadialGrid(16.0, 512)
    table = strichartz_scan(grid, [1, 2, 3], 2.0, 5.0, "wave", (0.0, 2.0), n_samples=64)
    write_scan(tmp_path / "scan.csv", table)
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


def test_profile_horizon_guard():
    # R = 1.996 puts the horizon R/2 at 0.998: the checkpoint 0.998 lies on it, but reads the
    # snapshot at 1.0 (within dt/2), which lies past it
    cfg = SimConfig(ALPHA, 1.996, 32, dt=1e-2, T=1.0, snapshot_stride=10)
    traj = run_simulation(cfg, gaussian_data(cfg.grid, 0.01))
    with pytest.raises(GuardError, match="time 1.0 is beyond the reflection-safe horizon"):
        scattering_profile(traj, ALPHA, [0.5, 0.998])


def test_profile_missing_checkpoint(grid):
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=1e-2, T=1.0, snapshot_stride=50)
    traj = run_simulation(cfg, gaussian_data(grid, 0.01))
    with pytest.raises(ValueError, match="no snapshot"):
        scattering_profile(traj, ALPHA, [0.5, 0.77])


@pytest.mark.parametrize("checkpoints", [[], [0.5]], ids=["none", "one"])
def test_profile_needs_two_checkpoints(grid, checkpoints):
    # one checkpoint has no Cauchy row: the report would be empty
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=1e-2, T=1.0, snapshot_stride=50)
    traj = run_simulation(cfg, gaussian_data(grid, 0.01))
    with pytest.raises(ValueError, match=f"a Cauchy row needs at least 2 checkpoints, got {len(checkpoints)}"):
        scattering_profile(traj, ALPHA, checkpoints)


def test_profile_needs_the_runs_alpha(grid):
    # a wrong alpha would pull N back along the wrong wave flow
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=1e-2, T=1.0, snapshot_stride=50)
    traj = run_simulation(cfg, gaussian_data(grid, 0.01))
    with pytest.raises(ValueError, match="alpha"):
        scattering_profile(traj, 2.0 * ALPHA, [0.5, 1.0])


def test_cauchy_csv(tmp_path, grid):
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=1e-2, T=4.0, model="linear", snapshot_stride=50)
    traj = run_simulation(cfg, gaussian_data(grid, 0.01))
    rep = scattering_profile(traj, ALPHA, [2.0, 4.0])
    write_cauchy(tmp_path / "cauchy.csv", rep)
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
