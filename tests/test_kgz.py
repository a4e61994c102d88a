from dataclasses import replace

import numpy as np
import pytest

from kgzsim.export import export_trajectory
from kgzsim.kgz import (
    BlowupError,
    ComplexState,
    RealState,
    SimConfig,
    Trajectory,
    energy,
    from_first_order,
    gaussian_data,
    oracle_evolve,
    rhs,
    run_simulation,
    step,
    to_first_order,
)
from kgzsim.radial import (
    PhysField,
    RadialGrid,
    SpectralField,
    kg_propagate,
    random_band_limited,
    spectral_l2,
    to_physical,
    to_spectral,
)

ALPHA = 0.5


def eigenmode(grid, m, amp=1.0):
    return PhysField(grid, amp * np.sin(grid.xi[m - 1] * grid.r) / grid.r)


def zero(grid):
    return PhysField(grid, np.zeros(grid.M))


def random_real_state(grid, rng, amp=0.1):
    def rf(lo, hi):
        f = to_physical(random_band_limited(grid, rng, (lo, hi)))
        return PhysField(grid, amp * f.values.real.astype(complex))

    return RealState(rf(1, 60), rf(1, 60), rf(1, 60), rf(1, 60))


# ---------------------------------------------------------------------------
# first-order conversion
# ---------------------------------------------------------------------------

def test_zero_velocity_gives_real_pair(grid):
    s = RealState(eigenmode(grid, 2), zero(grid), eigenmode(grid, 3), zero(grid))
    c = to_first_order(s, ALPHA)
    assert np.max(np.abs(c.U.values.imag)) < 1e-14
    assert np.max(np.abs(c.N.values.imag)) < 1e-14
    assert np.max(np.abs(c.U.values - s.u.values)) < 1e-13


def test_first_order_roundtrip(grid, rng):
    s = random_real_state(grid, rng)
    back = from_first_order(to_first_order(s, ALPHA), ALPHA)
    for name in ("u", "u_dot", "n", "n_dot"):
        a = getattr(s, name).values
        b = getattr(back, name).values
        assert np.max(np.abs(a - b)) < 1e-12 * max(np.max(np.abs(a)), 1e-30)


def test_velocity_only_mode(grid):
    a = 0.31
    s = RealState(zero(grid), eigenmode(grid, 1, a), zero(grid), zero(grid))
    c = to_first_order(s, ALPHA)
    expected = -1j * a / np.sqrt(1.0 + grid.xi[0] ** 2)
    coeffs = to_spectral(c.U).coeffs
    mode = to_spectral(eigenmode(grid, 1)).coeffs[0]
    assert abs(coeffs[0] / mode - expected) < 1e-12


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

def test_rhs_zero_state(grid):
    c = ComplexState(zero(grid), zero(grid))
    dU, dN = rhs(c, ALPHA, "full")
    assert np.all(dU.values == 0) and np.all(dN.values == 0)


def test_rhs_linear_single_mode(grid):
    c = ComplexState(eigenmode(grid, 4), zero(grid))
    dU, _ = rhs(c, ALPHA, "linear")
    expected = 1j * np.sqrt(1.0 + grid.xi[3] ** 2)
    got = to_spectral(dU).coeffs[3] / to_spectral(c.U).coeffs[3]
    assert abs(got - expected) < 1e-12


def test_full_equals_simplified_on_real_states(grid, rng):
    s = random_real_state(grid, rng)
    real_pair = ComplexState(s.u, s.n)
    dU_f, dN_f = rhs(real_pair, ALPHA, "full")
    dU_s, dN_s = rhs(real_pair, ALPHA, "simplified")
    assert np.max(np.abs(dU_f.values - dU_s.values)) < 1e-12
    assert np.max(np.abs(dN_f.values - dN_s.values)) < 1e-12


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_step_exact_on_linear_flow(grid, rng):
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=0.25, T=1.0, model="linear", dealias=False)
    U = to_physical(random_band_limited(grid, rng, (1, 100)))
    N = to_physical(random_band_limited(grid, rng, (1, 100)))
    out = step(ComplexState(U, N), 0.25, cfg)
    exact = kg_propagate(to_spectral(U), 0.25)
    got = to_spectral(out.U)
    assert spectral_l2(got - exact) < 1e-13 * spectral_l2(exact)


def test_step_rejects_oversized_dt(grid):
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=0.1, T=1.0)
    c = ComplexState(zero(grid), zero(grid))
    with pytest.raises(ValueError, match="exceeds"):
        step(c, 0.2, cfg)


def test_integrator_fourth_order(grid):
    init = gaussian_data(grid, 1.0)

    def final(dt):
        cfg = SimConfig(ALPHA, grid.R, grid.M, dt=dt, T=1.0, model="full", snapshot_stride=10**9)
        return to_spectral(run_simulation(cfg, init).states[-1].U)

    ref = final(1.0 / 1024)
    errs = [spectral_l2(final(dt) - ref) for dt in (1.0 / 16, 1.0 / 32, 1.0 / 64)]
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    assert all(12.0 <= r <= 20.0 for r in ratios), ratios
    orders = [np.log2(r) for r in ratios]
    assert all(3.5 <= o <= 4.5 for o in orders), orders


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_energy_zero_state(grid):
    s = RealState(zero(grid), zero(grid), zero(grid), zero(grid))
    assert energy(s, ALPHA) == 0.0


def test_energy_single_mode_closed_form(grid):
    # u = a sin(xi_1 r)/r alone: E = (1 + xi_1^2) a^2 ||mode||^2, and the grid
    # sum gives ||mode||^2 = 4 pi dr sum sin^2 = 2 pi R exactly
    a = 0.3
    s = RealState(eigenmode(grid, 1, a), zero(grid), zero(grid), zero(grid))
    expected = (1.0 + grid.xi[0] ** 2) * a**2 * 2.0 * np.pi * grid.R
    assert abs(energy(s, ALPHA) - expected) < 1e-10 * expected


def test_energy_conserved_along_flow(grid):
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=1e-3, T=1.0, model="full", snapshot_stride=100)
    traj = run_simulation(cfg, gaussian_data(grid, 0.01))
    drift = np.max(np.abs(traj.energies - traj.energies[0])) / abs(traj.energies[0])
    assert drift < 1e-6


def _velocity_mismatch(grid, model, dt):
    """Relative gap between d/dt Re cU (centred difference) and -<xi> Im cU.

    Re cU and -<xi> Im cU are the coefficients of u and u_t exactly when the
    forcing of the U equation is real; the centred difference adds O(dt^2).
    """
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=dt, T=0.2, model=model, snapshot_stride=1)
    cU = run_simulation(cfg, gaussian_data(grid, 0.01)).cU
    d_re = (cU.real[2:] - cU.real[:-2]) / (2.0 * dt)
    u_dot = -np.sqrt(1.0 + grid.xi**2) * cU.imag[1:-1]
    return np.linalg.norm(d_re - u_dot) / np.linalg.norm(u_dot)


def test_realness_preserved(grid):
    # full: measured 2.3e-5 at dt=5e-3; simplified (complex forcing N U): 3.4e-3
    assert _velocity_mismatch(grid, "full", 5e-3) < 1e-4
    assert _velocity_mismatch(grid, "simplified", 5e-3) > 1e-3


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def test_oracle_zero_data(grid):
    s = RealState(zero(grid), zero(grid), zero(grid), zero(grid))
    out = oracle_evolve(s, ALPHA, 0.5)
    assert np.max(np.abs(out.u.values)) == 0.0


def test_oracle_linear_mode_phase():
    # n = 0 keeps the u-equation linear Klein-Gordon; a single sine mode
    # oscillates with frequency sqrt(1 + xi^2) up to O(dr^2, dt^2)
    grid = RadialGrid(20.0, 128)
    s = RealState(eigenmode(grid, 2, 1e-8), zero(grid), zero(grid), zero(grid))
    T = 1.0
    out = oracle_evolve(s, ALPHA, T, refine=8)
    freq = np.sqrt(1.0 + grid.xi[1] ** 2)
    expected = np.cos(freq * T) * s.u.values
    err = np.max(np.abs(out.u.values - expected)) / np.max(np.abs(s.u.values))
    assert err < 5e-3


def test_oracle_cfl_guard(grid):
    s = gaussian_data(grid, 0.01)
    with pytest.raises(ValueError, match="CFL"):
        oracle_evolve(s, ALPHA, 0.5, refine=4, dt=1.0)


def test_oracle_matches_spectral(grid):
    init = gaussian_data(grid, 0.01)
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=2e-3, T=1.0, model="full", snapshot_stride=10**9)
    spec = from_first_order(run_simulation(cfg, init).states[-1], ALPHA)
    fd = oracle_evolve(init, ALPHA, 1.0, refine=4)
    num = den = 0.0
    for name in ("u", "n"):
        num += np.sum(np.abs(getattr(spec, name).values - getattr(fd, name).values) ** 2)
        den += np.sum(np.abs(getattr(spec, name).values) ** 2)
    assert np.sqrt(num / den) < 1e-2


# ---------------------------------------------------------------------------
# simulation driver
# ---------------------------------------------------------------------------

def test_zero_horizon_single_snapshot(grid):
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=1e-3, T=0.0)
    traj = run_simulation(cfg, gaussian_data(grid, 0.01))
    assert len(traj) == 1 and traj.times[0] == 0.0


@pytest.fixture(scope="module")
def moving_traj(grid):
    init = random_real_state(grid, np.random.default_rng(3), amp=0.01)
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=1e-3, T=0.02, model="full", snapshot_stride=5)
    return run_simulation(cfg, init)


def test_trajectory_energies_match_states(moving_traj):
    states = moving_traj.states
    assert len(states) == len(moving_traj) == 5
    for e, state in zip(moving_traj.energies, states):
        ref = energy(from_first_order(state, ALPHA), ALPHA)
        assert abs(e - ref) <= 1e-13 * abs(ref)


def test_trajectory_states_are_views_of_coefficients(moving_traj):
    grid = moving_traj.config.grid
    for i, state in enumerate(moving_traj.states):
        assert state.t == moving_traj.times[i]
        assert np.array_equal(state.U.values, to_physical(SpectralField(grid, moving_traj.cU[i])).values)
        assert np.array_equal(state.N.values, to_physical(SpectralField(grid, moving_traj.cN[i])).values)


def test_trajectory_rejects_misshapen_stacks(moving_traj):
    cU = moving_traj.cU
    for bad in (cU[:-1], cU[:, :-1], cU[0]):
        with pytest.raises(ValueError, match="coefficient stacks"):
            replace(moving_traj, cU=bad)
        with pytest.raises(ValueError, match="coefficient stacks"):
            replace(moving_traj, cN=bad)
    assert isinstance(replace(moving_traj), Trajectory)


def test_deterministic_repeat(grid):
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=1e-3, T=0.05, snapshot_stride=10)
    a = run_simulation(cfg, gaussian_data(grid, 0.01))
    b = run_simulation(cfg, gaussian_data(grid, 0.01))
    for sa, sb in zip(a.states, b.states):
        assert np.array_equal(sa.U.values, sb.U.values)
        assert np.array_equal(sa.N.values, sb.N.values)
    assert np.array_equal(a.energies, b.energies)


def test_small_data_run_completes(grid):
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=1e-3, T=0.5, snapshot_stride=100)
    traj = run_simulation(cfg, gaussian_data(grid, 0.01))
    assert traj.times[-1] == pytest.approx(0.5)


def test_blowup_signal_carries_time():
    grid = RadialGrid(10.0, 64)
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=0.01, T=5.0, snapshot_stride=10)
    with pytest.raises(BlowupError) as err:
        run_simulation(cfg, gaussian_data(grid, 100.0))
    assert 0.0 < err.value.t <= 5.0


def test_config_validation():
    with pytest.raises(ValueError, match="alpha"):
        SimConfig(1.0, 40.0, 256, dt=1e-3, T=1.0)
    with pytest.raises(ValueError, match="model"):
        SimConfig(0.5, 40.0, 256, dt=1e-3, T=1.0, model="other")
    with pytest.raises(ValueError, match="dt"):
        SimConfig(0.5, 40.0, 256, dt=0.0, T=1.0)
    # round(T/dt) steps would stop the run at t=0.9
    with pytest.raises(ValueError, match="integer multiple of dt"):
        SimConfig(0.5, 40.0, 256, dt=0.3, T=1.0)
    assert SimConfig(0.5, 40.0, 256, dt=0.1, T=0.3).T == 0.3


def test_trajectory_export(tmp_path, grid):
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=1e-2, T=0.1, snapshot_stride=5)
    traj = run_simulation(cfg, gaussian_data(grid, 0.01))
    export_trajectory(traj, tmp_path)
    assert (tmp_path / "diagnostics.csv").is_file()
    assert (tmp_path / "manifest.txt").is_file()
    snaps = sorted((tmp_path / "snapshots").glob("U_*.fld"))
    assert len(snaps) == len(traj)
    header = (tmp_path / "diagnostics.csv").read_text().splitlines()[0]
    assert header == "t,energy,u_norm_l2,n_norm_l2"
    manifest = (tmp_path / "manifest.txt").read_text()
    for key in ("sim.alpha", "grid.R", "grid.M", "sim.dt", "sim.T", "sim.model"):
        assert key in manifest
