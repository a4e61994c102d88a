from dataclasses import replace

import numpy as np
import pytest

from kgzsim.export import export_trajectory
from kgzsim.kgz import (
    BlowupError,
    SimConfig,
    Trajectory,
    energy,
    from_first_order,
    gaussian_data,
    _Stepper,
    run_simulation,
    to_first_order,
)
from kgzsim.normalform import _simpson
from kgzsim.radial import (
    RadialGrid,
    analyze,
    dealias_mask,
    kg_propagate,
    l2_norms,
    random_band_limited,
    synthesize,
    wave_propagate,
)
from references import oracle_evolve, read_field

ALPHA = 0.5


def eigenmode(grid, m, amp=1.0):
    return (amp * np.sin(grid.xi[m - 1] * grid.r) / grid.r).astype(np.complex128)


def state(grid, u=0.0, u_dot=0.0, n=0.0, n_dot=0.0):
    """The (4, M) complex state (u, u_t, n, n_t); a zero field may be given as 0.0."""
    s = np.zeros((4, grid.M), dtype=np.complex128)
    for i, f in enumerate((u, u_dot, n, n_dot)):
        s[i] = f
    return s


def random_real_state(grid, rng, amp=0.1):
    rows = [amp * synthesize(grid, random_band_limited(grid, rng, (1, 60))).real for _ in range(4)]
    return np.array(rows, dtype=np.complex128)


# ---------------------------------------------------------------------------
# first-order conversion
# ---------------------------------------------------------------------------

def test_zero_velocity_gives_real_pair(grid):
    s = state(grid, u=eigenmode(grid, 2), n=eigenmode(grid, 3))
    U, N = to_first_order(grid, s, ALPHA)
    assert np.max(np.abs(U.imag)) < 1e-14
    assert np.max(np.abs(N.imag)) < 1e-14
    assert np.max(np.abs(U - s[0])) < 1e-13


def test_first_order_roundtrip(grid, rng):
    s = random_real_state(grid, rng)
    back = from_first_order(grid, to_first_order(grid, s, ALPHA), ALPHA)
    assert back.shape == (4, grid.M) and back.dtype == np.complex128
    for a, b in zip(s, back):  # u, u_t, n, n_t
        assert np.max(np.abs(a - b)) < 1e-12 * max(np.max(np.abs(a)), 1e-30)


def test_velocity_only_mode(grid):
    a = 0.31
    s = state(grid, u_dot=eigenmode(grid, 1, a))
    U, _ = to_first_order(grid, s, ALPHA)
    expected = -1j * a / np.sqrt(1.0 + grid.xi[0] ** 2)
    coeffs = analyze(grid, U)
    mode = analyze(grid, eigenmode(grid, 1))[0]
    assert abs(coeffs[0] / mode - expected) < 1e-12


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

def test_rhs_zero_state(grid):
    st = _Stepper(grid, 1.0, ALPHA, "full", False)
    z = np.zeros((2, grid.M), dtype=complex)
    for out in (st.nonlinear(z), st.step(z)):
        assert np.all(out == 0)


def test_rhs_linear_single_mode(grid):
    # the linear generator i<xi>: one step of the linear model multiplies mode 4 by exp(i dt <xi_4>)
    dt = 0.1
    cU = analyze(grid, eigenmode(grid, 4))
    new_u = _Stepper(grid, dt, ALPHA, "linear", False).step(np.stack([cU, np.zeros(grid.M, dtype=complex)]))[0]
    expected = np.exp(1j * dt * np.sqrt(1.0 + grid.xi[3] ** 2))
    assert abs(new_u[3] / cU[3] - expected) < 1e-12


def _nonlinear_reference(grid, c, alpha, model, dealias):
    """The stage as synthesize -> product -> analyze, each scaling applied where it belongs."""
    if model == "linear":
        return np.zeros_like(c)
    mask = dealias_mask(grid) if dealias else np.ones(grid.M)
    u, n = synthesize(grid, (c.real if model == "full" else c) * mask)
    q = np.stack([n * u, u**2 if model == "full" else u * np.conj(u)])
    return np.stack([-1j / grid.lxi, -1j * alpha * grid.xi]) * analyze(grid, q) * mask


@pytest.mark.parametrize("M, dense", [(256, True), (512, False)], ids=["sine-matrix-256", "fft-512"])
@pytest.mark.parametrize("dealias", [True, False], ids=["dealiased", "aliased"])
@pytest.mark.parametrize("model", ["full", "simplified", "linear"])
def test_fused_stage_matches_the_transform_composition(model, dealias, M, dense):
    grid = RadialGrid(40.0, M)
    assert (grid.sine_matrix is not None) == dense  # both DST-I paths are covered
    rng = np.random.default_rng(M)
    c = np.stack([random_band_limited(grid, rng), random_band_limited(grid, rng)])
    got = _Stepper(grid, 1e-3, ALPHA, model, dealias).nonlinear(c)
    want = _nonlinear_reference(grid, c, ALPHA, model, dealias)
    assert got.shape == want.shape == (2, M)
    if model == "linear":
        assert np.all(got == 0)
        return
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    if dealias:
        assert np.all(got[:, dealias_mask(grid) == 0] == 0)


def test_full_equals_simplified_on_real_states(grid, rng):
    s = random_real_state(grid, rng)
    c = analyze(grid, s[[0, 2]])
    dU_f, dN_f = _Stepper(grid, 1.0, ALPHA, "full", False).nonlinear(c)
    dU_s, dN_s = _Stepper(grid, 1.0, ALPHA, "simplified", False).nonlinear(c)
    assert np.max(np.abs(synthesize(grid, dU_f) - synthesize(grid, dU_s))) < 1e-12
    assert np.max(np.abs(synthesize(grid, dN_f) - synthesize(grid, dN_s))) < 1e-12


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_step_exact_on_linear_flow(grid, rng):
    U = random_band_limited(grid, rng, (1, 100))
    N = random_band_limited(grid, rng, (1, 100))
    new_u = _Stepper(grid, 0.25, ALPHA, "linear", False).step(np.stack([U, N]))[0]
    exact = kg_propagate(grid, U, 0.25)
    assert l2_norms(grid, new_u - exact) < 1e-13 * l2_norms(grid, exact)


def test_integrator_fourth_order(grid):
    init = gaussian_data(grid, 1.0)

    def final(dt):
        cfg = SimConfig(ALPHA, grid.R, grid.M, dt=dt, T=1.0, model="full", snapshot_stride=10**9)
        return run_simulation(cfg, init).cU[-1]

    ref = final(1.0 / 1024)
    errs = [l2_norms(grid, final(dt) - ref) for dt in (1.0 / 16, 1.0 / 32, 1.0 / 64)]
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    assert all(12.0 <= r <= 20.0 for r in ratios), ratios
    orders = [np.log2(r) for r in ratios]
    assert all(3.5 <= o <= 4.5 for o in orders), orders


def _born_mismatches(model, dealias, eps0, T=4.0):
    """||(X - X_lin) - Born|| / ||Born|| at time T for X = U and N, from a run at amplitude eps0.

    X_lin is the free flow of the data and Born the Duhamel integral of the forcing evaluated on the
    free flow: one product per snapshot, twisted to time T and integrated by Simpson's rule.  Built
    from the propagators and the transforms alone; the difference is O(eps0^3) against an O(eps0^2)
    Born term, so the relative mismatch is proportional to eps0.
    """
    cfg = SimConfig(ALPHA, 40.0, 128, dt=1e-2, T=T, model=model, dealias=dealias, snapshot_stride=1)
    grid, s = cfg.grid, cfg.snapshot_times
    init = gaussian_data(grid, eps0)
    traj = run_simulation(cfg, init)
    cU, cN = analyze(grid, to_first_order(grid, init, ALPHA))
    mask = dealias_mask(grid) if dealias else 1.0
    u = synthesize(grid, mask * kg_propagate(grid, cU, s))
    n = synthesize(grid, mask * wave_propagate(grid, cN, s, ALPHA))
    if model == "full":
        u, n = u.real, n.real
        forcing = n * u, u * u  # Re N Re U and (Re U)^2
    else:
        forcing = n * u, u * np.conj(u)
    out = []
    for flow, rate, c, q, final in (
        (lambda c, t: kg_propagate(grid, c, t), -1j / grid.lxi, cU, forcing[0], traj.cU[-1]),
        (lambda c, t: wave_propagate(grid, c, t, ALPHA), -1j * ALPHA * grid.xi, cN, forcing[1], traj.cN[-1]),
    ):
        born = _simpson(flow(rate * mask * analyze(grid, q), T - s), s)
        out.append(l2_norms(grid, final - flow(c, T) - born) / l2_norms(grid, born))
    return np.array(out)


@pytest.mark.parametrize("dealias", [False, True], ids=["aliased", "dealiased"])
@pytest.mark.parametrize("model", ["full", "simplified"])
def test_second_order_part_is_the_born_term(model, dealias):
    # the quadratic part of the run is the Born term: a forcing coefficient off by 1 % leaves a
    # mismatch near 1e-2 that does not double with the amplitude
    small, large = _born_mismatches(model, dealias, 0.005), _born_mismatches(model, dealias, 0.01)
    assert np.all(large < 1e-2), large
    assert np.all(np.abs(large / small - 2.0) < 0.1), large / small


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_energy_zero_state(grid):
    assert energy(grid, state(grid), ALPHA) == 0.0


def test_energy_single_mode_closed_form(grid):
    # u = a sin(xi_1 r)/r alone: E = (1 + xi_1^2) a^2 ||mode||^2, and the grid
    # sum gives ||mode||^2 = 4 pi dr sum sin^2 = 2 pi R exactly
    a = 0.3
    s = state(grid, u=eigenmode(grid, 1, a))
    expected = (1.0 + grid.xi[0] ** 2) * a**2 * 2.0 * np.pi * grid.R
    assert abs(energy(grid, s, ALPHA) - expected) < 1e-10 * expected


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
    out = oracle_evolve(grid, state(grid), ALPHA, 0.5)
    assert np.max(np.abs(out[0])) == 0.0


def test_oracle_linear_mode_phase():
    # n = 0 keeps the u-equation linear Klein-Gordon; a single sine mode
    # oscillates with frequency sqrt(1 + xi^2) up to O(dr^2, dt^2)
    grid = RadialGrid(20.0, 128)
    s = state(grid, u=eigenmode(grid, 2, 1e-8))
    T = 1.0
    out = oracle_evolve(grid, s, ALPHA, T, refine=8)
    freq = np.sqrt(1.0 + grid.xi[1] ** 2)
    expected = np.cos(freq * T) * s[0]
    err = np.max(np.abs(out[0] - expected)) / np.max(np.abs(s[0]))
    assert err < 5e-3


def test_oracle_cfl_guard(grid):
    s = gaussian_data(grid, 0.01)
    with pytest.raises(ValueError, match="CFL"):
        oracle_evolve(grid, s, ALPHA, 0.5, refine=4, dt=1.0)


def test_oracle_matches_spectral(grid):
    init = gaussian_data(grid, 0.01)
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=2e-3, T=1.0, model="full", snapshot_stride=10**9)
    traj = run_simulation(cfg, init)
    spec = from_first_order(grid, synthesize(grid, np.stack([traj.cU[-1], traj.cN[-1]])), ALPHA)
    fd = oracle_evolve(grid, init, ALPHA, 1.0, refine=4)
    num = den = 0.0
    for i in (0, 2):  # u and n
        num += np.sum(np.abs(spec[i] - fd[i]) ** 2)
        den += np.sum(np.abs(spec[i]) ** 2)
    assert np.sqrt(num / den) < 1e-2


# ---------------------------------------------------------------------------
# simulation driver
# ---------------------------------------------------------------------------

def test_zero_horizon_single_snapshot(grid):
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=1e-3, T=0.0)
    traj = run_simulation(cfg, gaussian_data(grid, 0.01))
    assert len(traj) == 1 and traj.times[0] == 0.0


def test_config_has_one_grid():
    cfg = SimConfig(ALPHA, 40.0, 256, dt=1e-3, T=0.0)
    assert cfg.grid is cfg.grid
    assert cfg.grid.sine_matrix is cfg.grid.sine_matrix


@pytest.fixture(scope="module")
def moving_traj(grid):
    init = random_real_state(grid, np.random.default_rng(3), amp=0.01)
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=1e-3, T=0.02, model="full", snapshot_stride=5)
    return run_simulation(cfg, init)


def test_trajectory_energies_match_states(moving_traj):
    grid = moving_traj.config.grid
    assert len(moving_traj) == 5
    for e, cu, cn in zip(moving_traj.energies, moving_traj.cU, moving_traj.cN):
        ref = energy(grid, from_first_order(grid, synthesize(grid, np.stack([cu, cn])), ALPHA), ALPHA)
        assert abs(e - ref) <= 1e-13 * abs(ref)
    for norms, stack in ((moving_traj.u_norms, moving_traj.cU), (moving_traj.n_norms, moving_traj.cN)):
        assert np.array_equal(norms, [l2_norms(grid, c) for c in stack])


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
    assert len(a) == len(b) == 6
    assert np.array_equal(a.cU, b.cU)
    assert np.array_equal(a.cN, b.cN)
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


@pytest.mark.parametrize("which, growth", [("U", [[10.0], [1.0]]), ("N", [[1.0], [10.0]])], ids=["U", "N"])
def test_blowup_guard_watches_each_norm(monkeypatch, which, growth):
    # a step that multiplies one field by ten and leaves the other as it is;
    # ||N(0)|| = 100 ||U(0)||, so each guard fires at step 6 or 7 only against
    # its own limit (against the other it would fire at step 4 or 5, or 8 or 9)
    monkeypatch.setattr("kgzsim.kgz._Stepper.step", lambda self, c: c * growth)
    grid = RadialGrid(10.0, 64)
    cfg = SimConfig(ALPHA, grid.R, grid.M, dt=0.01, T=1.0, snapshot_stride=10)
    init = gaussian_data(grid, 0.01)
    init[2] *= 100.0
    with pytest.raises(BlowupError) as err:
        run_simulation(cfg, init)
    assert err.value.reason.startswith(f"||{which}||_2 exceeded")
    assert round(err.value.t / cfg.dt) in (6, 7)


@pytest.mark.parametrize(
    "row, value, reason",
    [
        (0, np.nan, "non-finite values in state"),
        (1, complex(0.0, np.inf), "non-finite values in state"),
        # finite, but its square overflows the guard's sum of squares
        (0, 1e200, "||U||_2 exceeded"),
        (1, 1e200, "||N||_2 exceeded"),
    ],
    ids=["nan-U", "inf-imag-N", "overflow-U", "overflow-N"],
)
def test_blowup_guard_on_one_entry(monkeypatch, row, value, reason):
    # the first step puts one entry in the state; the guard names the fault at that step
    def step(self, c):
        c = c.copy()
        c[row, 17] = value
        return c

    monkeypatch.setattr("kgzsim.kgz._Stepper.step", step)
    cfg = SimConfig(ALPHA, 10.0, 64, dt=0.01, T=1.0, snapshot_stride=10)
    with pytest.raises(BlowupError) as err:
        run_simulation(cfg, gaussian_data(cfg.grid, 0.01))
    assert err.value.reason.startswith(reason)
    assert err.value.t == cfg.dt


@pytest.mark.parametrize(
    "bad",
    [lambda g: gaussian_data(RadialGrid(g.R, g.M + 1), 0.01), lambda g: gaussian_data(g, 0.01)[:2]],
    ids=["other-M", "pair"],
)
def test_run_rejects_misshapen_data(bad, monkeypatch):
    monkeypatch.setattr("kgzsim.kgz._Stepper.step", lambda self, c: pytest.fail("stepped"))
    cfg = SimConfig(ALPHA, 10.0, 64, dt=0.01, T=0.1)
    with pytest.raises(ValueError, match="not a \\(4, M=64\\) state"):
        run_simulation(cfg, bad(cfg.grid))


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.inf)], ids=["nan", "inf", "inf-imag"])
def test_run_rejects_non_finite_data(value, monkeypatch):
    monkeypatch.setattr("kgzsim.kgz._Stepper.step", lambda self, c: pytest.fail("stepped"))
    cfg = SimConfig(ALPHA, 10.0, 64, dt=0.01, T=0.1)
    init = gaussian_data(cfg.grid, 0.01)
    init[3, 17] = value
    with pytest.raises(ValueError, match="non-finite"):
        run_simulation(cfg, init)


def test_snapshot_schedule():
    cfg = SimConfig(ALPHA, 10.0, 64, dt=0.01, T=0.25, snapshot_stride=10)
    assert cfg.snapshot_steps == [0, 10, 20, 25]
    traj = run_simulation(cfg, gaussian_data(cfg.grid, 0.01))
    assert np.array_equal(traj.times, cfg.snapshot_times)
    assert traj.times[-1] == pytest.approx(0.25)


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
    assert not (tmp_path / "manifest.txt").exists()  # the CLI writes the one manifest
    snaps = sorted((tmp_path / "snapshots").glob("U_*.fld"))
    assert len(snaps) == len(traj)
    header = (tmp_path / "diagnostics.csv").read_text().splitlines()[0]
    assert header == "t,energy,u_norm_l2,n_norm_l2"


@pytest.mark.parametrize("M", [128, 256], ids=["fft", "sine-matrix"])
def test_exported_files_hold_the_synthesized_snapshots(tmp_path, M):
    cfg = SimConfig(ALPHA, 40.0, M, dt=1e-2, T=0.1, model="simplified", snapshot_stride=3)
    traj = run_simulation(cfg, gaussian_data(cfg.grid, 0.01))
    export_trajectory(traj, tmp_path)
    for name, stack in (("U", traj.cU), ("N", traj.cN)):
        files = sorted((tmp_path / "snapshots").glob(f"{name}_*.fld"))
        assert [f.name for f in files] == [f"{name}_{i:06d}.fld" for i in range(len(traj))]
        for path, c in zip(files, stack):
            grid, kind, values = read_field(path)
            assert grid == cfg.grid and kind == 0
            assert np.array_equal(values, synthesize(cfg.grid, c))
        rows = np.loadtxt(tmp_path / f"final_{name}.csv", delimiter=",", skiprows=1)
        last = synthesize(cfg.grid, stack[-1])
        assert np.array_equal(rows, np.column_stack([cfg.grid.r, last.real, last.imag]))
