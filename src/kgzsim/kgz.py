"""State, energy and time evolution for the radial Klein-Gordon-Zakharov system.

The second-order system for real fields (u, n) on the ball,

    u_tt - Lap u + u = n u,
    n_tt / alpha^2 - Lap n = -Lap(u^2),

is evolved through its first-order complex form

    U = u - i <D>^{-1} u_t,     N = n - i D^{-1} n_t / alpha,

which satisfies (i d/dt + <D>) U = <D>^{-1}(Re N * Re U) and
(i d/dt + alpha D) N = alpha D (Re U)^2.  The integrator is a Lawson-RK4
scheme in the interaction picture: the linear phases are applied exactly by
the free propagators and classical RK4 acts on the twisted nonlinearity.

``model`` selects the nonlinearity:

* ``"full"``        -- Re N * Re U and (Re U)^2 (the physical system);
* ``"simplified"``  -- N*U and U*conj(U), the reduced system whose
  transformed integral equations are checked by :mod:`kgzsim.normalform`;
* ``"linear"``      -- nonlinearity disabled (diagnostics hook).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .radial import (
    PhysField,
    RadialGrid,
    SpectralField,
    analyze,
    dealias_mask,
    l2_norms,
    map_rows,
    sobolev_norms,
    synthesize,
    to_physical,
    to_spectral,
)

MODELS = ("full", "simplified", "linear")


class BlowupError(RuntimeError):
    """Raised when a simulation produces non-finite values or runaway norms.

    This is a signal about the dynamics, not a programming error; the time of
    failure is carried in ``t``.
    """

    def __init__(self, t: float, reason: str):
        super().__init__(f"blow-up detected at t={t:.6g}: {reason}")
        self.t = t
        self.reason = reason


# ---------------------------------------------------------------------------
# states and configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealState:
    """Second-order variables (u, u_t, n, n_t) at time t; values are real."""

    u: PhysField
    u_dot: PhysField
    n: PhysField
    n_dot: PhysField
    t: float = 0.0

    def __post_init__(self):
        g = self.u.grid.key()
        for f in (self.u_dot, self.n, self.n_dot):
            if f.grid.key() != g:
                raise ValueError("all state fields must share one grid")

    @property
    def grid(self) -> RadialGrid:
        return self.u.grid


@dataclass(frozen=True)
class ComplexState:
    """First-order complex pair (U, N) at time t."""

    U: PhysField
    N: PhysField
    t: float = 0.0

    def __post_init__(self):
        if self.U.grid.key() != self.N.grid.key():
            raise ValueError("U and N must share one grid")
        if not (np.all(np.isfinite(self.U.values)) and np.all(np.isfinite(self.N.values))):
            raise ValueError("state contains non-finite values")

    @property
    def grid(self) -> RadialGrid:
        return self.U.grid


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters.

    alpha is the ion sound speed (positive, bounded away from 1); R, M fix the
    grid; dt and T the time stepping; snapshots are recorded every
    ``snapshot_stride`` steps.
    """

    alpha: float
    R: float
    M: int
    dt: float
    T: float
    model: str = "full"
    dealias: bool = True
    snapshot_stride: int = 1

    def __post_init__(self):
        if not self.alpha > 0 or abs(self.alpha - 1.0) <= 1e-6:
            raise ValueError(f"alpha must be positive with |alpha-1| > 1e-6, got {self.alpha}")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.T < 0:
            raise ValueError("T must be nonnegative")
        if abs(round(self.T / self.dt) * self.dt - self.T) > 1e-9 * self.T:
            raise ValueError(f"T={self.T} must be an integer multiple of dt={self.dt}")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")

    @cached_property
    def grid(self) -> RadialGrid:
        """The config's one grid, so that its cached arrays are built once per config."""
        return RadialGrid(self.R, self.M)

    @property
    def snapshot_steps(self) -> list[int]:
        """Indices of the steps after which a run records a snapshot (0 is the initial state)."""
        n_steps = int(round(self.T / self.dt)) if self.T > 0 else 0
        return [i for i in range(n_steps + 1) if i % self.snapshot_stride == 0 or i == n_steps]

    @property
    def snapshot_times(self) -> NDArray[np.float64]:
        return self.dt * np.asarray(self.snapshot_steps, dtype=float)


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered snapshots of a run plus per-snapshot diagnostics.

    Snapshot i is stored as the sine coefficients ``cU[i]`` and ``cN[i]`` of
    U and N at ``times[i]``; physical fields are built only on request.
    """

    times: NDArray[np.float64]
    cU: NDArray[np.complex128]
    cN: NDArray[np.complex128]
    energies: NDArray[np.float64]
    u_norms: NDArray[np.float64]
    n_norms: NDArray[np.float64]
    config: SimConfig

    def __post_init__(self):
        ts = self.times
        if len(ts) == 0 or ts[0] != 0.0:
            raise ValueError("trajectory must start at t=0")
        if np.any(np.diff(ts) <= 0):
            raise ValueError("snapshot times must be strictly increasing")
        shape = (len(ts), self.config.M)
        if self.cU.shape != shape or self.cN.shape != shape:
            raise ValueError(f"coefficient stacks {self.cU.shape}, {self.cN.shape} do not match {shape}")
        self.cU.flags.writeable = self.cN.flags.writeable = False

    @property
    def states(self) -> tuple[ComplexState, ...]:
        """The snapshots as physical-space states, built on each access."""
        g = self.config.grid
        return tuple(
            ComplexState(to_physical(SpectralField(g, u)), to_physical(SpectralField(g, n)), t=float(t))
            for t, u, n in zip(self.times, self.cU, self.cN)
        )

    def __len__(self) -> int:
        return len(self.times)


# ---------------------------------------------------------------------------
# first-order <-> second-order conversion
# ---------------------------------------------------------------------------

def _rates(g: RadialGrid, alpha: float) -> NDArray[np.float64]:
    """(2, M) frequencies of the pair: <xi> for U, alpha*xi for N."""
    return np.stack([np.sqrt(1.0 + g.xi**2), alpha * g.xi])


def to_first_order(s: RealState, alpha: float) -> ComplexState:
    """U = u - i<D>^{-1} u_t, N = n - i D^{-1} n_t / alpha."""
    g = s.grid
    c = analyze(g, np.stack([f.values for f in (s.u, s.n, s.u_dot, s.n_dot)]))
    U, N = synthesize(g, c[:2] - 1j * c[2:] / _rates(g, alpha))
    return ComplexState(PhysField(g, U), PhysField(g, N), t=s.t)


def from_first_order(c: ComplexState, alpha: float) -> RealState:
    """Inverse of :func:`to_first_order`: u = Re U, u_t = -<D> Im U, etc."""
    g = c.grid
    im = analyze(g, np.stack([c.U.values.imag, c.N.values.imag]))
    u_dot, n_dot = synthesize(g, -_rates(g, alpha) * im)
    u, n = (PhysField(g, f.values.real) for f in (c.U, c.N))
    return RealState(u, PhysField(g, u_dot), n, PhysField(g, n_dot), t=c.t)


# ---------------------------------------------------------------------------
# the Lawson-RK4 stepper
# ---------------------------------------------------------------------------

class _Stepper:
    """Precomputed Lawson-RK4 machinery bound to (grid, dt, alpha, model).

    The state is the (2, M) array c = (cU, cN) of sine coefficients; row 0
    turns at the frequency <xi>, row 1 at alpha*xi.
    """

    def __init__(self, grid: RadialGrid, dt: float, alpha: float, model: str, dealias: bool):
        self.grid = grid
        self.dt = dt
        self.model = model
        lxi = np.sqrt(1.0 + grid.xi**2)
        self.half = np.stack([np.exp(0.5j * dt * lxi), np.exp(0.5j * dt * alpha * grid.xi)])
        self.full = np.stack([np.exp(1j * dt * lxi), np.exp(1j * dt * alpha * grid.xi)])
        self.factor = np.stack([-1j / lxi, -1j * alpha * grid.xi])
        self.mask = dealias_mask(grid) if dealias else None

    def nonlinear(self, c: NDArray) -> NDArray:
        """Twisted nonlinearity G = (-i<D>^{-1} q_u, -i alpha D q_n) of the pair."""
        if self.model == "linear":
            return np.zeros_like(c)
        if self.model == "full":
            c = c.real  # the transform is real, so this synthesizes Re U and Re N exactly
        if self.mask is not None:
            c = c * self.mask
        u, n = synthesize(self.grid, c)
        q = np.stack([n * u, u**2 if self.model == "full" else u * np.conj(u)])
        g = self.factor * analyze(self.grid, q)
        if self.mask is not None:
            g *= self.mask
        return g

    def step(self, c: NDArray) -> NDArray:
        h, half, full = self.dt, self.half, self.full
        a1 = self.nonlinear(c)
        a2 = self.nonlinear(half * (c + 0.5 * h * a1))
        a3 = self.nonlinear(half * c + 0.5 * h * a2)
        a4 = self.nonlinear(full * c + h * half * a3)
        return full * c + (h / 6.0) * (full * a1 + 2.0 * half * (a2 + a3) + a4)


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def energy(s: RealState, alpha: float) -> float:
    """Conserved energy of the full system.

    E = int |u|^2 + |grad u|^2 + |u_t|^2 + (|D^{-1} n_t|^2/alpha^2 + |n|^2)/2
        - n u^2 dx,

    quadratic terms computed spectrally, the cubic term by radial quadrature.
    """
    c = analyze(s.grid, np.stack([f.values for f in (s.u, s.u_dot, s.n, s.n_dot)]))
    return float(_energy(s.grid, alpha, *c))


def _energy(g: RadialGrid, alpha: float, cu: NDArray, cud: NDArray, cn: NDArray, cnd: NDArray) -> NDArray:
    """:func:`energy` along the last axis of the coefficients of u, u_t, n and n_t."""
    quad = sobolev_norms(g, cu, 1.0) ** 2 + l2_norms(g, cud) ** 2
    half = 0.5 * (l2_norms(g, cnd / g.xi) ** 2 / alpha**2 + l2_norms(g, cn) ** 2)
    u, n = synthesize(g, cu.real), synthesize(g, cn.real)
    cubic = 4.0 * np.pi * g.dr * np.sum(g.r**2 * n * u**2, axis=-1)
    return quad + half - cubic


# ---------------------------------------------------------------------------
# simulation driver
# ---------------------------------------------------------------------------

def run_simulation(config: SimConfig, init: RealState) -> Trajectory:
    """Evolve from t=0 to T, recording snapshots every ``snapshot_stride`` steps.

    Deterministic: identical config and data give a bit-identical trajectory.
    Raises :class:`BlowupError` (with the failure time) on non-finite values,
    when ||U||_2 exceeds 1e6 times its initial value, or when ||N||_2 exceeds
    1e6 times the larger initial norm (N may start at zero and is then driven
    by |u|^2).
    """
    if init.grid.key() != config.grid.key():
        raise ValueError("initial data grid does not match config grid")
    g = config.grid
    recorded = config.snapshot_steps
    n_steps = recorded[-1]
    st = _Stepper(g, config.dt, config.alpha, config.model, config.dealias)

    c0 = to_first_order(replace(init, t=0.0), config.alpha)
    c = analyze(g, np.stack([c0.U.values, c0.N.values]))
    u_norm0, n_norm0 = l2_norms(g, c)
    u_norm0 = max(u_norm0, 1e-300)
    limit = 1e6 * np.array([u_norm0, max(n_norm0, u_norm0)])

    cs = np.empty((2, len(recorded), g.M), dtype=np.complex128)
    cs[:, 0] = c
    k = 1
    for i in range(1, n_steps + 1):
        c = st.step(c)
        t = i * config.dt
        if not np.all(np.isfinite(c)):
            raise BlowupError(t, "non-finite values in state")
        over = l2_norms(g, c) > limit
        if over[0]:
            raise BlowupError(t, "||U||_2 exceeded 1e6 x initial")
        if over[1]:
            raise BlowupError(t, "||N||_2 exceeded 1e6 x initial max(||U||_2, ||N||_2)")
        if i == recorded[k]:
            cs[:, k] = c
            k += 1

    # u, u_t, n, n_t have coefficients Re cU, -<xi> Im cU, Re cN, -alpha xi Im cN
    # because the transform is real; chunks of rows keep the temporaries small
    cU, cN = cs
    rates = _rates(g, config.alpha)
    energies = map_rows(
        lambda u, n: _energy(g, config.alpha, u.real, -rates[0] * u.imag, n.real, -rates[1] * n.imag), g.M, cU, cN
    )
    return Trajectory(config.snapshot_times, cU, cN, energies, l2_norms(g, cU), l2_norms(g, cN), config)


# ---------------------------------------------------------------------------
# independent finite-difference oracle
# ---------------------------------------------------------------------------

def oracle_evolve(
    s: RealState,
    alpha: float,
    T: float,
    refine: int = 4,
    dt: float | None = None,
    safety: float = 0.9,
) -> RealState:
    """Second-order finite-difference / leapfrog reference solution.

    Works on w = r*f (so the radial Laplacian is a plain second difference
    with Dirichlet w(0) = w(R) = 0) on a grid refined by ``refine`` relative
    to the input state, and returns the state at t + T subsampled back onto
    the original grid.  Rejects time steps violating dt <= dr/max(1, alpha).
    """
    g = s.grid
    M_fd = refine * (g.M + 1) - 1
    dr = g.R / (M_fd + 1)
    r = dr * np.arange(1, M_fd + 1)
    dt_max = dr / max(1.0, alpha)
    if dt is not None and dt > dt_max:
        raise ValueError(f"CFL violation: dt={dt} > dr/max(1,alpha)={dt_max:.3e}")
    if dt is None:
        dt = safety * dt_max
    n_steps = max(1, math.ceil(T / dt))
    dt = T / n_steps

    def sample(f: PhysField) -> NDArray:
        return (r * to_spectral(f).evaluate_at(r)).real

    wu = sample(s.u)
    wud = sample(s.u_dot)
    wn = sample(s.n)
    wnd = sample(s.n_dot)

    def lap(w: NDArray) -> NDArray:
        out = np.empty_like(w)
        out[1:-1] = w[2:] - 2.0 * w[1:-1] + w[:-2]
        out[0] = w[1] - 2.0 * w[0]           # w(0) = 0
        out[-1] = w[-2] - 2.0 * w[-1]        # w(R) = 0
        return out / dr**2

    def accel(wu_, wn_):
        n_over = wn_ / r
        a_u = lap(wu_) - wu_ + n_over * wu_
        v = wu_ * wu_ / r                    # r * u^2
        a_n = alpha**2 * (lap(wn_) - lap(v))
        return a_u, a_n

    a_u, a_n = accel(wu, wn)
    wu_prev, wn_prev = wu, wn
    wu = wu + dt * wud + 0.5 * dt**2 * a_u
    wn = wn + dt * wnd + 0.5 * dt**2 * a_n
    for _ in range(n_steps - 1):
        a_u, a_n = accel(wu, wn)
        wu, wu_prev = 2.0 * wu - wu_prev + dt**2 * a_u, wu
        wn, wn_prev = 2.0 * wn - wn_prev + dt**2 * a_n, wn

    a_u, a_n = accel(wu, wn)
    wud = (wu - wu_prev) / dt + 0.5 * dt * a_u
    wnd = (wn - wn_prev) / dt + 0.5 * dt * a_n

    idx = refine * np.arange(1, g.M + 1) - 1
    r0 = g.r

    def back(w: NDArray) -> PhysField:
        return PhysField(g, (w[idx] / r0).astype(np.complex128))

    return RealState(back(wu), back(wud), back(wn), back(wnd), t=s.t + T)


# ---------------------------------------------------------------------------
# canonical initial data
# ---------------------------------------------------------------------------

def gaussian_data(grid: RadialGrid, eps0: float, width: float = 1.0) -> RealState:
    """Small Gaussian bump in u and n with zero velocities."""
    prof = eps0 * np.exp(-((grid.r / width) ** 2))
    zero = PhysField(grid, np.zeros(grid.M, dtype=np.complex128))
    bump = PhysField(grid, prof.astype(np.complex128))
    return RealState(bump, zero, bump, zero, t=0.0)
