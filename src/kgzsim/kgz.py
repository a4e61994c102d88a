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
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .radial import RadialGrid, _dst1, analyze, dealias_mask, l2_norms, map_rows, sobolev_norms, synthesize

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
# configuration and trajectories
# ---------------------------------------------------------------------------
#
# A second-order state is the (4, M) complex128 array of the samples of
# (u, u_t, n, n_t) on a grid, with zero imaginary parts; a first-order state
# is the (2, M) array (U, N), as samples or as sine coefficients.

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
        if not (math.isfinite(self.alpha) and self.alpha > 0) or abs(self.alpha - 1.0) <= 1e-6:
            raise ValueError(f"alpha must be positive and finite with |alpha-1| > 1e-6, got {self.alpha}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.T) and self.T >= 0):
            raise ValueError(f"T must be nonnegative and finite, got {self.T}")
        if abs(round(self.T / self.dt) * self.dt - self.T) > 1e-9 * self.T:
            raise ValueError(f"T={self.T} must be an integer multiple of dt={self.dt}")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")
        self.grid  # built here, so that the grid's checks on R and M run with the ones above

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
    U and N at ``times[i]``; ``synthesize(config.grid, cU[i])`` gives its samples.
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

    def __len__(self) -> int:
        return len(self.times)


# ---------------------------------------------------------------------------
# first-order <-> second-order conversion
# ---------------------------------------------------------------------------

def _rates(g: RadialGrid, alpha: float) -> NDArray[np.float64]:
    """(2, M) frequencies of the pair: <xi> for U, alpha*xi for N."""
    return np.stack([g.lxi, alpha * g.xi])


def to_first_order(grid: RadialGrid, s: NDArray, alpha: float) -> NDArray:
    """(2, M) samples of U = u - i<D>^{-1} u_t, N = n - i D^{-1} n_t / alpha from (4, M) (u, u_t, n, n_t)."""
    c = analyze(grid, s[[0, 2, 1, 3]])
    return synthesize(grid, c[:2] - 1j * c[2:] / _rates(grid, alpha))


def from_first_order(grid: RadialGrid, c: NDArray, alpha: float) -> NDArray:
    """Inverse of :func:`to_first_order`: u = Re U, u_t = -<D> Im U, etc."""
    im = analyze(grid, c.imag)
    u_dot, n_dot = synthesize(grid, -_rates(grid, alpha) * im)
    return np.array([c[0].real, u_dot, c[1].real, n_dot], dtype=np.complex128)


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
        xi, lxi = grid.xi, grid.lxi
        self.half = np.stack([np.exp(0.5j * dt * lxi), np.exp(0.5j * dt * alpha * xi)])
        self.full = np.stack([np.exp(1j * dt * lxi), np.exp(1j * dt * alpha * xi)])
        # a stage is synthesize -> product -> analyze with the scalings folded
        # into three arrays: synthesize's dxi/(4 pi^2 r) enters each product
        # twice and analyze's r once, and the mask acts on both sides
        mask = dealias_mask(grid) if dealias else 1.0
        self.pre = xi * mask
        self.mid = (grid.dxi / (4.0 * np.pi**2)) ** 2 / grid.r
        self.post = np.stack([-1j / lxi, -1j * alpha * xi]) * mask * (2.0 * np.pi * grid.dr / xi)

    def nonlinear(self, c: NDArray) -> NDArray:
        """Twisted nonlinearity G = (-i<D>^{-1} q_u, -i alpha D q_n) of the pair."""
        if self.model == "linear":
            return np.zeros_like(c)
        if self.model == "full":
            c = c.real  # the transform is real, so this synthesizes Re U and Re N exactly
        u, n = _dst1(self.grid, self.pre * c)
        q = np.stack([n * u, u**2 if self.model == "full" else u * np.conj(u)])
        q *= self.mid
        return self.post * _dst1(self.grid, q)

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

def energy(grid: RadialGrid, s: NDArray, alpha: float) -> float:
    """Conserved energy of the full system in the (4, M) state (u, u_t, n, n_t).

    E = int |u|^2 + |grad u|^2 + |u_t|^2 + (|D^{-1} n_t|^2/alpha^2 + |n|^2)/2
        - n u^2 dx,

    quadratic terms computed spectrally, the cubic term by radial quadrature.
    """
    return float(_energy(grid, alpha, *analyze(grid, s)))


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

def run_simulation(config: SimConfig, init: NDArray) -> Trajectory:
    """Evolve the (4, M) state ``init`` on ``config.grid`` from t=0 to T, recording
    snapshots every ``snapshot_stride`` steps.

    Deterministic: identical config and data give a bit-identical trajectory.
    Raises ValueError before the first step for data of another shape or with
    a non-finite value.  Raises :class:`BlowupError` (with the failure time) on
    non-finite values, when ||U||_2 exceeds 1e6 times its initial value, or
    when ||N||_2 exceeds 1e6 times the larger initial norm (N may start at zero
    and is then driven by |u|^2).
    """
    if np.shape(init) != (4, config.M):
        raise ValueError(f"initial data of shape {np.shape(init)} is not a (4, M={config.M}) state")
    if not np.all(np.isfinite(init)):
        raise ValueError("initial data contains non-finite values")
    g = config.grid
    recorded = config.snapshot_steps
    n_steps = recorded[-1]
    st = _Stepper(g, config.dt, config.alpha, config.model, config.dealias)

    c = analyze(g, to_first_order(g, init, config.alpha))
    u_norm0, n_norm0 = l2_norms(g, c)
    u_norm0 = max(u_norm0, 1e-300)
    limit = 1e6 * np.array([u_norm0, max(n_norm0, u_norm0)])

    # the guard compares squared L^2 norms, one weighted sum over the (re, im)
    # view of c, with the squared limits held below inf: a NaN, an inf or an
    # overflowed sum fails the comparison, and only then is c searched for a
    # non-finite value to name the fault
    weights = np.repeat(g.xi**2 * (g.dxi / (2.0 * np.pi**2)), 2)
    limit_u, limit_n = np.minimum(limit**2, np.finfo(float).max).tolist()

    cs = np.empty((2, len(recorded), g.M), dtype=np.complex128)
    cs[:, 0] = c
    k = 1
    for i in range(1, n_steps + 1):
        c = st.step(c)
        t = i * config.dt
        sq_u, sq_n = ((c.view(np.float64) ** 2) @ weights).tolist()
        if not (sq_u <= limit_u and sq_n <= limit_n):
            if not np.all(np.isfinite(c)):
                raise BlowupError(t, "non-finite values in state")
            if not sq_u <= limit_u:
                raise BlowupError(t, "||U||_2 exceeded 1e6 x initial")
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
# canonical initial data
# ---------------------------------------------------------------------------

def gaussian_data(grid: RadialGrid, eps0: float, width: float = 1.0) -> NDArray:
    """(4, M) state: a small Gaussian bump in u and n with zero velocities."""
    if not math.isfinite(eps0):
        raise ValueError(f"amplitude eps0 must be finite, got {eps0}")
    if not (math.isfinite(width) and width > 0):
        raise ValueError(f"width must be positive and finite, got {width}")
    prof = eps0 * np.exp(-((grid.r / width) ** 2))
    s = np.zeros((4, grid.M), dtype=np.complex128)
    s[[0, 2]] = prof
    return s
