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
# A run's state, from its initial data to every snapshot, is the (2, M)
# complex128 array of the sine coefficients of (U, N).

def check_alpha(alpha: float) -> None:
    """ValueError unless the speed ratio alpha is positive, with a finite square, and |alpha-1| > 1e-6:
    the energy, the free flows and the resonant radius 2 alpha/|1 - alpha^2| all need it so."""
    if not (math.isfinite(alpha * alpha) and alpha > 0) or abs(alpha - 1.0) <= 1e-6:
        raise ValueError(f"alpha must be positive and finite, with |alpha-1| > 1e-6 and a finite square, got {alpha}")


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters.

    alpha is the ion sound speed (see :func:`check_alpha`); R, M fix the
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
        check_alpha(self.alpha)
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.T) and self.T >= 0):
            raise ValueError(f"T must be nonnegative and finite, got {self.T}")
        if not math.isfinite(self.T / self.dt):
            raise ValueError(f"T / dt must be finite, got T={self.T}, dt={self.dt}")
        if abs(round(self.T / self.dt) * self.dt - self.T) > 1e-9 * self.T:
            raise ValueError(f"T={self.T} must be an integer multiple of dt={self.dt}")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")
        self.grid  # built here, so that the grid's checks on R and M run with the ones above
        # a run records steps 0, s, 2s, ... below n, and n: counted here, never listed, so that a
        # schedule whose (2, snapshots, M) complex128 stack no array can address is refused at once
        n, s = round(self.T / self.dt), self.snapshot_stride
        if 32 * ((n + s - 1) // s + 1) * self.M > np.iinfo(np.intp).max:
            raise ValueError(f"{n:.3g} steps at stride {s}: more (2, M={self.M}) snapshots than an array can address")

    @cached_property
    def grid(self) -> RadialGrid:
        """The config's one grid, so that its cached arrays are built once per config."""
        return RadialGrid(self.R, self.M)

    @property
    def snapshot_steps(self) -> list[int]:
        """Indices of the steps after which a run records a snapshot (0 is the initial state):
        every ``snapshot_stride``-th step, and the last."""
        n = round(self.T / self.dt)
        return list(range(0, n, self.snapshot_stride)) + [n]

    @property
    def snapshot_times(self) -> NDArray[np.float64]:
        return self.dt * np.asarray(self.snapshot_steps, dtype=float)


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered snapshots of a run.

    Snapshot i is stored as the sine coefficients ``cU[i]`` and ``cN[i]`` of
    U and N at ``times[i]``; ``synthesize(config.grid, cU[i])`` gives its samples.
    The times are the config's ``snapshot_times``, so that a check on the
    snapshots can run on the config before the run; the energies are computed
    on first read.
    """

    config: SimConfig
    cU: NDArray[np.complex128]
    cN: NDArray[np.complex128]

    def __post_init__(self):
        shape = (len(self.config.snapshot_steps), self.config.M)
        if self.cU.shape != shape or self.cN.shape != shape:
            raise ValueError(f"coefficient stacks {self.cU.shape}, {self.cN.shape} do not match {shape}")
        self.cU.flags.writeable = self.cN.flags.writeable = False

    @cached_property
    def times(self) -> NDArray[np.float64]:
        ts = self.config.snapshot_times
        ts.flags.writeable = False
        return ts

    @cached_property
    def energies(self) -> NDArray[np.float64]:
        """The energy of each snapshot, in chunks of rows that keep the temporaries small."""
        g = self.config.grid
        es = map_rows(lambda u, n: energy(g, u, n, self.config.alpha), g.M, self.cU, self.cN)
        es.flags.writeable = False
        return es

    def __len__(self) -> int:
        return len(self.cU)


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
        self.dt_half, self.two_half = dt * self.half, 2.0 * self.half
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
        q = np.empty((2, *u.shape), dtype=u.dtype)
        np.multiply(n, u, out=q[0])
        np.multiply(u, u if self.model == "full" else np.conjugate(u, out=q[1]), out=q[1])
        q *= self.mid
        return self.post * _dst1(self.grid, q)

    def step(self, c: NDArray) -> NDArray:
        # full*c + h/6*(full*a1 + 2half*(a2 + a3) + a4), in place with each multiply's left operand
        # kept, so bit for bit that expression: numpy's complex multiply is not bitwise commutative
        h2, half, fc = 0.5 * self.dt, self.half, self.full * c
        a1 = self.nonlinear(c)
        x = h2 * a1
        a2 = self.nonlinear(np.multiply(half, np.add(c, x, out=x), out=x))
        a3 = self.nonlinear(np.add(half * c, np.multiply(h2, a2, out=x), out=x))
        a4 = self.nonlinear(np.add(fc, np.multiply(self.dt_half, a3, out=x), out=x))
        np.multiply(self.full, a1, out=a1)
        a1 += np.multiply(self.two_half, np.add(a2, a3, out=a2), out=a2)
        a1 += a4
        return np.add(fc, np.multiply(self.dt / 6.0, a1, out=a1), out=fc)


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def energy(grid: RadialGrid, cU: NDArray, cN: NDArray, alpha: float) -> NDArray:
    """Conserved energy of the full system, one per row of the coefficients of U and N.

    E = int |u|^2 + |grad u|^2 + |u_t|^2 + (|D^{-1} n_t|^2/alpha^2 + |n|^2)/2
        - n u^2 dx,

    quadratic terms computed spectrally, the cubic term by radial quadrature.
    The transform is real, so the coefficients of u, u_t, n and n_t are
    Re cU, -<xi> Im cU, Re cN and -alpha xi Im cN.
    """
    xi = grid.xi
    cu, cud, cn, cnd = cU.real, -grid.lxi * cU.imag, cN.real, -(alpha * xi) * cN.imag
    quad = sobolev_norms(grid, cu, 1.0) ** 2 + l2_norms(grid, cud) ** 2
    half = 0.5 * (l2_norms(grid, cnd / xi) ** 2 / alpha**2 + l2_norms(grid, cn) ** 2)
    u, n = synthesize(grid, cu), synthesize(grid, cn)
    cubic = 4.0 * np.pi * grid.dr * np.sum(grid.r**2 * n * u**2, axis=-1)
    return quad + half - cubic


# ---------------------------------------------------------------------------
# simulation driver
# ---------------------------------------------------------------------------

def run_simulation(config: SimConfig, init: NDArray) -> Trajectory:
    """Evolve the (2, M) coefficients ``init`` of (U, N) on ``config.grid`` from t=0 to T,
    recording snapshots every ``snapshot_stride`` steps.

    Deterministic: identical config and data give a bit-identical trajectory.
    Raises ValueError before the first step for data of another shape or with
    a non-finite value.  Raises :class:`BlowupError` (with the failure time) on
    non-finite values, when ||U||_2 exceeds 1e6 times its initial value, or
    when ||N||_2 exceeds 1e6 times the larger initial norm (N may start at zero
    and is then driven by |u|^2).
    """
    if np.shape(init) != (2, config.M):
        raise ValueError(f"initial data of shape {np.shape(init)} is not a (2, M={config.M}) state")
    if not np.all(np.isfinite(init)):
        raise ValueError("initial data contains non-finite values")
    g = config.grid
    recorded = config.snapshot_steps
    n_steps = recorded[-1]
    st = _Stepper(g, config.dt, config.alpha, config.model, config.dealias)

    c = np.asarray(init, dtype=np.complex128)
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

    return Trajectory(config, *cs)


# ---------------------------------------------------------------------------
# canonical initial data
# ---------------------------------------------------------------------------

def gaussian_data(grid: RadialGrid, eps0: float, width: float = 1.0) -> NDArray:
    """(2, M) coefficients of (U, N) at t = 0 for a small Gaussian bump in u and n with zero
    velocities, so that U = u and N = n."""
    if not math.isfinite(eps0):
        raise ValueError(f"amplitude eps0 must be finite, got {eps0}")
    if not (math.isfinite(width) and width > 0):
        raise ValueError(f"width must be positive and finite, got {width}")
    prof = eps0 * np.exp(-((grid.r / width) ** 2))
    return analyze(grid, np.array([prof, prof], dtype=np.complex128))
