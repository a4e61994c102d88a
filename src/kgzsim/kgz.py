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

import numpy as np
from numpy.typing import NDArray

from .radial import (
    PhysField,
    RadialGrid,
    SpectralField,
    analyze,
    dealias_mask,
    spectral_l2,
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

    @property
    def grid(self) -> RadialGrid:
        return RadialGrid(self.R, self.M)


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

def to_first_order(s: RealState, alpha: float) -> ComplexState:
    """U = u - i<D>^{-1} u_t, N = n - i D^{-1} n_t / alpha."""
    g = s.grid
    lxi = np.sqrt(1.0 + g.xi**2)
    cu = to_spectral(s.u).coeffs
    cud = to_spectral(s.u_dot).coeffs
    cn = to_spectral(s.n).coeffs
    cnd = to_spectral(s.n_dot).coeffs
    U = to_physical(SpectralField(g, cu - 1j * cud / lxi))
    N = to_physical(SpectralField(g, cn - 1j * cnd / (alpha * g.xi)))
    return ComplexState(U, N, t=s.t)


def from_first_order(c: ComplexState, alpha: float) -> RealState:
    """Inverse of :func:`to_first_order`: u = Re U, u_t = -<D> Im U, etc."""
    g = c.grid
    lxi = np.sqrt(1.0 + g.xi**2)
    u = c.U.real_field()
    n = c.N.real_field()
    im_u = to_spectral(c.U.imag_field()).coeffs
    im_n = to_spectral(c.N.imag_field()).coeffs
    u_dot = to_physical(SpectralField(g, -lxi * im_u))
    n_dot = to_physical(SpectralField(g, -alpha * g.xi * im_n))
    return RealState(u, u_dot, n, n_dot, t=c.t)


# ---------------------------------------------------------------------------
# right-hand side and the Lawson-RK4 stepper
# ---------------------------------------------------------------------------

class _Stepper:
    """Precomputed Lawson-RK4 machinery bound to (grid, dt, alpha, model)."""

    def __init__(self, grid: RadialGrid, dt: float, alpha: float, model: str, dealias: bool):
        self.grid = grid
        self.dt = dt
        self.alpha = alpha
        self.model = model
        self.dealias = dealias
        xi = grid.xi
        self.xi = xi
        self.lxi = np.sqrt(1.0 + xi**2)
        self.half_u = np.exp(0.5j * dt * self.lxi)
        self.half_n = np.exp(0.5j * dt * alpha * xi)
        self.full_u = np.exp(1j * dt * self.lxi)
        self.full_n = np.exp(1j * dt * alpha * xi)
        self.mask = dealias_mask(grid) if dealias else None

    def nonlinear(self, cU: NDArray, cN: NDArray) -> tuple[NDArray, NDArray]:
        """Twisted nonlinearity G = (-i<D>^{-1} q_u, -i alpha D q_n)."""
        if self.model == "linear":
            z = np.zeros_like(cU)
            return z, z.copy()
        if self.mask is not None:
            cU = cU * self.mask
            cN = cN * self.mask
        U = synthesize(self.grid, cU)
        N = synthesize(self.grid, cN)
        if self.model == "full":
            q_u = (N.real * U.real).astype(np.complex128)
            q_n = (U.real**2).astype(np.complex128)
        else:  # simplified
            q_u = N * U
            q_n = U * np.conj(U)
        gU = (-1j / self.lxi) * analyze(self.grid, q_u)
        gN = (-1j * self.alpha * self.xi) * analyze(self.grid, q_n)
        if self.mask is not None:
            gU *= self.mask
            gN *= self.mask
        return gU, gN

    def step(self, cU: NDArray, cN: NDArray) -> tuple[NDArray, NDArray]:
        h = self.dt
        a1u, a1n = self.nonlinear(cU, cN)
        u2 = self.half_u * (cU + 0.5 * h * a1u)
        n2 = self.half_n * (cN + 0.5 * h * a1n)
        a2u, a2n = self.nonlinear(u2, n2)
        u3 = self.half_u * cU + 0.5 * h * a2u
        n3 = self.half_n * cN + 0.5 * h * a2n
        a3u, a3n = self.nonlinear(u3, n3)
        u4 = self.full_u * cU + h * self.half_u * a3u
        n4 = self.full_n * cN + h * self.half_n * a3n
        a4u, a4n = self.nonlinear(u4, n4)
        new_u = self.full_u * cU + (h / 6.0) * (
            self.full_u * a1u + 2.0 * self.half_u * (a2u + a3u) + a4u
        )
        new_n = self.full_n * cN + (h / 6.0) * (
            self.full_n * a1n + 2.0 * self.half_n * (a2n + a3n) + a4n
        )
        return new_u, new_n


def rhs(c: ComplexState, alpha: float, model: str = "full", dealias: bool = False) -> tuple[PhysField, PhysField]:
    """Time derivative (dU/dt, dN/dt) of the first-order system."""
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}")
    g = c.grid
    st = _Stepper(g, 1.0, alpha, model, dealias)
    cU = to_spectral(c.U).coeffs
    cN = to_spectral(c.N).coeffs
    gU, gN = st.nonlinear(cU, cN)
    dU = 1j * st.lxi * cU + gU
    dN = 1j * alpha * g.xi * cN + gN
    return to_physical(SpectralField(g, dU)), to_physical(SpectralField(g, dN))


def step(c: ComplexState, dt: float, config: SimConfig) -> ComplexState:
    """One Lawson-RK4 step.  Exact for the linear flow; 4th order otherwise."""
    if dt > config.dt * (1.0 + 1e-12):
        raise ValueError(f"step size {dt} exceeds configured dt={config.dt}")
    st = _Stepper(c.grid, dt, config.alpha, config.model, config.dealias)
    cU, cN = st.step(to_spectral(c.U).coeffs, to_spectral(c.N).coeffs)
    t_new = c.t + dt
    if not (np.all(np.isfinite(cU)) and np.all(np.isfinite(cN))):
        raise BlowupError(t_new, "non-finite values in state")
    return ComplexState(
        to_physical(SpectralField(c.grid, cU)),
        to_physical(SpectralField(c.grid, cN)),
        t=t_new,
    )


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def energy(s: RealState, alpha: float) -> float:
    """Conserved energy of the full system.

    E = int |u|^2 + |grad u|^2 + |u_t|^2 + (|D^{-1} n_t|^2/alpha^2 + |n|^2)/2
        - n u^2 dx,

    quadratic terms computed spectrally, the cubic term by radial quadrature.
    """
    cu, cud, cn, cnd = (to_spectral(f).coeffs for f in (s.u, s.u_dot, s.n, s.n_dot))
    return _energy(s.grid, alpha, cu, cud, cn, cnd)


def _energy(g: RadialGrid, alpha: float, cu: NDArray, cud: NDArray, cn: NDArray, cnd: NDArray) -> float:
    """:func:`energy` from the coefficients of u, u_t, n and n_t."""

    def l2sq(arr):
        return float(np.sum(g.xi**2 * np.abs(arr) ** 2) * g.dxi / (2.0 * np.pi**2))

    quad = l2sq(cu) + l2sq(g.xi * cu) + l2sq(cud)
    half = 0.5 * (l2sq(cnd / g.xi) / alpha**2 + l2sq(cn))
    u, n = synthesize(g, cu.real), synthesize(g, cn.real)
    cubic = 4.0 * np.pi * g.dr * float(np.sum(g.r**2 * n * u**2))
    return quad + half - cubic


# ---------------------------------------------------------------------------
# simulation driver
# ---------------------------------------------------------------------------

def run_simulation(config: SimConfig, init: RealState) -> Trajectory:
    """Evolve from t=0 to T, recording snapshots every ``snapshot_stride`` steps.

    Deterministic: identical config and data give a bit-identical trajectory.
    Raises :class:`BlowupError` (with the failure time) on non-finite values
    or when ||U||_2 exceeds 1e6 times its initial value.
    """
    if init.grid.key() != config.grid.key():
        raise ValueError("initial data grid does not match config grid")
    g = config.grid
    n_steps = int(round(config.T / config.dt)) if config.T > 0 else 0
    st = _Stepper(g, config.dt, config.alpha, config.model, config.dealias)

    c0 = to_first_order(replace(init, t=0.0), config.alpha)
    cU = to_spectral(c0.U).coeffs
    cN = to_spectral(c0.N).coeffs
    norm0 = max(spectral_l2(SpectralField(g, cU)), 1e-300)

    recorded = [i for i in range(n_steps + 1) if i % config.snapshot_stride == 0 or i == n_steps]
    cUs = np.empty((len(recorded), g.M), dtype=np.complex128)
    cNs = np.empty_like(cUs)
    cUs[0], cNs[0] = cU, cN
    k = 1
    for i in range(1, n_steps + 1):
        cU, cN = st.step(cU, cN)
        t = i * config.dt
        if not (np.all(np.isfinite(cU)) and np.all(np.isfinite(cN))):
            raise BlowupError(t, "non-finite values in state")
        if spectral_l2(SpectralField(g, cU)) > 1e6 * norm0:
            raise BlowupError(t, "||U||_2 exceeded 1e6 x initial")
        if i == recorded[k]:
            cUs[k], cNs[k] = cU, cN
            k += 1

    # u, u_t, n, n_t have coefficients Re cU, -<xi> Im cU, Re cN, -alpha xi Im cN
    # because the transform is real; one snapshot at a time keeps temporaries small
    a = config.alpha
    energies = [_energy(g, a, u.real, -st.lxi * u.imag, n.real, -a * g.xi * n.imag) for u, n in zip(cUs, cNs)]
    u_norms = [spectral_l2(SpectralField(g, u)) for u in cUs]
    n_norms = [spectral_l2(SpectralField(g, n)) for n in cNs]
    times = config.dt * np.asarray(recorded, dtype=float)
    return Trajectory(times, cUs, cNs, np.asarray(energies), np.asarray(u_norms), np.asarray(n_norms), config)


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
