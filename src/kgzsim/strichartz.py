"""Space-time norms, dispersive-decay scans, and scattering diagnostics.

Radial symmetry enlarges the admissible exponent range for space-time
integrability of the free Klein-Gordon and wave flows.  This module exposes
the admissibility test and regularity exponent of a pair (``beta_exponent``), discrete
L^q_t L^r_x norms of sampled free flows, dyadic scaling scans that fit the
decay exponent of frequency-localized free waves, an explicit
frequency-indicator witness showing the fitted exponents are not
improvable, the pullback profiles V(t) = K(-t) U(t), W(t) = W_alpha(-t) N(t)
whose Cauchy convergence is the numerical face of scattering, and the
resolution-space norm of a trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from . import export
from .kgz import Trajectory
from .radial import (
    RadialGrid,
    besov_norms,
    chi_k,
    chi_le,
    kg_propagate,
    l2_norms,
    lebesgue_norms,
    map_rows,
    random_band_limited,
    sobolev_norms,
    synthesize,
    wave_propagate,
)


class GuardError(ValueError):
    """A finite-domain horizon or sampling-density guard was violated."""


# ---------------------------------------------------------------------------
# admissibility and regularity exponents
# ---------------------------------------------------------------------------

class BetaValue(NamedTuple):
    value: float
    eps_augmented: bool  # borderline case, exponent is value + (arbitrarily small)


def beta_exponent(q: float, r: float, flavor: str) -> BetaValue:
    """Regularity exponent of the radial space-time estimate for (q, r).

    ``flavor="schrodinger"`` (high-frequency Klein-Gordon): requires
    2/q + 5/r < 5/2 or (q, r) = (inf, 2) and returns beta with the estimate in
    the Besov space of regularity -beta:

        beta = 3/2 - 3/r - 1/q            if 1/q + 2/r < 1 or (q,r) = (inf,2),
        beta = 1/r + 1/q - 1/2            if 1/q + 2/r > 1 (and admissible),
        beta = (1/2 - 1/r)+               on the borderline 1/q + 2/r = 1
                                          (eps_augmented marker set).

    ``flavor="wave"``: requires 1/q + 2/r < 1 or (q, r) = (inf, 2) and returns
    the Besov regularity 1/q + 3/r - 3/2 of the estimate directly.
    """
    if flavor not in ("schrodinger", "wave"):
        raise ValueError(f"flavor must be 'schrodinger' or 'wave', got {flavor!r}")
    if not (2 <= q <= np.inf and 2 <= r <= np.inf):
        raise ValueError(f"exponents must lie in [2, inf], got (q, r)=({q}, {r})")
    iq = 0.0 if np.isinf(q) else 1.0 / q
    ir = 0.0 if np.isinf(r) else 1.0 / r
    energy_pair = np.isinf(q) and r == 2

    if flavor == "wave":
        if not energy_pair and not iq + 2.0 * ir < 1.0:
            raise ValueError(
                f"(q, r)=({q}, {r}) is not wave-admissible: 1/q + 2/r = {iq + 2 * ir:.6g} >= 1"
            )
        return BetaValue(iq + 3.0 * ir - 1.5, False)

    if not energy_pair and not 2.0 * iq + 5.0 * ir < 2.5:
        raise ValueError(
            f"(q, r)=({q}, {r}) is not admissible: 2/q + 5/r = {2 * iq + 5 * ir:.6g} >= 5/2"
        )
    line = iq + 2.0 * ir
    if energy_pair or line < 1.0:
        return BetaValue(1.5 - 3.0 * ir - iq, False)
    if line > 1.0:
        return BetaValue(ir + iq - 0.5, False)
    return BetaValue(0.5 - ir, True)


# ---------------------------------------------------------------------------
# space-time norms
# ---------------------------------------------------------------------------

def measure_spacetime_norm(grid: RadialGrid, coeffs: NDArray, times: NDArray, q: float, r: float) -> float:
    """Discrete L^q_t L^r_x norm of an (S, M) coefficient stack sampled at ``times``.

    The spatial norm is the L^r norm of each row's samples; time integration
    uses the trapezoid rule on the sample times (supremum for q = inf).
    """
    vals = map_rows(lambda c: lebesgue_norms(grid, synthesize(grid, c), r), grid.M, coeffs)
    if np.isinf(q):
        return float(vals.max())
    return float(np.trapezoid(vals**q, times) ** (1.0 / q))


# ---------------------------------------------------------------------------
# dyadic scaling scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanTable:
    """Per-block space-time norms of a frequency-localized free flow."""

    flavor: str
    q: float
    r: float
    ks: tuple[int, ...]
    norms: tuple[float, ...]
    slope: float
    intercept: float
    residuals: tuple[float, ...]
    predicted_slope: float
    warning: str | None = None

    def write_csv(self, path) -> None:
        """Per-block rows, then the fit and any warning as ``# name,value`` rows."""
        rows = [(k, n, math.log2(n), res) for k, n, res in zip(self.ks, self.norms, self.residuals)]
        rows += [("# slope", self.slope), ("# predicted_slope", self.predicted_slope)]
        if self.warning:
            rows.append(("# warning", self.warning))
        export.write_csv(path, ["k", "norm", "log2_norm", "fit_residual"], rows)

    def plot_series(self) -> list[tuple[float, float]]:
        return [(float(k), math.log2(n)) for k, n in zip(self.ks, self.norms)]


def strichartz_scan(
    grid: RadialGrid,
    ks: Sequence[int],
    q: float,
    r: float,
    flavor: str,
    window: tuple[float, float],
    alpha: float = 1.0,
    n_samples: int = 128,
    seed: int = 7,
    profile: NDArray | None = None,
) -> ScanTable:
    """Fit log2 ||free flow of P_k phi||_{L^q_t L^r_x} against k.

    phi is a fixed random radial L^2 profile (white coefficients, fixed seed)
    unless its (M,) coefficients are given; each block P_k phi is normalized
    to unit L^2 before evolving.  A finite-domain reflection guard attaches a
    warning when T * speed > R/2.
    """
    kg = flavor == "schrodinger"
    beta = beta_exponent(q, r, flavor).value
    check_samples(n_samples)
    if not all(map(math.isfinite, window)):
        raise ValueError(f"window {window} is not finite")
    # per-block norm growth 2^(k * slope) for unit-L^2 blocks: the estimate's
    # Besov weight contributes 2^(-s k) with s the stored regularity
    predicted = beta if kg else -beta
    speed = 1.0 if kg else alpha
    warning = None
    if _past_horizon(window[1], speed, grid.R):
        warning = (
            f"window end {window[1]} times speed {speed} exceeds R/2 = {grid.R / 2}; "
            "boundary reflections may contaminate the fit"
        )
    if profile is None:
        profile = random_band_limited(grid, np.random.default_rng(seed))
    ts = np.linspace(*window, n_samples)
    norms = []
    for k in ks:
        block = profile * chi_k(grid.xi, k)
        nb = l2_norms(grid, block)
        if nb == 0.0:
            raise ValueError(f"profile has no content in dyadic block {k}")
        flow = kg_propagate(grid, block / nb, ts) if kg else wave_propagate(grid, block / nb, ts, alpha)
        norms.append(measure_spacetime_norm(grid, flow, ts, q, r))
    ks_arr = np.asarray(ks, dtype=float)
    logs = np.log2(np.asarray(norms))
    slope, intercept = np.polyfit(ks_arr, logs, 1)
    residuals = logs - (slope * ks_arr + intercept)
    return ScanTable(
        flavor,
        q,
        r,
        tuple(int(k) for k in ks),
        tuple(float(n) for n in norms),
        float(slope),
        float(intercept),
        tuple(float(x) for x in residuals),
        float(predicted),
        warning,
    )


# ---------------------------------------------------------------------------
# optimality witness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessReport:
    k: int
    q: float
    r: float
    measured: float
    scale_constant: float
    phi_norm: float
    window: tuple[float, float]

    @property
    def ratio(self) -> float:
        return self.measured / (self.scale_constant * self.phi_norm)


def check_samples(n: int) -> None:
    """ValueError unless there are at least two sample times: a one-point trapezoid is zero,
    and one checkpoint has no Cauchy difference."""
    if n < 2:
        raise ValueError(f"need at least 2 sample times, got {n}")


def witness_window(k: int, R: float) -> tuple[float, float]:
    """The sharpness witness's time window [2^(1-k), 2^(k-1)] at scale 2^k.

    Needs k >= 1, and the window must end within the reflection-safe horizon R/2.
    """
    if k < 1:
        raise ValueError("witness needs k >= 1")
    if not (math.isfinite(R) and R > 0):
        raise ValueError(f"witness needs a positive finite R, got R={R}")
    t_hi = 2.0 ** (k - 1)
    if _past_horizon(t_hi, 1.0, R):
        raise GuardError(f"window end 2^(k-1) = {t_hi} exceeds the reflection-safe horizon R/2 = {R / 2}")
    return 2.0 ** (1 - k), t_hi


_ENVELOPE_TOP = 10.0  # the witness data is the indicator of |xi| <= this times 2^k


def sharpness_witness(k: int, q: float, r: float, R: float = 64.0, n_samples: int = 128) -> WitnessReport:
    """Lower-bound witness for the Klein-Gordon block estimate at scale 2^k.

    The data is a frequency indicator: phihat = 1 up to 10 * 2^k.  The block
    P_k phi is evolved freely and its L^q_t L^r_x norm over the window
    [2^(1-k), 2^(k-1)] (log-spaced samples) is compared against

        C(q, r, k) = <k>^{1/q} 2^{(1/2 - 1/r) k}   on the borderline 1/q + 2/r = 1,
        C(q, r, k) = 2^{beta(q, r) k}              otherwise,

    times ||phi||_{L^2}; the reported ratio should be bounded below, uniformly
    in k, when the estimate's exponent is sharp.
    """
    t_lo, t_hi = witness_window(k, R)
    beta = beta_exponent(q, r, "schrodinger").value  # rejects an inadmissible (q, r) before any work
    check_samples(n_samples)
    xi_top = _ENVELOPE_TOP * 2.0**k
    M = int(np.ceil(1.05 * xi_top * R / np.pi))
    grid = RadialGrid(R, M)
    phi = (grid.xi <= xi_top).astype(np.complex128)
    phi_norm = float(l2_norms(grid, phi))
    if phi_norm == 0.0:
        raise ValueError("witness profile is empty")
    times = np.geomspace(t_lo, t_hi, n_samples)
    measured = measure_spacetime_norm(grid, kg_propagate(grid, phi * chi_k(grid.xi, k), times), times, q, r)
    iq = 0.0 if np.isinf(q) else 1.0 / q
    ir = 0.0 if np.isinf(r) else 1.0 / r
    if abs(iq + 2.0 * ir - 1.0) < 1e-12:
        const = (1.0 + k * k) ** (0.5 * iq) * 2.0 ** ((0.5 - ir) * k)
    else:
        const = 2.0 ** (beta * k)
    return WitnessReport(k, q, r, measured, const, phi_norm, (t_lo, t_hi))


# ---------------------------------------------------------------------------
# scattering diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CauchyRow:
    t1: float
    t2: float
    d_U: float
    d_N: float


@dataclass(frozen=True)
class ScatteringReport:
    checkpoints: tuple[float, ...]
    rows: tuple[CauchyRow, ...]
    profiles_U: NDArray  # (C, M) coefficients, one row per checkpoint
    profiles_N: NDArray

    def write_csv(self, path) -> None:
        export.write_csv(path, ["t1", "t2", "d_U_H1", "d_N_L2"], [(r.t1, r.t2, r.d_U, r.d_N) for r in self.rows])


def checkpoint_indices(times: NDArray, checkpoints: Sequence[float], dt: float) -> list[int]:
    """Index of the snapshot at each checkpoint; ValueError if none lies within dt/2 (or it is not finite),
    or if the indices do not increase: a Cauchy row between one snapshot and itself, or back in time,
    compares nothing."""
    out = []
    for cp in checkpoints:
        i = int(np.argmin(np.abs(times - cp)))
        if not abs(times[i] - cp) <= 0.5 * dt + 1e-12:
            raise ValueError(f"no snapshot near checkpoint t={cp} (closest {times[i]})")
        if out and i <= out[-1]:
            raise ValueError(f"checkpoints must fall on increasing snapshots, got t={cp} at or before its predecessor")
        out.append(i)
    return out


def _past_horizon(t: float, speed: float, R: float) -> bool:
    """Whether time t lies beyond the reflection-safe horizon R/(2 max(1, speed)), where the faster of
    the Klein-Gordon flow and a flow at ``speed`` reaches R/2; ValueError for a t that is not finite."""
    if not math.isfinite(t):
        raise ValueError(f"time t={t} is not finite")
    return t * max(1.0, speed) > R / 2.0


def check_horizon(checkpoints: Sequence[float], alpha: float, R: float) -> None:
    """GuardError unless every checkpoint lies within the reflection-safe horizon R/(2 max(1, alpha))."""
    for t in checkpoints:
        if _past_horizon(t, alpha, R):
            raise GuardError(f"checkpoint {t} is beyond the reflection-safe horizon R/(2 max(1, alpha))")


def scattering_profile(traj: Trajectory, alpha: float, checkpoints: Sequence[float]) -> ScatteringReport:
    """Free-flow pullback profiles at checkpoints and their Cauchy differences.

    V(t) = K(-t) U(t) measured in H^1 and W(t) = W_alpha(-t) N(t) in L^2;
    convergence of these sequences as the checkpoint doubles is the
    finite-time manifestation of scattering.
    """
    cps = tuple(float(t) for t in checkpoints)
    ts = traj.times
    grid = traj.config.grid
    check_horizon(cps, alpha, grid.R)
    idx = checkpoint_indices(ts, cps, traj.config.dt)
    profs_U, profs_N = kg_propagate(grid, traj.cU[idx], -ts[idx]), wave_propagate(grid, traj.cN[idx], -ts[idx], alpha)
    rows = [
        CauchyRow(t1, t2, float(sobolev_norms(grid, v2 - v1, 1.0)), float(l2_norms(grid, w2 - w1)))
        for t1, t2, v1, v2, w1, w2 in zip(cps, cps[1:], profs_U, profs_U[1:], profs_N, profs_N[1:])
    ]
    return ScatteringReport(cps, tuple(rows), profs_U, profs_N)


# ---------------------------------------------------------------------------
# resolution-space norm
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResolutionNorms:
    """Component norms of the space where the small-data iteration closes.

    The Klein-Gordon component is split at frequency 1: the low part carries
    L^inf_t L^2 and L^2_t hom-Besov(1/4+eps, q(eps)); the high part
    L^inf_t H^1 and L^2_t inhom-Besov(2/3, q(eps)); the acoustic component
    carries L^inf_t L^2 and L^2_t hom-Besov(-1/4-eps, q(-eps)), with
    1/q(eps) = 1/4 + eps/3.
    """

    eps: float
    x_linf_l2: float
    x_l2_besov: float
    y_linf_h1: float
    y_l2_besov: float
    n_linf_l2: float
    n_l2_besov: float

    @property
    def total(self) -> float:
        return (
            self.x_linf_l2
            + self.x_l2_besov
            + self.y_linf_h1
            + self.y_l2_besov
            + self.n_linf_l2
            + self.n_l2_besov
        )


def resolution_exponents(eps: float) -> tuple[float, float]:
    """q(eps) and q(-eps); ValueError unless 0 < eps < 0.3 and 10/3 < q(eps) < 4 < q(-eps)."""
    if not 0.0 < eps < 0.3:
        raise ValueError("eps must lie in (0, 0.3)")
    q_eps = 1.0 / (0.25 + eps / 3.0)
    q_meps = 1.0 / (0.25 - eps / 3.0)
    if not (10.0 / 3.0 < q_eps < 4.0 < q_meps):
        raise ValueError("eps breaks the exponent chain 10/3 < q(eps) < 4 < q(-eps)")
    return q_eps, q_meps


def window_slice(ts: NDArray, window: tuple[float, float]) -> slice:
    """The snapshots at times ``ts`` in ``window``: GuardError if the window leaves the
    run's time range (a NaN end lies in no range) or holds fewer than 64 snapshots.

    A trajectory's times are its config's ``snapshot_times``, so a window can be
    checked before the run."""
    t0, t1 = window
    if not (ts[0] - 1e-12 <= t0 and t1 <= ts[-1] + 1e-12):
        raise GuardError(f"window [{t0}, {t1}] exceeds trajectory range [{ts[0]}, {ts[-1]}]")
    lo = int(np.searchsorted(ts, t0 - 1e-12, side="left"))
    hi = int(np.searchsorted(ts, t1 + 1e-12, side="right"))
    if hi - lo < 64:
        raise GuardError(f"only {hi - lo} snapshots in window; need >= 64")
    return slice(lo, hi)


def resolution_norms(traj: Trajectory, eps: float, windows: Sequence[tuple[float, float]]) -> list[ResolutionNorms]:
    """The resolution norms over each window.

    The six per-snapshot norms are tabulated once, over the snapshots that the
    windows span, and each window takes a max or a trapezoid over its rows.
    ValueError for an empty window list.
    """
    if not windows:
        raise ValueError("resolution norms need at least one window, got none")
    q_eps, q_meps = resolution_exponents(eps)
    ts, grid = traj.times, traj.config.grid
    rows = [window_slice(ts, w) for w in windows]
    lo, hi = min(r.start for r in rows), max(r.stop for r in rows)
    cU, cN = traj.cU[lo:hi], traj.cN[lo:hi]
    low = chi_le(grid.xi, -1)
    high = 1.0 - low
    # the columns alternate L^inf_t and L^2_t norms; the L^2 and H^1 parts of U
    # exist only a chunk of rows at a time
    table = np.stack([
        map_rows(lambda u: l2_norms(grid, u * low), grid.M, cU),
        besov_norms(grid, cU, 0.25 + eps, q_eps, True, low),
        map_rows(lambda u: sobolev_norms(grid, u * high, 1.0), grid.M, cU),
        besov_norms(grid, cU, 2.0 / 3.0, q_eps, False, high),
        l2_norms(grid, cN),
        besov_norms(grid, cN, -0.25 - eps, q_meps, True),
    ], axis=1)
    out = []
    for r in rows:
        vals = table[r.start - lo : r.stop - lo]
        linf, l2t = vals.max(axis=0), np.sqrt(np.trapezoid(vals**2, ts[r], axis=0))
        out.append(ResolutionNorms(eps, linf[0], l2t[1], linf[2], l2t[3], linf[4], l2t[5]))
    return out


def resolution_norm(traj: Trajectory, eps: float = 0.05, window: tuple[float, float] | None = None) -> ResolutionNorms:
    """The resolution norm over one window, by default the whole run."""
    return resolution_norms(traj, eps, [window or (float(traj.times[0]), float(traj.times[-1]))])[0]
