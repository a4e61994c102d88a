"""Space-time norms, dispersive-decay scans, and scattering diagnostics.

Radial symmetry enlarges the admissible exponent range for space-time
integrability of the free Klein-Gordon and wave flows.  This module exposes
the admissibility/regularity bookkeeping (``beta_exponent``), discrete
L^q_t L^r_x / Besov space-time norms on trajectories or free evolutions,
dyadic scaling scans that fit the decay exponent of frequency-localized free
waves, an explicit frequency-indicator witness showing the fitted exponents
are not improvable, and the pullback profiles V(t) = K(-t) U(t),
W(t) = W_alpha(-t) N(t) whose Cauchy convergence is the numerical face of
scattering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .kgz import Trajectory
from .radial import (
    RadialGrid,
    SpectralField,
    besov_norm,
    chi_le,
    kg_propagate,
    lebesgue_norm,
    lp_project,
    random_band_limited,
    sobolev_norm,
    spectral_l2,
    to_physical,
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


def beta_cases_agree_on_borderline(samples: Sequence[tuple[Fraction, Fraction]] | None = None) -> bool:
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


@dataclass(frozen=True)
class AdmissiblePair:
    """An admissible space-time exponent pair with its derived regularity."""

    q: float
    r: float
    flavor: str

    def __post_init__(self):
        beta_exponent(self.q, self.r, self.flavor)  # raises when inadmissible

    @property
    def beta(self) -> float:
        return beta_exponent(self.q, self.r, self.flavor).value

    @property
    def eps_augmented(self) -> bool:
        return beta_exponent(self.q, self.r, self.flavor).eps_augmented


# ---------------------------------------------------------------------------
# time series sources and space-time norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreeEvolution:
    """Free flow of a fixed spectral profile under the chosen propagator."""

    phi: SpectralField
    flavor: str  # "kg" or "wave"
    alpha: float = 1.0

    def __post_init__(self):
        if self.flavor not in ("kg", "wave"):
            raise ValueError("flavor must be 'kg' or 'wave'")

    def spectral_at(self, t: float) -> SpectralField:
        if self.flavor == "kg":
            return kg_propagate(self.phi, t)
        return wave_propagate(self.phi, t, self.alpha)

    @property
    def speed(self) -> float:
        return 1.0 if self.flavor == "kg" else self.alpha


def _series(source, window, component: str, times, min_samples: int):
    """Sample times, grid and (S, M) coefficients (a slice for a trajectory) of a source."""
    t0, t1 = window
    if isinstance(source, Trajectory):
        ts = source.times
        if t1 > ts[-1] + 1e-12 or t0 < ts[0] - 1e-12:
            raise GuardError(f"window [{t0}, {t1}] exceeds trajectory range [{ts[0]}, {ts[-1]}]")
        lo = int(np.searchsorted(ts, t0 - 1e-12, side="left"))
        hi = int(np.searchsorted(ts, t1 + 1e-12, side="right"))
        if hi - lo < min_samples:
            raise GuardError(f"only {hi - lo} snapshots in window; need >= {min_samples}")
        return ts[lo:hi], source.config.grid, getattr(source, "c" + component)[lo:hi]
    if isinstance(source, FreeEvolution):
        if times is None:
            times = np.linspace(t0, t1, max(min_samples, 64))
        coeffs = np.stack([source.spectral_at(float(t)).coeffs for t in times])
        return np.asarray(times, dtype=float), source.phi.grid, coeffs
    raise TypeError(f"unsupported source {type(source)!r}")


def measure_spacetime_norm(
    source,
    q: float,
    r: float,
    window: tuple[float, float],
    s: float | None = None,
    homogeneous: bool = True,
    component: str = "U",
    times: NDArray | None = None,
    min_samples: int = 64,
) -> float:
    """Discrete L^q in time of a spatial norm over a window.

    The spatial norm is L^r when ``s`` is None, otherwise the Besov norm of
    regularity s with integrability r.  Time integration uses the trapezoid
    rule on the sample times (supremum for q = inf).
    """
    ts, grid, coeffs = _series(source, window, component, times, min_samples)

    def spatial(c: SpectralField) -> float:
        if s is None:
            return lebesgue_norm(to_physical(c), r)
        return besov_norm(c, s, r, homogeneous)

    vals = np.array([spatial(SpectralField(grid, c)) for c in coeffs])
    if np.isinf(q):
        return float(vals.max())
    return float(np.trapezoid(vals**q, ts) ** (1.0 / q))


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
        lines = ["k,norm,log2_norm,fit_residual"]
        for k, n, res in zip(self.ks, self.norms, self.residuals):
            lines.append(f"{k},{n:.17g},{math.log2(n):.17g},{res:.17g}")
        lines.append(f"# slope,{self.slope:.17g}")
        lines.append(f"# predicted_slope,{self.predicted_slope:.17g}")
        if self.warning:
            lines.append(f"# warning,{self.warning}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

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
    profile: SpectralField | None = None,
) -> ScanTable:
    """Fit log2 ||free flow of P_k phi||_{L^q_t L^r_x} against k.

    phi is a fixed random radial L^2 profile (white coefficients, fixed seed)
    unless given; each block P_k phi is normalized to unit L^2 before
    evolving.  A finite-domain reflection guard attaches a warning when
    T * speed > R/2.
    """
    evol_flavor = "kg" if flavor == "schrodinger" else "wave"
    beta = beta_exponent(q, r, flavor).value
    # per-block norm growth 2^(k * slope) for unit-L^2 blocks: the estimate's
    # Besov weight contributes 2^(-s k) with s the stored regularity
    predicted = beta if flavor == "schrodinger" else -beta
    speed = 1.0 if evol_flavor == "kg" else alpha
    warning = None
    if window[1] * max(1.0, speed) > grid.R / 2.0:
        warning = (
            f"window end {window[1]} times speed {speed} exceeds R/2 = {grid.R / 2}; "
            "boundary reflections may contaminate the fit"
        )
    if profile is None:
        profile = random_band_limited(grid, np.random.default_rng(seed))
    norms = []
    for k in ks:
        block = lp_project(profile, k)
        nb = spectral_l2(block)
        if nb == 0.0:
            raise ValueError(f"profile has no content in dyadic block {k}")
        block = SpectralField(grid, block.coeffs / nb)
        evol = FreeEvolution(block, evol_flavor, alpha)
        norms.append(
            measure_spacetime_norm(evol, q, r, window, s=None, times=np.linspace(*window, n_samples))
        )
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


def sharpness_witness(
    k: int,
    q: float,
    r: float,
    R: float = 64.0,
    envelope_top: float = 10.0,
    n_samples: int = 128,
) -> WitnessReport:
    """Lower-bound witness for the Klein-Gordon block estimate at scale 2^k.

    The data is a frequency indicator: phihat = 1 up to 10 * 2^k.  The block
    P_k phi is evolved freely and its L^q_t L^r_x norm over the window
    [2^(1-k), 2^(k-1)] (log-spaced samples) is compared against

        C(q, r, k) = <k>^{1/q} 2^{(1/2 - 1/r) k}   on the borderline 1/q + 2/r = 1,
        C(q, r, k) = 2^{beta(q, r) k}              otherwise,

    times ||phi||_{L^2}; the reported ratio should be bounded below, uniformly
    in k, when the estimate's exponent is sharp.
    """
    if k < 1:
        raise ValueError("witness needs k >= 1")
    t_hi = 2.0 ** (k - 1)
    t_lo = 2.0 ** (1 - k)
    if t_hi > R / 2.0:
        raise GuardError(f"window end 2^(k-1) = {t_hi} exceeds the reflection-safe horizon R/2 = {R / 2}")
    xi_top = envelope_top * 2.0**k
    M = int(np.ceil(1.05 * xi_top * R / np.pi))
    grid = RadialGrid(R, M)
    coeffs = (grid.xi <= xi_top).astype(np.complex128)
    phi = SpectralField(grid, coeffs)
    phi_norm = spectral_l2(phi)
    if phi_norm == 0.0:
        raise ValueError("witness profile is empty")
    block = lp_project(phi, k)
    evol = FreeEvolution(block, "kg")
    times = np.geomspace(t_lo, t_hi, n_samples)
    measured = measure_spacetime_norm(evol, q, r, (t_lo, t_hi), s=None, times=times)
    iq = 0.0 if np.isinf(q) else 1.0 / q
    ir = 0.0 if np.isinf(r) else 1.0 / r
    if abs(iq + 2.0 * ir - 1.0) < 1e-12:
        const = (1.0 + k * k) ** (0.5 * iq) * 2.0 ** ((0.5 - ir) * k)
    else:
        const = 2.0 ** (beta_exponent(q, r, "schrodinger").value * k)
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
    profiles_U: tuple[SpectralField, ...]
    profiles_N: tuple[SpectralField, ...]

    def write_csv(self, path) -> None:
        lines = ["t1,t2,d_U_H1,d_N_L2"]
        for r in self.rows:
            lines.append(f"{r.t1:.17g},{r.t2:.17g},{r.d_U:.17g},{r.d_N:.17g}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def scattering_profile(traj: Trajectory, alpha: float, checkpoints: Sequence[float]) -> ScatteringReport:
    """Free-flow pullback profiles at checkpoints and their Cauchy differences.

    V(t) = K(-t) U(t) measured in H^1 and W(t) = W_alpha(-t) N(t) in L^2;
    convergence of these sequences as the checkpoint doubles is the
    finite-time manifestation of scattering.
    """
    cps = tuple(float(t) for t in checkpoints)
    ts = traj.times
    grid = traj.config.grid
    if max(cps) * max(1.0, alpha) > grid.R / 2.0:
        raise GuardError(
            f"checkpoint {max(cps)} is beyond the reflection-safe horizon R/(2 max(1, alpha))"
        )
    profs_U, profs_N = [], []
    for cp in cps:
        i = int(np.argmin(np.abs(ts - cp)))
        if abs(ts[i] - cp) > 0.5 * traj.config.dt + 1e-12:
            raise ValueError(f"no snapshot near checkpoint t={cp} (closest {ts[i]})")
        profs_U.append(kg_propagate(SpectralField(grid, traj.cU[i]), -ts[i]))
        profs_N.append(wave_propagate(SpectralField(grid, traj.cN[i]), -ts[i], alpha))
    rows = []
    for (t1, v1, w1), (t2, v2, w2) in zip(
        zip(cps, profs_U, profs_N), zip(cps[1:], profs_U[1:], profs_N[1:])
    ):
        rows.append(
            CauchyRow(
                t1,
                t2,
                sobolev_norm(v2 - v1, 1.0),
                spectral_l2(w2 - w1),
            )
        )
    return ScatteringReport(cps, tuple(rows), tuple(profs_U), tuple(profs_N))


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


def resolution_norm(traj: Trajectory, eps: float = 0.05, window: tuple[float, float] | None = None) -> ResolutionNorms:
    if not 0.0 < eps < 0.3:
        raise ValueError("eps must lie in (0, 0.3)")
    q_eps = 1.0 / (0.25 + eps / 3.0)
    q_meps = 1.0 / (0.25 - eps / 3.0)
    if not (10.0 / 3.0 < q_eps < 4.0 < q_meps):
        raise ValueError("eps breaks the exponent chain 10/3 < q(eps) < 4 < q(-eps)")
    if window is None:
        window = (float(traj.times[0]), float(traj.times[-1]))
    ts, grid, cU = _series(traj, window, "U", None, 64)
    _, _, cN = _series(traj, window, "N", None, 64)
    low_mask = chi_le(grid.xi, -1)

    def snapshot_norms(u, n):
        low, high, nf = (SpectralField(grid, c) for c in (u * low_mask, u * (1.0 - low_mask), n))
        return (
            spectral_l2(low),
            besov_norm(low, 0.25 + eps, q_eps, True),
            sobolev_norm(high, 1.0),
            besov_norm(high, 2.0 / 3.0, q_eps, False),
            spectral_l2(nf),
            besov_norm(nf, -0.25 - eps, q_meps, True),
        )

    # one snapshot at a time; the columns alternate L^inf_t and L^2_t norms
    vals = np.array([snapshot_norms(u, n) for u, n in zip(cU, cN)])
    linf, l2t = vals.max(axis=0), np.sqrt(np.trapezoid(vals**2, ts, axis=0))
    return ResolutionNorms(eps, linf[0], l2t[1], linf[2], l2t[3], linf[4], l2t[5])
