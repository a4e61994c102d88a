"""Radial fields on a ball and their sine-series spectral representation.

A radial function f(|x|) on the ball {|x| <= R} of R^3 with a Dirichlet
boundary at r = R is sampled on the uniform grid r_j = j*dr, dr = R/(M+1),
j = 1..M.  Its spectral counterpart holds the 3D radial Fourier transform

    fhat(xi) = (4*pi/xi) * int_0^R r f(r) sin(r*xi) dr

at the sine frequencies xi_m = m*pi/R, m = 1..M.  Because r_j*xi_m =
pi*j*m/(M+1), the forward map is a type-I discrete sine transform of
w_j = r_j f(r_j), and the pair (to_spectral, to_physical) is an exact
inverse pair on grid data.  Plancherel holds exactly in the discrete
setting:

    4*pi*dr * sum_j r_j^2 |f_j|^2  =  (2*pi^2)^{-1} * dxi * sum_m xi_m^2 |c_m|^2.

There is no zero frequency in the sine basis, so multipliers like 1/|xi|
are total on every represented mode.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np
from numpy.typing import NDArray
from scipy.fft import dst


def _dst1(x: NDArray) -> NDArray:
    """Unnormalized DST-I along the last axis, safe for complex input.

    y_m = 2 * sum_j x_j sin(pi*j*m/(N+1)); self-inverse up to 2*(N+1).
    """
    if np.iscomplexobj(x):
        return dst(x.real, type=1) + 1j * dst(x.imag, type=1)
    return dst(x, type=1)


# ---------------------------------------------------------------------------
# grid and field containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialGrid:
    """Uniform collocation/frequency grid for radial fields on a ball.

    Attributes:
        R: domain radius.
        M: number of interior collocation points == number of sine modes.
    """

    R: float
    M: int

    def __post_init__(self):
        if not self.R > 0:
            raise ValueError(f"domain radius must be positive, got R={self.R}")
        if self.M < 4:
            raise ValueError(f"need at least 4 modes, got M={self.M}")

    @cached_property
    def dr(self) -> float:
        return self.R / (self.M + 1)

    @cached_property
    def dxi(self) -> float:
        return np.pi / self.R

    @cached_property
    def r(self) -> NDArray[np.float64]:
        out = self.dr * np.arange(1, self.M + 1, dtype=float)
        out.flags.writeable = False
        return out

    @cached_property
    def xi(self) -> NDArray[np.float64]:
        out = self.dxi * np.arange(1, self.M + 1, dtype=float)
        out.flags.writeable = False
        return out

    @cached_property
    def k_min(self) -> int:
        """Lowest resolved dyadic index, floor(log2 xi_1)."""
        return int(np.floor(np.log2(self.xi[0])))

    @cached_property
    def k_max(self) -> int:
        """Highest resolved dyadic index, ceil(log2 xi_M)."""
        return int(np.ceil(np.log2(self.xi[-1])))

    @property
    def resolved_k(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def key(self) -> tuple:
        return (round(self.R, 12), self.M)


def _as_complex(values, M: int) -> NDArray[np.complex128]:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.shape != (M,):
        raise ValueError(f"field length {arr.shape} does not match grid M={M}")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PhysField:
    """Complex samples f(r_j) of a radial function on a RadialGrid."""

    grid: RadialGrid
    values: NDArray[np.complex128]

    def __post_init__(self):
        object.__setattr__(self, "values", _as_complex(self.values, self.grid.M))

    def __add__(self, other: "PhysField") -> "PhysField":
        _check_same_grid(self, other)
        return PhysField(self.grid, self.values + other.values)

    def __sub__(self, other: "PhysField") -> "PhysField":
        _check_same_grid(self, other)
        return PhysField(self.grid, self.values - other.values)

    def __mul__(self, scalar: complex) -> "PhysField":
        return PhysField(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def real_field(self) -> "PhysField":
        return PhysField(self.grid, self.values.real.astype(np.complex128))

    def imag_field(self) -> "PhysField":
        return PhysField(self.grid, self.values.imag.astype(np.complex128))

    def conj(self) -> "PhysField":
        return PhysField(self.grid, np.conj(self.values))


@dataclass(frozen=True)
class SpectralField:
    """Sine-series coefficients c_m ~ fhat(xi_m) of a radial function."""

    grid: RadialGrid
    coeffs: NDArray[np.complex128]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_complex(self.coeffs, self.grid.M))

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: complex) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def sample_at(self, xi_points: NDArray) -> NDArray[np.complex128]:
        """Linear interpolation of the coefficients in xi, zero outside the band."""
        xi_points = np.asarray(xi_points, dtype=float)
        re = np.interp(xi_points, self.grid.xi, self.coeffs.real, left=0.0, right=0.0)
        im = np.interp(xi_points, self.grid.xi, self.coeffs.imag, left=0.0, right=0.0)
        return re + 1j * im

    def evaluate_at(self, r_points: NDArray) -> NDArray[np.complex128]:
        """Evaluate the sine series at arbitrary radii (exact for grid data).

        f(r) = dxi/(2*pi^2*r) * sum_m xi_m c_m sin(r*xi_m), with the r -> 0
        limit dxi/(2*pi^2) * sum_m xi_m^2 c_m.
        """
        r_points = np.atleast_1d(np.asarray(r_points, dtype=float))
        v = self.grid.xi * self.coeffs
        phases = np.sin(np.outer(r_points, self.grid.xi))
        out = (self.grid.dxi / (2.0 * np.pi**2)) * (phases @ v)
        nz = r_points != 0.0
        out[nz] /= r_points[nz]
        if np.any(~nz):
            out[~nz] = (self.grid.dxi / (2.0 * np.pi**2)) * np.sum(self.grid.xi * v)
        return out


Field = Union[PhysField, SpectralField]


def _check_same_grid(a, b) -> None:
    if a.grid.key() != b.grid.key():
        raise ValueError("fields live on different grids")


# ---------------------------------------------------------------------------
# forward / inverse transform
# ---------------------------------------------------------------------------

def analyze(grid: RadialGrid, values: NDArray) -> NDArray:
    """c_m = (4*pi*dr/xi_m) sum_j r_j f_j sin(r_j xi_m) along the last axis of (..., M) samples."""
    return (2.0 * np.pi * grid.dr / grid.xi) * _dst1(grid.r * values)


def synthesize(grid: RadialGrid, coeffs: NDArray) -> NDArray:
    """Inverse of :func:`analyze` on (..., M) coefficient arrays."""
    return (grid.dxi / (4.0 * np.pi**2 * grid.r)) * _dst1(grid.xi * coeffs)


def to_spectral(f: PhysField) -> SpectralField:
    """3D radial Fourier transform of a field (see :func:`analyze`)."""
    return SpectralField(f.grid, analyze(f.grid, f.values))


def to_physical(c: SpectralField) -> PhysField:
    """Inverse radial transform; exact inverse of to_spectral on grid data."""
    return PhysField(c.grid, synthesize(c.grid, c.coeffs))


def as_spectral(f: Field) -> SpectralField:
    return f if isinstance(f, SpectralField) else to_spectral(f)


def as_physical(f: Field) -> PhysField:
    return f if isinstance(f, PhysField) else to_physical(f)


# ---------------------------------------------------------------------------
# Fourier multipliers and propagators
# ---------------------------------------------------------------------------

def apply_multiplier(c: SpectralField, m: Union[Callable[[NDArray], NDArray], NDArray]) -> SpectralField:
    """Pointwise spectral multiplier c_m -> m(xi_m) * c_m.

    Rejects multipliers that are not finite at a represented frequency; the
    sine basis has no zero mode, so 1/|xi| and similar are always total here.
    """
    vals = m(c.grid.xi) if callable(m) else np.asarray(m)
    vals = np.broadcast_to(np.asarray(vals, dtype=np.complex128), (c.grid.M,))
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise ValueError(
            f"multiplier is not finite at xi_{bad + 1} = {c.grid.xi[bad]:.6g}"
        )
    return SpectralField(c.grid, c.coeffs * vals)


def kg_propagate(c: SpectralField, t: float) -> SpectralField:
    """Free Klein-Gordon half-waves flow: multiply by exp(i*t*<xi>)."""
    lxi = np.sqrt(1.0 + c.grid.xi**2)
    return SpectralField(c.grid, c.coeffs * np.exp(1j * t * lxi))


def wave_propagate(c: SpectralField, t: float, alpha: float) -> SpectralField:
    """Free half-wave flow at speed alpha: multiply by exp(i*alpha*t*|xi|)."""
    return SpectralField(c.grid, c.coeffs * np.exp(1j * alpha * t * c.grid.xi))


# ---------------------------------------------------------------------------
# Littlewood-Paley projectors
# ---------------------------------------------------------------------------

def eta0(x) -> NDArray[np.float64]:
    """Radial bump: 1 on [0,1], 0 on [2,inf), smooth-step in between.

    The transition uses exp(1 - 1/(1-y^2)) with y = |x| - 1.
    """
    ax = np.abs(np.asarray(x, dtype=float))
    scalar = ax.ndim == 0
    ax = np.atleast_1d(ax)
    out = np.zeros_like(ax)
    out[ax <= 1.0] = 1.0
    mid = (ax > 1.0) & (ax < 2.0)
    y = ax[mid] - 1.0
    out[mid] = np.exp(1.0 - 1.0 / (1.0 - y * y))
    return float(out[0]) if scalar else out


def chi_k(xi, k: int):
    """Dyadic shell bump chi_k supported in [2^(k-1), 2^(k+1)]."""
    return eta0(np.asarray(xi) / 2.0**k) - eta0(np.asarray(xi) / 2.0 ** (k - 1))


def chi_le(xi, k: int):
    """Low-pass bump chi_{<=k} = eta0(xi / 2^k)."""
    return eta0(np.asarray(xi) / 2.0**k)


def lp_project(f: Field, k: int) -> Field:
    """Dyadic frequency projection P_k.  Out-of-band k yields the zero field."""
    c = as_spectral(f)
    out = SpectralField(c.grid, c.coeffs * chi_k(c.grid.xi, k))
    return out if isinstance(f, SpectralField) else to_physical(out)


def lp_project_le(f: Field, k: int) -> Field:
    """Low-frequency projection P_{<=k}."""
    c = as_spectral(f)
    out = SpectralField(c.grid, c.coeffs * chi_le(c.grid.xi, k))
    return out if isinstance(f, SpectralField) else to_physical(out)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def lebesgue_norm(f: PhysField, p: float) -> float:
    """L^p norm with the 3D radial quadrature (4*pi sum |f|^p r^2 dr)^(1/p)."""
    if p < 1:
        raise ValueError(f"need p >= 1, got p={p}")
    vals = np.abs(as_physical(f).values)
    if np.isinf(p):
        return float(vals.max(initial=0.0))
    g = f.grid
    return float((4.0 * np.pi * g.dr * np.sum(vals**p * g.r**2)) ** (1.0 / p))


def spectral_l2(c: SpectralField) -> float:
    """L^2 norm from coefficients; agrees with the physical quadrature exactly."""
    g = c.grid
    return float(np.sqrt(np.sum(g.xi**2 * np.abs(c.coeffs) ** 2) * g.dxi / (2.0 * np.pi**2)))


def sobolev_norm(f: Field, s: float) -> float:
    """Inhomogeneous Sobolev norm ||<D>^s f||_{L^2}, computed spectrally."""
    c = as_spectral(f)
    w = (1.0 + c.grid.xi**2) ** (s / 2.0)
    return spectral_l2(SpectralField(c.grid, c.coeffs * w))


def besov_norm(f: Field, s: float, p: float, homogeneous: bool = True) -> float:
    """Besov norm: l^2 over resolved dyadic k of weighted ||P_k f||_p.

    Weight 2^(s*k) in the homogeneous case, <2^k>^s otherwise.
    """
    if p < 1:
        raise ValueError(f"need p >= 1, got p={p}")
    c = as_spectral(f)
    total = 0.0
    for k in c.grid.resolved_k:
        block = SpectralField(c.grid, c.coeffs * chi_k(c.grid.xi, k))
        nb = lebesgue_norm(to_physical(block), p)
        w = 2.0 ** (s * k) if homogeneous else (1.0 + 4.0**k) ** (s / 2.0)
        total += (w * nb) ** 2
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# products and dealiasing
# ---------------------------------------------------------------------------

def dealias_mask(grid: RadialGrid) -> NDArray[np.float64]:
    """2/3-rule mask: keep modes with xi <= (2/3) xi_M."""
    return (grid.xi <= (2.0 / 3.0) * grid.xi[-1]).astype(float)


def dealias(c: SpectralField) -> SpectralField:
    return SpectralField(c.grid, c.coeffs * dealias_mask(c.grid))


def pointwise_product(f: Field, g: Field, dealiased: bool = False) -> PhysField:
    """Physical-space product, optionally with 2/3-rule truncation of inputs and output."""
    fp, gp = as_physical(f), as_physical(g)
    _check_same_grid(fp, gp)
    if not dealiased:
        return PhysField(fp.grid, fp.values * gp.values)
    fd = to_physical(dealias(to_spectral(fp)))
    gd = to_physical(dealias(to_spectral(gp)))
    prod = to_spectral(PhysField(fp.grid, fd.values * gd.values))
    return to_physical(dealias(prod))


# ---------------------------------------------------------------------------
# helpers for tests and experiments
# ---------------------------------------------------------------------------

def random_band_limited(
    grid: RadialGrid,
    rng: np.random.Generator,
    m_band: tuple[int, int] | None = None,
    envelope: Callable[[NDArray], NDArray] | None = None,
) -> SpectralField:
    """Random complex coefficients on a mode band, optionally shaped by an envelope."""
    lo, hi = m_band if m_band is not None else (1, grid.M)
    if not (1 <= lo <= hi <= grid.M):
        raise ValueError(f"mode band ({lo}, {hi}) outside 1..{grid.M}")
    coeffs = np.zeros(grid.M, dtype=np.complex128)
    n = hi - lo + 1
    coeffs[lo - 1 : hi] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if envelope is not None:
        coeffs *= envelope(grid.xi)
    return SpectralField(grid, coeffs)


def smooth_random_field(
    grid: RadialGrid,
    rng: np.random.Generator,
    n_bumps: int = 8,
    xi_top: float | None = None,
    width: float = 1.0,
) -> SpectralField:
    """Random superposition of Gaussian bumps in frequency, supported in [0, 2*xi_top].

    Unlike white coefficients, the result is smooth in xi, so quadratures that
    interpolate the coefficients (the bilinear operators) converge on it.  The
    same generator state yields the same continuum field on any grid with the
    same R.
    """
    top = 0.5 * grid.xi[-1] if xi_top is None else xi_top
    centers = np.linspace(0.0, 0.8 * top, n_bumps)
    amps = rng.standard_normal(n_bumps) + 1j * rng.standard_normal(n_bumps)
    coeffs = np.zeros(grid.M, dtype=np.complex128)
    for mu, a in zip(centers, amps):
        coeffs += a * np.exp(-(((grid.xi - mu) / width) ** 2))
    coeffs *= eta0(grid.xi / top)
    return SpectralField(grid, coeffs)


# ---------------------------------------------------------------------------
# snapshot file format
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<dQBB")  # R (f64), M (u64), kind (u8), complex flag (u8)
KIND_PHYS, KIND_SPEC = 0, 1


def write_field(path, field: Field) -> None:
    """Write a field snapshot: header (R, M, kind, complex flag) + little-endian f64 pairs."""
    kind = KIND_SPEC if isinstance(field, SpectralField) else KIND_PHYS
    data = field.coeffs if kind == KIND_SPEC else field.values
    payload = np.empty((field.grid.M, 2), dtype="<f8")
    payload[:, 0] = data.real
    payload[:, 1] = data.imag
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(field.grid.R, field.grid.M, kind, 1))
        fh.write(payload.tobytes())


def read_field(path) -> Field:
    with open(path, "rb") as fh:
        R, M, kind, cflag = _HEADER.unpack(fh.read(_HEADER.size))
        raw = np.frombuffer(fh.read(), dtype="<f8")
    grid = RadialGrid(R, int(M))
    if cflag:
        raw = raw.reshape(M, 2)
        data = raw[:, 0] + 1j * raw[:, 1]
    else:
        data = raw.astype(np.complex128)
    return SpectralField(grid, data) if kind == KIND_SPEC else PhysField(grid, data)


def field_to_csv(path, field: Field) -> None:
    """CSV export (r or xi, re, im) with 17 significant digits."""
    kind = isinstance(field, SpectralField)
    axis = field.grid.xi if kind else field.grid.r
    data = field.coeffs if kind else field.values
    label = "xi" if kind else "r"
    lines = [f"{label},re,im"]
    for x, v in zip(axis, data):
        lines.append(f"{x:.17g},{v.real:.17g},{v.imag:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
