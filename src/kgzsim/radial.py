"""Radial fields on a ball and their sine-series spectral representation.

A radial function f(|x|) on the ball {|x| <= R} of R^3 with a Dirichlet
boundary at r = R is sampled on the uniform grid r_j = j*dr, dr = R/(M+1),
j = 1..M.  Its spectral counterpart holds the 3D radial Fourier transform

    fhat(xi) = (4*pi/xi) * int_0^R r f(r) sin(r*xi) dr

at the sine frequencies xi_m = m*pi/R, m = 1..M.  Because r_j*xi_m =
pi*j*m/(M+1), the forward map is a type-I discrete sine transform of
w_j = r_j f(r_j), and the pair (analyze, synthesize) is an exact inverse
pair on grid data.  Both act along the last axis of (..., M) arrays.  A
field is the (M,) array of its sine coefficients on a grid, a stack of
fields an (..., M) array; physical samples appear only where a quantity is
defined on them: this transform pair, ``lebesgue_norms`` and the snapshot
files.  Plancherel holds exactly in the discrete setting:

    4*pi*dr * sum_j r_j^2 |f_j|^2  =  (2*pi^2)^{-1} * dxi * sum_m xi_m^2 |c_m|^2.

There is no zero frequency in the sine basis, so multipliers like 1/|xi|
are total on every represented mode.

The DST-I has two paths, chosen by M alone.  For M <= 256 with the largest
prime factor of M+1 above M/2 (M+1 or (M+1)/2 prime), scipy's FFT has no
fast radix for 2(M+1) and runs a generic prime-radix pass, so the transform
is a product with the grid's dense sine matrix instead; every other size
calls ``scipy.fftpack.dst``, scipy.fft's transform without its dispatch.
Per call at M=256 (2 shared cores), FFT -> matrix: real (2, M) 40-43 ->
19-22 us, complex (2, M) 78-79 -> 24 us, complex (11, M) 400-407 -> 102-117
us.  The prime-factor condition keeps 2-smooth sizes such as M=255 on the
FFT, which is faster there; the cap M=256 is the largest such size a
benchmark workload measures, and near M=500 the dense product stops winning
in any case.  On both paths each row is transformed on its own, so a row's
result does not depend on the other rows in the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np
from numpy.typing import NDArray
from scipy.fftpack import dst


_SINE_MATRIX_MAX_M = 256  # the largest size the dense DST-I path is benchmarked at (see the module docstring)


def _largest_prime_factor(n: int) -> int:
    p, d = 1, 2
    while d * d <= n:
        while n % d == 0:
            p, n = d, n // d
        d += 1
    return max(p, n)


def _dst1(grid: RadialGrid, x: NDArray) -> NDArray:
    """Unnormalized DST-I along the last axis of (..., M) arrays, safe for complex input.

    y_m = 2 * sum_j x_j sin(pi*j*m/(M+1)); self-inverse up to 2*(M+1).
    Complex input (C-contiguous) is transformed as its interleaved (..., M, 2)
    float view.  Where the grid has a :attr:`RadialGrid.sine_matrix` the
    transform is one matrix product per row, otherwise one scipy FFT call; on
    both paths a row's result does not depend on the other rows.
    """
    S = grid.sine_matrix
    if np.iscomplexobj(x):
        v = x.view(np.float64).reshape(*x.shape, 2)
        y = dst(v, type=1, axis=-2) if S is None else np.matmul(S, v)
        return y.view(np.complex128)[..., 0]
    return dst(x, type=1) if S is None else np.matmul(S, x[..., None])[..., 0]


# ---------------------------------------------------------------------------
# grid
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
        if not (np.isfinite(self.R) and self.R > 0):
            raise ValueError(f"domain radius must be positive and finite, got R={self.R}")
        if self.M < 4:
            raise ValueError(f"need at least 4 modes, got M={self.M}")
        # the spacings, the largest squared frequency, and the transform scalings at their largest:
        # analyze's at xi_1 and synthesize's at r_1
        dr, dxi = self.dr, self.dxi
        xi_top = self.M * dxi
        for name, x in [
            ("dr", dr),
            ("dxi", dxi),
            ("xi_M^2", xi_top * xi_top),
            ("2 pi dr / xi_1", 2.0 * np.pi * dr / dxi),
            ("dxi / (4 pi^2 r_1)", dxi / (4.0 * np.pi**2 * dr)),
        ]:
            if not (np.isfinite(x) and x > 0):
                raise ValueError(f"grid R={self.R}, M={self.M} gives {name} = {x}, not finite and positive")

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
    def lxi(self) -> NDArray[np.float64]:
        """The Klein-Gordon frequencies <xi_m> = sqrt(1 + xi_m^2)."""
        out = np.sqrt(1.0 + self.xi**2)
        out.flags.writeable = False
        return out

    @cached_property
    def sine_matrix(self) -> NDArray[np.float64] | None:
        """The (M, M) DST-I matrix 2 sin(pi*j*m/(M+1)) where :func:`_dst1` uses it, else None.

        Used for M <= 256 when the largest prime factor of M+1 exceeds M/2,
        where the FFT falls back to a slow prime-radix pass.  The entries are
        gathered from a 2(M+1)-point table by the reduced index j*m mod 2(M+1),
        so every sine argument lies in [0, 2*pi).
        """
        M = self.M
        if M > _SINE_MATRIX_MAX_M or 2 * _largest_prime_factor(M + 1) <= M:
            return None
        n = 2 * (M + 1)
        table = 2.0 * np.sin(np.pi * np.arange(n) / (M + 1))
        m = np.arange(1, M + 1)
        out = table[np.outer(m, m) % n]
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


# ---------------------------------------------------------------------------
# forward / inverse transform
# ---------------------------------------------------------------------------

def analyze(grid: RadialGrid, values: NDArray) -> NDArray:
    """c_m = (4*pi*dr/xi_m) sum_j r_j f_j sin(r_j xi_m) along the last axis of (..., M) samples."""
    return (2.0 * np.pi * grid.dr / grid.xi) * _dst1(grid, grid.r * values)


def synthesize(grid: RadialGrid, coeffs: NDArray) -> NDArray:
    """Inverse of :func:`analyze` on (..., M) coefficient arrays."""
    return (grid.dxi / (4.0 * np.pi**2 * grid.r)) * _dst1(grid, grid.xi * coeffs)


# ---------------------------------------------------------------------------
# propagators
# ---------------------------------------------------------------------------

# Both take a time or a 1-D array of S times.  An array gives the (S, M)
# phases, one row per time, and the coefficients broadcast against them: an
# (M,) profile flows to every time, an (S, M) stack row by row.  The product
# takes the coefficient first at every size, so each row is bit-identical to
# its own call: numpy's complex multiply is not bitwise commutative, and on a
# large stack ``coeffs * np.exp(...)`` would run as ``exp *= coeffs``.

def _flow(coeffs: NDArray, phase: NDArray) -> NDArray:
    """coeffs * exp(i*phase), coefficient first."""
    e = np.exp(1j * phase)
    out = e if e.shape == np.broadcast_shapes(np.shape(coeffs), e.shape) else None
    return np.multiply(coeffs, e, out=out)


def kg_propagate(grid: RadialGrid, coeffs: NDArray, t: float | NDArray) -> NDArray:
    """Free Klein-Gordon half-wave flow of (..., M) coefficients: multiply by exp(i*t*<xi>)."""
    return _flow(coeffs, np.multiply.outer(t, grid.lxi))


def wave_propagate(grid: RadialGrid, coeffs: NDArray, t: float | NDArray, alpha: float) -> NDArray:
    """Free half-wave flow at speed alpha of (..., M) coefficients: multiply by exp(i*alpha*t*|xi|)."""
    return _flow(coeffs, np.multiply.outer(alpha * t, grid.xi))


# ---------------------------------------------------------------------------
# Littlewood-Paley bumps and the dealiasing mask
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


def dealias_mask(grid: RadialGrid) -> NDArray[np.float64]:
    """2/3-rule mask: keep modes with xi <= (2/3) xi_M."""
    return (grid.xi <= (2.0 / 3.0) * grid.xi[-1]).astype(float)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

_CHUNK = 2**13  # elements per row chunk of an array-level computation (128 KB of complex)


def row_chunks(n_rows: int, row_elements: int) -> Iterator[slice]:
    """Slices over ``n_rows`` rows of ``row_elements`` elements each, at most
    _CHUNK / row_elements rows a slice (at least one), so the temporaries of a
    computation over one slice stay small whatever the stack."""
    step = max(1, _CHUNK // max(1, row_elements))
    return (slice(lo, lo + step) for lo in range(0, n_rows, step))


def map_rows(fn: Callable[..., NDArray], row_elements: int, *arrays: NDArray) -> NDArray:
    """One value per row: ``fn`` over the :func:`row_chunks` of (..., M) arrays of one shape.

    Returns the leading shape, a scalar for a single row.
    """
    shape = arrays[0].shape
    rows = [a.reshape(-1, shape[-1]) for a in arrays]
    out = np.empty(len(rows[0]))
    for sl in row_chunks(len(out), row_elements):
        out[sl] = fn(*(r[sl] for r in rows))
    return out.reshape(shape[:-1])[()]


def l2_norms(grid: RadialGrid, coeffs: NDArray) -> NDArray:
    """L^2 norms of (..., M) coefficient arrays; agree with the physical quadrature exactly."""
    return map_rows(
        lambda c: np.sqrt(np.sum(grid.xi**2 * np.abs(c) ** 2, axis=-1) * grid.dxi / (2.0 * np.pi**2)), grid.M, coeffs
    )


def sobolev_norms(grid: RadialGrid, coeffs: NDArray, s: float) -> NDArray:
    """Inhomogeneous Sobolev norms ||<D>^s f||_{L^2} of (..., M) coefficient arrays."""
    w = (1.0 + grid.xi**2) ** (s / 2.0)
    return map_rows(lambda c: l2_norms(grid, c * w), grid.M, coeffs)


def lebesgue_norms(grid: RadialGrid, values: NDArray, p: float) -> NDArray:
    """L^p norms (4*pi sum |f|^p r^2 dr)^(1/p) of (..., M) physical samples."""
    if p < 1:
        raise ValueError(f"need p >= 1, got p={p}")
    if np.isinf(p):
        return map_rows(lambda v: np.abs(v).max(axis=-1, initial=0.0), grid.M, values)
    scale = 4.0 * np.pi * grid.dr
    return map_rows(lambda v: (scale * np.sum(np.abs(v) ** p * grid.r**2, axis=-1)) ** (1.0 / p), grid.M, values)


def besov_norms(
    grid: RadialGrid, coeffs: NDArray, s: float, p: float, homogeneous: bool = True, multiplier: NDArray | float = 1.0
) -> NDArray:
    """Besov norms of the (..., M) coefficient arrays times the Fourier ``multiplier``:
    l^2 over resolved dyadic k of weighted ||P_k f||_p, weight 2^(s*k) in the
    homogeneous case, <2^k>^s otherwise.

    The blocks of a chunk of rows go through one synthesize.  A block whose bump
    shares no nonzero mode with the multiplier has norm 0 and is skipped.
    """
    if p < 1:
        raise ValueError(f"need p >= 1, got p={p}")
    ks = np.array(grid.resolved_k)
    chi = chi_k(grid.xi, ks[:, None])
    live = np.any((chi != 0) & (multiplier != 0), axis=1)
    ks, chi = ks[live], chi[live, None]
    weights = [2.0 ** (s * k) if homogeneous else (1.0 + 4.0**k) ** (s / 2.0) for k in ks.tolist()]

    def norm(c: NDArray) -> NDArray:
        blocks = lebesgue_norms(grid, synthesize(grid, chi * (c * multiplier)), p)
        return np.sqrt(sum((w * nb) ** 2 for w, nb in zip(weights, blocks)))

    return map_rows(norm, max(len(ks), 1) * grid.M, coeffs)


# ---------------------------------------------------------------------------
# random data
# ---------------------------------------------------------------------------

def random_band_limited(grid: RadialGrid, rng: np.random.Generator) -> NDArray:
    """(M,) random complex coefficients on the grid's modes: standard normal real and imaginary parts."""
    return rng.standard_normal(grid.M) + 1j * rng.standard_normal(grid.M)
