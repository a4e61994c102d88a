"""Reference computations and readers shared by the test modules."""

import math
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from kgzsim.radial import _HEADER, RadialGrid, analyze, dealias_mask, eta0, synthesize
from kgzsim.resonance import ResonanceParams


def pointwise_product(grid: RadialGrid, f, g, dealiased: bool = False):
    """Physical-space product of (M,) samples, optionally with 2/3-rule truncation of inputs and output."""
    if not dealiased:
        return f * g
    mask = dealias_mask(grid)
    fd = synthesize(grid, analyze(grid, f) * mask)
    gd = synthesize(grid, analyze(grid, g) * mask)
    return synthesize(grid, analyze(grid, fd * gd) * mask)


def smooth_random_field(
    grid: RadialGrid,
    rng: np.random.Generator,
    n_bumps: int = 8,
    xi_top: float | None = None,
    width: float = 1.0,
):
    """(M,) coefficients of a random superposition of Gaussian bumps in frequency, supported in [0, 2*xi_top].

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
    return coeffs


def read_field(path):
    """The (grid, kind, (M,) complex values) of a ``.fld`` snapshot file."""
    with open(path, "rb") as fh:
        R, M, kind, cflag = _HEADER.unpack(fh.read(_HEADER.size))
        raw = np.frombuffer(fh.read(), dtype="<f8")
    assert cflag == 1, "snapshot files hold complex (re, im) pairs"
    raw = raw.reshape(M, 2)
    return RadialGrid(R, int(M)), kind, raw[:, 0] + 1j * raw[:, 1]


# ---------------------------------------------------------------------------
# independent finite-difference oracle
# ---------------------------------------------------------------------------

def _sine_series(grid: RadialGrid, coeffs: Sequence[NDArray], r_points: NDArray) -> list[NDArray]:
    """The sine series of each (M,) coefficient row at radii r > 0 (exact at the grid points):
    f(r) = dxi/(2*pi^2*r) * sum_m xi_m c_m sin(r*xi_m).  The rows share one sine matrix,
    and each is its own matrix-vector product."""
    phases = np.sin(np.outer(r_points, grid.xi))
    return [(grid.dxi / (2.0 * np.pi**2)) * (phases @ (grid.xi * c)) / r_points for c in coeffs]


def oracle_evolve(
    grid: RadialGrid,
    s: NDArray,
    alpha: float,
    T: float,
    refine: int = 4,
    dt: float | None = None,
) -> NDArray:
    """Second-order finite-difference / leapfrog reference solution.

    Works on w = r*f (so the radial Laplacian is a plain second difference
    with Dirichlet w(0) = w(R) = 0) on a grid refined by ``refine`` relative
    to the grid of the (4, M) state ``s``, and returns the (4, M) state a time
    T later, subsampled back onto that grid.  Rejects time steps violating
    dt <= dr/max(1, alpha); without ``dt`` it steps at 0.9 of that limit.
    """
    M_fd = refine * (grid.M + 1) - 1
    dr = grid.R / (M_fd + 1)
    r = dr * np.arange(1, M_fd + 1)
    dt_max = dr / max(1.0, alpha)
    if dt is not None and dt > dt_max:
        raise ValueError(f"CFL violation: dt={dt} > dr/max(1,alpha)={dt_max:.3e}")
    if dt is None:
        dt = 0.9 * dt_max
    n_steps = max(1, math.ceil(T / dt))
    dt = T / n_steps

    wu, wud, wn, wnd = ((r * f).real for f in _sine_series(grid, [analyze(grid, f) for f in s], r))

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

    idx = refine * np.arange(1, grid.M + 1) - 1
    return np.array([w[idx] / grid.r for w in (wu, wud, wn, wnd)], dtype=np.complex128)


# ---------------------------------------------------------------------------
# the normal-form symbols from their definitions, and an independent bilinear quadrature
# ---------------------------------------------------------------------------

def all_blocks_cutoff(kind: str, params: ResonanceParams, grid: RadialGrid, u: NDArray, rho: NDArray) -> NDArray:
    """The cutoff of the ``omega`` or ``omega_tilde`` symbol at u = |xi - eta| and rho = |eta|, every
    dyadic block of the grid summed on every entry.

    XL term: the sum over the non-resonant blocks k (|2^k - c| > delta) of
    chi_k(u) eta0(rho / 2^(k - k_alpha)), times the excision 1 - eta0(|u - c| / (delta / 2)) of the
    annulus core [c - delta/2, c + delta/2].  ``omega_tilde`` adds the unguarded LX term, the mirror
    sum of eta0(u / 2^(k - k_alpha)) chi_k(rho).
    """
    p, ka = params, params.k_alpha
    xl = [k for k in grid.resolved_k if abs(2.0**k - p.c_alpha) > p.delta_alpha]
    num = np.zeros(np.broadcast_shapes(u.shape, rho.shape))
    for k in xl:
        num = num + (eta0(u / 2.0**k) - eta0(u / 2.0 ** (k - 1))) * eta0(rho / 2.0 ** (k - ka))
    num = num * (1.0 - eta0(np.abs(u - p.c_alpha) / (0.5 * p.delta_alpha)))
    if kind == "omega_tilde":
        lx = np.zeros_like(num)
        for k in xl:
            lx = lx + eta0(u / 2.0 ** (k - ka)) * (eta0(rho / 2.0**k) - eta0(rho / 2.0 ** (k - 1)))
        num = num + lx
    return num


def resonance_phase(kind: str, alpha: float, xi: NDArray, u: NDArray, rho: NDArray) -> NDArray:
    """The phase the cutoff is divided by: -<xi> + alpha u + <rho> for ``omega``, and
    <u> - <rho> - alpha xi for ``omega_tilde``."""
    if kind == "omega":
        return -np.sqrt(1.0 + xi**2) + alpha * u + np.sqrt(1.0 + rho**2)
    return np.sqrt(1.0 + u**2) - np.sqrt(1.0 + rho**2) - alpha * xi


def _band(grid: RadialGrid, c: NDArray) -> tuple[float, float]:
    """The interval outside which the linear interpolant of the (M,) coefficients c is zero."""
    nz = np.flatnonzero(c)
    return grid.xi[max(nz[0] - 1, 0)], grid.xi[min(nz[-1] + 1, grid.M - 1)]


def _simpson_nodes(lo: NDArray, hi: NDArray, n: int) -> tuple[NDArray, NDArray]:
    """n (odd) uniform nodes on each interval [lo, hi], on a new last axis, and their composite Simpson
    weights; an interval with hi <= lo gets zero weights."""
    w = np.full(n, 2.0)
    w[1::2], w[0], w[-1] = 4.0, 1.0, 1.0
    length = np.maximum(hi - lo, 0.0)[..., None]
    return lo[..., None] + length * np.linspace(0.0, 1.0, n), length * w / (3.0 * (n - 1))


def _linear(grid: RadialGrid, c: NDArray, x: NDArray) -> NDArray:
    """The linear interpolant of (M,) coefficients at radii x, zero outside [xi_1, xi_M]."""
    return np.interp(x, grid.xi, c.real, left=0.0, right=0.0) + 1j * np.interp(x, grid.xi, c.imag, left=0.0, right=0.0)


INNER_NODES = 65  # Simpson nodes of the inner rule


def bilinear_reference(
    kind: str, params: ResonanceParams, grid: RadialGrid, cf: NDArray, cg: NDArray
) -> tuple[NDArray, NDArray]:
    """(Omega, cutoff) outputs of the ``omega`` or ``omega_tilde`` bilinear operator on (M,) coefficients,
    from the definition of the operator and no part of the kernel that builds it.

    The operator is (4 pi^2)^{-1} int int w(xi, rho, u) fhat(u) ghat(rho) rho^2 dc drho, with
    u = |xi - eta| and ghat conjugated for ``omega_tilde``.  The angle goes over to u by
    int_{-1}^{1} F dc = (xi rho)^{-1} int_{|xi - rho|}^{xi + rho} F(u) u du, so each output is
    (4 pi^2 xi)^{-1} times the integral of w fhat(u) ghat(rho) u rho over the triangle
    |xi - rho| <= u <= xi + rho, which is symmetric in u and rho.  The outer integral runs over the
    narrower of the bands of fhat and ghat, the inner one over the other band cut to the triangle,
    at most twice the outer variable long.  Both inputs are linearly interpolated, and each integral
    is a uniform Simpson rule: the outer one has four intervals per grid step, so that the kinks of
    its input's interpolant, at the grid points, fall on the ends of Simpson panels.
    """
    g = np.conj(cg) if kind == "omega_tilde" else cg
    (af, bf), (ag, bg) = _band(grid, cf), _band(grid, g)
    rho_outer = bg - ag <= bf - af
    (a, b), (a_in, b_in), c_out, c_in = ((ag, bg), (af, bf), g, cf) if rho_outer else ((af, bf), (ag, bg), cf, g)
    x, wx = _simpson_nodes(np.array(a), np.array(b), 4 * round((b - a) / grid.dxi) + 1)
    outer = _linear(grid, c_out, x) * x * wx
    out = np.zeros((2, grid.M), dtype=np.complex128)
    # the outputs the triangle can reach from the two bands
    rows = np.flatnonzero((grid.xi <= bf + bg) & (grid.xi >= max(af - bg, ag - bf)))
    for chunk in np.array_split(rows, max(1, len(rows) // 16)):
        xi = grid.xi[chunk, None]
        y, wy = _simpson_nodes(np.maximum(np.abs(xi - x), a_in), np.minimum(xi + x, b_in), INNER_NODES)
        u, rho = (y, x[:, None]) if rho_outer else (x[:, None], y)
        cut = all_blocks_cutoff(kind, params, grid, u, rho)
        omega = np.zeros(cut.shape)
        np.divide(cut, resonance_phase(kind, params.alpha, xi[..., None], u, rho), out=omega, where=cut != 0.0)
        inner = _linear(grid, c_in, y) * y * wy
        for w, o in zip((omega, cut), out):
            o[chunk] = np.sum(np.sum(w * inner, axis=-1) * outer, axis=-1) / (4.0 * np.pi**2 * xi[:, 0])
    return out[0], out[1]
