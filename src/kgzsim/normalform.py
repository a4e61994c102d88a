"""Bilinear normal-form multipliers and transformed-equation residuals.

The quadratic terms of the first-order system are traded, on their
non-resonant high-low support, for boundary and cubic terms by integrating
the Duhamel integral by parts against the non-vanishing resonance phase.
The workhorse is a bilinear operator with a radial symbol,

    B[w](f, g)(xi) = (2 pi)^{-3} * 2 pi *
        int_0^inf int_{-1}^{1} w(xi, |eta|, c) fhat(|xi - eta|) ghat(|eta|)
        |eta|^2 dc d|eta|,

evaluated by Gauss-Legendre quadrature in the angle and trapezoid over the
grid frequencies, with linear interpolation of fhat at off-grid radii.  The
(2 pi)^{-3} is the convolution-theorem constant for the transform
normalization used here, so the weight-one symbol reproduces the pointwise
product f * g.  Each operator stores the whole quadrature as a float64
pair-list kernel, at every grid size and angular order, and applies it in
O(nnz) per coefficient pair.

The boundary and cubic terms of the normal form come from one batched
assembly, :func:`normal_form_terms`, which forms the interior products N U
and |U|^2 without dealiasing.  It builds the operators it needs and drops
them on return; no operator is cached between calls.

The division by the resonance phase is only applied on a support that stays
away from the phase's zero set: the dyadic high-low blocks outside the
resonant annulus, further multiplied by a smooth excision of the annulus
core [c - delta/2, c + delta/2] in the high-factor radius (block bumps spill
across the annulus edge, so the block selection alone would not keep the
symbol bounded).  The residual checker subtracts exactly this guarded piece
from the full product, which keeps the transformed integral identity exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray
from scipy import sparse
from scipy.integrate import simpson

from . import export
from .radial import (
    _CHUNK,
    PhysField,
    RadialGrid,
    SpectralField,
    analyze,
    as_spectral,
    besov_norms,
    chi_k,
    chi_le,
    eta0,
    l2_norms,
    lebesgue_norms,
    sobolev_norms,
    synthesize,
    to_physical,
)
from .resonance import InteractionTag, ResonanceParams, decompose_bilinear
from .kgz import Trajectory
from .strichartz import resolution_exponents

SYMBOL_KINDS = ("plain", "omega", "omega_tilde", "xl_mask", "xl_lx_mask")


@dataclass(frozen=True)
class BilinearSymbol:
    """Radial bilinear weight selected by ``kind``.

    plain        -- weight 1 (convolution / product);
    omega        -- guarded XL cutoff divided by -<xi> + alpha|xi-eta| + <eta>;
    omega_tilde  -- guarded XL + LX cutoff divided by <xi-eta> - <eta> - alpha|xi|
                    (pairs fhat(xi-eta) with the conjugate of ghat);
    xl_mask      -- the guarded XL cutoff alone;
    xl_lx_mask   -- the guarded XL + LX cutoff alone.
    """

    kind: str
    params: ResonanceParams | None = None
    guard_fraction: float = 0.5

    def __post_init__(self):
        if self.kind not in SYMBOL_KINDS:
            raise ValueError(f"kind must be one of {SYMBOL_KINDS}, got {self.kind!r}")
        if self.kind != "plain" and self.params is None:
            raise ValueError(f"symbol kind {self.kind!r} needs resonance parameters")
        if not 0.0 < self.guard_fraction < 1.0:
            raise ValueError("guard_fraction must lie in (0, 1)")

    @property
    def conjugates_second(self) -> bool:
        return self.kind in ("omega_tilde", "xl_lx_mask")


def annulus_guard(u: NDArray, params: ResonanceParams, fraction: float = 0.5) -> NDArray:
    """Smooth complement bump: 0 on [c - f*delta, c + f*delta], 1 off the annulus."""
    d = np.abs(np.asarray(u, dtype=float) - params.c_alpha)
    return 1.0 - eta0(d / (fraction * params.delta_alpha))


def _xl_blocks(params: ResonanceParams, ks: Sequence[int]) -> list[int]:
    return [k for k in ks if abs(2.0**k - params.c_alpha) > params.delta_alpha]


def _phase(sym: BilinearSymbol, xi_out: NDArray, u: NDArray, rho: NDArray, on: NDArray) -> NDArray:
    """The phase on the entries ``on`` of u, with xi_out and rho broadcast against u."""
    xi_out, rho, u = np.broadcast_to(xi_out, u.shape)[on], np.broadcast_to(rho, u.shape)[on], u[on]
    if sym.kind == "omega":
        return -np.sqrt(1.0 + xi_out**2) + sym.params.alpha * u + np.sqrt(1.0 + rho**2)
    return np.sqrt(1.0 + u**2) - np.sqrt(1.0 + rho**2) - sym.params.alpha * xi_out


def _radius(xi_out: NDArray, rho: NDArray, cos: NDArray | float) -> NDArray:
    """u = |xi - eta| at angle cosine ``cos``; each operation rounds monotonically, so u is monotone in cos."""
    return np.sqrt(np.maximum(xi_out**2 + rho**2 - 2.0 * xi_out * rho * cos, 0.0))


def _block_support(k: int, ka: int, lo: NDArray, hi: NDArray, rho: NDArray) -> tuple[NDArray, NDArray]:
    """Where block k's XL and LX terms can be nonzero, for u in [lo, hi].  Each comparison is exact:
    eta0(x) is 0.0 for x >= 2, eta0(x / 2) - eta0(x) is 0.0 for x <= 1, and x is u or rho over a power of 2."""
    xl = (rho < 2.0 ** (k - ka + 1)) & (lo < 2.0 ** (k + 1)) & (hi > 2.0 ** (k - 1))
    lx = (2.0 ** (k - 1) < rho) & (rho < 2.0 ** (k + 1)) & (lo < 2.0 ** (k - ka + 1))
    return xl, lx


def _pair_support(sym: BilinearSymbol, grid: RadialGrid) -> NDArray:
    """(M, M) mask of the pairs (xi_m, rho_j) where the weight can be nonzero: the union
    of the block supports, with u at every angle in [u(1), u(-1)] (see :func:`_radius`)."""
    if sym.kind == "plain":
        return np.ones((grid.M, grid.M), dtype=bool)
    xi, rho = grid.xi[:, None], grid.xi
    lo, hi = _radius(xi, rho, 1.0), _radius(xi, rho, -1.0)
    keep = np.zeros((grid.M, grid.M), dtype=bool)
    for k in _xl_blocks(sym.params, grid.resolved_k):
        xl, lx = _block_support(k, sym.params.k_alpha, lo, hi, rho)
        keep |= xl | lx if sym.conjugates_second else xl
    return keep


def _symbol_weight(
    sym: BilinearSymbol,
    grid: RadialGrid,
    xi_out: NDArray,
    u: NDArray,
    rho: NDArray,
) -> NDArray:
    """Evaluate the weight on broadcastable (xi_out, u, rho) arrays, the angle on the last axis.

    Each row (xi_out, rho) gets only the block terms :func:`_block_support` allows on its range of u,
    and the phase only where the numerator is nonzero; every term skipped is exactly 0.0.
    """
    shape = np.broadcast_shapes(xi_out.shape, u.shape, rho.shape)
    if sym.kind == "plain":
        return np.ones(shape)

    p, ka = sym.params, sym.params.k_alpha
    u = np.broadcast_to(u, shape).reshape(-1, shape[-1])
    rho = np.broadcast_to(rho, shape[:-1] + (1,)).reshape(-1, 1)
    lo, hi = u.min(axis=1), u.max(axis=1)
    num, lx = np.zeros(u.shape), np.zeros(u.shape) if sym.conjugates_second else 0.0
    for k in _xl_blocks(p, grid.resolved_k):
        on_xl, on_lx = (np.flatnonzero(on) for on in _block_support(k, ka, lo, hi, rho[:, 0]))
        if on_xl.size:
            num[on_xl] += chi_k(u[on_xl], k) * chi_le(rho[on_xl], k - ka)
        if on_lx.size and sym.conjugates_second:
            lx[on_lx] += chi_le(u[on_lx], k - ka) * chi_k(rho[on_lx], k)
    on = num != 0.0
    num[on] *= annulus_guard(u[on], p, sym.guard_fraction)
    num += lx
    if sym.kind in ("omega", "omega_tilde"):
        on = num != 0.0
        num[on] /= _phase(sym, np.broadcast_to(xi_out, shape[:-1] + (1,)).reshape(-1, 1), u, rho, on)
    return num.reshape(shape)


# ---------------------------------------------------------------------------
# quadrature operator
# ---------------------------------------------------------------------------

_ROWS = 8  # output frequencies per kernel-build chunk


def _interp_tables(grid: RadialGrid, u: NDArray) -> tuple[NDArray, NDArray]:
    """Index/fraction tables for linear interpolation at radii u; index M is the zero pad beyond [xi_1, xi_M]."""
    xi1, xiM, dxi = grid.xi[0], grid.xi[-1], grid.dxi
    pos = (u - xi1) / dxi
    idx = np.floor(pos).astype(np.intp)
    frc = pos - idx
    inside = (u >= xi1) & (u <= xiM)
    idx[~inside] = grid.M
    frc[~inside] = 0.0
    return idx, frc


class BilinearOperator:
    """Bilinear quadrature bound to (grid, symbol, angular order).

    The quadrature is contracted once into a pair-list kernel.  Pair p is an
    output frequency xi_(m_p) and input radius rho_(j_p) on the symbol's pair
    support with a nonzero weight.  The float64 CSR matrix A (pairs, M) weighs
    fhat_i in pair p and the 0/1 matrix B (M, pairs) sums each pair into its
    output row; entries that only touch the zero pad beyond xi_M are dropped.
    An apply is B @ ((A @ fhat) * ghat[j_p]); every output row is summed in the
    same order whatever the stack, so batched and single applies are
    bit-identical.  ``min_abs_phase`` is the smallest |phase| divided by (None
    if the kind has none).
    """

    def __init__(self, grid: RadialGrid, symbol: BilinearSymbol, n_angular: int = 64):
        self.grid = grid
        self.symbol = symbol
        self.n_angular = int(n_angular)
        self._cos, self._glw = np.polynomial.legendre.leggauss(self.n_angular)
        M = grid.M
        trap = np.ones(M)
        trap[0] = trap[-1] = 0.5
        # (2 pi)^{-3} * 2 pi = 1/(4 pi^2), folded with the radial measure
        self._base = (grid.dxi / (4.0 * np.pi**2)) * trap * grid.xi**2
        self.max_abs_weight = 0.0
        self.min_abs_phase = np.inf if symbol.kind in ("omega", "omega_tilde") else None
        support = _pair_support(symbol, grid)
        blocks, pairs = [], []
        for lo in range(0, M, _ROWS):
            m, j = np.nonzero(support[lo : lo + _ROWS])
            G, idx, frc = self._pair_kernel(lo + m, j)
            p, q = np.nonzero(G)
            g, i, f = G[p, q], idx[p, q], frc[p, q]
            # fhat(u) ~ (1 - f) fhat_i + f fhat_{i+1}; index M is the zero pad
            w = np.concatenate([g * (1.0 - f), g * f])
            i = np.concatenate([i, i + 1])
            keep = (i < M) & (w != 0.0)
            p = np.tile(p, 2)[keep]
            # number the pairs that keep an entry in (m, j) order
            kept = np.bincount(p, minlength=len(m)) > 0
            p = (np.cumsum(kept) - 1)[p]
            blocks.append(sparse.coo_array((w[keep], (p, i[keep])), shape=(kept.sum(), M)).tocsr())
            pairs.append(np.stack([lo + m[kept], j[kept]]))
        self._A = sparse.vstack(blocks, format="csr")
        self.m_p, self.j_p = np.concatenate(pairs, axis=1)
        n = len(self.m_p)
        self._B = sparse.csr_array((np.ones(n), (self.m_p, np.arange(n))), shape=(M, n))

    def _pair_kernel(self, m: NDArray, j: NDArray) -> tuple[NDArray, NDArray, NDArray]:
        """Quadrature weights and interpolation tables on the pairs (xi_m, rho_j), axes (pair, angle)."""
        xi_out = self.grid.xi[m][:, None]
        rho = self.grid.xi[j][:, None]
        u = _radius(xi_out, rho, self._cos)
        w = _symbol_weight(self.symbol, self.grid, xi_out, u, rho)
        if not np.all(np.isfinite(w)):
            raise RuntimeError(f"bilinear symbol {self.symbol.kind!r} is not finite on its support")
        self.max_abs_weight = max(self.max_abs_weight, float(np.abs(w).max(initial=0.0)))
        if self.min_abs_phase is not None:
            den = _phase(self.symbol, xi_out, u, rho, w != 0.0)
            self.min_abs_phase = min(self.min_abs_phase, float(np.abs(den).min(initial=np.inf)))
        G = w * (self._base[j][:, None] * self._glw)
        idx, frc = _interp_tables(self.grid, u)
        return G, idx, frc

    def apply_batch(self, fhats: NDArray, ghats: NDArray) -> NDArray:
        """Apply to a stack of coefficient pairs, (S, M) -> (S, M), _CHUNK (pair, row) products or one row at a time."""
        fhats = np.atleast_2d(np.asarray(fhats, dtype=np.complex128))
        ghats = np.atleast_2d(np.asarray(ghats, dtype=np.complex128))
        if self.symbol.conjugates_second:
            ghats = np.conj(ghats)
        out = np.empty(fhats.shape, dtype=np.complex128)
        step = max(1, _CHUNK // max(1, len(self.m_p)))
        for lo in range(0, len(out), step):
            # real kernels: act on the interleaved real and imaginary parts of (M, rows) arrays
            f = np.ascontiguousarray(fhats[lo : lo + step].T).view(np.float64)
            prod = (self._A @ f).view(np.complex128)
            prod *= ghats[lo : lo + step, self.j_p].T
            out[lo : lo + step] = (self._B @ prod.view(np.float64)).view(np.complex128).T
        return out


def dense_bilinear_reference(
    sym: BilinearSymbol,
    f,
    g,
    refine: int = 4,
    n_angular: int = 256,
    rho_max: float | None = None,
) -> PhysField:
    """Straightforward dense-quadrature evaluation, used as an oracle.

    Uniform radial nodes at ``refine`` times the grid density (optionally
    truncated at ``rho_max`` when ghat is band-limited) and a ``n_angular``
    point Gauss-Legendre rule; both inputs are linearly interpolated.
    """
    grid = f.grid
    cf, cg = as_spectral(f), as_spectral(g)
    g_arr = np.conj(cg.coeffs) if sym.conjugates_second else cg.coeffs
    g_field = SpectralField(grid, g_arr)
    top = grid.xi[-1] if rho_max is None else min(rho_max, grid.xi[-1])
    n_r = int(np.ceil(refine * top / grid.dxi))
    rho = np.linspace(0.0, top, n_r + 1)[1:]
    drho = rho[1] - rho[0]
    trap = np.ones_like(rho)
    trap[-1] = 0.5
    nodes, weights = np.polynomial.legendre.leggauss(n_angular)
    gv = g_field.sample_at(rho)
    out = np.empty(grid.M, dtype=np.complex128)
    for m, xm in enumerate(grid.xi):
        u = _radius(xm, rho[:, None], nodes[None, :])
        w = _symbol_weight(sym, grid, np.array(xm)[None, None], u, rho[:, None])
        fv = cf.sample_at(u.ravel()).reshape(u.shape)
        kern = w * fv * weights[None, :]
        out[m] = (drho / (4.0 * np.pi**2)) * np.sum(kern.sum(axis=1) * gv * rho**2 * trap)
    return to_physical(SpectralField(grid, out))


# ---------------------------------------------------------------------------
# boundary and cubic terms
# ---------------------------------------------------------------------------

# term -> (symbol kind, first factor, second factor), aux = <D>^{-1}(N U)
NORMAL_FORM_TERMS = {
    "bd_U": ("omega", "N", "U"),              # boundary term of the U equation
    "bd_N": ("omega_tilde", "U", "U"),        # boundary term of the N equation
    "cubic_1": ("omega", "D|U|^2", "U"),
    "cubic_2": ("omega", "N", "aux"),
    "cubic_3": ("omega_tilde", "aux", "U"),
    "cubic_3b": ("omega_tilde", "U", "aux"),  # N equation, conjugate factor differentiated
    "nonres_U": ("xl_mask", "N", "U"),        # guarded pieces the normal form removes
    "nonres_N": ("xl_lx_mask", "U", "U"),
}


def normal_form_terms(
    grid: RadialGrid,
    params: ResonanceParams,
    cN: NDArray,
    cU: NDArray,
    names: Sequence[str],
    n_angular: int = 64,
) -> dict[str, NDArray]:
    """Raw Omega / OmegaTilde outputs of the named terms on (S, M) coefficient stacks.

    The products N U and |U|^2 are formed once, in physical space and without
    dealiasing: the residual identity needs the exact products, and the sweep
    fields are alias-free by construction.  They are returned too, as "NU" and
    "UU"; the ``<D>^{-1}`` and ``D`` factors outside the operators are left to
    the caller.  It builds one operator per symbol kind in ``names``, dropped on return.
    """
    cN, cU = np.atleast_2d(cN), np.atleast_2d(cU)
    vN, vU = synthesize(grid, cN), synthesize(grid, cU)
    out = {"NU": analyze(grid, vN * vU), "UU": analyze(grid, vU * np.conj(vU))}
    factors = {"N": cN, "U": cU, "aux": out["NU"] / np.sqrt(1.0 + grid.xi**2), "D|U|^2": grid.xi * out["UU"]}
    kinds = dict.fromkeys(NORMAL_FORM_TERMS[name][0] for name in names)  # distinct, in order of first use
    ops = {kind: BilinearOperator(grid, BilinearSymbol(kind, params), n_angular) for kind in kinds}
    for name in names:
        kind, a, b = NORMAL_FORM_TERMS[name]
        out[name] = ops[kind].apply_batch(factors[a], factors[b])
    return out


# ---------------------------------------------------------------------------
# Duhamel residuals of the transformed integral equations
# ---------------------------------------------------------------------------

def duhamel_residual(
    traj: Trajectory,
    params: ResonanceParams | None,
    which: str = "U",
    n_angular: int = 64,
) -> float:
    """Relative L^2 mismatch of the transformed integral equation at the final time.

    The right-hand side combines the free term, the boundary corrections at 0
    and t, the two cubic Duhamel integrals, and the untransformed remainder
    (the full quadratic term minus its guarded non-resonant part), each
    propagated exactly and integrated over the stored snapshots by composite
    Simpson.  Requires a ``simplified``-model trajectory without dealiasing
    and alpha < 1; a ``linear`` trajectory is compared against the free term
    alone.
    """
    if which not in ("U", "N"):
        raise ValueError("which must be 'U' or 'N'")
    cfg = traj.config
    grid = cfg.grid
    times = traj.times
    t = float(times[-1])
    lxi = np.sqrt(1.0 + grid.xi**2)
    xi = grid.xi

    cU, cN = traj.cU, traj.cN
    target = cU[-1] if which == "U" else cN[-1]
    den = l2_norms(grid, target)

    if cfg.model == "linear":
        c0 = cU[0] if which == "U" else cN[0]
        phase = np.exp(1j * t * lxi) if which == "U" else np.exp(1j * cfg.alpha * t * xi)
        num = l2_norms(grid, phase * c0 - target)
        return 0.0 if den == 0.0 else num / den

    if cfg.model != "simplified":
        raise ValueError("transformed-equation residuals require a simplified-model trajectory")
    if cfg.alpha >= 1.0:
        raise ValueError("the transformed equations are assembled for alpha < 1")
    if cfg.dealias:
        raise ValueError("residual checking needs a trajectory run without dealiasing")
    if params is None or abs(params.alpha - cfg.alpha) > 0.0:
        raise ValueError("resonance parameters must match the trajectory's alpha")
    if len(times) < 3:
        raise ValueError("need at least three snapshots for Simpson quadrature")

    alpha = cfg.alpha
    if which == "U":
        nf = normal_form_terms(grid, params, cN, cU, ("bd_U", "cubic_1", "cubic_2", "nonres_U"), n_angular)
        rest = nf["NU"] - nf["nonres_U"]
        total = (-1j / lxi) * (alpha * nf["cubic_1"] + nf["cubic_2"] + rest)
        integrand = np.exp(1j * np.outer(t - times, lxi)) * total
        b0, bt = nf["bd_U"][[0, -1]] / lxi
        free = np.exp(1j * t * lxi) * (cU[0] + b0)
    else:
        nf = normal_form_terms(grid, params, cN, cU, ("bd_N", "cubic_3", "cubic_3b", "nonres_N"), n_angular)
        rest = nf["UU"] - nf["nonres_N"]
        # the second cubic term enters with the opposite sign: the conjugate
        # factor twists with phase exp(+i s <eta>)
        total = -1j * alpha * xi * (nf["cubic_3"] + rest) + 1j * alpha * xi * nf["cubic_3b"]
        integrand = np.exp(1j * alpha * np.outer(t - times, xi)) * total
        b0, bt = alpha * xi * nf["bd_N"][[0, -1]]
        free = np.exp(1j * alpha * t * xi) * (cN[0] + b0)

    rhs = free - bt + simpson(integrand, x=times, axis=0)
    num = l2_norms(grid, rhs - target)
    return 0.0 if den == 0.0 else num / den


# ---------------------------------------------------------------------------
# boundedness sweeps
# ---------------------------------------------------------------------------

ESTIMATES = (
    "bd_U",      # ||<D>^{-1} Om(N,U)||_{H1} / (||N||_2 ||U||_{H1})
    "bd_N",      # ||D OmT(U,U)||_2 / ||U||_{H1}^2
    "cubic_1",   # ||<D>^{-1} Om(D|U|^2,U)||_{H1} / (||U||_6^2 ||U||_{H1})
    "cubic_2",   # split-norm of <D>^{-1} Om(N, <D>^{-1}(NU)) / (||N||_2^2 ||U||_6)
    "cubic_3",   # ||D OmT(<D>^{-1}(NU), U)||_2 / (||N||_2 ||U||_6^2)
    "bi_LH",     # ||<D>^{-1}(NU)_{LH}||_{H1} / Besov pair
    "bi_HH",     # ||<D>^{-1}(NU)_{HH}||_{H1} / Besov pair
    "bi_DHH",    # ||D(U conj U)_{HH}||_2 / split-norm(U)^2
)


@dataclass(frozen=True)
class SweepRow:
    estimate: str
    M: int
    trial: int
    value: float


@dataclass(frozen=True)
class SweepReport:
    alpha: float
    sizes: tuple[int, ...]
    trials: int
    eps: float
    rows: tuple[SweepRow, ...]

    def max_constants(self) -> dict[str, dict[int, float]]:
        out: dict[str, dict[int, float]] = {e: {} for e in ESTIMATES}
        for row in self.rows:
            cur = out[row.estimate].get(row.M, 0.0)
            out[row.estimate][row.M] = max(cur, row.value)
        return out

    def stability_ratios(self) -> dict[str, float]:
        ratios = {}
        for est, per_m in self.max_constants().items():
            vals = list(per_m.values())
            if vals:
                ratios[est] = max(vals) / min(vals)
        return ratios

    def passed(self, factor: float = 2.0) -> bool:
        return all(r <= factor for r in self.stability_ratios().values())

    def write_csv(self, path) -> None:
        rows = [(r.estimate, r.M, r.trial, r.value) for r in self.rows]
        export.write_csv(path, ["estimate", "M", "trial", "value"], rows)


def sweep_trial_field(grid: RadialGrid, rng: np.random.Generator) -> SpectralField:
    """Two-cluster trial field: mass near xi ~ 0.1 and near xi ~ 4.

    The clusters sit k_alpha dyadic levels apart (so the non-resonant high-low
    symbols act on real mass) while products stay inside the coarsest sweep
    band, alias-free.  The construction is a formula in xi, so one generator
    state defines one continuum field on every grid size.
    """
    xi = grid.xi
    low = np.zeros(grid.M, dtype=np.complex128)
    high = np.zeros(grid.M, dtype=np.complex128)
    for _ in range(3):
        c, w = rng.uniform(0.08, 0.18), rng.uniform(0.04, 0.08)
        low += (rng.standard_normal() + 1j * rng.standard_normal()) * np.exp(-(((xi - c) / w) ** 2))
    for _ in range(3):
        c, w = rng.uniform(3.2, 4.2), rng.uniform(0.3, 0.6)
        high += (rng.standard_normal() + 1j * rng.standard_normal()) * np.exp(-(((xi - c) / w) ** 2))
    coeffs = low * eta0(xi / 0.15) + high * eta0(xi / 2.25)
    return SpectralField(grid, coeffs)


def estimate_sweep(
    alpha: float = 2.0,
    sizes: Sequence[int] = (128, 256, 512),
    trials: int = 50,
    R: float = 40.0,
    n_angular: int = 64,
    seed: int = 20240801,
    eps: float = 0.05,
) -> SweepReport:
    """Measure the normal-form estimate constants across grid refinements.

    The default alpha = 2 keeps the dyadic separation at its floor of 5, the
    largest separation a 128-mode band can host with mass on both sides; the
    sub-unit branch demands k_alpha >= 10 and would leave the high-low symbols
    acting on nothing at these sizes.
    """
    from .resonance import compute_params

    sizes = tuple(sorted(sizes))
    coarse = RadialGrid(R, sizes[0])
    params = compute_params(alpha, band=coarse)
    q_eps, q_meps = resolution_exponents(eps)

    rows: list[SweepRow] = []
    for M in sizes:
        grid = RadialGrid(R, M)
        xi, lxi, low = grid.xi, np.sqrt(1.0 + grid.xi**2), chi_le(grid.xi, -1)
        cN, cU = np.empty((2, trials, M), dtype=np.complex128)
        for trial in range(trials):
            rng = np.random.default_rng(seed + trial)
            cN[trial] = sweep_trial_field(grid, rng).coeffs
            cU[trial] = sweep_trial_field(grid, rng).coeffs
        nf = normal_form_terms(grid, params, cN, cU, ("bd_U", "bd_N", "cubic_1", "cubic_2", "cubic_3"), n_angular)
        c2 = nf["cubic_2"] / lxi

        n_l2 = l2_norms(grid, cN)
        u_h1 = sobolev_norms(grid, cU, 1.0)
        u_l6 = lebesgue_norms(grid, synthesize(grid, cU), 6.0)
        besov_pair = besov_norms(grid, cN, -0.25 - eps, q_meps) * besov_norms(grid, cU, 0.25 + eps, q_eps)
        # the frequency-split norms: low part in L^1.2 or hom. Besov (1/4+eps, q(eps)),
        # high part in inhom. Besov (11/6, 1.2) or (2/3, q(eps))
        split_c2 = lebesgue_norms(grid, synthesize(grid, c2 * low), 1.2) + besov_norms(
            grid, c2 - c2 * low, 1.0 + 5.0 / 6.0, 1.2, homogeneous=False
        )
        xy_U = besov_norms(grid, cU * low, 0.25 + eps, q_eps) + besov_norms(
            grid, cU - cU * low, 2.0 / 3.0, q_eps, homogeneous=False
        )

        # the tagged products are the only work done one trial at a time
        lh, hh, uhh = np.empty((3, trials, M), dtype=np.complex128)
        for trial in range(trials):
            N, U = SpectralField(grid, cN[trial]), SpectralField(grid, cU[trial])
            Ubar = SpectralField(grid, np.conj(cU[trial]))
            lh[trial] = decompose_bilinear(N, U, InteractionTag.LH, params, dealiased=False).values
            hh[trial] = decompose_bilinear(N, U, InteractionTag.HH, params, dealiased=False).values
            uhh[trial] = decompose_bilinear(U, Ubar, InteractionTag.HH, params, dealiased=False).values

        values = {
            "bd_U": sobolev_norms(grid, nf["bd_U"] / lxi, 1.0) / (n_l2 * u_h1),
            "bd_N": l2_norms(grid, xi * nf["bd_N"]) / u_h1**2,
            "cubic_1": sobolev_norms(grid, nf["cubic_1"] / lxi, 1.0) / (u_l6**2 * u_h1),
            "cubic_2": split_c2 / (n_l2**2 * u_l6),
            "cubic_3": l2_norms(grid, xi * nf["cubic_3"]) / (n_l2 * u_l6**2),
            "bi_LH": sobolev_norms(grid, analyze(grid, lh) / lxi, 1.0) / besov_pair,
            "bi_HH": sobolev_norms(grid, analyze(grid, hh) / lxi, 1.0) / besov_pair,
            "bi_DHH": l2_norms(grid, xi * analyze(grid, uhh)) / xy_U**2,
        }
        rows += [SweepRow(est, M, trial, float(v[trial])) for trial in range(trials) for est, v in values.items()]

    return SweepReport(alpha, sizes, trials, eps, tuple(rows))
