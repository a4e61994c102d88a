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
product f * g.  Each operator stores the whole quadrature as one float64
sparse kernel, at every grid size and angular order.

The boundary and cubic terms of the normal form come from one batched
assembly, :func:`normal_form_terms`, which forms the interior products N U
and |U|^2 without dealiasing.

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
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.typing import NDArray
from scipy import sparse
from scipy.integrate import simpson

from .radial import (
    PhysField,
    RadialGrid,
    SpectralField,
    analyze,
    as_spectral,
    besov_norm,
    chi_k,
    chi_le,
    eta0,
    lebesgue_norm,
    sobolev_norm,
    spectral_l2,
    synthesize,
    to_physical,
    to_spectral,
)
from .resonance import InteractionTag, ResonanceParams, decompose_bilinear
from .kgz import Trajectory

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


def _symbol_weight(
    sym: BilinearSymbol,
    grid: RadialGrid,
    xi_out: NDArray,
    u: NDArray,
    rho: NDArray,
) -> NDArray:
    """Evaluate the weight on broadcastable (xi_out, u, rho) arrays."""
    if sym.kind == "plain":
        return np.ones(np.broadcast_shapes(xi_out.shape, u.shape, rho.shape))

    p = sym.params
    ks = list(grid.resolved_k)
    xl = _xl_blocks(p, ks)
    ka = p.k_alpha

    # eta0 planes over u are the dominant cost; compute each scale once
    scales = sorted({k for k in xl} | {k - 1 for k in xl} | {k - ka for k in xl})
    planes = {j: eta0(u / 2.0**j) for j in scales}

    mask_xl = np.zeros(np.broadcast_shapes(u.shape, rho.shape))
    for k in xl:
        mask_xl = mask_xl + (planes[k] - planes[k - 1]) * chi_le(rho, k - ka)
    mask_xl = mask_xl * annulus_guard(u, p, sym.guard_fraction)

    if sym.kind in ("omega", "xl_mask"):
        num = mask_xl
    else:
        mask_lx = np.zeros_like(mask_xl)
        for k in xl:
            mask_lx = mask_lx + planes[k - ka] * chi_k(rho, k)
        num = mask_xl + mask_lx

    if sym.kind in ("xl_mask", "xl_lx_mask"):
        return np.broadcast_to(num, np.broadcast_shapes(num.shape, xi_out.shape)).copy()

    if sym.kind == "omega":
        den = -np.sqrt(1.0 + xi_out**2) + p.alpha * u + np.sqrt(1.0 + rho**2)
    else:  # omega_tilde
        den = np.sqrt(1.0 + u**2) - np.sqrt(1.0 + rho**2) - p.alpha * xi_out
    num, den = np.broadcast_arrays(num, den)
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=num != 0.0)
    return out


# ---------------------------------------------------------------------------
# quadrature operator
# ---------------------------------------------------------------------------

_ROWS = 8     # output frequencies per kernel-build chunk
_STACK = 4    # coefficient pairs per apply chunk


def _interp_tables(grid: RadialGrid, u: NDArray) -> tuple[NDArray, NDArray]:
    """Index/fraction tables for linear interpolation at radii u.

    Index M points at the zero pad (outside [xi_1, xi_M]).
    """
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

    The quadrature is contracted once into a float64 CSR kernel K of shape
    (M, M*M): K[m, i*M + j] weighs fhat_i * ghat_j in output frequency m.
    Entries that only touch the zero pad beyond xi_M are dropped, and the
    high-low symbols leave well under one percent of M^3 entries.  An apply is
    K @ (f outer g), chunked over the stack; every output row is summed in the
    same order whatever the stack, so results are bit-identical between runs
    and between batched and single applies.
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
        blocks = []
        for lo in range(0, M, _ROWS):
            sl = slice(lo, min(lo + _ROWS, M))
            G, idx, frc = self._chunk_kernel(sl)
            m, j, q = np.nonzero(G)
            g, i, f = G[m, j, q], idx[m, j, q], frc[m, j, q]
            # fhat(u) ~ (1 - f) fhat_i + f fhat_{i+1}; index M is the zero pad
            w = np.concatenate([g * (1.0 - f), g * f])
            i = np.concatenate([i, i + 1])
            m, j = np.tile(m, 2), np.tile(j, 2)
            keep = (i < M) & (w != 0.0)
            shape = (sl.stop - lo, M * M)
            blocks.append(sparse.coo_array((w[keep], (m[keep], i[keep] * M + j[keep])), shape=shape).tocsr())
        self._K = sparse.vstack(blocks, format="csr")

    def _chunk_kernel(self, m_slice: slice) -> tuple[NDArray, NDArray, NDArray]:
        """Quadrature weights and interpolation tables, axes (m, rho node, angle)."""
        xi_out = self.grid.xi[m_slice][:, None, None]
        rho = self.grid.xi[None, :, None]
        u = np.sqrt(np.maximum(xi_out**2 + rho**2 - 2.0 * xi_out * rho * self._cos, 0.0))
        w = _symbol_weight(self.symbol, self.grid, xi_out, u, rho)
        if not np.all(np.isfinite(w)):
            raise RuntimeError(
                f"bilinear symbol {self.symbol.kind!r} is not finite on its support"
            )
        self.max_abs_weight = max(self.max_abs_weight, float(np.abs(w).max(initial=0.0)))
        G = w * (self._base[None, :, None] * self._glw)
        idx, frc = _interp_tables(self.grid, u)
        return G, idx, frc

    def apply_batch(self, fhats: NDArray, ghats: NDArray) -> NDArray:
        """Apply to a stack of coefficient pairs; shapes (S, M) -> (S, M)."""
        fhats = np.atleast_2d(np.asarray(fhats, dtype=np.complex128))
        ghats = np.atleast_2d(np.asarray(ghats, dtype=np.complex128))
        if self.symbol.conjugates_second:
            ghats = np.conj(ghats)
        S, M = fhats.shape
        out = np.empty((S, M), dtype=np.complex128)
        for lo in range(0, S, _STACK):
            f, g = fhats[lo : lo + _STACK].T, ghats[lo : lo + _STACK].T
            fg = np.empty((M, M, f.shape[1]), dtype=np.complex128)
            np.multiply(f[:, None, :], g[None, :, :], out=fg)
            # real kernel: act on the interleaved real and imaginary parts
            out[lo : lo + _STACK] = (self._K @ fg.reshape(M * M, -1).view(np.float64)).view(np.complex128).T
        return out

    def apply_coeffs(self, fhat: NDArray, ghat: NDArray) -> NDArray:
        """Output coefficients of B[w](f, g) from input coefficient arrays."""
        return self.apply_batch(fhat[None, :], ghat[None, :])[0]

    def apply(self, f, g) -> PhysField:
        cf, cg = as_spectral(f), as_spectral(g)
        out = self.apply_coeffs(cf.coeffs, cg.coeffs)
        return to_physical(SpectralField(self.grid, out))


@lru_cache(maxsize=2)
def get_operator(grid: RadialGrid, symbol: BilinearSymbol, n_angular: int = 64) -> BilinearOperator:
    """Shared operator; the two most recently used kernels stay alive."""
    return BilinearOperator(grid, symbol, n_angular)


clear_bilinear_cache = get_operator.cache_clear


def bilinear_apply(sym: BilinearSymbol, f, g, n_angular: int = 64) -> PhysField:
    """Apply the bilinear operator with symbol ``sym`` to radial fields f, g."""
    grid = f.grid
    if grid.key() != g.grid.key():
        raise ValueError("fields live on different grids")
    return get_operator(grid, sym, n_angular).apply(f, g)


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
        u = np.sqrt(np.maximum(xm**2 + rho[:, None] ** 2 - 2.0 * xm * rho[:, None] * nodes[None, :], 0.0))
        w = _symbol_weight(sym, grid, np.array(xm)[None, None], u, rho[:, None])
        fv = cf.sample_at(u.ravel()).reshape(u.shape)
        kern = w * fv * weights[None, :]
        out[m] = (drho / (4.0 * np.pi**2)) * np.sum(kern.sum(axis=1) * gv * rho**2 * trap)
    return to_physical(SpectralField(grid, out))


# ---------------------------------------------------------------------------
# boundary and cubic terms
# ---------------------------------------------------------------------------

def _inv_bracket(c: SpectralField) -> SpectralField:
    return SpectralField(c.grid, c.coeffs / np.sqrt(1.0 + c.grid.xi**2))


def _times_d(c: SpectralField) -> SpectralField:
    return SpectralField(c.grid, c.coeffs * c.grid.xi)


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
    the caller.
    """
    cN, cU = np.atleast_2d(cN), np.atleast_2d(cU)
    vN, vU = synthesize(grid, cN), synthesize(grid, cU)
    out = {"NU": analyze(grid, vN * vU), "UU": analyze(grid, vU * np.conj(vU))}
    factors = {"N": cN, "U": cU, "aux": out["NU"] / np.sqrt(1.0 + grid.xi**2), "D|U|^2": grid.xi * out["UU"]}
    for name in names:
        kind, a, b = NORMAL_FORM_TERMS[name]
        out[name] = get_operator(grid, BilinearSymbol(kind, params), n_angular).apply_batch(factors[a], factors[b])
    return out


def _single_terms(N, U, params: ResonanceParams, names: Sequence[str], n_angular: int) -> tuple[RadialGrid, dict]:
    if N.grid.key() != U.grid.key():
        raise ValueError("fields live on different grids")
    cN, cU = as_spectral(N).coeffs, as_spectral(U).coeffs
    return U.grid, normal_form_terms(U.grid, params, cN, cU, names, n_angular)


def boundary_term_U(N: PhysField, U: PhysField, params: ResonanceParams, n_angular: int = 64) -> PhysField:
    """<D>^{-1} Omega(N, U): the boundary correction of the transformed U equation."""
    grid, nf = _single_terms(N, U, params, ("bd_U",), n_angular)
    return to_physical(_inv_bracket(SpectralField(grid, nf["bd_U"][0])))


def boundary_term_N(U: PhysField, params: ResonanceParams, n_angular: int = 64) -> PhysField:
    """alpha * D * OmegaTilde(U, U): the boundary correction of the transformed N equation."""
    grid, nf = _single_terms(U, U, params, ("bd_N",), n_angular)
    return to_physical(SpectralField(grid, params.alpha * grid.xi * nf["bd_N"][0]))


def cubic_terms(N: PhysField, U: PhysField, params: ResonanceParams, n_angular: int = 64) -> tuple[PhysField, PhysField, PhysField]:
    """The three cubic compositions produced by the normal form.

    Omega(D|U|^2, U), Omega(N, <D>^{-1}(N U)), OmegaTilde(<D>^{-1}(N U), U);
    interior products are not dealiased (see :func:`normal_form_terms`).
    """
    grid, nf = _single_terms(N, U, params, ("cubic_1", "cubic_2", "cubic_3"), n_angular)
    return tuple(to_physical(SpectralField(grid, nf[k][0])) for k in ("cubic_1", "cubic_2", "cubic_3"))


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
    den = spectral_l2(SpectralField(grid, target))

    if cfg.model == "linear":
        c0 = cU[0] if which == "U" else cN[0]
        phase = np.exp(1j * t * lxi) if which == "U" else np.exp(1j * cfg.alpha * t * xi)
        num = spectral_l2(SpectralField(grid, phase * c0 - target))
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
    ends = [0, -1]
    if which == "U":
        nf = normal_form_terms(grid, params, cN, cU, ("cubic_1", "cubic_2", "nonres_U"), n_angular)
        rest = nf["NU"] - nf["nonres_U"]
        total = (-1j / lxi) * (alpha * nf["cubic_1"] + nf["cubic_2"] + rest)
        integrand = np.exp(1j * np.outer(t - times, lxi)) * total
        b0, bt = normal_form_terms(grid, params, cN[ends], cU[ends], ("bd_U",), n_angular)["bd_U"] / lxi
        free = np.exp(1j * t * lxi) * (cU[0] + b0)
    else:
        nf = normal_form_terms(grid, params, cN, cU, ("cubic_3", "cubic_3b", "nonres_N"), n_angular)
        rest = nf["UU"] - nf["nonres_N"]
        # the second cubic term enters with the opposite sign: the conjugate
        # factor twists with phase exp(+i s <eta>)
        total = -1j * alpha * xi * (nf["cubic_3"] + rest) + 1j * alpha * xi * nf["cubic_3b"]
        integrand = np.exp(1j * alpha * np.outer(t - times, xi)) * total
        b0, bt = alpha * xi * normal_form_terms(grid, params, cN[ends], cU[ends], ("bd_N",), n_angular)["bd_N"]
        free = np.exp(1j * alpha * t * xi) * (cN[0] + b0)

    rhs = free - bt + simpson(integrand, x=times, axis=0)
    num = spectral_l2(SpectralField(grid, rhs - target))
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
        lines = ["estimate,M,trial,value"]
        for r in self.rows:
            lines.append(f"{r.estimate},{r.M},{r.trial},{r.value:.17g}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _split_norm(f: PhysField, p: float, s_high: float) -> float:
    """||P_{<0} f||_p + inhomogeneous Besov of P_{>=0} f at regularity s_high."""
    c = to_spectral(f)
    low = SpectralField(c.grid, c.coeffs * chi_le(c.grid.xi, -1))
    high = SpectralField(c.grid, c.coeffs - low.coeffs)
    return lebesgue_norm(to_physical(low), p) + besov_norm(high, s_high, p, homogeneous=False)


def _xy_norm(f: PhysField, eps: float) -> float:
    """Frequency-split spatial norm: low part in hom. Besov (1/4+eps, q(eps)),
    high part in inhom. Besov (2/3, q(eps))."""
    q_eps = 1.0 / (0.25 + eps / 3.0)
    c = to_spectral(f)
    low = SpectralField(c.grid, c.coeffs * chi_le(c.grid.xi, -1))
    high = SpectralField(c.grid, c.coeffs - low.coeffs)
    return besov_norm(low, 0.25 + eps, q_eps, homogeneous=True) + besov_norm(
        high, 2.0 / 3.0, q_eps, homogeneous=False
    )


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
    q_eps = 1.0 / (0.25 + eps / 3.0)
    q_meps = 1.0 / (0.25 - eps / 3.0)

    rows: list[SweepRow] = []
    for M in sizes:
        grid = RadialGrid(R, M)
        lxi = np.sqrt(1.0 + grid.xi**2)
        Ns, Us = [], []
        for trial in range(trials):
            rng = np.random.default_rng(seed + trial)
            Ns.append(to_physical(sweep_trial_field(grid, rng)))
            Us.append(to_physical(sweep_trial_field(grid, rng)))
        cN = np.stack([to_spectral(f).coeffs for f in Ns])
        cU = np.stack([to_spectral(f).coeffs for f in Us])
        nf = normal_form_terms(grid, params, cN, cU, ("bd_U", "bd_N", "cubic_1", "cubic_2", "cubic_3"), n_angular)
        out_bd_U = nf["bd_U"] / lxi
        out_bd_N = grid.xi * nf["bd_N"]
        out_c1 = nf["cubic_1"] / lxi
        out_c2 = nf["cubic_2"] / lxi
        out_c3 = grid.xi * nf["cubic_3"]

        for trial, (N, U) in enumerate(zip(Ns, Us)):
            n_l2 = spectral_l2(SpectralField(grid, cN[trial]))
            u_h1 = sobolev_norm(U, 1.0)
            u_l6 = lebesgue_norm(U, 6.0)
            n_bes = besov_norm(N, -0.25 - eps, q_meps, homogeneous=True)
            u_bes = besov_norm(U, 0.25 + eps, q_eps, homogeneous=True)

            val = {
                "bd_U": sobolev_norm(SpectralField(grid, out_bd_U[trial]), 1.0) / (n_l2 * u_h1),
                "bd_N": spectral_l2(SpectralField(grid, out_bd_N[trial])) / u_h1**2,
                "cubic_1": sobolev_norm(SpectralField(grid, out_c1[trial]), 1.0) / (u_l6**2 * u_h1),
                "cubic_2": _split_norm(
                    to_physical(SpectralField(grid, out_c2[trial])), 1.2, 1.0 + 5.0 / 6.0
                )
                / (n_l2**2 * u_l6),
                "cubic_3": spectral_l2(SpectralField(grid, out_c3[trial])) / (n_l2 * u_l6**2),
            }
            lh = decompose_bilinear(N, U, InteractionTag.LH, params, dealiased=False)
            val["bi_LH"] = sobolev_norm(_inv_bracket(to_spectral(lh)), 1.0) / (n_bes * u_bes)
            hh = decompose_bilinear(N, U, InteractionTag.HH, params, dealiased=False)
            val["bi_HH"] = sobolev_norm(_inv_bracket(to_spectral(hh)), 1.0) / (n_bes * u_bes)
            uhh = decompose_bilinear(
                U, PhysField(grid, np.conj(U.values)), InteractionTag.HH, params, dealiased=False
            )
            val["bi_DHH"] = spectral_l2(_times_d(to_spectral(uhh))) / _xy_norm(U, eps) ** 2

            for est, v in val.items():
                rows.append(SweepRow(est, M, trial, float(v)))
        clear_bilinear_cache()

    return SweepReport(alpha, sizes, trials, eps, tuple(rows))
