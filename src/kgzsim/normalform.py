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
normalization used here, so weight one would give the pointwise product
f * g, and the XL cutoff gives the XL part of it (:func:`decompose_bilinear`)
where the annulus guard is 1.  Each operator stores the whole quadrature as
a float64 pair-list kernel, at every grid size and angular order, and
applies it in O(nnz) per coefficient pair.

The boundary and cubic terms of the normal form, and the guarded pieces it
removes, come from one batched assembly, :func:`normal_form_terms`, which
forms the interior products N U and |U|^2 without dealiasing.  It builds one
operator per phase, which holds Omega = cutoff / phase and, when a term asks
for it, the cutoff itself on the same kernel pattern.  It drops each operator
before it builds the next; no operator is cached between calls.

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

from . import export
from .radial import (
    _CHUNK,
    RadialGrid,
    analyze,
    besov_norms,
    chi_le,
    eta0,
    kg_propagate,
    l2_norms,
    lebesgue_norms,
    sobolev_norms,
    synthesize,
    wave_propagate,
)
from .resonance import (
    InteractionTag,
    ResonanceParams,
    decompose_bilinear,
    in_support,
    interaction_distance,
    phase_at_distance,
)
from .kgz import Trajectory
from .strichartz import resolution_exponents

SYMBOL_KINDS = ("omega", "omega_tilde")


@dataclass(frozen=True)
class BilinearSymbol:
    """Radial bilinear weight selected by ``kind``.

    omega        -- Omega: the guarded XL cutoff divided by the phase -<xi> + alpha|xi-eta| + <eta>;
    omega_tilde  -- OmegaTilde: the guarded XL + LX cutoff divided by the phase
                    <xi-eta> - <eta> - alpha|xi| (pairs fhat(xi-eta) with the conjugate of ghat).

    The cutoff of a phase kind is the piece of the quadratic term that the normal
    form removes, and cutoff / phase is what replaces it: one support, one kernel
    pattern.  An operator built with ``cutoff=True`` carries the cutoff's data too.
    """

    kind: str
    params: ResonanceParams

    def __post_init__(self):
        if self.kind not in SYMBOL_KINDS:
            raise ValueError(f"kind must be one of {SYMBOL_KINDS}, got {self.kind!r}")

    @property
    def conjugates_second(self) -> bool:
        return self.kind == "omega_tilde"

    def phase(self, xi_out: NDArray, u: NDArray, rho: NDArray) -> NDArray:
        """The phase the cutoff is divided by, w1 for omega and wt1 for omega_tilde, at u = |xi - eta|."""
        return phase_at_distance(1, xi_out, rho, u, self.params.alpha, tilde=self.kind == "omega_tilde")


GUARD_FRACTION = 0.5  # the excised annulus core is [c - f*delta, c + f*delta] with f this fraction


def annulus_guard(u: NDArray, params: ResonanceParams) -> NDArray:
    """Smooth complement bump: 0 on the core [c - f*delta, c + f*delta], 1 off the annulus."""
    d = np.abs(np.asarray(u, dtype=float) - params.c_alpha)
    return 1.0 - eta0(d / (GUARD_FRACTION * params.delta_alpha))


def _block_support(k: int, ka: int, lo: NDArray, hi: NDArray, rho: NDArray) -> tuple[NDArray, NDArray]:
    """Where block k's XL and LX terms can be nonzero, for u in [lo, hi].  Each comparison is exact:
    eta0(x) is 0.0 for x >= 2, eta0(x / 2) - eta0(x) is 0.0 for x <= 1, and x is u or rho over a power of 2."""
    xl = (rho < 2.0 ** (k - ka + 1)) & (lo < 2.0 ** (k + 1)) & (hi > 2.0 ** (k - 1))
    lx = (2.0 ** (k - 1) < rho) & (rho < 2.0 ** (k + 1)) & (lo < 2.0 ** (k - ka + 1))
    return xl, lx


def _pair_support(sym: BilinearSymbol, grid: RadialGrid) -> NDArray:
    """(M, M) mask of the pairs (xi_m, rho_j) where the weight can be nonzero: the union
    of the block supports, with u at every angle in [u(1), u(-1)] (see :func:`interaction_distance`).

    Each block term is tested only on a band of columns and rows its conditions leave
    possible: the XL term on rho < 2^(k-ka+1) and |xi - rho| < 2^(k+1), the LX term on
    2^(k-1) < rho < 2^(k+1) and |xi - rho| < 2^(k-ka+1).  The band gets one grid step of
    margin, far above the rounding of u = |xi - rho| (about 1e-8 (xi + rho)), so the mask
    is the one the full grid gives.
    """
    xi, ka = grid.xi, sym.params.k_alpha
    keep = np.zeros((grid.M, grid.M), dtype=bool)
    for k in grid.resolved_k:
        # block k has XL pairs exactly where its mirror has LX pairs
        if not in_support(InteractionTag.XL, k, k - ka, sym.params):
            continue
        low = 2.0 ** (k - ka + 1)
        # (first column, end column, band half-width) of the XL term, then of the LX term
        terms = [(0, np.searchsorted(xi, low), 2.0 ** (k + 1))]
        if sym.conjugates_second:
            terms.append((np.searchsorted(xi, 2.0 ** (k - 1), side="right"), np.searchsorted(xi, 2.0 ** (k + 1)), low))
        for term, (j0, j1, width) in enumerate(terms):
            # |m - j| <= w keeps every pair with |xi - rho| < width + dxi
            w = min(int(width / grid.dxi) + 1, grid.M)
            j = np.arange(j0, j1)[:, None]
            m = j + np.arange(-w, w + 1)
            on = (m >= 0) & (m < grid.M)
            m, j = m[on], np.broadcast_to(j, m.shape)[on]
            x, rho = xi[m], xi[j]
            lo, hi = interaction_distance(x, rho, 1.0), interaction_distance(x, rho, -1.0)
            keep[m, j] |= _block_support(k, ka, lo, hi, rho)[term]
    return keep


def _shells(x: NDArray) -> tuple[NDArray, NDArray]:
    """(K, s) for radii x > 0, with x in the shell [2^(K-1), 2^K) and s = eta0(x / 2^(K-1)).

    Then chi_K(x) = 1 - s, chi_(K-1)(x) = s, and every other chi_k(x) is 0.0, with the float
    operations of :func:`chi_k`: x / 2^(K-1) = 2 m for the frexp mantissa m is exact and lies in
    [1, 2), where eta0 is its formula alone (exp(0) = 1 at the shell's lower edge).
    """
    mant, K = np.frexp(x)
    y = 2.0 * mant - 1.0
    return K, np.exp(1.0 - 1.0 / (1.0 - y * y))


def _cutoff(sym: BilinearSymbol, grid: RadialGrid, u: NDArray, rho: NDArray) -> NDArray:
    """Evaluate the cutoff on broadcastable (u, rho) arrays, the angle on the last axis.

    The XL term, the sum over XL blocks k of chi_k(u) eta0(rho / 2^(k - k_alpha)), has at most two
    nonzero blocks at each node, K - 1 and K of u's shell (:func:`_shells`): one bump per node and
    two rho factors from a per-row table.  It is evaluated only on the rows whose rho is below
    2^(k + 1 - k_alpha) for some XL block.  The LX term takes the same identity in rho, and is
    evaluated only where u < 2^(K + 1 - k_alpha) for rho's shell K.  The guard acts only where
    the XL term is nonzero.  Every term skipped is exactly 0.0, and every term kept takes the
    float operations, in their order, of the block-by-block sum.
    """
    shape = np.broadcast_shapes(u.shape, rho.shape)
    p, ka = sym.params, sym.params.k_alpha
    ks = [k for k in grid.resolved_k if in_support(InteractionTag.XL, k, k - ka, p)]
    u = np.broadcast_to(u, shape).reshape(-1, shape[-1])
    rho = np.broadcast_to(rho, shape[:-1] + (1,)).reshape(-1)
    num = np.zeros(u.shape)
    if not ks:
        return num.reshape(shape)
    # 1.0 on the XL blocks among ks[0] - 2 .. ks[-1] + 2; a shell index clipped into the padding reads 0.0
    blocks = np.arange(ks[0] - 2, ks[-1] + 3)
    on_block = np.zeros(len(blocks))
    on_block[np.subtract(ks, blocks[0])] = 1.0

    rows = np.flatnonzero(rho < np.ldexp(1.0, ks[-1] + 1 - ka))
    if rows.size:
        ur = u if rows.size == len(u) else u[rows]
        # the rho factors eta0(rho / 2^(k - ka)) of the blocks: 1.0 for k - ka >= K_rho, s_rho for
        # k - ka = K_rho - 1, 0.0 below; u = 0 lies below every block
        K, s = _shells(rho[rows, None])
        table = (np.where(blocks - ka >= K, 1.0, np.where(blocks - ka == K - 1, s, 0.0)) * on_block).ravel()
        K, s = _shells(np.maximum(ur, np.finfo(float).tiny))
        col = np.clip(K, blocks[1], blocks[-1]) + (len(blocks) * np.arange(len(rows))[:, None] - blocks[0])
        xl = s * table[col - 1]
        xl += (1.0 - s) * table[col]
        # the guard is exactly 1.0 where |u - c| >= 2 f delta, since eta0(x) = 0.0 for x >= 2
        on = np.flatnonzero((np.abs(ur - p.c_alpha) < 2.0 * GUARD_FRACTION * p.delta_alpha) & (xl != 0.0))
        xl.ravel()[on] *= annulus_guard(ur.ravel()[on], p)
        num[rows] = xl

    if sym.conjugates_second:
        # the LX term joins the guarded XL term: chi_(K-1)(rho) and chi_K(rho) where those blocks are
        # XL blocks, and 0.0 for u >= 2^(K + 1 - ka)
        K, s = _shells(rho)
        col = np.clip(K, blocks[1], blocks[-1]) - blocks[0]
        a1, a2 = s * on_block[col - 1], (1.0 - s) * on_block[col]
        reach = np.where((a1 != 0.0) | (a2 != 0.0), np.ldexp(1.0, K + 1 - ka), 0.0)
        r, q = np.nonzero(u < reach[:, None])
        z = np.ldexp(u[r, q], ka - K[r])  # u / 2^(K - ka)
        num[r, q] += eta0(2.0 * z) * a1[r] + eta0(z) * a2[r]
    return num.reshape(shape)


def _symbol_weight(sym: BilinearSymbol, grid: RadialGrid, cut: NDArray, phase: NDArray) -> NDArray:
    """Omega's weights from the cutoff and the phase at the same entries: cut / phase where the
    cutoff is nonzero, 0.0 elsewhere.  The division uses neither ``sym`` nor ``grid``; they keep
    the leading arguments of :func:`_cutoff`, so that a wrapper can scale Omega by kind and grid."""
    return np.divide(cut, phase, out=np.zeros(np.broadcast_shapes(cut.shape, phase.shape)), where=cut != 0.0)


# ---------------------------------------------------------------------------
# quadrature operator
# ---------------------------------------------------------------------------

_ENTRIES = 2**15  # (pair, angle node) entries per kernel-build chunk, at least one pair


def check_count(name: str, n: int) -> None:
    """ValueError unless the count ``name`` (angular nodes, sweep trials) is at least 1."""
    if n < 1:
        raise ValueError(f"{name} must be at least 1, got {n}")


def _bands(p: NDArray, idx: NDArray, frc: NDArray, weights: Sequence[NDArray], M: int):
    """Sum each weight array's terms, w (1 - frc) into column idx and w frc into idx + 1 of the rows
    p (sorted), into CSR rows with sorted columns that all the arrays share.

    Each row's terms are summed into one band of bins, from its smallest column to its largest, with
    one bincount per interpolation term; u is monotone in the angle, so a band is about as wide as the
    columns it holds.  The pattern is the entries' alone: an entry reaches column idx, and column
    idx + 1 when frc != 0; column M is the zero pad.  Returns the rows, their lengths, the column
    indices of the kept bins, and one data array per weight array.
    """
    counts = np.bincount(p)
    rows = np.flatnonzero(counts)
    counts = counts[rows]
    first = np.cumsum(counts) - counts
    lo = np.minimum.reduceat(idx, first)
    width = np.maximum.reduceat(idx, first) - lo + 2
    end = np.cumsum(width)
    shift = end - width - lo
    bins = idx + np.repeat(shift, counts)
    hit = np.zeros(end[-1], dtype=bool)
    hit[bins] = True
    hit[bins[(frc != 0.0) & (idx < M - 1)] + 1] = True
    kept = np.flatnonzero(hit)
    lengths = np.diff(np.searchsorted(kept, end), prepend=0)
    data = []
    for g in weights:
        sums = np.bincount(bins, g * (1.0 - frc), minlength=end[-1])
        sums[1:] += np.bincount(bins, g * frc, minlength=end[-1])[:-1]
        data.append(sums[kept])
    return rows, lengths, kept - np.repeat(shift, lengths), data


class BilinearOperator:
    """Bilinear quadrature bound to (grid, symbol, angular order).

    The quadrature is contracted once into a pair-list kernel.  Pair p is an
    output frequency xi_(m_p) and input radius rho_(j_p) on the symbol's pair
    support with a nonzero cutoff.  The float64 CSR matrix A (pairs, M) weighs
    fhat_i in pair p and the 0/1 matrix B (M, pairs) sums each pair into its
    output row; entries that only touch the zero pad beyond xi_M are dropped.
    An apply is B @ ((A @ fhat) * ghat[j_p]); every output row is summed in the
    same order whatever the stack, so batched and single applies are
    bit-identical.  A holds Omega = cutoff / phase; with ``cutoff=True`` the
    cutoff's data sit on A's pattern too, for ``apply_batch(..., cutoff=True)``.
    ``min_abs_phase`` is the smallest |phase| divided by, ``max_abs_weight``
    the largest |Omega|.

    The build runs over the support pairs in (m, j) order, in chunks of at
    most ``_ENTRIES`` (pair, node) entries, one pair at least: 2^15 entries,
    256 KB per float64 temporary, about ten of them at a time, so the
    temporaries do not grow with the angular order.  Each chunk evaluates the
    cutoff (one bump per node, by the shell identity of :func:`_shells`) and
    keeps its nonzero nodes as 1-D entries, which fix the kernel's pattern.  On
    them it evaluates the phase once, for both the division and its minimum,
    and sums the two interpolation terms into per-pair column bands with
    :func:`_bands`: u is monotone along the angle, so the rows come out sorted,
    with no COO conversion, sort or stack.
    """

    def __init__(self, grid: RadialGrid, symbol: BilinearSymbol, n_angular: int = 64, cutoff: bool = False):
        self.grid = grid
        self.symbol = symbol
        check_count("n_angular", n_angular)
        self.n_angular = Q = int(n_angular)
        self._cos, self._glw = np.polynomial.legendre.leggauss(Q)
        M, xi = grid.M, grid.xi
        trap = np.ones(M)
        trap[0] = trap[-1] = 0.5
        # (2 pi)^{-3} * 2 pi = 1/(4 pi^2), folded with the radial measure
        self._base = (grid.dxi / (4.0 * np.pi**2)) * trap * xi**2
        self.max_abs_weight = 0.0
        self.min_abs_phase = np.inf
        m_all, j_all = np.nonzero(_pair_support(symbol, grid))
        step = max(1, _ENTRIES // Q)
        # each list starts with an empty piece, so that a kernel with no entries concatenates too
        pairs, lengths, cols = [np.empty((2, 0), np.intp)], [np.empty(0, np.intp)], [np.empty(0, np.intp)]
        data = [np.empty(0)], [np.empty(0)]  # Omega's, and the cutoff's if asked for
        for lo in range(0, len(m_all), step):
            m, j = m_all[lo : lo + step], j_all[lo : lo + step]
            xi_out, rho = xi[m][:, None], xi[j][:, None]
            u = interaction_distance(xi_out, rho, self._cos)
            c = _cutoff(symbol, grid, u, rho)
            on = np.flatnonzero(c)
            p, q = np.divmod(on, Q)
            c, u = c.ravel()[on], u.ravel()[on]
            phase = symbol.phase(xi_out[p, 0], u, rho[p, 0])
            self.min_abs_phase = min(self.min_abs_phase, float(np.abs(phase).min(initial=np.inf)))
            w = _symbol_weight(symbol, grid, c, phase)
            if not np.all(np.isfinite(w)):
                raise RuntimeError(f"bilinear symbol {symbol.kind!r} is not finite on its support")
            self.max_abs_weight = max(self.max_abs_weight, float(np.abs(w).max(initial=0.0)))
            scale = self._base[j[p]] * self._glw[q]
            weights = [w * scale, c * scale] if cutoff else [w * scale]
            # entries beyond [xi_1, xi_M] touch only the zero pad
            inside = (u >= xi[0]) & (u <= xi[-1])
            if not inside.all():
                p, u, weights = p[inside], u[inside], [g[inside] for g in weights]
            if not p.size:
                continue
            # fhat(u) ~ (1 - f) fhat_i + f fhat_{i+1} at i + f = (u - xi_1) / dxi, with fhat_M = 0
            pos = (u - xi[0]) / grid.dxi
            idx = np.floor(pos).astype(np.intp)
            rows, n, cc, d = _bands(p, idx, pos - idx, weights, M)
            pairs.append(np.stack([m[rows], j[rows]]))
            lengths.append(n)
            cols.append(cc)
            for out, piece in zip(data, d):
                out.append(piece)
        self.m_p, self.j_p = np.concatenate(pairs, axis=1)
        n = len(self.m_p)
        indptr = np.concatenate([[0], np.cumsum(np.concatenate(lengths))])
        self._A = sparse.csr_array((np.concatenate(data[0]), np.concatenate(cols), indptr), shape=(n, M))
        self._C = None
        if cutoff:
            self._C = sparse.csr_array((np.concatenate(data[1]), self._A.indices, self._A.indptr), shape=(n, M))
        # B's row m holds the pairs of output m, which are consecutive in (m, j) order
        indptr = np.concatenate([[0], np.cumsum(np.bincount(self.m_p, minlength=M))])
        self._B = sparse.csr_array((np.ones(n), np.arange(n), indptr), shape=(M, n))

    def apply_batch(self, fhats: NDArray, ghats: NDArray, cutoff: bool = False) -> NDArray:
        """Apply Omega (the cutoff with ``cutoff``) to a stack of coefficient pairs, (S, M) -> (S, M),
        _CHUNK (pair, row) products or one row at a time."""
        if cutoff and self._C is None:
            raise ValueError("this operator was built without cutoff data")
        A = self._C if cutoff else self._A
        fhats = np.atleast_2d(np.asarray(fhats, dtype=np.complex128))
        ghats = np.atleast_2d(np.asarray(ghats, dtype=np.complex128))
        if self.symbol.conjugates_second:
            ghats = np.conj(ghats)
        out = np.empty(fhats.shape, dtype=np.complex128)
        step = max(1, _CHUNK // max(1, len(self.m_p)))
        for lo in range(0, len(out), step):
            # real kernels: act on the interleaved real and imaginary parts of (M, rows) arrays
            f = np.ascontiguousarray(fhats[lo : lo + step].T).view(np.float64)
            prod = (A @ f).view(np.complex128)
            prod *= ghats[lo : lo + step, self.j_p].T
            out[lo : lo + step] = (self._B @ prod.view(np.float64)).view(np.complex128).T
        return out


# ---------------------------------------------------------------------------
# boundary and cubic terms
# ---------------------------------------------------------------------------

# term -> (phase, whether it applies the cutoff rather than Omega, first factor, second factor),
# aux = <D>^{-1}(N U)
NORMAL_FORM_TERMS = {
    "bd_U": ("omega", False, "N", "U"),              # boundary term of the U equation
    "bd_N": ("omega_tilde", False, "U", "U"),        # boundary term of the N equation
    "cubic_1": ("omega", False, "D|U|^2", "U"),
    "cubic_2": ("omega", False, "N", "aux"),
    "cubic_3": ("omega_tilde", False, "aux", "U"),
    "cubic_3b": ("omega_tilde", False, "U", "aux"),  # N equation, conjugate factor differentiated
    "nonres_U": ("omega", True, "N", "U"),           # guarded pieces the normal form removes
    "nonres_N": ("omega_tilde", True, "U", "U"),
}


def normal_form_terms(
    grid: RadialGrid,
    params: ResonanceParams,
    cN: NDArray,
    cU: NDArray,
    names: Sequence[str],
    n_angular: int = 64,
) -> dict[str, NDArray]:
    """Raw Omega / OmegaTilde (or cutoff) outputs of the named terms on (S, M) coefficient stacks.

    The products N U and |U|^2 are formed once, in physical space and without
    dealiasing: the residual identity needs the exact products, and the sweep
    fields are alias-free by construction.  They are returned too, as "NU" and
    "UU"; the ``<D>^{-1}`` and ``D`` factors outside the operators are left to
    the caller.  It builds one operator per phase in ``names``, with the
    cutoff's data only if a named term applies them, and drops each operator
    before it builds the next.
    """
    cN, cU = np.atleast_2d(cN), np.atleast_2d(cU)
    vN, vU = synthesize(grid, cN), synthesize(grid, cU)
    out = {"NU": analyze(grid, vN * vU), "UU": analyze(grid, vU * np.conj(vU))}
    factors = {"N": cN, "U": cU, "aux": out["NU"] / grid.lxi, "D|U|^2": grid.xi * out["UU"]}
    for phase in dict.fromkeys(NORMAL_FORM_TERMS[name][0] for name in names):  # in order of first use
        terms = {name: NORMAL_FORM_TERMS[name][1:] for name in names if NORMAL_FORM_TERMS[name][0] == phase}
        cutoff = any(cut for cut, _, _ in terms.values())
        op = BilinearOperator(grid, BilinearSymbol(phase, params), n_angular, cutoff=cutoff)
        for name, (cut, a, b) in terms.items():
            out[name] = op.apply_batch(factors[a], factors[b], cutoff=cut)
        del op
    return out


# ---------------------------------------------------------------------------
# Duhamel residuals of the transformed integral equations
# ---------------------------------------------------------------------------

def _simpson(y: NDArray, x: NDArray) -> NDArray:
    """Simpson's rule over axis 0 of ``y`` at three or more increasing points ``x``.

    The float operations, in their order, are those of scipy 1.11+'s
    ``simpson(y, x=x, axis=0)``: composite Simpson on irregular spacing over
    pairs of intervals, and for an even count Cartwright's correction of the
    last interval.
    """
    n = len(x)
    h = np.diff(np.asarray(x, dtype=np.float64)).reshape((n - 1,) + (1,) * (y.ndim - 1))
    stop = n - 2 if n % 2 else n - 3
    h0, h1 = h[0:stop:2], h[1 : stop + 1 : 2]
    hsum, ratio = h0 + h1, h0 / h1
    result = np.sum(
        hsum / 6.0 * (
            y[0:stop:2] * (2.0 - 1.0 / ratio)
            + y[1 : stop + 1 : 2] * (hsum * (hsum / (h0 * h1)))
            + y[2 : stop + 2 : 2] * (2.0 - ratio)
        ),
        axis=0,
    )
    if n % 2 == 0:
        h0, h1 = h[-2, ...], h[-1, ...]  # arrays, not scalars, even for a 1-D y, as in scipy
        a = (2 * h1**2 + 3 * h0 * h1) / (6 * (h1 + h0))
        b = (h1**2 + 3.0 * h0 * h1) / (6 * h0)
        c = h1**3 / (6 * h0 * (h0 + h1))
        result += a * y[-1] + b * y[-2] - c * y[-3]
    return result


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
    Simpson, with Cartwright's correction of the last interval for an even
    snapshot count (:func:`_simpson`).  Requires a ``simplified``-model
    trajectory without dealiasing and alpha < 1; a ``linear`` trajectory is
    compared against the free term alone.
    """
    if which not in ("U", "N"):
        raise ValueError("which must be 'U' or 'N'")
    cfg = traj.config
    grid = cfg.grid
    times = traj.times
    t = float(times[-1])
    alpha = cfg.alpha
    lxi, xi = grid.lxi, grid.xi

    def flow(c: NDArray, s: float | NDArray) -> NDArray:
        """The free flow of the compared component over time s."""
        return kg_propagate(grid, c, s) if which == "U" else wave_propagate(grid, c, s, alpha)

    cU, cN = traj.cU, traj.cN
    c0, target = (cU[0], cU[-1]) if which == "U" else (cN[0], cN[-1])
    den = l2_norms(grid, target)

    if cfg.model == "linear":
        num = l2_norms(grid, flow(c0, t) - target)
        return 0.0 if den == 0.0 else num / den

    if cfg.model != "simplified":
        raise ValueError("transformed-equation residuals require a simplified-model trajectory")
    if alpha >= 1.0:
        raise ValueError("the transformed equations are assembled for alpha < 1")
    if cfg.dealias:
        raise ValueError("residual checking needs a trajectory run without dealiasing")
    if params is None or abs(params.alpha - alpha) > 0.0:
        raise ValueError("resonance parameters must match the trajectory's alpha")
    if len(times) < 3:
        raise ValueError("need at least three snapshots for Simpson quadrature")

    if which == "U":
        nf = normal_form_terms(grid, params, cN, cU, ("bd_U", "cubic_1", "cubic_2", "nonres_U"), n_angular)
        rest = nf["NU"] - nf["nonres_U"]
        total = (-1j / lxi) * (alpha * nf["cubic_1"] + nf["cubic_2"] + rest)
        b0, bt = nf["bd_U"][[0, -1]] / lxi
    else:
        nf = normal_form_terms(grid, params, cN, cU, ("bd_N", "cubic_3", "cubic_3b", "nonres_N"), n_angular)
        rest = nf["UU"] - nf["nonres_N"]
        # the second cubic term enters with the opposite sign: the conjugate
        # factor twists with phase exp(+i s <eta>)
        total = -1j * alpha * xi * (nf["cubic_3"] + rest) + 1j * alpha * xi * nf["cubic_3b"]
        b0, bt = alpha * xi * nf["bd_N"][[0, -1]]

    # each snapshot's integrand flows over the remaining time t - s
    integrand = flow(total, t - times)
    free = flow(c0 + b0, t)
    rhs = free - bt + _simpson(integrand, times)
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


def sweep_trial_field(grid: RadialGrid, rng: np.random.Generator) -> NDArray:
    """(M,) coefficients of a two-cluster trial field: mass near xi ~ 0.1 and near xi ~ 4.

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
    return low * eta0(xi / 0.15) + high * eta0(xi / 2.25)


def check_sizes(sizes: Sequence[int]) -> None:
    """ValueError unless a sweep's grid sizes are two or more distinct values: one size compares no
    refinement, and a repeated size runs the same grid twice."""
    if len(set(sizes)) < 2:
        raise ValueError(f"a sweep needs at least two distinct sizes, got {tuple(sizes)}")
    if len(set(sizes)) < len(sizes):
        raise ValueError(f"a sweep's sizes must not repeat, got {tuple(sizes)}")


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

    check_count("trials", trials)
    check_sizes(sizes)
    sizes = tuple(sorted(sizes))
    coarse = RadialGrid(R, sizes[0])
    params = compute_params(alpha, band=coarse)
    q_eps, q_meps = resolution_exponents(eps)

    rows: list[SweepRow] = []
    for M in sizes:
        grid = RadialGrid(R, M)
        xi, lxi, low = grid.xi, grid.lxi, chi_le(grid.xi, -1)
        cN, cU = np.empty((2, trials, M), dtype=np.complex128)
        for trial in range(trials):
            rng = np.random.default_rng(seed + trial)
            cN[trial] = sweep_trial_field(grid, rng)
            cU[trial] = sweep_trial_field(grid, rng)
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

        vN, vU, vUbar = synthesize(grid, np.stack([cN, cU, np.conj(cU)]))
        lh = decompose_bilinear(grid, vN, vU, InteractionTag.LH, params, dealiased=False)
        hh = decompose_bilinear(grid, vN, vU, InteractionTag.HH, params, dealiased=False)
        uhh = decompose_bilinear(grid, vU, vUbar, InteractionTag.HH, params, dealiased=False)

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
