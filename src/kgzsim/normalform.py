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
removes, come from one row-wise assembly (:func:`_products`, :func:`_apply`),
which forms the interior products N U and |U|^2 without dealiasing; the
terms are row-independent, each row's outputs those of the row alone, bit
for bit.  Each phase has one operator, which holds Omega = cutoff / phase
and, when a term asks for it, the cutoff itself on the same kernel pattern.
:func:`normal_form_terms` runs the assembly on whole stacks and drops each
operator before it builds the next; :func:`duhamel_residual` builds its one
operator and runs the assembly over chunks of snapshots, so its memory is
one integrand stack plus one chunk's temporaries.  No operator is cached
between calls.

The division by the resonance phase is only applied on a support that stays
away from the phase's zero set: the dyadic high-low blocks outside the
resonant annulus, further multiplied by a smooth excision of the annulus
core [c - delta/2, c + delta/2] in the high-factor radius (block bumps spill
across the annulus edge, so the block selection alone would not keep the
symbol bounded).  The residual checker subtracts exactly this guarded piece
from the full product, which keeps the transformed integral identity exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray
from scipy import sparse

from .radial import (
    RadialGrid,
    analyze,
    besov_norms,
    chi_le,
    eta0,
    kg_propagate,
    l2_norms,
    lebesgue_norms,
    row_chunks,
    sobolev_norms,
    synthesize,
    wave_propagate,
)
from .resonance import (
    InteractionTag,
    ResonanceParams,
    compute_params,
    decompose_bilinear,
    in_support,
    interaction_distance,
    phase_at_distance,
)
from .kgz import SimConfig, Trajectory
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
_MAX_NNZ = np.iinfo(np.int32).max  # the most kernel entries that int32 CSR indices can address


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


def _join(pieces: list, axis: int = -1) -> NDArray:
    """Concatenate the pieces and empty the list, so that the pieces and their join are held together
    only during this call."""
    out = np.concatenate(pieces, axis=axis)
    pieces.clear()
    return out


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

    A's and B's CSR ``indices`` and ``indptr`` are int32, so an entry takes
    12 B (float64 data and an int32 column); ``m_p`` and ``j_p`` stay intp,
    since every apply indexes with ``j_p``.  A kernel of more than
    ``_MAX_NNZ`` entries is refused.  The chunks' pieces are joined one list
    at a time, each list emptied before the next join, so the build holds
    one copy of the kernel and its peak is the kernel plus the larger of one
    chunk's temporaries and one kernel array: at alpha = 2, M = 512, Q = 64
    the ``omega_tilde`` kernel keeps 6.4 MB and its build peaks at 10.2 MB.
    """

    def __init__(self, grid: RadialGrid, symbol: BilinearSymbol, n_angular: int = 64, cutoff: bool = False):
        self.symbol = symbol
        check_count("n_angular", n_angular)
        self.n_angular = Q = int(n_angular)
        cos, glw = np.polynomial.legendre.leggauss(Q)
        M, xi = grid.M, grid.xi
        trap = np.ones(M)
        trap[0] = trap[-1] = 0.5
        # (2 pi)^{-3} * 2 pi = 1/(4 pi^2), folded with the radial measure
        base = (grid.dxi / (4.0 * np.pi**2)) * trap * xi**2
        self.max_abs_weight = 0.0
        self.min_abs_phase = np.inf
        m_all, j_all = np.nonzero(_pair_support(symbol, grid))
        step = max(1, _ENTRIES // Q)
        # each list starts with an empty piece of its join's dtype, so that a kernel with no entries
        # concatenates too, and an int32 list joins to int32
        pairs, lengths, cols = [np.empty((2, 0), np.intp)], [np.empty(0, np.intp)], [np.empty(0, np.int32)]
        data = [np.empty(0)], [np.empty(0)]  # Omega's, and the cutoff's if asked for
        nnz = 0
        for lo in range(0, len(m_all), step):
            m, j = m_all[lo : lo + step], j_all[lo : lo + step]
            xi_out, rho = xi[m][:, None], xi[j][:, None]
            u = interaction_distance(xi_out, rho, cos)
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
            scale = base[j[p]] * glw[q]
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
            nnz += len(cc)
            if nnz > _MAX_NNZ:
                raise ValueError(f"bilinear kernel {symbol.kind!r} has more than {_MAX_NNZ} entries")
            pairs.append(np.stack([m[rows], j[rows]]))
            lengths.append(n)
            cols.append(cc.astype(np.int32))
            for out, piece in zip(data, d):
                out.append(piece)
        del m_all, j_all
        # one list joined at a time, so the build holds the kernel and at most one array twice;
        # int32 indptr and indices, which scipy keeps as they are only when both are int32
        self.m_p, self.j_p = _join(pairs, axis=1)
        n = len(self.m_p)
        indptr = np.zeros(n + 1, np.int32)
        np.cumsum(_join(lengths), out=indptr[1:])
        self._A = sparse.csr_array((_join(data[0]), _join(cols), indptr), shape=(n, M))
        self._C = None
        if cutoff:
            self._C = sparse.csr_array((_join(data[1]), self._A.indices, self._A.indptr), shape=(n, M))
        # B's row m holds the pairs of output m, which are consecutive in (m, j) order
        indptr = np.zeros(M + 1, np.int32)
        np.cumsum(np.bincount(self.m_p, minlength=M), out=indptr[1:])
        self._B = sparse.csr_array((np.ones(n), np.arange(n, dtype=np.int32), indptr), shape=(M, n))

    def apply_batch(self, fhats: NDArray, ghats: NDArray, cutoff: bool = False) -> NDArray:
        """Apply Omega (the cutoff with ``cutoff``) to a stack of coefficient pairs, (S, M) -> (S, M),
        over the ``radial.row_chunks`` of rows of one product per pair."""
        if cutoff and self._C is None:
            raise ValueError("this operator was built without cutoff data")
        A = self._C if cutoff else self._A
        fhats = np.atleast_2d(np.asarray(fhats, dtype=np.complex128))
        ghats = np.atleast_2d(np.asarray(ghats, dtype=np.complex128))
        if self.symbol.conjugates_second:
            ghats = np.conj(ghats)
        out = np.empty(fhats.shape, dtype=np.complex128)
        for rows in row_chunks(len(out), len(self.m_p)):
            # real kernels: act on the interleaved real and imaginary parts of (M, rows) arrays
            f = np.ascontiguousarray(fhats[rows].T).view(np.float64)
            prod = (A @ f).view(np.complex128)
            prod *= ghats[rows, self.j_p].T
            out[rows] = (self._B @ prod.view(np.float64)).view(np.complex128).T
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


def _check_terms(grid: RadialGrid, names: Sequence[str], *stacks: NDArray) -> None:
    """ValueError unless every name is a term of :data:`NORMAL_FORM_TERMS` and every stack is (..., M)."""
    unknown = [name for name in names if name not in NORMAL_FORM_TERMS]
    if unknown:
        raise ValueError(f"unknown normal-form terms {unknown}; the terms are {tuple(NORMAL_FORM_TERMS)}")
    for c in stacks:
        if np.shape(c)[-1:] != (grid.M,):
            raise ValueError(f"coefficient stacks must have last axis M={grid.M}, got shape {np.shape(c)}")


def _operator(grid: RadialGrid, params: ResonanceParams, names: Sequence[str], n_angular: int) -> BilinearOperator:
    """The operator of the named terms' one phase, with the cutoff's data only if a term applies them."""
    phase = NORMAL_FORM_TERMS[names[0]][0]
    cutoff = any(NORMAL_FORM_TERMS[name][1] for name in names)
    return BilinearOperator(grid, BilinearSymbol(phase, params), n_angular, cutoff=cutoff)


def _products(grid: RadialGrid, cN: NDArray, cU: NDArray) -> dict[str, NDArray]:
    """The products "NU" and "UU" = U conj(U) of (S, M) stacks, and the factors of the terms.

    Every multiply has one operand order, U before conj(U), so a row's bits do not depend on its
    stack: numpy would otherwise rewrite ``vU * np.conj(vU)`` as ``conj *= vU`` on a large one.
    """
    vN, vU = synthesize(grid, np.stack([cN, cU]))
    uu = np.conj(vU)
    np.multiply(vU, uu, out=uu)
    nu, uu = analyze(grid, vN * vU), analyze(grid, uu)
    return {"NU": nu, "UU": uu, "N": cN, "U": cU, "aux": nu / grid.lxi, "D|U|^2": grid.xi * uu}


def _apply(op: BilinearOperator, names: Sequence[str], factors: dict[str, NDArray]) -> dict[str, NDArray]:
    """The named terms of ``op``'s phase on the factors of :func:`_products`."""
    out = {}
    for name in names:
        _, cut, a, b = NORMAL_FORM_TERMS[name]
        out[name] = op.apply_batch(factors[a], factors[b], cutoff=cut)
    return out


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
    fields are alias-free by construction.  The ``<D>^{-1}`` and ``D`` factors
    outside the operators are left to the caller.  Each row's outputs are those of the row alone, bit for bit.
    The names and the stacks' last axis are checked before any work.  It
    builds one operator per phase in ``names``, with the cutoff's data only if
    a named term applies them, and drops each operator before it builds the
    next.
    """
    _check_terms(grid, names, cN, cU)
    factors = _products(grid, np.atleast_2d(cN), np.atleast_2d(cU))
    out = {}
    for phase in dict.fromkeys(NORMAL_FORM_TERMS[name][0] for name in names):  # in order of first use
        terms = [name for name in dict.fromkeys(names) if NORMAL_FORM_TERMS[name][0] == phase]
        op = _operator(grid, params, terms, n_angular)
        out.update(_apply(op, terms, factors))
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


def check_residual_config(cfg: SimConfig) -> None:
    """ValueError unless a run with this config can be checked by :func:`duhamel_residual`:
    the ``simplified`` model without dealiasing, alpha < 1, and at least three snapshots
    for Simpson quadrature."""
    if cfg.model != "simplified":
        raise ValueError("transformed-equation residuals require a simplified-model trajectory")
    if cfg.alpha >= 1.0:
        raise ValueError("the transformed equations are assembled for alpha < 1")
    if cfg.dealias:
        raise ValueError("residual checking needs a trajectory run without dealiasing")
    if len(cfg.snapshot_steps) < 3:
        raise ValueError("need at least three snapshots for Simpson quadrature")


def duhamel_residual(
    traj: Trajectory,
    params: ResonanceParams,
    which: str = "U",
    n_angular: int = 64,
) -> float:
    """Relative L^2 mismatch of the transformed integral equation at the final time.

    The right-hand side combines the free term, the boundary corrections at 0
    and t, the two cubic Duhamel integrals, and the untransformed remainder
    (the full quadratic term minus its guarded non-resonant part), each
    propagated exactly and integrated over the stored snapshots by composite
    Simpson, with Cartwright's correction of the last interval for an even
    snapshot count (:func:`_simpson`).  The run must pass
    :func:`check_residual_config`.

    The operator of the compared component's phase is built once, with the
    cutoff's data, before the snapshots are walked in the ``radial.row_chunks``
    of M-element rows.  Each chunk's flowed integrand goes into one
    preallocated (S, M) array; the boundary term is applied before the loop,
    to the first and last snapshots only.  So beyond the trajectory the
    residual holds the integrand, the kernel and one chunk's temporaries; the
    kernel is dropped before the Simpson rule, whose sums over the integrand
    hold about one stack more.
    """
    if which not in ("U", "N"):
        raise ValueError("which must be 'U' or 'N'")
    cfg = traj.config
    check_residual_config(cfg)
    if params.alpha != cfg.alpha:
        raise ValueError("resonance parameters must match the trajectory's alpha")
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

    if which == "U":
        names = ("bd_U", "cubic_1", "cubic_2", "nonres_U")
    else:
        names = ("bd_N", "cubic_3", "cubic_3b", "nonres_N")
    op = _operator(grid, params, names, n_angular)
    ends = [0, -1]
    bd = _apply(op, names[:1], _products(grid, cN[ends], cU[ends]))[names[0]]
    b0, bt = bd / lxi if which == "U" else alpha * xi * bd

    def chunk(rows: slice) -> NDArray:
        """The flowed integrand of the snapshot rows."""
        factors = _products(grid, cN[rows], cU[rows])
        nf = _apply(op, names[1:], factors)
        if which == "U":
            rest = factors["NU"] - nf["nonres_U"]
            total = (-1j / lxi) * (alpha * nf["cubic_1"] + nf["cubic_2"] + rest)
        else:
            rest = factors["UU"] - nf["nonres_N"]
            # the second cubic term enters with the opposite sign: the conjugate
            # factor twists with phase exp(+i s <eta>)
            total = -1j * alpha * xi * (nf["cubic_3"] + rest) + 1j * alpha * xi * nf["cubic_3b"]
        # each snapshot's integrand flows over the remaining time t - s
        return flow(total, t - times[rows])

    integrand = np.empty(cU.shape, dtype=np.complex128)
    for rows in row_chunks(len(times), grid.M):
        integrand[rows] = chunk(rows)
    del op
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
_EPS = 0.05  # the sweep's Besov offset eps: regularities 1/4 + eps, exponents q(+-eps)
STABILITY_FACTOR = 2.0  # C7's gate: a sweep passes when no estimate's constant grows by more over the sizes


@dataclass(frozen=True)
class SweepReport:
    """The constant of each estimate, one ``(len(sizes), trials)`` array per estimate in ``ESTIMATES``."""

    sizes: tuple[int, ...]
    values: dict[str, NDArray]

    def max_constants(self) -> dict[str, dict[int, float]]:
        """Each estimate's largest constant over the trials at each size: the builtin max folded
        from 0.0, which passes over a NaN trial."""
        return {est: {M: max(0.0, *row.tolist()) for M, row in zip(self.sizes, v)} for est, v in self.values.items()}

    def stability_ratios(self) -> dict[str, float]:
        """Each estimate's largest constant over the sizes divided by its smallest.

        A constant reads 0 where the symbols act on nothing on a coarse grid: a smallest constant
        of 0 gives inf, and nan when every size reads 0, so that :meth:`passed` is False.
        """
        ratios = {}
        for est, per_m in self.max_constants().items():
            lo, hi = min(per_m.values()), max(per_m.values())
            ratios[est] = hi / lo if lo > 0.0 else (math.inf if hi > 0.0 else math.nan)
        return ratios

    def passed(self) -> bool:
        return all(r <= STABILITY_FACTOR for r in self.stability_ratios().values())


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
) -> SweepReport:
    """Measure the normal-form estimate constants across grid refinements.

    The default alpha = 2 has k_alpha = 5, the floor, which the coarsest default
    band (R = 40, M = 128) hosts uncapped.  At alpha = 0.5 the band caps k_alpha
    from 10 to 6 with a UserWarning, and the sweep measures that capped split:
    its constants are nonzero and stable (bd_U reads 5.254e-6 at M = 128, 256
    and 512, one trial), but they are not those of the certified separation.
    """
    check_count("trials", trials)
    check_sizes(sizes)
    sizes = tuple(sorted(sizes))
    coarse = RadialGrid(R, sizes[0])
    params = compute_params(alpha, band=coarse)
    q_eps, q_meps = resolution_exponents(_EPS)

    per_size = []
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
        besov_pair = besov_norms(grid, cN, -0.25 - _EPS, q_meps) * besov_norms(grid, cU, 0.25 + _EPS, q_eps)
        # the frequency-split norms: low part in L^1.2 or hom. Besov (1/4+eps, q(eps)),
        # high part in inhom. Besov (11/6, 1.2) or (2/3, q(eps))
        split_c2 = lebesgue_norms(grid, synthesize(grid, c2 * low), 1.2) + besov_norms(
            grid, c2 - c2 * low, 1.0 + 5.0 / 6.0, 1.2, homogeneous=False
        )
        xy_U = besov_norms(grid, cU * low, 0.25 + _EPS, q_eps) + besov_norms(
            grid, cU - cU * low, 2.0 / 3.0, q_eps, homogeneous=False
        )

        # the transform is real, so conj(cU) holds the coefficients of conj(U)
        lh = decompose_bilinear(grid, cN, cU, InteractionTag.LH, params)
        hh = decompose_bilinear(grid, cN, cU, InteractionTag.HH, params)
        uhh = decompose_bilinear(grid, cU, np.conj(cU), InteractionTag.HH, params)

        per_size.append({
            "bd_U": sobolev_norms(grid, nf["bd_U"] / lxi, 1.0) / (n_l2 * u_h1),
            "bd_N": l2_norms(grid, xi * nf["bd_N"]) / u_h1**2,
            "cubic_1": sobolev_norms(grid, nf["cubic_1"] / lxi, 1.0) / (u_l6**2 * u_h1),
            "cubic_2": split_c2 / (n_l2**2 * u_l6),
            "cubic_3": l2_norms(grid, xi * nf["cubic_3"]) / (n_l2 * u_l6**2),
            "bi_LH": sobolev_norms(grid, lh / lxi, 1.0) / besov_pair,
            "bi_HH": sobolev_norms(grid, hh / lxi, 1.0) / besov_pair,
            "bi_DHH": l2_norms(grid, xi * uhh) / xy_U**2,
        })
    return SweepReport(sizes, {est: np.stack([v[est] for v in per_size]) for est in ESTIMATES})
