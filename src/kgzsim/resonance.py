"""Resonance phases, interaction-regime constants, and tagged bilinear splits.

A quadratic interaction between the Klein-Gordon half-wave (phase <xi>) and
the acoustic half-wave (phase alpha*|xi|) carries one of four phase
combinations

    w1 = -<xi> + alpha|xi-eta| + <eta>,     w2 = -<xi> - alpha|xi-eta| + <eta>,
    w3 = -<xi> + alpha|xi-eta| - <eta>,     w4 = -<xi> - alpha|xi-eta| - <eta>,

and the mirrored family for the acoustic output,

    wt1 = -alpha|xi| + <xi-eta> - <eta>,    wt2 = -alpha|xi| - <xi-eta> + <eta>,
    wt3 = -alpha|xi| + <xi-eta> + <eta>,    wt4 = -alpha|xi| - <xi-eta> - <eta>.

For alpha < 1 the phase w1 vanishes at |eta| = 0, |xi| = c = 2 alpha/(1-alpha^2)
(w3 and c = 2 alpha/(alpha^2-1) for alpha > 1), so high-low products are split
into a resonant dyadic annulus around c (tag AL / LA) and its complement
(tag XL / LX), with the low frequency at least k_sep dyadic levels below.
``compute_params`` produces constants (delta, k_sep, rho) for which the
resonant phase is verifiably bounded below, |w| >= rho * r, outside the
annulus.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .kgz import check_alpha
from .radial import RadialGrid, analyze, chi_k, chi_le, synthesize


def _bracket(x):
    """Japanese bracket <x> = sqrt(1 + x^2)."""
    return np.sqrt(1.0 + np.square(x))


def interaction_distance(xi, eta, cos_theta):
    """|xi - eta| from the two radii and the cosine of the enclosed angle.

    Each operation rounds monotonically, so in floating point the distance is
    monotone in the cosine: at every angle it lies between its values at
    cos = 1 and cos = -1.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    cos_theta = np.asarray(cos_theta, dtype=float)
    sq = xi**2 + eta**2 - 2.0 * xi * eta * cos_theta
    return np.sqrt(np.maximum(sq, 0.0))


def phase_at_distance(j: int, xi, eta, d, alpha: float, tilde: bool = False):
    """The phase w_j (wt_j with ``tilde``) from the radii |xi|, |eta| and the distance d = |xi - eta|."""
    if j not in (1, 2, 3, 4):
        raise ValueError(f"index must be 1..4, got {j}")
    xi, d = np.asarray(xi, dtype=float), np.asarray(d, dtype=float)
    s_mid = 1.0 if j in (1, 3) else -1.0
    if tilde:
        s_eta = -1.0 if j in (1, 4) else 1.0
        return s_mid * _bracket(d) + s_eta * _bracket(eta) - alpha * xi
    s_eta = 1.0 if j in (1, 2) else -1.0
    return -_bracket(xi) + s_mid * alpha * d + s_eta * _bracket(eta)


def omega(j: int, xi, eta, cos_theta, alpha: float):
    """Resonance phase w_j of the Klein-Gordon-output interaction."""
    return phase_at_distance(j, xi, eta, interaction_distance(xi, eta, cos_theta), alpha)


def omega_tilde(j: int, xi, eta, cos_theta, alpha: float):
    """Resonance phase wt_j of the acoustic-output interaction."""
    return phase_at_distance(j, xi, eta, interaction_distance(xi, eta, cos_theta), alpha, tilde=True)


# ---------------------------------------------------------------------------
# constants realizing the off-annulus lower bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResonanceParams:
    """Constants (alpha, delta, k_sep, rho) of the interaction split.

    Outside the annulus [c - delta, c + delta] around c = 2 alpha/|1 - alpha^2|
    the resonant phase profile is bounded below by rho * r; k_alpha is the
    dyadic separation of high-low pairs (at least 5).
    """

    alpha: float
    delta_alpha: float
    k_alpha: int
    rho: float

    def __post_init__(self):
        check_alpha(self.alpha)
        if not (0.0 < self.delta_alpha < self.c_alpha):
            raise ValueError("delta_alpha must lie in (0, c_alpha)")
        if self.k_alpha < 5:
            raise ValueError("k_alpha must be at least 5")
        if not self.rho > 0:
            raise ValueError("rho must be positive")

    @property
    def c_alpha(self) -> float:
        """The resonant radius 2 alpha/|1 - alpha^2|."""
        return 2.0 * self.alpha / abs(1.0 - self.alpha**2)


def resonant_index(alpha: float) -> int:
    """The phase that vanishes on the annulus: w1 for alpha < 1, w3 for alpha > 1."""
    return 1 if alpha < 1.0 else 3


def resonant_profile(r, alpha: float):
    """The zero-input-frequency profile of the resonant phase, w_j at |eta| = 0 with |xi| = r.

    alpha < 1: f(r) = alpha r - <r> + 1 (root at c = 2 alpha/(1-alpha^2));
    alpha > 1: g(r) = alpha r - <r> - 1 (root at c = 2 alpha/(alpha^2-1)).
    """
    return phase_at_distance(resonant_index(alpha), r, 0.0, r, alpha)


def _profile_over_r(r: NDArray, alpha: float) -> NDArray:
    """|profile(r)| / r in a cancellation-free form near r = 0 (alpha < 1)."""
    r = np.asarray(r, dtype=float)
    if alpha < 1.0:
        # f(r)/r = alpha - r/(1 + <r>)
        return np.abs(alpha - r / (1.0 + _bracket(r)))
    return np.abs(resonant_profile(r, alpha)) / r


_THETA = 0.25  # alpha < 1: the annulus half-width delta = theta * c
_SAFETY = 0.9  # alpha < 1: rho is the off-annulus minimum of |f(r)|/r shrunk by this factor


def compute_params(alpha: float, band: RadialGrid | None = None) -> ResonanceParams:
    """Derive the interaction-split constants for a given speed ratio, from closed forms.

    Both profiles are monotone in h(r) = r/(1 + <r>), which rises strictly from 0 to 1 on r > 0.

    alpha < 1: f(r)/r = alpha - h(r) falls strictly through its root c.  The
    annulus half-width is delta = theta * c with theta = 1/4, which keeps
    c(1-theta) above the profile maximizer r0 = alpha/sqrt(1-alpha^2) for every
    alpha in (0,1).  Off the annulus |f(r)|/r is smallest at an edge c -+ delta,
    and rho is the smaller edge value shrunk by a safety factor 0.9.

    alpha > 1: g(r)/r = alpha - 1/h(r) rises strictly through c, and
    rho = (alpha-1)/2.  |g(r)| = rho r where 1/h(r) = y, for y = (3 alpha - 1)/2
    left of c and y = (alpha + 1)/2 right of it: at r = 2y/(y^2 - 1), computed as
    2y/e/(2 + e) with e = y - 1, which keeps its digits near alpha = 1 and does
    not overflow.  delta is the larger distance of the two crossings from c.

    ``band`` (a grid) caps the dyadic separation so that the grid's band
    supports at least three separated high blocks; a warning is issued when
    the cap binds.  The result is re-verified by :func:`verify_profile_bound`.
    """
    check_alpha(alpha)
    c = 2.0 * alpha / abs(1.0 - alpha**2)
    if alpha < 1.0:
        delta = _THETA * c
        rho = _SAFETY * float(_profile_over_r(np.array([c - delta, c + delta]), alpha).min())
        floors = [5.0, abs(np.log2(rho)) + 5.0, abs(np.log2(1.0 - alpha)) + 5.0]
    else:
        rho = 0.5 * (alpha - 1.0)
        # the crossings at y - 1 = e = 3 rho and rho
        r_left, r_right = (2.0 * (1.0 + e) / e / (2.0 + e) for e in (3.0 * rho, rho))
        delta = max(c - r_left, r_right - c)
        floors = [5.0, abs(np.log2(alpha - 1.0)) + 5.0]
        if not delta < c:  # delta/c = 1 - O(1/alpha)
            raise ValueError(f"alpha={alpha} is too large: the annulus half-width delta rounds up to c_alpha")

    k_sep = int(np.ceil(max(floors)))
    if band is not None:
        capped = max((band.k_max - band.k_min) - 2, 5)
        if capped < k_sep:
            warnings.warn(
                f"dyadic separation {k_sep} exceeds the grid band "
                f"[{band.k_min}, {band.k_max}]; capped to {capped}",
                stacklevel=2,
            )
            k_sep = capped

    params = ResonanceParams(alpha, delta, k_sep, rho)
    ok, margin = verify_profile_bound(params)
    if not ok:
        raise ValueError(f"off-annulus profile bound failed (margin {margin:.3e})")
    return params


def verify_profile_bound(params: ResonanceParams) -> tuple[bool, float]:
    """Dense 1D re-verification of |profile(r)| >= rho * r off the annulus, at 10001 points of c * [1e-9, 10].

    The points scale with c, so they fall just outside both annulus edges at
    every alpha; they check the closed forms of :func:`compute_params`
    independently.  Returns (ok, worst margin) where margin = min(|profile|/r - rho).
    """
    c, d = params.c_alpha, params.delta_alpha
    r = c * np.linspace(1e-9, 10.0, 10001)
    outside = (r < c - d) | (r > c + d)
    ratios = _profile_over_r(r, params.alpha)
    margin = float((ratios[outside] - params.rho).min())
    return margin >= 0.0, margin


# ---------------------------------------------------------------------------
# interaction tags
# ---------------------------------------------------------------------------

class InteractionTag(enum.Enum):
    """Bilinear frequency regime of a product f*g.

    LH: f low, g high;  HL: f high, g low;  HH: comparable.
    AL / XL refine HL by whether the high block meets the resonant annulus;
    LA / LX refine LH likewise (the high factor is then g).
    """

    LH = "LH"
    HL = "HL"
    HH = "HH"
    AL = "AL"
    XL = "XL"
    LA = "LA"
    LX = "LX"


def _block_resonant(k: int, params: ResonanceParams) -> bool:
    return abs(2.0**k - params.c_alpha) <= params.delta_alpha


def in_support(tag: InteractionTag, k1: int, k2: int, params: ResonanceParams) -> bool:
    """Whether the dyadic block pair (k1 for f, k2 for g) carries the tag."""
    ka = params.k_alpha
    if tag is InteractionTag.LH:
        return k1 <= k2 - ka
    if tag is InteractionTag.HL:
        return k2 <= k1 - ka
    if tag is InteractionTag.HH:
        return abs(k1 - k2) < ka
    if tag is InteractionTag.AL:
        return k2 <= k1 - ka and _block_resonant(k1, params)
    if tag is InteractionTag.XL:
        return k2 <= k1 - ka and not _block_resonant(k1, params)
    if tag is InteractionTag.LA:
        return k1 <= k2 - ka and _block_resonant(k2, params)
    if tag is InteractionTag.LX:
        return k1 <= k2 - ka and not _block_resonant(k2, params)
    raise ValueError(f"unknown tag {tag}")


def decompose_bilinear(
    grid: RadialGrid,
    cf: NDArray,
    cg: NDArray,
    tag: InteractionTag,
    params: ResonanceParams,
) -> NDArray:
    """Sine coefficients of the tagged part of the product f*g, from (..., M) coefficient stacks.

    The block pairs are the ones :func:`in_support` gives the tag.  A
    high-low pair is summed with the others of its resolved high block k, as
    P_k f * P_{<= k - k_alpha} g where the tag holds at (k, k - k_alpha)
    (low-high mirrored); an HH pair is summed block by block.  Products are
    formed in physical space and are not dealiased: a caller that wants the
    2/3 rule masks the inputs and the result with ``radial.dealias_mask``.
    Each row of a stack comes out as it would alone.
    """
    ks, ka = grid.resolved_k, params.k_alpha

    def block(c: NDArray, k: int) -> NDArray:
        return synthesize(grid, c * chi_k(grid.xi, k))

    def low(c: NDArray, k: int) -> NDArray:
        return synthesize(grid, c * chi_le(grid.xi, k))

    acc = np.zeros(np.broadcast_shapes(cf.shape, cg.shape), dtype=np.complex128)
    for k in ks:
        if in_support(tag, k, k - ka, params):
            acc += block(cf, k) * low(cg, k - ka)
        if in_support(tag, k - ka, k, params):
            acc += low(cf, k - ka) * block(cg, k)
    near = [
        (k1, k2)
        for k1 in ks
        for k2 in ks
        if in_support(tag, k1, k2, params) and in_support(InteractionTag.HH, k1, k2, params)
    ]
    if near:
        fb, gb = {k: block(cf, k) for k in ks}, {k: block(cg, k) for k in ks}
        for k1, k2 in near:
            acc += fb[k1] * gb[k2]
    return analyze(grid, acc)


# ---------------------------------------------------------------------------
# numerical verification of the phase bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaGridSpec:
    """Evaluation grid: |xi| in [xi_min, xi_max] (geometric), |eta| up to
    2^{-k_alpha}|xi|, cos(theta) in [-1, 1]."""

    xi_min: float = 0.05
    xi_max: float = 64.0
    n_xi: int = 200
    n_eta: int = 50
    n_cos: int = 21

    def __post_init__(self):
        if not 0.0 < self.xi_min < self.xi_max:
            raise ValueError(f"need 0 < xi_min < xi_max, got {self.xi_min}, {self.xi_max}")
        if min(self.n_xi, self.n_eta, self.n_cos) < 1:
            raise ValueError(f"grid counts must be >= 1, got {self.n_xi}, {self.n_eta}, {self.n_cos}")


@dataclass(frozen=True)
class BoundRow:
    quantity: str
    region: str
    value: float
    arg_xi: float
    arg_eta: float
    arg_cos: float


@dataclass(frozen=True)
class LemmaReport:
    """Grid minima of the normalized phases plus resonance evidence."""

    params: ResonanceParams
    spec: LemmaGridSpec
    rows: tuple[BoundRow, ...]
    sign_change: bool

    @property
    def passed(self) -> bool:
        mins = [r.value for r in self.rows if r.quantity.startswith("min")]
        return self.sign_change and all(v > 0.0 for v in mins)

    def summary(self) -> dict:
        out = {
            "alpha": self.params.alpha,
            "c_alpha": self.params.c_alpha,
            "delta_alpha": self.params.delta_alpha,
            "k_alpha": self.params.k_alpha,
            "rho": self.params.rho,
            "sign_change": self.sign_change,
            "resonant_index": resonant_index(self.params.alpha),
            "passed": self.passed,
        }
        for r in self.rows:
            out[r.quantity] = r.value
        return out


def verify_lemma_bounds(params: ResonanceParams, spec: LemmaGridSpec = LemmaGridSpec()) -> LemmaReport:
    """Sweep the phases over high-low grids and record normalized minima.

    The XL grid excludes output radii inside the resonant annulus, where the
    branch's resonant phase changes sign (also verified here); the HL grid
    keeps the annulus.  All minima must be positive for the report to pass.
    """
    a = params.alpha
    c, d, ka = params.c_alpha, params.delta_alpha, params.k_alpha
    xi = np.geomspace(spec.xi_min, spec.xi_max, spec.n_xi)[:, None, None]
    eta = xi * np.linspace(0.0, 2.0**-ka, spec.n_eta)[None, :, None]
    cos = np.linspace(-1.0, 1.0, spec.n_cos)[None, None, :]
    xi_b, eta_b, cos_b = np.broadcast_arrays(xi, eta, cos)

    off_annulus = (xi < c - d) | (xi > c + d)
    off_annulus = np.broadcast_to(off_annulus, xi_b.shape)

    rows: list[BoundRow] = []

    def add(name: str, region: str, values: NDArray, mask: NDArray, minimum=True):
        vals = np.where(mask, values, np.inf if minimum else -np.inf)
        idx = np.unravel_index(np.argmin(vals) if minimum else np.argmax(vals), vals.shape)
        rows.append(
            BoundRow(name, region, float(vals[idx]), float(xi_b[idx]), float(eta_b[idx]), float(cos_b[idx]))
        )

    all_pts = np.ones_like(xi_b, dtype=bool)
    w1 = np.abs(omega(1, xi_b, eta_b, cos_b, a)) / xi_b
    w3 = np.abs(omega(3, xi_b, eta_b, cos_b, a)) / _bracket(xi_b)
    add("min|w1|/|xi|", "XL", w1, off_annulus)
    add("min|w3|/<xi>", "XL", w3, off_annulus)
    add("min|w2|/<xi>", "HL", np.abs(omega(2, xi_b, eta_b, cos_b, a)) / _bracket(xi_b), all_pts)
    add("min|w4|/<xi>", "HL", np.abs(omega(4, xi_b, eta_b, cos_b, a)) / _bracket(xi_b), all_pts)

    j = resonant_index(a)
    add(f"max|w{j}|/scale", "XL", w1 if j == 1 else w3, off_annulus, minimum=False)

    # sign change of the resonant phase across c inside the annulus, zero input
    r_line = np.linspace(c - 0.99 * d, c + 0.99 * d, 1001)
    line = omega(j, r_line, 0.0, 1.0, a)
    sign_change = bool(line.min() < 0.0 < line.max())

    return LemmaReport(params, spec, tuple(rows), sign_change)
