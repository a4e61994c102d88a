"""Reference computations and readers shared by the test modules."""

import numpy as np

from kgzsim.radial import _HEADER, RadialGrid, analyze, dealias_mask, eta0, synthesize


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
