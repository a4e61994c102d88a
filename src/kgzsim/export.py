"""Atomic file output: trajectory exports, CSV tables, and run manifests.

This module owns the text-output format.  All numeric CSV output uses 17
significant digits so 64-bit floats round-trip losslessly, and every text
file is written to a temporary name and renamed into place.  It also owns
the binary ``.fld`` snapshot format (:func:`write_field`), which holds the
physical samples of U and N: a ``<dQBB`` header (R, M, kind 0, complex flag
1), then M little-endian (re, im) float64 pairs.
"""

from __future__ import annotations

import os
import struct
import tempfile
import time
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from .kgz import Trajectory
from .radial import RadialGrid, l2_norms, synthesize

FLOAT_FMT = "%.17g"
_HEADER = struct.Struct("<dQBB")  # R (f64), M (u64), kind (u8, 0: physical samples), complex flag (u8, 1)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return FLOAT_FMT % value
    return str(value)


def atomic_write_text(path: Path | str, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: Path | str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_field(path, grid: RadialGrid, values: NDArray) -> None:
    """Write (M,) physical samples: header (R, M, 0, 1) + little-endian (re, im) f64 pairs."""
    payload = np.empty((grid.M, 2), dtype="<f8")
    payload[:, 0] = values.real
    payload[:, 1] = values.imag
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(grid.R, grid.M, 0, 1))
        fh.write(payload.tobytes())


def write_manifest(path: Path | str, resolved: Mapping[str, object]) -> None:
    """key=value dump of every parameter the run consumed, then the time of writing."""
    lines = [f"{k}={_fmt(v)}" for k, v in sorted(resolved.items())]
    lines.append(f"timestamp={time.strftime('%Y-%m-%dT%H:%M:%S')}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def export_trajectory(traj: Trajectory, outdir: Path | str, fields: bool = True) -> None:
    """Snapshot files and a diagnostics CSV (t, E, ||U||_2, ||N||_2).

    The run manifest is the caller's: ``kgzsim.cli`` writes it with the full
    resolved configuration.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    grid = traj.config.grid
    if fields:
        snapdir = outdir / "snapshots"
        snapdir.mkdir(exist_ok=True)
        # one snapshot at a time, so the physical samples never hold the whole stack
        for i, (cu, cn) in enumerate(zip(traj.cU, traj.cN)):
            U, N = synthesize(grid, np.stack([cu, cn]))
            write_field(snapdir / f"U_{i:06d}.fld", grid, U)
            write_field(snapdir / f"N_{i:06d}.fld", grid, N)
    write_csv(
        outdir / "diagnostics.csv",
        ["t", "energy", "u_norm_l2", "n_norm_l2"],
        [
            (float(t), float(e), float(nu), float(nn))
            for t, e, nu, nn in zip(traj.times, traj.energies, l2_norms(grid, traj.cU), l2_norms(grid, traj.cN))
        ],
    )
