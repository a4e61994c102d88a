"""Atomic file output: trajectory exports, CSV tables, and run manifests.

All numeric CSV output uses 17 significant digits so 64-bit floats round-trip
losslessly, and every file is written to a temporary name and renamed into
place.
"""

from __future__ import annotations

import os
import tempfile
import time
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .kgz import Trajectory
from .radial import SpectralField, field_to_csv, to_physical, write_field

FLOAT_FMT = "%.17g"


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


def write_manifest(path: Path | str, resolved: Mapping[str, object], timestamp: bool = True) -> None:
    """key=value dump of every parameter the run consumed."""
    lines = [f"{k}={_fmt(v)}" for k, v in sorted(resolved.items())]
    if timestamp:
        lines.append(f"timestamp={time.strftime('%Y-%m-%dT%H:%M:%S')}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def export_trajectory(traj: Trajectory, outdir: Path | str, fields: bool = True) -> None:
    """Snapshot files, a diagnostics CSV (t, E, ||U||_2, ||N||_2), and a manifest."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = traj.config
    if fields:
        snapdir = outdir / "snapshots"
        snapdir.mkdir(exist_ok=True)
        grid = cfg.grid
        for i, (cu, cn) in enumerate(zip(traj.cU, traj.cN)):
            U, N = to_physical(SpectralField(grid, cu)), to_physical(SpectralField(grid, cn))
            write_field(snapdir / f"U_{i:06d}.fld", U)
            write_field(snapdir / f"N_{i:06d}.fld", N)
        field_to_csv(outdir / "final_U.csv", U)
        field_to_csv(outdir / "final_N.csv", N)
    write_csv(
        outdir / "diagnostics.csv",
        ["t", "energy", "u_norm_l2", "n_norm_l2"],
        [
            (float(t), float(e), float(nu), float(nn))
            for t, e, nu, nn in zip(traj.times, traj.energies, traj.u_norms, traj.n_norms)
        ],
    )
    resolved = {
        "sim.alpha": cfg.alpha,
        "grid.R": cfg.R,
        "grid.M": cfg.M,
        "sim.dt": cfg.dt,
        "sim.T": cfg.T,
        "sim.model": cfg.model,
        "sim.dealias": cfg.dealias,
        "sim.snapshot_stride": cfg.snapshot_stride,
    }
    write_manifest(outdir / "manifest.txt", resolved)
