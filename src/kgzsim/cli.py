"""Batch experiment runner.

Subcommands: simulate, resonance, normalform-check, strichartz-scan,
sharpness, scatter-diag, params.  Configuration is a flat key=value text file
with section prefixes (grid.R, sim.dt, ...), overridable with repeated
``--set key=value`` flags; unknown keys are rejected.  Every run writes a
manifest echoing the fully resolved configuration.  Exit codes: 0 success,
2 configuration error, 3 blow-up signal, 4 guard violation.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from .export import _fmt, atomic_write_text, write_csv, write_manifest, export_trajectory
from .kgz import BlowupError, RadialGrid, SimConfig, gaussian_data, run_simulation
from .normalform import SweepReport, check_count, check_residual_config, check_sizes, duhamel_residual, estimate_sweep
from .resonance import LemmaGridSpec, LemmaReport, compute_params, verify_lemma_bounds, verify_profile_bound
from .strichartz import (
    GuardError,
    ResolutionNorms,
    ScanTable,
    ScatteringReport,
    beta_exponent,
    check_blocks,
    check_samples,
    check_window,
    checkpoint_indices,
    resolution_exponents,
    resolution_norms,
    scattering_profile,
    sharpness_witness,
    strichartz_scan,
    window_slice,
    witness_window,
)

EXIT_OK, EXIT_CONFIG, EXIT_BLOWUP, EXIT_GUARD = 0, 2, 3, 4


class ConfigError(ValueError):
    pass


# defaults double as the type schema: values are coerced to the default's type
DEFAULTS: dict[str, dict[str, object]] = {
    "simulate": {
        "grid.R": 40.0,
        "grid.M": 256,
        "sim.alpha": 0.5,
        "sim.dt": 1e-3,
        "sim.T": 1.0,
        "sim.model": "full",
        "sim.dealias": True,
        "sim.snapshot_stride": 10,
        "data.eps0": 0.01,
        "data.width": 1.0,
    },
    "resonance": {"resonance.alpha": 0.5, **{f"lemma.{k}": v for k, v in asdict(LemmaGridSpec()).items()}},
    "params": {"resonance.alpha": 0.5},
    "normalform-check": {
        "grid.R": 40.0,
        "grid.M": 256,
        "sim.alpha": 0.5,
        "sim.dt": 1e-3,
        "sim.T": 2.0,
        "sim.snapshot_stride": 10,
        "data.eps0": 0.01,
        "data.width": 1.0,
        "quad.n_angular": 64,
        "sweep.enabled": False,
        "sweep.sizes": "128,256,512",
        "sweep.trials": 50,
    },
    "strichartz-scan": {
        "grid.R": 16.0,
        "grid.M": 1024,
        "scan.flavor": "wave",
        "scan.q": 2.0,
        "scan.r": 5.0,
        "scan.k_min": 1,
        "scan.k_max": 5,
        "scan.window": 4.0,
        "scan.samples": 128,
        "scan.alpha": 1.0,
        "scan.seed": 7,
    },
    "sharpness": {
        "sharp.q": 2.0,
        "sharp.r": 4.0,
        "sharp.k_min": 2,
        "sharp.k_max": 6,
        "sharp.R": 64.0,
        "sharp.samples": 128,
    },
    "scatter-diag": {
        "grid.R": 100.0,
        "grid.M": 512,
        "sim.alpha": 0.5,
        "sim.dt": 1e-3,
        "sim.T": 20.0,
        "sim.model": "full",
        "sim.dealias": True,
        "sim.snapshot_stride": 10,
        "data.eps0": 0.01,
        "data.width": 1.0,
        "scatter.checkpoints": "5,10,20",
        "scatter.eps": 0.05,
    },
}


def _coerce(key: str, raw: str, default) -> object:
    try:
        if isinstance(default, bool):
            low = raw.strip().lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"cannot parse value for key {key!r}: {raw!r}") from exc


def resolve_config(subcommand: str, config_path: str | None, overrides: list[str]) -> dict[str, object]:
    defaults = DEFAULTS[subcommand]
    resolved = dict(defaults)

    def apply(key: str, raw: str, origin: str):
        if key not in defaults:
            raise ConfigError(f"unknown key {key!r} in {origin} (known: {', '.join(sorted(defaults))})")
        resolved[key] = _coerce(key, raw, defaults[key])

    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not readable: {config_path}")
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"malformed line {lineno} in {config_path}: {line!r}")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            apply(key, raw, f"{config_path}:{lineno}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"malformed --set {item!r}, expected key=value")
        key, raw = (part.strip() for part in item.split("=", 1))
        apply(key, raw, "--set")
    return resolved


def _sim_config(cfg: dict, **fixed) -> SimConfig:
    """The run's SimConfig from the grid.* and sim.* keys; ``fixed`` gives the fields that a
    subcommand sets itself instead of reading them, e.g. ``model="simplified", dealias=False``."""
    names = ("alpha", "dt", "T", "model", "dealias", "snapshot_stride")
    read = {name: cfg[f"sim.{name}"] for name in names if name not in fixed}
    try:
        return SimConfig(R=cfg["grid.R"], M=cfg["grid.M"], **read, **fixed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check(keys: str, validate, *args):
    """Run a library validator before any work: its ValueError becomes a config
    error that names ``keys``, and a GuardError passes through."""
    try:
        return validate(*args)
    except GuardError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{keys}: {exc}") from exc


def _k_range(cfg: dict, section: str) -> range:
    ks = range(cfg[f"{section}.k_min"], cfg[f"{section}.k_max"] + 1)
    if not ks:
        raise ConfigError(f"{section}.k_min={ks.start} exceeds {section}.k_max={ks.stop - 1}")
    return ks


def _initial_data(cfg: dict, grid: RadialGrid):
    return _check("data.eps0, data.width", gaussian_data, grid, cfg["data.eps0"], cfg["data.width"])


# ---------------------------------------------------------------------------
# file layouts and subcommand bodies
# ---------------------------------------------------------------------------

def write_lemma_bounds(path: Path, report: LemmaReport) -> None:
    """One row per bound: alpha, the BoundRow's fields in order, and the evaluation grid's counts."""
    spec = report.spec
    header = ["alpha", "quantity", "region", "value", "arg_xi", "arg_eta", "arg_cos", "n_xi", "n_eta", "n_cos"]
    rows = [(report.params.alpha, *astuple(r), spec.n_xi, spec.n_eta, spec.n_cos) for r in report.rows]
    write_csv(path, header, rows)


def write_scan(path: Path, table: ScanTable) -> None:
    """Per-block rows, then the fit as ``# name,value`` rows."""
    rows = [(k, n, math.log2(n), res) for k, n, res in zip(table.ks, table.norms, table.residuals)]
    rows += [("# slope", table.slope), ("# predicted_slope", table.predicted_slope)]
    write_csv(path, ["k", "norm", "log2_norm", "fit_residual"], rows)


def write_cauchy(path: Path, report: ScatteringReport) -> None:
    write_csv(path, ["t1", "t2", "d_U_H1", "d_N_L2"], [(r.t1, r.t2, r.d_U, r.d_N) for r in report.rows])


def write_sweep(path: Path, report: SweepReport) -> None:
    """One row per constant, estimates innermost, then trials, then sizes."""
    names = list(report.values)
    table = np.stack(list(report.values.values()), axis=-1)  # (sizes, trials, estimates)
    rows = [(names[e], report.sizes[i], t, v) for (i, t, e), v in np.ndenumerate(table)]
    write_csv(path, ["estimate", "M", "trial", "value"], rows)


def _run_simulate(cfg: dict, out: Path) -> None:
    sim = _sim_config(cfg)
    traj = run_simulation(sim, _initial_data(cfg, sim.grid))
    export_trajectory(traj, out)


def _run_params(cfg: dict, out: Path | None) -> None:
    alpha = cfg["resonance.alpha"]
    p = _check("resonance.alpha", compute_params, alpha)
    items = [("alpha", alpha)]
    if alpha < 1.0:
        items.append(("r0", alpha / np.sqrt(1.0 - alpha**2)))
    items += [("c_alpha", p.c_alpha), ("delta_alpha", p.delta_alpha), ("k_alpha", p.k_alpha), ("rho", p.rho)]
    lines = [f"{k:<11} = {_fmt(v)}" for k, v in items]
    print("\n".join(lines))
    if out is not None:
        atomic_write_text(out / "params.txt", "\n".join(lines) + "\n")


def _run_resonance(cfg: dict, out: Path) -> str | None:
    p = _check("resonance.alpha", compute_params, cfg["resonance.alpha"])
    keys = [f"lemma.{f.name}" for f in fields(LemmaGridSpec)]
    spec = _check(", ".join(keys), LemmaGridSpec, *(cfg[k] for k in keys))
    report = verify_lemma_bounds(p, spec)
    write_lemma_bounds(out / "lemma_bounds.csv", report)
    summary = report.summary()
    # compute_params has already rejected constants whose profile bound fails
    summary["profile_bound_margin"] = verify_profile_bound(p)[1]
    atomic_write_text(
        out / "summary.txt",
        "\n".join(f"{k}={_fmt(v)}" for k, v in summary.items()) + "\n",
    )
    if not summary["passed"]:
        return "resonance lower-bound verification failed"


def _run_normalform(cfg: dict, out: Path) -> None:
    sim = _sim_config(cfg, model="simplified", dealias=False)
    listed = str(cfg["sweep.sizes"]).split(",")
    sizes = _check("sweep.sizes", lambda: tuple(RadialGrid(sim.R, int(s)).M for s in listed))
    _check("sweep.sizes", check_sizes, sizes)
    n_ang = cfg["quad.n_angular"]
    _check("quad.n_angular", check_count, "n_angular", n_ang)
    _check("sweep.trials", check_count, "trials", cfg["sweep.trials"])
    _check("sim.alpha, sim.T, sim.dt, sim.snapshot_stride", check_residual_config, sim)
    traj = run_simulation(sim, _initial_data(cfg, sim.grid))
    params = compute_params(sim.alpha, band=sim.grid)
    rows = []
    for which in ("U", "N"):
        res = duhamel_residual(traj, params, which, n_angular=n_ang)
        rows.append((float(traj.times[-1]), which, res, n_ang))
    write_csv(out / "residuals.csv", ["t", "component", "residual", "n_angular"], rows)
    if cfg["sweep.enabled"]:
        report = estimate_sweep(sim.alpha, sizes=sizes, trials=cfg["sweep.trials"], R=sim.R, n_angular=n_ang)
        write_sweep(out / "estimate_sweep.csv", report)
        write_csv(
            out / "estimate_stability.csv",
            ["estimate", "ratio"],
            [(k, v) for k, v in sorted(report.stability_ratios().items())],
        )


def _run_scan(cfg: dict, out: Path) -> None:
    grid = _check("grid.R, grid.M", RadialGrid, cfg["grid.R"], cfg["grid.M"])
    ks = _k_range(cfg, "scan")
    _check("scan.k_min, scan.k_max", check_blocks, ks, grid)
    q, r, flavor = cfg["scan.q"], cfg["scan.r"], cfg["scan.flavor"]
    _check("scan.q, scan.r, scan.flavor", beta_exponent, q, r, flavor)
    _check("scan.samples", check_samples, cfg["scan.samples"])
    window = (0.0, cfg["scan.window"])
    _check("scan.window", check_window, window)
    # the scan checks the reflection horizon itself, before it computes any flow
    table = strichartz_scan(
        grid,
        ks,
        q,
        r,
        flavor,
        window,
        alpha=cfg["scan.alpha"],
        n_samples=cfg["scan.samples"],
        seed=cfg["scan.seed"],
    )
    write_scan(out / "scan.csv", table)


def _run_sharpness(cfg: dict, out: Path) -> None:
    ks = _k_range(cfg, "sharp")
    q, r, R = cfg["sharp.q"], cfg["sharp.r"], cfg["sharp.R"]
    _check("sharp.q, sharp.r", beta_exponent, q, r, "schrodinger")
    _check("sharp.samples", check_samples, cfg["sharp.samples"])
    _check("sharp.R", RadialGrid, R, 4)  # the witness grid's radius; its size depends on k
    for k in ks:
        _check("sharp.k_min", witness_window, k, R)
    reports = [sharpness_witness(k, q, r, R=R, n_samples=cfg["sharp.samples"]) for k in ks]
    write_csv(
        out / "sharpness.csv",
        ["k", "measured", "scale_constant", "phi_norm", "ratio"],
        [(r.k, r.measured, r.scale_constant, r.phi_norm, r.ratio) for r in reports],
    )


def _run_scatter(cfg: dict, out: Path) -> None:
    sim = _sim_config(cfg)
    # settle the analysis settings before the run, eps ahead of the checkpoints' horizon guard (exit 4)
    _check("scatter.eps", resolution_exponents, cfg["scatter.eps"])
    cps = _check("scatter.checkpoints", lambda: [float(x) for x in str(cfg["scatter.checkpoints"]).split(",")])
    idx = _check("scatter.checkpoints", checkpoint_indices, sim, cps)
    ts = sim.snapshot_times
    # the resolution-space norm for each Cauchy row (t1, t2), from 0 to the snapshot the row reads at t2
    windows = [(0.0, float(ts[i])) for i in idx[1:]]
    for window in windows:
        _check("scatter.checkpoints", window_slice, ts, window)
    traj = run_simulation(sim, _initial_data(cfg, sim.grid))
    report = scattering_profile(traj, sim.alpha, cps)
    norms = zip(windows, resolution_norms(traj, cfg["scatter.eps"], windows))
    write_cauchy(out / "cauchy.csv", report)
    write_csv(
        out / "resolution_norms.csv",
        ["window", *(f.name for f in fields(ResolutionNorms)), "total"],
        [(t2, *astuple(n), n.total) for (_, t2), n in norms],
    )
    export_trajectory(traj, out, fields=False)


# a runner writes its files under ``out`` and returns None, or the message of a failed
# verdict, which exits 4 once ``main`` has written the manifest beside those files
RUNNERS = {
    "simulate": _run_simulate,
    "resonance": _run_resonance,
    "params": _run_params,
    "normalform-check": _run_normalform,
    "strichartz-scan": _run_scan,
    "sharpness": _run_sharpness,
    "scatter-diag": _run_scatter,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kgzsim", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    name = args.subcommand
    try:
        cfg = resolve_config(name, args.config, args.overrides)
        out = None
        if args.out is not None:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
        elif name != "params":
            raise ConfigError(f"subcommand {name!r} requires --out")
        failure = RUNNERS[name](cfg, out)
        if out is not None:
            write_manifest(out / "manifest.txt", cfg)
        if failure is not None:
            raise GuardError(failure)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowupError as exc:
        print(f"blow-up signal: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except GuardError as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return EXIT_GUARD
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
