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
import sys
from pathlib import Path

import numpy as np

from .export import atomic_write_text, write_csv, write_manifest, export_trajectory
from .kgz import BlowupError, RadialGrid, SimConfig, gaussian_data, run_simulation
from .normalform import duhamel_residual, estimate_sweep
from .resonance import LemmaGridSpec, compute_params, verify_lemma_bounds, verify_profile_bound
from .strichartz import GuardError, scattering_profile, sharpness_witness, strichartz_scan

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
        "data.profile": "gaussian",
        "data.eps0": 0.01,
        "data.width": 1.0,
    },
    "resonance": {
        "resonance.alpha": 0.5,
        "lemma.xi_min": 0.05,
        "lemma.xi_max": 64.0,
        "lemma.n_xi": 200,
        "lemma.n_eta": 50,
        "lemma.n_cos": 21,
    },
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


def _sim_config(cfg: dict, model_override: str | None = None, dealias_override: bool | None = None) -> SimConfig:
    try:
        return SimConfig(
            alpha=cfg["sim.alpha"],
            R=cfg["grid.R"],
            M=cfg["grid.M"],
            dt=cfg["sim.dt"],
            T=cfg["sim.T"],
            model=model_override if model_override is not None else cfg.get("sim.model", "full"),
            dealias=dealias_override if dealias_override is not None else cfg.get("sim.dealias", True),
            snapshot_stride=cfg["sim.snapshot_stride"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _initial_data(cfg: dict, grid: RadialGrid):
    profile = cfg.get("data.profile", "gaussian")
    if profile != "gaussian":
        raise ConfigError(f"unknown data profile {profile!r}")
    return gaussian_data(grid, eps0=cfg["data.eps0"], width=cfg["data.width"])


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _run_simulate(cfg: dict, out: Path) -> None:
    sim = _sim_config(cfg)
    traj = run_simulation(sim, _initial_data(cfg, sim.grid))
    export_trajectory(traj, out)


def _run_params(cfg: dict, out: Path | None) -> None:
    alpha = cfg["resonance.alpha"]
    p = compute_params(alpha)
    lines = [
        f"alpha       = {alpha:.17g}",
        f"branch      = {p.branch.value}",
        f"c_alpha     = {p.c_alpha:.17g}",
        f"delta_alpha = {p.delta_alpha:.17g}",
        f"k_alpha     = {p.k_alpha}",
        f"rho         = {p.rho:.17g}",
    ]
    if alpha < 1.0:
        r0 = alpha / np.sqrt(1.0 - alpha**2)
        lines.insert(2, f"r0          = {r0:.17g}")
    print("\n".join(lines))
    if out is not None:
        atomic_write_text(out / "params.txt", "\n".join(lines) + "\n")


def _run_resonance(cfg: dict, out: Path) -> None:
    alpha = cfg["resonance.alpha"]
    p = compute_params(alpha)
    spec = LemmaGridSpec(
        xi_min=cfg["lemma.xi_min"],
        xi_max=cfg["lemma.xi_max"],
        n_xi=cfg["lemma.n_xi"],
        n_eta=cfg["lemma.n_eta"],
        n_cos=cfg["lemma.n_cos"],
    )
    report = verify_lemma_bounds(p, spec)
    report.write_csv(out / "lemma_bounds.csv")
    ok_profile, margin = verify_profile_bound(p)
    summary = report.summary()
    summary["profile_bound_ok"] = ok_profile
    summary["profile_bound_margin"] = margin
    summary["passed"] = bool(summary["passed"] and ok_profile)
    atomic_write_text(
        out / "summary.txt",
        "\n".join(f"{k}={v}" for k, v in summary.items()) + "\n",
    )
    if not summary["passed"]:
        raise GuardError("resonance lower-bound verification failed")


def _run_normalform(cfg: dict, out: Path) -> None:
    sim = _sim_config(cfg, model_override="simplified", dealias_override=False)
    traj = run_simulation(sim, _initial_data(cfg, sim.grid))
    params = compute_params(sim.alpha, band=sim.grid)
    n_ang = cfg["quad.n_angular"]
    rows = []
    for which in ("U", "N"):
        res = duhamel_residual(traj, params, which, n_angular=n_ang)
        rows.append((float(traj.times[-1]), which, res, n_ang))
    write_csv(out / "residuals.csv", ["t", "component", "residual", "n_angular"], rows)
    if cfg["sweep.enabled"]:
        sizes = tuple(int(s) for s in str(cfg["sweep.sizes"]).split(","))
        report = estimate_sweep(sim.alpha, sizes=sizes, trials=cfg["sweep.trials"], R=sim.R, n_angular=n_ang)
        report.write_csv(out / "estimate_sweep.csv")
        write_csv(
            out / "estimate_stability.csv",
            ["estimate", "ratio"],
            [(k, v) for k, v in sorted(report.stability_ratios().items())],
        )


def _run_scan(cfg: dict, out: Path) -> None:
    grid = RadialGrid(cfg["grid.R"], cfg["grid.M"])
    ks = list(range(cfg["scan.k_min"], cfg["scan.k_max"] + 1))
    window = (0.0, cfg["scan.window"])
    flavor = cfg["scan.flavor"]
    if flavor not in ("wave", "schrodinger"):
        raise ConfigError(f"scan.flavor must be 'wave' or 'schrodinger', got {flavor!r}")
    if window[1] * max(1.0, cfg["scan.alpha"]) > grid.R / 2.0:
        raise GuardError("scan window exceeds the reflection-safe horizon R/2")
    table = strichartz_scan(
        grid,
        ks,
        cfg["scan.q"],
        cfg["scan.r"],
        flavor,
        window,
        alpha=cfg["scan.alpha"],
        n_samples=cfg["scan.samples"],
        seed=cfg["scan.seed"],
    )
    table.write_csv(out / "scan.csv")
    write_csv(out / "scan_plot.csv", ["k", "log2_norm"], table.plot_series())


def _run_sharpness(cfg: dict, out: Path) -> None:
    reports = [
        sharpness_witness(k, cfg["sharp.q"], cfg["sharp.r"], R=cfg["sharp.R"], n_samples=cfg["sharp.samples"])
        for k in range(cfg["sharp.k_min"], cfg["sharp.k_max"] + 1)
    ]
    write_csv(
        out / "sharpness.csv",
        ["k", "measured", "scale_constant", "phi_norm", "ratio"],
        [(r.k, r.measured, r.scale_constant, r.phi_norm, r.ratio) for r in reports],
    )
    write_csv(out / "sharpness_plot.csv", ["k", "ratio"], [(r.k, r.ratio) for r in reports])


def _run_scatter(cfg: dict, out: Path) -> None:
    sim = _sim_config(cfg)
    traj = run_simulation(sim, _initial_data(cfg, sim.grid))
    cps = [float(x) for x in str(cfg["scatter.checkpoints"]).split(",")]
    report = scattering_profile(traj, sim.alpha, cps)
    report.write_csv(out / "cauchy.csv")
    write_csv(
        out / "cauchy_plot.csv",
        ["t", "d_U_H1", "d_N_L2"],
        [(r.t2, r.d_U, r.d_N) for r in report.rows],
    )
    export_trajectory(traj, out, fields=False)


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
        RUNNERS[name](cfg, out)
        if out is not None:
            write_manifest(out / "manifest.txt", cfg)
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
