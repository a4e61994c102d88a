"""The three benchmark workloads: inputs from a seed, the run, and its check.

Each workload calls kgzsim only through the library entry points that the CLI
runners and ``scripts/`` call, looked up on the module at call time so that
the tracer's wrappers apply.  Every seed gives the same amount of work: the
seed moves only the initial data (scatter, residual) or the random trial
fields (sweep), never a size, a step count or a trial count.

Why these three:

* ``scatter`` -- the scattering-diagnostics pipeline.  Time stepping and
  per-snapshot analysis do nearly all the work and no bilinear operator is
  built, so a normalform change must leave it unchanged.
* ``residual`` -- the default ``kgzsim normalform-check``.  The build-heavy use
  of normalform, stepping at M=256 where M+1=257 is prime, a slow DST size.
* ``sweep`` -- ``estimate_sweep``, the apply-heavy use of normalform (the slab
  path at M=512).  It does no time stepping, so a kgz change must leave it
  unchanged.
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path

import numpy as np

from kgzsim import export, kgz, normalform, resonance, strichartz

# scatter: the scripts/run_scattering_diagnostics.py model, with T sized so a
# repetition takes a few seconds; T/4 must fall on a snapshot (every 0.01)
SCATTER = dict(alpha=0.5, R=100.0, M=512, dt=1e-3, T=2.4, model="full", dealias=True, snapshot_stride=10)
# residual: the normalform-check defaults (the C8 fine config)
RESIDUAL = dict(alpha=0.5, R=40.0, M=256, dt=1e-3, T=2.0, model="simplified", dealias=False, snapshot_stride=10)
N_ANGULAR = 64
# sweep: the C7 shape with the trial count lowered to fit the run length
SWEEP = dict(alpha=2.0, sizes=(128, 256, 512), trials=2, R=40.0, n_angular=N_ANGULAR)
SWEEP_BASE_SEED = 20240801  # estimate_sweep's default; seed 0 reproduces C7's first trials

# Acceptance gates, applied on every seed.
ENERGY_DRIFT_MAX = 1e-6          # C3 / scatter
RESIDUAL_MAX = 1e-3              # C8
STABILITY_MAX = 2.0              # C7
# C8's 1e-3 gate passes even with the normal-form symbol negated or zeroed
# (residuals of 1e-10 for U and 1e-9 for N).  These bounds reject both and sit
# over ten times above the correct residuals (7e-13 and 8e-12).
RESIDUAL_U_MAX = 1e-11
RESIDUAL_N_MAX = 1e-10

# Seeds whose outputs record.py stores in reference.json; check compares them.
REFERENCE_SEEDS = range(10)

# Relative tolerances against outputs recorded at the benchmark's first commit.
# Float64 bilinear kernels in place of float32 move the residuals by 1e-7 and
# the sweep constants by 3e-8 relative; every tolerance admits that.
RTOL = {
    "energy": 1e-9,
    "cauchy": 1e-6,
    "resolution_norm": 1e-6,
    "residual": 1e-2,
    "max_constants": 1e-3,
}


def _draw_gaussian(seed: int, stream: int) -> tuple[float, float]:
    rng = np.random.default_rng([seed, stream])
    return float(rng.uniform(0.0095, 0.0105)), float(rng.uniform(0.95, 1.05))


def _sim_inputs(spec: dict, seed: int, stream: int) -> dict:
    eps0, width = _draw_gaussian(seed, stream)
    cfg = kgz.SimConfig(**spec)
    return {"config": cfg, "init": kgz.gaussian_data(cfg.grid, eps0, width)}


def make_inputs(name: str, seed: int) -> dict:
    if name == "scatter":
        return _sim_inputs(SCATTER, seed, 1)
    if name == "residual":
        return _sim_inputs(RESIDUAL, seed, 2)
    if name == "sweep":
        return {"seed": SWEEP_BASE_SEED + 1000 * seed}
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# runs; each returns plain floats for the check and the reference file
# ---------------------------------------------------------------------------

def _run_scatter(inp: dict, outdir: Path) -> dict:
    cfg = inp["config"]
    traj = kgz.run_simulation(cfg, inp["init"])
    export.export_trajectory(traj, outdir, fields=True)
    T = cfg.T
    rep = strichartz.scattering_profile(traj, cfg.alpha, [T / 4.0, T / 2.0, T])
    norms = [strichartz.resolution_norm(traj, 0.05, window=(0.0, h)).total for h in (T / 2.0, T)]
    e = np.asarray(traj.energies)
    return {
        "energy": [float(e[0]), float(e[len(e) // 2]), float(e[-1])],
        "energy_drift": float(np.max(np.abs(e - e[0])) / abs(e[0])),
        "cauchy": [[row.d_U, row.d_N] for row in rep.rows],
        "resolution_norm": norms,
        "snapshot_files": len(list((outdir / "snapshots").glob("*.fld"))),
        "snapshots": len(traj),
    }


def _run_residual(inp: dict, outdir: Path) -> dict:
    cfg = inp["config"]
    traj = kgz.run_simulation(cfg, inp["init"])
    with warnings.catch_warnings():
        # the band cap binds at M=256, as it does under the CLI
        warnings.simplefilter("ignore", UserWarning)
        params = resonance.compute_params(cfg.alpha, band=cfg.grid)
    return {"residual": [normalform.duhamel_residual(traj, params, w, n_angular=N_ANGULAR) for w in ("U", "N")]}


def _run_sweep(inp: dict, outdir: Path) -> dict:
    rep = normalform.estimate_sweep(seed=inp["seed"], **SWEEP)
    consts = rep.max_constants()
    return {
        "max_constants": {est: [per_m[m] for m in sorted(per_m)] for est, per_m in sorted(consts.items())},
        "stability_ratios": dict(sorted(rep.stability_ratios().items())),
    }


RUNS = {"scatter": _run_scatter, "residual": _run_residual, "sweep": _run_sweep}


def run(name: str, inputs: dict, outdir: Path) -> dict:
    return RUNS[name](inputs, Path(outdir))


# ---------------------------------------------------------------------------
# checks; each returns a list of problems, empty when the output is correct
# ---------------------------------------------------------------------------

def _flat(value) -> list[float]:
    if isinstance(value, dict):
        return [x for k in sorted(value) for x in _flat(value[k])]
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in _flat(v)]
    return [float(value)]


def _compare(key: str, got, want, problems: list[str]) -> None:
    g, w = _flat(got), _flat(want)
    if len(g) != len(w):
        problems.append(f"{key}: {len(g)} values, reference has {len(w)}")
        return
    rtol = RTOL[key]
    for i, (a, b) in enumerate(zip(g, w)):
        if not abs(a - b) <= rtol * abs(b):
            problems.append(f"{key}[{i}] = {a:.17g}, reference {b:.17g} (rtol {rtol:g})")


def check(name: str, out: dict, reference: dict | None) -> list[str]:
    """Acceptance gates on every seed; a comparison with recorded outputs when given."""
    problems = []
    if not all(math.isfinite(x) for x in _flat(out)):
        problems.append("non-finite output")
    if name == "scatter":
        if not out["energy_drift"] < ENERGY_DRIFT_MAX:
            problems.append(f"energy drift {out['energy_drift']:.3e} >= {ENERGY_DRIFT_MAX:g}")
        if not all(v > 0 for v in out["resolution_norm"]):
            problems.append("resolution norm not positive")
        if out["snapshot_files"] != 2 * out["snapshots"]:
            problems.append(f"{out['snapshot_files']} snapshot files for {out['snapshots']} snapshots")
        keys = ("energy", "cauchy", "resolution_norm")
    elif name == "residual":
        res_u, res_n = out["residual"]
        if not (res_u < RESIDUAL_MAX and res_n < RESIDUAL_MAX):
            problems.append(f"residuals {res_u:.3e}, {res_n:.3e} not below {RESIDUAL_MAX:g}")
        if not res_u < RESIDUAL_U_MAX:
            problems.append(f"residual U {res_u:.3e} >= {RESIDUAL_U_MAX:g}")
        if not res_n < RESIDUAL_N_MAX:
            problems.append(f"residual N {res_n:.3e} >= {RESIDUAL_N_MAX:g}")
        keys = ("residual",)
    elif name == "sweep":
        bad = {k: v for k, v in out["stability_ratios"].items() if not v <= STABILITY_MAX}
        if bad or not out["stability_ratios"]:
            problems.append(f"stability ratios above {STABILITY_MAX:g} or missing: {bad}")
        if not all(v > 0 for v in _flat(out["max_constants"])):
            problems.append("estimate constant not positive")
        keys = ("max_constants",)
    else:
        raise ValueError(f"unknown workload {name!r}")
    if reference is not None:
        for key in keys:
            _compare(key, out[key], reference[key], problems)
    return problems
