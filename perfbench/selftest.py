"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py -q

Each workload's check must accept the correct program and reject a
deliberately broken one.  A break is a monkeypatch applied inside a child
process started by the test, so it never reaches the benchmark's own runs.
The file is named so that the repository's test discovery skips it: a run of
the checks takes about 100 s.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402

SEED = workloads.REFERENCE_SEEDS[0]  # has recorded outputs in reference.json


def _linear_model():
    from kgzsim import kgz

    run_simulation = kgz.run_simulation
    kgz.run_simulation = lambda config, init: run_simulation(dataclasses.replace(config, model="linear"), init)


def _scaled_symbols(factor):
    """Scale the normal-form symbols Omega and OmegaTilde by factor(grid)."""
    from kgzsim import normalform

    weight = normalform._symbol_weight

    def scaled(sym, grid, *rest):
        w = weight(sym, grid, *rest)
        return w * factor(grid) if sym.kind in ("omega", "omega_tilde") else w

    normalform._symbol_weight = scaled


# mutant -> (workload, break, whether the acceptance gates alone must reject it)
MUTANTS = {
    "scatter-linear-model": ("scatter", _linear_model, True),
    "residual-negated-omega": ("residual", lambda: _scaled_symbols(lambda grid: -1.0), True),
    "residual-zeroed-omega": ("residual", lambda: _scaled_symbols(lambda grid: 0.0), True),
    # C7's ratio gate (<= 2) cannot see a factor of M^(1/2): over M = 128..512
    # it multiplies a ratio near 1 by exactly 2.  Only the recorded constants
    # reject it.
    "sweep-omega-scaled-by-sqrt-M": ("sweep", lambda: _scaled_symbols(lambda grid: grid.M**0.5), False),
    "sweep-omega-scaled-by-M": ("sweep", lambda: _scaled_symbols(lambda grid: float(grid.M)), True),
}


def _child(workload: str, mutant: str | None) -> dict:
    cmd = [sys.executable, __file__, "--workload", workload]
    if mutant is not None:
        cmd += ["--mutant", mutant]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_check_accepts_correct_run(workload):
    assert _child(workload, None) == {"gates_only": [], "with_reference": []}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_check_rejects_broken_run(mutant):
    workload, _, gates_reject = MUTANTS[mutant]
    res = _child(workload, mutant)
    assert res["with_reference"], "the check passed a broken run"
    assert bool(res["gates_only"]) == gates_reject


def test_tracer_reports_missing_names_and_restores_originals(monkeypatch):
    import kgzsim.radial
    import tracing

    monkeypatch.setitem(tracing.FUNCTIONS, "radial.gone", ("kgzsim.radial", "no_such_function"))
    monkeypatch.setitem(tracing.METHODS, "normalform.gone", ("kgzsim.normalform", "BilinearOperator", "no_such_method"))
    original = kgzsim.radial.besov_norm
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert kgzsim.radial.besov_norm is not original
        import kgzsim.strichartz

        assert kgzsim.strichartz.besov_norm is kgzsim.radial.besov_norm
    finally:
        tracer.uninstall()
    assert sorted(tracer.absent) == ["normalform.gone", "radial.gone"]
    assert kgzsim.radial.besov_norm is original
    assert tracer.metrics()["radial.besov_norm.calls"] == 0


def test_tracer_counts_the_steps_taken():
    from kgzsim import kgz

    import tracing

    cfg = kgz.SimConfig(alpha=0.5, R=20.0, M=64, dt=1e-3, T=0.05, model="full", dealias=True, snapshot_stride=10)
    init = kgz.gaussian_data(cfg.grid, 0.01, 1.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        kgz.run_simulation(cfg, init)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert tracer.absent == []
    assert metrics["kgz.steps"] == 50
    assert metrics["kgz.snapshots"] == 6
    assert metrics["radial.dst.calls"] > 8 * 50  # eight per step at least


def test_run_fails_without_the_program():
    # the benchmark's own files alone, as in a checkout that lacks src/
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        bench = Path(tmp) / "perfbench"
        bench.mkdir()
        for f in HERE.glob("*.py"):
            (bench / f.name).write_text(f.read_text())
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "scatter", "--seed", "0", "--seconds", "5", "--trace", "0"],
            cwd=tmp,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def main() -> int:
    ap = argparse.ArgumentParser(description="run one workload, optionally broken, and print its check results")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--mutant", choices=sorted(MUTANTS), default=None)
    args = ap.parse_args()
    if args.mutant is not None:
        MUTANTS[args.mutant][1]()
    reference = json.loads((HERE / "reference.json").read_text())[args.workload][str(SEED)]
    inputs = workloads.make_inputs(args.workload, SEED)
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as scratch:
        out = workloads.run(args.workload, inputs, Path(scratch))
    print(
        json.dumps(
            {
                "gates_only": workloads.check(args.workload, out, None),
                "with_reference": workloads.check(args.workload, out, reference),
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
