"""kgzsim benchmark.

    python3 perfbench/run.py --workload {scatter,residual,sweep} --seed N \
        --seconds S --trace {0,1}

Runs repetitions of one workload, each in a fresh child process and one at a
time, until the next one would end past ``--seconds``.  Every repetition's
output is checked (see workloads.py).  With ``--trace 0`` the last line of
standard output is a JSON object carrying the end-to-end metrics:

* ``wall_s``      -- median time from the first call into kgzsim to the
                     checked result;
* ``setup_s``     -- median time from process start until kgzsim is imported
                     and the inputs are generated, over the repetitions and
                     set-up-only children, at least five in all;
* ``peak_rss_mb`` -- median peak resident memory of a repetition process.

``failed_frac`` (failed repetitions over attempted ones) is printed with them
and carried by ``attempted`` and ``failed``.

With ``--trace 1`` one untraced repetition runs, then traced repetitions on
seeds N and N+1, then untraced ones while time remains.  The JSON carries the
per-layer metrics of the traced repetition on seed N, and the tracing overhead
against the untraced median.  The counts in FIXED_COUNTS must agree
between the two traced seeds.  Spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("scatter", "residual", "sweep")
HARD_LIMIT_S = 170.0  # the whole run must end within 180 s
MIN_SETUP_SAMPLES = 5  # set-up-only children top up the repetitions' set-up samples
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
FIXED_COUNTS = ("radial.dst.calls", "kgz.steps", "kgz.snapshots", "normalform.build.calls", "normalform.apply.pairs")


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("us_per_call", "us_per_pair", "step_us")):
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("bytes", "bytes_computed")):
        return "B"
    return "count"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_rev(root: Path) -> str | None:
    """The checked-out commit; None without git or outside a git checkout.

    A checkout without its own .git may sit inside another repository, whose
    commit is not the benchmarked one, so git is asked only when .git exists.
    """
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_rep(workload: str, seed: int, traced: bool, deadline: float, setup_only: bool = False) -> dict:
    """One repetition in a fresh child; its scratch directory is removed afterwards."""
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--out", str(scratch)]
    if traced:
        cmd += ["--trace-file", str(OUT / f"trace-{workload}-seed{seed}.json")]
    if setup_only:
        cmd.append("--setup-only")
    rep = {"seed": seed, "traced": traced}
    spawned = time.monotonic()
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - spawned))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            rep["problems"] = ["timed out"]
            return rep
    finally:
        rep["elapsed"] = time.monotonic() - spawned
        shutil.rmtree(scratch, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        rep["problems"] = [f"worker exited with code {proc.returncode}"]
        return rep
    rep.update(json.loads(lines[-1]))
    rep["setup_s"] = rep.pop("ready_monotonic") - spawned
    rep.setdefault("problems", [])
    return rep


def median_iqr(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "kgzsim" / "__init__.py").is_file():
        print(f"kgzsim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    plan = [(args.seed, False)]
    if args.trace:
        plan += [(args.seed, True), (args.seed + 1, True)]
    reps: list[dict] = []
    print(f"kgzsim benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    while True:
        seed, traced = plan.pop(0) if plan else (args.seed, False)
        rep = run_rep(args.workload, seed, traced, deadline)
        reps.append(rep)
        status = "ok" if not rep["problems"] else "FAILED: " + "; ".join(rep["problems"])
        timing = ""
        if "wall_s" in rep:
            timing = f"wall {rep['wall_s']:.4f} s  setup {rep['setup_s']:.4f} s  rss {rep['peak_rss_mb']:.1f} MB  "
        print(f"rep {len(reps)}  seed {seed}  {'traced  ' if traced else 'untraced'}  {timing}{status}")
        now = time.monotonic()
        longest = max(r["elapsed"] for r in reps)
        if now + longest > deadline or (not plan and now - start + longest > args.seconds):
            break
    setups = [r["setup_s"] for r in reps if "setup_s" in r]
    while setups and len(setups) < MIN_SETUP_SAMPLES and time.monotonic() + 10.0 < deadline:
        probe = run_rep(args.workload, args.seed, False, deadline, setup_only=True)
        if probe["problems"]:
            break
        setups.append(probe["setup_s"])

    timed = [r for r in reps if "wall_s" in r]
    if not timed:
        print("no repetition produced a result", file=sys.stderr)
        return 1
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": nproc(),
        "blas_threads": nproc(),
        "python": sys.version.split()[0],
        **timed[0]["versions"],
        "git_rev": git_rev(ROOT),
    }
    print("header: " + json.dumps(header))

    failed = sum(1 for r in reps if r["problems"])
    untraced = [r for r in timed if not r["traced"]] or timed
    good = [r for r in untraced if not r["problems"]] or untraced
    e2e = {}
    for name, unit in E2E_UNITS.items():
        samples = setups if name == "setup_s" else [r[name] for r in good]
        med, iqr = median_iqr(samples)
        e2e[name] = med
        print(f"{name:<12} {med:.6g} {unit}  (median, IQR {iqr:.4g}, n={len(samples)})")
    print(f"{'failed_frac':<12} {failed / len(reps):.6g}  ({failed} of {len(reps)} repetitions)")
    checked = sum(1 for r in timed if r.get("checked_against_reference"))
    print(f"checks: acceptance gates on every repetition; recorded outputs compared on {checked} of {len(timed)}")

    correct = failed == 0
    if not args.trace:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    else:
        traced = {r["seed"]: r for r in timed if r["traced"]}
        if args.seed not in traced:
            print("the traced repetition produced no result", file=sys.stderr)
            return 1
        layers = dict(traced[args.seed]["layers"])
        layers["trace.wall_s"] = traced[args.seed]["wall_s"]
        layers["trace.overhead_s"] = traced[args.seed]["wall_s"] - e2e["wall_s"]
        other = traced.get(args.seed + 1)
        for key in FIXED_COUNTS:
            if other is None or other["layers"][key] != layers[key]:
                correct = False
                seen = None if other is None else other["layers"][key]
                print(f"count {key} differs between seeds: {layers[key]} vs {seen}")
        for name in traced[args.seed]["absent"]:
            print(f"absent: {name} (not found in kgzsim; its metrics read 0)")
        for name, value in layers.items():
            print(f"{name:<36} {value:.6g} {layer_unit(name)}")
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()}
    print(json.dumps({"correct": correct, "attempted": len(reps), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
