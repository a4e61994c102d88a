"""One repetition of one workload, in a fresh process.

Started by run.py, one at a time, so that no module-level cache in kgzsim
carries a build over from an earlier repetition: every CLI user pays for
those builds.  Prints one JSON line with the repetition's timings, peak
resident memory, check result and, when traced, its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "openblas": openblas}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True, help="scratch directory for the run's files")
    ap.add_argument("--trace-file", type=Path, default=None, help="trace the run and write its spans here")
    ap.add_argument("--setup-only", action="store_true", help="stop once the inputs are generated")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracing import Tracer

    inputs = workloads.make_inputs(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_monotonic": ready}))
        return 0

    reference = None
    if args.seed in workloads.REFERENCE_SEEDS:
        reference = json.loads(Path(__file__).with_name("reference.json").read_text())[args.workload][str(args.seed)]

    tracer = None
    if args.trace_file is not None:
        tracer = Tracer()
        tracer.install()
    out = None
    t0 = time.perf_counter()
    try:
        out = workloads.run(args.workload, inputs, args.out)
        problems = workloads.check(args.workload, out, reference)
    except Exception as exc:  # a failed repetition is counted, not fatal
        traceback.print_exc()
        problems = [f"raised {type(exc).__name__}: {exc}"]
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()

    result = {
        "ready_monotonic": ready,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "problems": problems,
        "checked_against_reference": reference is not None,
        "outputs": out,
        "versions": _versions(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
        tracer.write(args.trace_file, {"workload": args.workload, "seed": args.seed, **result["versions"]})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
