"""Record the reference outputs that workloads.check compares against.

    python3 perfbench/record.py

Runs every workload once on each of ``workloads.REFERENCE_SEEDS``, each in a
fresh worker process, and writes ``perfbench/reference.json``.  A run is
recorded only when it passes the acceptance gates.  Re-record only when a workload's definition changes, never
to make a changed program pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from run import OUT, WORKLOADS, child_env  # noqa: E402


def main() -> int:
    reference: dict[str, dict[str, dict]] = {}
    OUT.mkdir(exist_ok=True)
    for name in WORKLOADS:
        for seed in workloads.REFERENCE_SEEDS:
            with tempfile.TemporaryDirectory(dir=OUT) as scratch:
                cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed), "--out", scratch]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(), text=True, check=True)
            out = json.loads(proc.stdout.strip().splitlines()[-1])["outputs"]
            problems = workloads.check(name, out, None)
            if problems:
                print(f"{name} seed {seed}: not recorded: {problems}", file=sys.stderr)
                return 1
            reference.setdefault(name, {})[str(seed)] = out
            print(f"{name} seed {seed}: recorded", flush=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
