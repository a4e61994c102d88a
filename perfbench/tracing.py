"""Spans and counters around kgzsim's public callables, installed from outside.

The tracer never edits kgzsim's source.  It replaces each traced callable by a
wrapper in every ``kgzsim`` module namespace that binds the same object (for
example ``besov_norm`` is bound in ``radial``, ``strichartz`` and
``normalform``), and puts the originals back on :meth:`Tracer.uninstall`.  A
callable that a refactor has removed is reported as absent instead of failing
the run.

Spans carry a parent link, are kept in memory, and are written out once at the
end of the run.  The DST and the time step are counted, not spanned: they are
called tens of thousands of times per run, and a span per call would cost more
than the transform itself at these sizes.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

# span name -> (home module, attribute); wrapped in every kgzsim namespace
FUNCTIONS = {
    "kgz.run_simulation": ("kgzsim.kgz", "run_simulation"),
    "normalform.duhamel_residual": ("kgzsim.normalform", "duhamel_residual"),
    "normalform.estimate_sweep": ("kgzsim.normalform", "estimate_sweep"),
    "radial.besov_norm": ("kgzsim.radial", "besov_norm"),
    "radial.lebesgue_norm": ("kgzsim.radial", "lebesgue_norm"),
    "strichartz.resolution_norm": ("kgzsim.strichartz", "resolution_norm"),
    "strichartz.scattering_profile": ("kgzsim.strichartz", "scattering_profile"),
    "resonance.compute_params": ("kgzsim.resonance", "compute_params"),
    "resonance.decompose_bilinear": ("kgzsim.resonance", "decompose_bilinear"),
    "export.export_trajectory": ("kgzsim.export", "export_trajectory"),
}

# span name -> (module, class, method); wrapped on the class
METHODS = {
    "normalform.build": ("kgzsim.normalform", "BilinearOperator", "__init__"),
    "normalform.apply": ("kgzsim.normalform", "BilinearOperator", "apply_batch"),
}

# Snapshot recording: these names are wrapped in the kgz namespace only, so a
# span whose parent is run_simulation is a call made directly by it.
RECORD_MODULE = "kgzsim.kgz"
RECORD_NAMES = ("to_physical", "from_first_order", "energy", "spectral_l2")

# the scipy DST-I as bound in kgzsim.radial
DST = ("kgzsim.radial", "dst")
# one Lawson-RK4 step, whoever takes it
STEP = ("kgzsim.kgz", "_Stepper", "step")


def _kgzsim_modules():
    return [
        m for name, m in list(sys.modules.items()) if m is not None and (name == "kgzsim" or name.startswith("kgzsim."))
    ]


def _dir_size(path) -> tuple[int, int]:
    files = total = 0
    for dirpath, _, names in os.walk(path):
        for n in names:
            files += 1
            total += os.path.getsize(os.path.join(dirpath, n))
    return files, total


def _sim_attrs(args, kwargs, result):
    return {"snapshots": len(result)}


def _apply_attrs(args, kwargs, result):
    fhats = args[1] if len(args) > 1 else kwargs["fhats"]
    return {"pairs": int(fhats.shape[0]) if getattr(fhats, "ndim", 1) > 1 else 1}


def _export_attrs(args, kwargs, result):
    outdir = args[1] if len(args) > 1 else kwargs["outdir"]
    files, nbytes = _dir_size(outdir)
    return {"files": files, "bytes": nbytes}


ATTRS = {
    "kgz.run_simulation": _sim_attrs,
    "normalform.apply": _apply_attrs,
    "export.export_trajectory": _export_attrs,
}


class Tracer:
    """Records spans ``[id, parent, name, start, end, attrs]``, DST and step counts."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [0]
        self._restore: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        # calls, elements, seconds, bytes read + written
        self.dst = [0, 0, 0.0, 0]
        self.steps = 0

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name, fn, attrs=None, alloc=False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans) + 1, stack[-1], name, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            if alloc:
                tracemalloc.start()
            rec[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    rec[5] = {"alloc_peak_bytes": peak}
            if attrs is not None:
                rec[5] = attrs(args, kwargs, result)
            return result

        return wrapper

    def _counted_dst(self, fn):
        acc = self.dst

        @functools.wraps(fn)
        def wrapper(x, *args, **kwargs):
            t0 = perf_counter()
            out = fn(x, *args, **kwargs)
            acc[2] += perf_counter() - t0
            acc[0] += 1
            acc[1] += x.size
            acc[3] += x.nbytes + out.nbytes
            return out

        return wrapper

    def _counted_step(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.steps += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def _resolve(self, label, module, attr):
        try:
            obj = getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError):
            self.absent.append(label)
            return None
        return obj

    def _resolve_method(self, label, module, cls_name, meth):
        cls = self._resolve(label, module, cls_name)
        if cls is None:
            return None, None
        fn = getattr(cls, meth, None)
        if fn is None:
            self.absent.append(label)
        return cls, fn

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, original, wrapper):
        for mod in _kgzsim_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def install(self) -> None:
        for name, (module, attr) in FUNCTIONS.items():
            fn = self._resolve(name, module, attr)
            if fn is not None:
                self._patch_everywhere(fn, self._spanned(name, fn, ATTRS.get(name)))
        for name, (module, cls_name, meth) in METHODS.items():
            cls, fn = self._resolve_method(name, module, cls_name, meth)
            if fn is not None:
                self._patch(cls, meth, self._spanned(name, fn, ATTRS.get(name), alloc=name == "normalform.build"))
        cls, fn = self._resolve_method("kgz.steps", *STEP)
        if fn is not None:
            self._patch(cls, STEP[2], self._counted_step(fn))
        kgz = importlib.import_module(RECORD_MODULE)
        for attr in RECORD_NAMES:
            fn = self._resolve(f"kgz.{attr}", RECORD_MODULE, attr)
            if fn is not None:
                self._patch(kgz, attr, self._spanned(f"kgz.record.{attr}", fn))
        dst = self._resolve("radial.dst", *DST)
        if dst is not None:
            self._patch_everywhere(dst, self._counted_dst(dst))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer totals; a layer that never ran reads 0."""
        dur = {}
        child = {}
        names = {}
        for sid, parent, name, t0, t1, _ in self.spans:
            dur[sid] = t1 - t0
            names[sid] = name
            child[parent] = child.get(parent, 0.0) + (t1 - t0)

        def total(name):
            return sum(d for sid, d in dur.items() if names[sid] == name)

        def calls(name):
            return sum(1 for n in names.values() if n == name)

        def self_time(name):
            return sum(d - child.get(sid, 0.0) for sid, d in dur.items() if names[sid] == name)

        def attr_sum(name, key):
            return sum(s[5][key] for s in self.spans if s[2] == name and s[5])

        record_s = sum(
            t1 - t0
            for _, parent, name, t0, t1, _ in self.spans
            if name.startswith("kgz.record.") and names.get(parent) == "kgz.run_simulation"
        )
        dst_calls, dst_elems, dst_s, dst_bytes = self.dst
        sim_s = total("kgz.run_simulation")
        steps = self.steps
        build_peak = max((s[5]["alloc_peak_bytes"] for s in self.spans if s[2] == "normalform.build"), default=0)
        apply_s = total("normalform.apply")
        pairs = attr_sum("normalform.apply", "pairs")
        return {
            "radial.dst.calls": dst_calls,
            "radial.dst.elements": dst_elems,
            "radial.dst.s": dst_s,
            "radial.dst.us_per_call": 1e6 * dst_s / dst_calls if dst_calls else 0.0,
            "radial.dst.bytes_computed": dst_bytes,
            "kgz.run_simulation.s": sim_s,
            "kgz.steps": steps,
            "kgz.snapshots": attr_sum("kgz.run_simulation", "snapshots"),
            "kgz.step_us": 1e6 * (sim_s - record_s) / steps if steps else 0.0,
            "kgz.record.s": record_s,
            "normalform.build.calls": calls("normalform.build"),
            "normalform.build.s": total("normalform.build"),
            "normalform.build.alloc_mb": build_peak / 2**20,
            "normalform.apply.calls": calls("normalform.apply"),
            "normalform.apply.pairs": pairs,
            "normalform.apply.s": apply_s,
            "normalform.apply.us_per_pair": 1e6 * apply_s / pairs if pairs else 0.0,
            "normalform.duhamel_residual.self_s": self_time("normalform.duhamel_residual"),
            "normalform.estimate_sweep.self_s": self_time("normalform.estimate_sweep"),
            "radial.besov_norm.calls": calls("radial.besov_norm"),
            "radial.besov_norm.s": total("radial.besov_norm"),
            "radial.lebesgue_norm.calls": calls("radial.lebesgue_norm"),
            "radial.lebesgue_norm.s": total("radial.lebesgue_norm"),
            "strichartz.resolution_norm.self_s": self_time("strichartz.resolution_norm"),
            "strichartz.scattering_profile.s": total("strichartz.scattering_profile"),
            "resonance.compute_params.s": total("resonance.compute_params"),
            "resonance.decompose_bilinear.calls": calls("resonance.decompose_bilinear"),
            "resonance.decompose_bilinear.s": total("resonance.decompose_bilinear"),
            "export.export_trajectory.s": total("export.export_trajectory"),
            "export.files": attr_sum("export.export_trajectory", "files"),
            "export.bytes": attr_sum("export.export_trajectory", "bytes"),
        }

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "header": header,
            "absent": self.absent,
            "dst": dict(zip(("calls", "elements", "seconds", "bytes_computed"), self.dst)),
            "steps": self.steps,
            "span_fields": ["id", "parent", "name", "start_s", "end_s", "attrs"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc))
