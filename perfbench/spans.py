"""Per-layer spans, recorded from outside the program.

``Tracer.install`` rebinds the public names each layer calls through in
``phasorfield.cli``, ``phasorfield.phasor`` and ``phasorfield.reconstruct``
with timing wrappers; no file of the library changes.  Each span records
its name, start, end, parent span, capture id and thread id, plus the
counts measured at that boundary.  Spans stay in memory until the run ends.

A name the tracer wraps that no longer exists is reported as missing, and
every metric that needs it is left out rather than read as zero.
"""

from __future__ import annotations

import importlib
import itertools
import math
import os
import statistics
import threading
import time
from collections import defaultdict


def _fft_counts(axes_of):
    """Elements and computed (not measured) flops of one FFT call.

    A transform of length N over the given axes counts 5 N log2 N flops,
    times the number of such transforms in the array.
    """
    def count(args, kwargs, result):
        n = math.prod(result.shape[a] for a in axes_of(args, kwargs))
        return {"elems": result.size, "flop": 5.0 * result.size * math.log2(n) if n > 1 else 0.0}
    return count


_last_two = _fft_counts(lambda args, kwargs: (-2, -1))
_given_axes = _fft_counts(lambda args, kwargs: kwargs["axes"] if "axes" in kwargs else args[1])


def _readout(count):
    def with_readout(args, kwargs, result):
        return {**count(args, kwargs, result), "readout": result.size}
    return with_readout


# (module, attribute, span name, counts taken from (args, kwargs, result)).
WRAPS = (
    ("phasorfield.cli", "main", "cli", None),
    ("phasorfield.cli", "read_dataset", "core.read",
     lambda a, k, r: {"bytes": os.path.getsize(a[0])}),
    ("phasorfield.cli", "write_volume", "core.write",
     lambda a, k, r: {"bytes": os.path.getsize(a[1])}),
    ("phasorfield.phasor", "build_kernel", "phasor.build_kernel", None),
    ("phasorfield.phasor", "to_frequency", "phasor.to_frequency",
     lambda a, k, r: {"n_freq": r.n_freq}),
    # Voxel values the decoders must deliver: every voxel once per
    # (frequency, illumination).
    ("phasorfield.cli", "reconstruct", "reconstruct",
     lambda a, k, r: {"useful": a[1].count * a[0].n_freq * a[0].n_illum}),
    ("phasorfield.reconstruct", "cfft_2d", "spectral.fft", _last_two),
    ("phasorfield.reconstruct", "cifft_2d", "spectral.fft", _readout(_last_two)),
    ("phasorfield.reconstruct", "cfft_n", "spectral.fft", _given_axes),
    ("phasorfield.reconstruct", "cifft_n", "spectral.fft", _readout(_given_axes)),
    ("phasorfield.reconstruct", "sfft_2d_centered", "spectral.sfft", None),
    ("phasorfield.reconstruct", "nufft1", "spectral.nufft1",
     lambda a, k, r: {"points": len(a[0])}),
    ("phasorfield.reconstruct", "nufft2", "spectral.nufft2",
     lambda a, k, r: {"points": len(a[1]), "readout": r.size}),
)

_CLI_CHILDREN = ("core.read", "core.write", "phasor.build_kernel", "phasor.to_frequency",
                 "reconstruct")
_SPECTRAL = ("spectral.fft", "spectral.sfft", "spectral.nufft1", "spectral.nufft2")

# Per-layer metric: (name, span names it needs, and the end-to-end metric
# and workloads it should move).  Units and directions are in BENCHMARK.json.
LAYER_METRICS = (
    ("cli.self_s", ("cli",) + _CLI_CHILDREN,
     "capture_s_p50 on scattered-voxels (argparse, @planes.json parsing)"),
    ("core.read_s", ("core.read",), "capture_s_p50 on frustum-video"),
    ("core.read_bytes", ("core.read",), "capture_s_p50 on frustum-video"),
    ("core.write_s", ("core.write",), "capture_s_p50 on frustum-video"),
    ("core.write_bytes", ("core.write",), "capture_s_p50 on frustum-video"),
    ("phasor.to_frequency_s", ("phasor.build_kernel", "phasor.to_frequency"),
     "capture_s_p50 on frustum-video"),
    ("phasor.n_freq", ("phasor.to_frequency",),
     "capture_s_p50 on frustum-video"),
    ("reconstruct.s", ("reconstruct",),
     "capture_s_p50 on lattice-stream and frustum-video"),
    ("reconstruct.self_s", ("reconstruct",) + _SPECTRAL,
     "capture_s_p50 on lattice-stream and frustum-video"),
    ("reconstruct.useful_frac", ("reconstruct", "spectral.fft", "spectral.nufft2"),
     "capture_s_p50 and peak_rss_mb on lattice-stream"),
    ("spectral.fft_s", ("spectral.fft",), "capture_s_p50 on lattice-stream"),
    ("spectral.fft_calls", ("spectral.fft",), "capture_s_p50 on lattice-stream"),
    ("spectral.fft_elems", ("spectral.fft",), "capture_s_p50 on lattice-stream"),
    ("spectral.fft_flop", ("spectral.fft",),
     "capture_s_p50 on lattice-stream"),
    ("spectral.sfft_s", ("spectral.sfft",), "capture_s_p50 on frustum-video"),
    ("spectral.sfft_calls", ("spectral.sfft",), "capture_s_p50 on frustum-video"),
    ("spectral.nufft1_s", ("spectral.nufft1",),
     "capture_s_p50 on scattered-voxels (2-D) and nonplanar-3d (3-D)"),
    ("spectral.nufft1_calls", ("spectral.nufft1",),
     "capture_s_p50 on scattered-voxels and nonplanar-3d"),
    ("spectral.nufft1_points", ("spectral.nufft1",),
     "capture_s_p50 on scattered-voxels and nonplanar-3d"),
    ("spectral.nufft2_s", ("spectral.nufft2",), "capture_s_p50 on scattered-voxels"),
    ("spectral.nufft2_calls", ("spectral.nufft2",),
     "capture_s_p50 on scattered-voxels"),
    ("spectral.nufft2_points", ("spectral.nufft2",),
     "capture_s_p50 on scattered-voxels"),
)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _capture_row(spans: list[dict]) -> dict[str, float]:
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def busy(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def total(name, key):
        return sum(s.get(key, 0) for s in by_name[name])

    def self_time(name, child_names):
        out = 0.0
        for parent in by_name[name]:
            kids = [(s["start"], s["end"]) for c in child_names for s in by_name[c]
                    if s["parent"] == parent["id"]]
            out += parent["end"] - parent["start"] - _covered(kids, parent["start"], parent["end"])
        return out

    readout = total("spectral.fft", "readout") + total("spectral.nufft2", "readout")
    row = {
        "cli.self_s": self_time("cli", _CLI_CHILDREN),
        "core.read_s": busy("core.read"),
        "core.read_bytes": total("core.read", "bytes"),
        "core.write_s": busy("core.write"),
        "core.write_bytes": total("core.write", "bytes"),
        "phasor.to_frequency_s": busy("phasor.build_kernel") + busy("phasor.to_frequency"),
        "phasor.n_freq": total("phasor.to_frequency", "n_freq"),
        "reconstruct.s": busy("reconstruct"),
        "reconstruct.self_s": self_time("reconstruct", _SPECTRAL),
        "reconstruct.useful_frac": total("reconstruct", "useful") / readout if readout else math.nan,
        "spectral.fft_flop": total("spectral.fft", "flop"),
        "spectral.fft_elems": total("spectral.fft", "elems"),
    }
    for short, name in (("fft", "spectral.fft"), ("sfft", "spectral.sfft"),
                        ("nufft1", "spectral.nufft1"), ("nufft2", "spectral.nufft2")):
        row[f"spectral.{short}_s"] = busy(name)
        row[f"spectral.{short}_calls"] = len(by_name[name])
    for short in ("nufft1", "nufft2"):
        row[f"spectral.{short}_points"] = total(f"spectral.{short}", "points")
    return row


class Tracer:
    """Spans of the traced captures; ``capture`` tags the spans opened next."""

    def __init__(self):
        self.spans: list[dict] = []
        self.capture: int | None = None
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._originals: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, fn, name: str, count):
        def traced(*args, **kwargs):
            stack = self._stack()
            # Spans opened in worker threads belong to the span the main
            # thread has open (reconstruct, for the spectral calls).
            parents = stack or self._main_stack
            parent = parents[-1] if parents else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
                    "capture": self.capture, "thread": threading.get_ident()}
            if count is not None:
                span.update(count(args, kwargs, result))
            self.spans.append(span)
            return result
        return traced

    def install(self) -> None:
        for module_name, attr, name, count in WRAPS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr)
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, count))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Median over traced captures of each per-capture layer metric."""
        unavailable = {name for module_name, attr, name, _ in WRAPS
                       if f"{module_name}.{attr}" in self.missing}
        by_capture = defaultdict(list)
        for s in self.spans:
            by_capture[s["capture"]].append(s)
        rows = [_capture_row(spans) for spans in by_capture.values()]
        out = {}
        for name, needs, _moves in LAYER_METRICS:
            values = [row[name] for row in rows if not math.isnan(row[name])]
            if values and not unavailable.intersection(needs):
                out[name] = statistics.median(values)
        return out
