"""Span tracing of coastedge's public functions, installed from outside the package.

Each traced function is replaced by a wrapper in *every* coastedge module
namespace that holds it: harness and cli import run_pipeline, detect,
compute_all, canny, load_scene, write_pgm and others by name, so patching
only the defining module would silently lose those spans. Spans are kept in
memory with their parent ids and summarized per unit of work (one pass of a
workload, or one corpus generation during set-up).
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

# layer (module under src/coastedge/) -> public functions traced in it
TRACED = {
    "raster": ("read_npy", "load_scene", "load_manifest", "write_pgm", "write_npy"),
    "synth": ("generate_corpus",),
    "preprocess": (
        "run_pipeline",
        "scale_minmax",
        "equalize_histogram",
        "gaussian_blur",
        "blur_array",
        "morphological_closing",
    ),
    "edgedetect": ("detect", "canny", "gradient_field", "convolve2d", "magnitude_to_edgemap"),
    "metrics": ("compute_all", "rmse", "psnr", "ssim", "uqi", "aggregate"),
    "harness": (
        "run_experiment",
        "run_cell",
        "derive_reference",
        "aggregate_records",
        "corpus_hash",
        "emit_report",
    ),
    "cli": ("main",),
}

TRACED_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)

# counters measured where the work happens, next to the spans
BYTES_COUNTERS = ("raster.read_npy.bytes", "raster.write_npy.bytes")


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name.startswith("coastedge.")]


class Patches:
    """Replaces a function in every namespace that holds it; undo() restores them."""

    def __init__(self):
        self._saved = []

    def replace(self, original, replacement) -> None:
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._saved.append((module, attr, original))

    def undo(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


class Tracer:
    """In-memory span recorder with a clock that excludes the tracer's own probes.

    A span is (span_id, parent_id, name, start_ns, end_ns); parent 0 is the root.
    Probes (file sizes, input fingerprints) run outside every span, and their
    time is subtracted from now(), so it lands in no layer's self time.
    """

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.pipeline_inputs = set()  # (root span id, run_pipeline input fingerprint)
        self.excluded_ns = 0
        self._stack = [0]
        self._next_id = 1
        self._patches = Patches()
        self.missing = []

    def now(self) -> int:
        return time.perf_counter_ns() - self.excluded_ns

    def wrap(self, name: str, fn, probe=None):
        tracer = self
        signature = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1]
            root = tracer._stack[1] if len(tracer._stack) > 1 else span_id
            tracer._stack.append(span_id)
            start = tracer.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.now()
                tracer._stack.pop()
                tracer.spans.append((span_id, parent, name, start, end))
            if probe is not None:
                t0 = time.perf_counter_ns()
                probe(tracer, root, signature.bind(*args, **kwargs).arguments)
                tracer.excluded_ns += time.perf_counter_ns() - t0
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED wherever the package holds it."""
        for layer, names in TRACED.items():
            home = importlib.import_module(f"coastedge.{layer}")
            for fn_name in names:
                name = f"{layer}.{fn_name}"
                original = getattr(home, fn_name, None)
                if original is None:
                    self.missing.append(name)
                    continue
                self._patches.replace(original, self.wrap(name, original, _PROBES.get(name)))

    def uninstall(self) -> None:
        self._patches.undo()

    def take(self):
        """Remove and return the spans, counters and fingerprints recorded so far."""
        taken = (self.spans, dict(self.counters), self.pipeline_inputs)
        self.spans, self.counters, self.pipeline_inputs = [], defaultdict(int), set()
        return taken

    def span_cost_ns(self, n: int = 20000) -> float:
        """Measured cost of one traced call of a no-op, beyond the call itself."""

        def noop():
            return None

        traced = self.wrap("calibration", noop)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter_ns()
            for _ in range(n):
                noop()
            t1 = time.perf_counter_ns()
            for _ in range(n):
                traced()
            t2 = time.perf_counter_ns()
            best = min(best, ((t2 - t1) - (t1 - t0)) / n)
        self.take()
        return max(best, 0.0)


def _count_file_bytes(counter: str):
    def probe(tracer, root, arguments):
        tracer.counters[counter] += os.path.getsize(arguments["path"])

    return probe


def _fingerprint(value):
    """Content identity of an argument: arrays and Band-like objects by their bytes."""
    if isinstance(value, np.ndarray):
        return (value.shape, value.dtype.str, hashlib.sha1(np.ascontiguousarray(value).data).hexdigest())
    if hasattr(value, "samples"):
        return (repr(getattr(value, "name", None)), _fingerprint(value.samples))
    return repr(value)


def _fingerprint_pipeline_input(tracer, root, arguments):
    key = tuple((name, _fingerprint(value)) for name, value in arguments.items())
    tracer.pipeline_inputs.add((root, key))


_PROBES = {
    "raster.read_npy": _count_file_bytes("raster.read_npy.bytes"),
    "raster.write_npy": _count_file_bytes("raster.write_npy.bytes"),
    "preprocess.run_pipeline": _fingerprint_pipeline_input,
}


def self_times(spans) -> tuple[dict, dict, int]:
    """Per-name self time (duration minus child coverage) and call count.

    Also returns the summed self time of all spans, which equals the time
    covered by root spans.
    """
    child_ns = defaultdict(int)
    for span_id, parent, name, start, end in spans:
        child_ns[parent] += end - start
    self_ns, calls = defaultdict(int), defaultdict(int)
    for span_id, parent, name, start, end in spans:
        self_ns[name] += (end - start) - child_ns[span_id]
        calls[name] += 1
    return dict(self_ns), dict(calls), sum(self_ns.values())
