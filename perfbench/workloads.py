"""The coastedge benchmark workloads: corpus set-up, timed passes and output checks.

Every call into coastedge goes through a module attribute (harness.run_experiment,
cli.main, ...) at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import scipy
from coastedge import cli, harness, synth
from coastedge.edgedetect import ALGORITHMS
from coastedge.raster import BandName

import spans

NOISE_SIGMA = 300.0
WORKERS = 1
# Set-up runs this many times; setup_s is the median of (import + corpus
# generation). One import timing alone spread setup_s by up to 0.24 of its
# median over 10 seeds.
SETUP_REPEATS = 5
# Every request kind (one cell, or one detect call) runs at least MIN_REPEATS
# times. Latency percentiles are taken over kinds, each at the median of its
# repeats: on a shared host, neighbours stretch single requests by up to 3x,
# which moved the p95 of raw samples by 0.33-0.37 of its median over 10
# seeds, against 0.08 for the median of repeats. p95 needs at least 10 kinds
# beyond it.
MIN_REPEATS = 3
MIN_REQUEST_KINDS = 200
# the root spans (run_experiment, emit_report, cli.main, generate_corpus)
# cover the timed calls; less means a traced entry point was missed
MIN_COVERAGE = 0.97


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # chip side in pixels
    scenes: int
    kinds: tuple = ()  # experiments run per pass; empty means detect calls


WORKLOADS = {
    w.name: w
    for w in (
        Workload("table1_256", 256, 5, ("table1",)),
        Workload("ablations_64", 64, 12, ("equalization_ablation", "noise_ablation")),
        Workload("detect_chip", 256, 5),
    )
}


@dataclass
class Pass:
    """One timed pass: its wall time inside coastedge calls and what it produced."""

    wall_ns: int = 0
    cells: int = 0
    failed: int = 0
    digests: dict = field(default_factory=dict)


@dataclass
class Unit:
    """Trace summary of one pass or one corpus generation."""

    wall_ns: int
    self_ns: dict
    calls: dict
    covered_ns: int
    counters: dict
    pipeline_inputs: int
    n_spans: int
    excluded_ns: int


@dataclass
class Outcome:
    identity: dict
    digests: dict
    metrics: dict  # name -> (value, unit)
    attempted: int
    failed: int
    problems: list
    detail: dict  # per-pass walls and latency sample counts
    spans: list  # (unit label, span tuple), trace runs only


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_tree(directory) -> str:
    """SHA-256 over every file's name and bytes, in name order."""
    digest = hashlib.sha256()
    for path in sorted(Path(directory).iterdir()):
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


class CellTimer:
    """Times each harness.run_cell call, keyed by cell (image, band, algorithm, preprocessing)."""

    def __init__(self):
        self.samples = []  # (cell key, ns)
        self._patches = spans.Patches()

    def install(self) -> None:
        original = harness.run_cell
        samples = self.samples

        @functools.wraps(original)
        def timed(*args, **kwargs):
            t0 = time.perf_counter_ns()
            record = original(*args, **kwargs)
            elapsed = time.perf_counter_ns() - t0
            key = "/".join((record.image_id, record.band_name, record.algorithm, record.preprocess_tag))
            samples.append((key, elapsed))
            return record

        self._patches.replace(original, timed)

    def uninstall(self) -> None:
        self._patches.undo()

    def collect(self) -> list:
        taken = self.samples[:]
        self.samples.clear()
        return taken


def time_imports(src: Path, repeats: int) -> list:
    """Wall time of `import coastedge.cli` in fresh interpreters, timed from outside."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", "import coastedge.cli"], env=env, check=True, timeout=120)
        times.append(time.perf_counter_ns() - t0)
    return times


def peak_rss_kb() -> int:
    """Peak RSS of this process plus that of its largest waited-for child."""
    return sum(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def _check_metric_values(where: str, values: dict, problems: list) -> None:
    rmse, psnr, ssim, uqi = (values[m] for m in ("rmse", "psnr", "ssim", "uqi"))
    ok = (
        0.0 <= rmse <= 255.0
        and psnr >= 0.0
        and -1.0 - 1e-9 <= ssim <= 1.0 + 1e-9
        and -1.0 - 1e-9 <= uqi <= 1.0 + 1e-9
    )
    if not ok:
        problems.append(f"{where}: metric out of range {values}")


def experiment_pass(wl: Workload, manifest, out_dir: Path, clock, problems: list) -> Pass:
    result = Pass()
    for kind in wl.kinds:
        spec = harness.ExperimentSpec.for_kind(kind, worker_count=WORKERS)
        t0 = clock()
        run = harness.run_experiment(manifest, spec)
        harness.emit_report(run, out_dir / kind)
        result.wall_ns += clock() - t0

        expected = wl.scenes * len(BandName) * len(spec.algorithms) * len(spec.preprocess_variants)
        if len(run.records) != expected:
            problems.append(f"{kind}: {len(run.records)} records, expected {expected}")
        result.cells += len(run.records)
        for record in run.records:
            if record.error:
                result.failed += 1
            else:
                _check_metric_values(f"{kind} {record.image_id}", vars(record), problems)
        for name in ("records.csv", "aggregates.csv"):
            result.digests[f"{kind}/{name}"] = sha256_file(out_dir / kind / name)
    return result


PGM_HEADER = b"P5\n%d %d\n255\n"


def detect_pass(wl: Workload, scene: dict, out_dir: Path, clock, latencies: dict, problems: list) -> Pass:
    """One closed-loop client: each band x algorithm of one scene, one call at a time."""
    result = Pass()
    lines = []
    for band in BandName:
        for algorithm in ALGORITHMS:
            out = out_dir / f"{band.value}_{algorithm}.pgm"
            argv = [
                "detect",
                "--input", scene["image"],
                "--label", scene["label"],
                "--band", band.value,
                "--algorithm", algorithm,
                "--out", str(out),
            ]  # fmt: skip
            stdout = io.StringIO()
            t0 = clock()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
            elapsed = clock() - t0
            result.wall_ns += elapsed
            latencies[(scene["id"], band.value, algorithm)].append(elapsed)
            result.cells += 1

            line = stdout.getvalue().strip().splitlines()[-1:] or [""]
            try:
                fields = [float(x) for x in line[0].split(",")]
            except ValueError:
                fields = []
            if code != 0 or len(fields) != 4:
                result.failed += 1
                problems.append(f"detect {scene['id']} {band.value} {algorithm}: exit {code}, output {line[0]!r}")
                continue
            values = dict(zip(("rmse", "psnr", "ssim", "uqi"), fields))
            _check_metric_values(f"detect {scene['id']} {band.value} {algorithm}", values, problems)
            lines.append(line[0])

    digest = hashlib.sha256("\n".join(lines).encode())
    header = PGM_HEADER % (wl.size, wl.size)
    for band in BandName:
        for algorithm in ALGORITHMS:
            data = (out_dir / f"{band.value}_{algorithm}.pgm").read_bytes()
            if not data.startswith(header) or len(data) != len(header) + wl.size * wl.size:
                problems.append(f"detect {scene['id']} {band.value} {algorithm}: malformed PGM")
            digest.update(data)
    result.digests[f"{scene['id']}/metrics+pgm"] = digest.hexdigest()
    return result


def _unit(tracer: spans.Tracer, wall_ns: int, excluded_before: int):
    taken, counters, inputs = tracer.take()
    self_ns, calls, covered = spans.self_times(taken)
    unit = Unit(
        wall_ns=wall_ns,
        self_ns=self_ns,
        calls=calls,
        covered_ns=covered,
        counters=counters,
        pipeline_inputs=len(inputs),
        n_spans=len(taken),
        excluded_ns=tracer.excluded_ns - excluded_before,
    )
    return unit, taken


def _layer_metrics(setup_units: list, pass_units: list, span_cost_ns: float, problems: list) -> dict:
    """Per-function self time (median per unit) and exact call and byte counts."""
    for label, units in (("set-up", setup_units), ("pass", pass_units)):
        first = units[0]
        for unit in units[1:]:
            same = (unit.calls, unit.counters, unit.pipeline_inputs) == (
                first.calls,
                first.counters,
                first.pipeline_inputs,
            )
            if not same:
                problems.append(f"trace: call or byte counts differ between {label} repeats")
                break

    metrics = {}
    for name in spans.TRACED_NAMES:
        self_s = sum(statistics.median(u.self_ns.get(name, 0) for u in units) for units in (setup_units, pass_units))
        calls = setup_units[0].calls.get(name, 0) + pass_units[0].calls.get(name, 0)
        metrics[f"{name}.self_s"] = (self_s / 1e9, "s")
        metrics[f"{name}.calls"] = (calls, "count")

    pipeline_calls = pass_units[0].calls.get("preprocess.run_pipeline", 0)
    ratio = pass_units[0].pipeline_inputs / pipeline_calls if pipeline_calls else 0.0
    metrics["preprocess.run_pipeline.useful_ratio"] = (ratio, "ratio")
    for counter in spans.BYTES_COUNTERS:
        total = setup_units[0].counters.get(counter, 0) + pass_units[0].counters.get(counter, 0)
        metrics[counter] = (total, "bytes")

    units = setup_units + pass_units
    wall = sum(u.wall_ns for u in units)
    coverage = sum(u.covered_ns for u in units) / wall
    overhead = sum(u.n_spans * span_cost_ns + u.excluded_ns for u in units) / wall
    if not MIN_COVERAGE <= coverage <= 1.0 + 1e-6:
        problems.append(f"trace: coverage {coverage:.4f} outside [{MIN_COVERAGE}, 1]; spans went missing")
    metrics["trace.coverage"] = (coverage, "ratio")
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics


def _end_to_end_metrics(passes: list, latencies: dict, setup_ns: list, rss_kb: int, problems: list) -> dict:
    typical = [statistics.median(samples) for samples in latencies.values()]
    if len(typical) < MIN_REQUEST_KINDS:
        problems.append(f"only {len(typical)} request kinds timed, need {MIN_REQUEST_KINDS} for p95")
    wall_s = statistics.median(p.wall_ns for p in passes) / 1e9
    attempted = sum(p.cells for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "latency_ms_p50": (statistics.median(typical) / 1e6, "ms"),
        "latency_ms_p95": (statistics.quantiles(typical, n=20, method="inclusive")[-1] / 1e6, "ms"),
        "wall_s": (wall_s, "s"),
        "cells_per_s": (passes[0].cells / wall_s, "1/s"),
        "success_frac": (1.0 - failed / attempted, "fraction"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_ns) / 1e9, "s"),
    }


def run(name: str, seed: int, seconds: int, trace: bool, run_dir: Path, src: Path) -> Outcome:
    wl = WORKLOADS[name]
    problems = []
    tracer = spans.Tracer() if trace else None
    clock = tracer.now if tracer else time.perf_counter_ns
    span_cost_ns = tracer.span_cost_ns() if tracer else 0.0
    cell_timer = None
    all_spans = []
    try:
        if tracer:
            tracer.install()

        # set-up: generate the corpus several times; every copy must be identical
        spec = synth.SynthSpec(size=wl.size, seed=seed * 1000, noise_sigma=NOISE_SIGMA)
        setup_ns, corpus_digests, setup_units = [], set(), []
        for k in range(SETUP_REPEATS):
            excluded = tracer.excluded_ns if tracer else 0
            t0 = clock()
            manifest = synth.generate_corpus(wl.scenes, spec, run_dir / f"corpus{k}")
            setup_ns.append(clock() - t0)
            corpus_digests.add(sha256_tree(manifest.parent))
            if tracer:
                unit, taken = _unit(tracer, setup_ns[-1], excluded)
                setup_units.append(unit)
                all_spans += [(f"setup{k}", s) for s in taken]
        if len(corpus_digests) != 1:
            problems.append("synth: regenerated corpora differ")
        corpus_dir = manifest.parent

        digests = {}
        out_dir = run_dir / "out"
        out_dir.mkdir()
        if not tracer and wl.kinds:
            cell_timer = CellTimer()
            cell_timer.install()

        scenes = [
            {"id": e["id"], "image": str(corpus_dir / e["image"]), "label": str(corpus_dir / e["label"])}
            for e in json.loads(manifest.read_text())["images"]
        ]
        passes, latencies, pass_units = [], defaultdict(list), []
        # an experiment pass runs every cell; a detect pass covers one scene
        min_passes = MIN_REPEATS * (1 if wl.kinds or tracer else len(scenes))
        deadline = time.perf_counter() + seconds
        while len(passes) < min_passes or time.perf_counter() < deadline:
            excluded = tracer.excluded_ns if tracer else 0
            if wl.kinds:
                p = experiment_pass(wl, manifest, out_dir, clock, problems)
                if cell_timer:
                    cell_samples = cell_timer.collect()
                    if len(cell_samples) != p.cells:
                        problems.append(f"timed {len(cell_samples)} cells, expected {p.cells}")
                    for key, elapsed in cell_samples:
                        latencies[key].append(elapsed)
            else:
                scene = scenes[len(passes) % len(scenes)]
                p = detect_pass(wl, scene, out_dir, clock, latencies, problems)
            for key, value in p.digests.items():
                if digests.setdefault(key, value) != value:
                    problems.append(f"{key}: output differs from an earlier pass")
            passes.append(p)
            if tracer:
                unit, taken = _unit(tracer, p.wall_ns, excluded)
                pass_units.append(unit)
                all_spans += [(f"pass{len(passes) - 1}", s) for s in taken]
    finally:
        if cell_timer:
            cell_timer.uninstall()
        if tracer:
            tracer.uninstall()

    attempted = sum(p.cells for p in passes)
    failed = sum(p.failed for p in passes)
    if failed:
        problems.append(f"{failed} of {attempted} cells failed")

    if tracer:
        metrics = _layer_metrics(setup_units, pass_units, span_cost_ns, problems)
    else:
        # RSS first, so that the import probes' interpreters do not count
        rss_kb = peak_rss_kb()
        import_ns = time_imports(src, SETUP_REPEATS)
        setup_ns = [i + g for i, g in zip(import_ns, setup_ns)]
        metrics = _end_to_end_metrics(passes, latencies, setup_ns, rss_kb, problems)

    identity = {
        "workload": wl.name,
        "seed": seed,
        "chip_size": wl.size,
        "scenes": wl.scenes,
        "experiments": list(wl.kinds),
        "workers": WORKERS,
        "noise_sigma": NOISE_SIGMA,
        "corpus_sha256": corpus_digests.pop() if len(corpus_digests) == 1 else None,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    detail = {
        # a function the package no longer has reads 0 calls, not a failure
        "untraced_missing_functions": tracer.missing if tracer else [],
        "pass_wall_s": [p.wall_ns / 1e9 for p in passes],
        "latency_samples": sum(len(v) for v in latencies.values()),
        "latency_request_kinds": len(latencies),
    }
    return Outcome(identity, digests, metrics, attempted, failed, problems, detail, all_spans)
