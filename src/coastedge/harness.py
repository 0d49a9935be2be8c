"""Benchmark harness: reference derivation, experiment grids, report emission.

Runs three experiment shapes over any corpus described by a manifest:
the full band x algorithm results table, the histogram-equalization
ablation and the noise-reduction ablation.
"""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .edgedetect import ALGORITHMS, CannyParams, canny, detect
from .errors import CoastEdgeError, CorpusError, EmptyGroupError, IoError, ParamError
from .metrics import (
    METRIC_NAMES,
    MetricParams,
    MetricRecord,
    PreparedReference,
    aggregate,
    compute_all,
)
from .preprocess import PreprocessSpec, run_pipeline
from .raster import BandName, EdgeMap, LabelMask, Scene, load_manifest, load_scene, write_pgm

EXPERIMENT_KINDS = ("table1", "equalization_ablation", "noise_ablation")


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment grid: which algorithms and preprocessing variants to run."""

    kind: str
    algorithms: tuple = ALGORITHMS
    preprocess_variants: tuple = (PreprocessSpec(),)
    canny_params: CannyParams = CannyParams()
    metric_params: MetricParams = MetricParams()
    worker_count: int = 1

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ParamError(f"unknown experiment kind {self.kind!r}")
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ParamError(f"unknown algorithms {unknown}")
        if self.worker_count < 1:
            raise ParamError("worker_count must be >= 1")

    @classmethod
    def for_kind(
        cls,
        kind: str,
        base: PreprocessSpec = PreprocessSpec(),
        canny_params: CannyParams = CannyParams(),
        metric_params: MetricParams = MetricParams(),
        worker_count: int = 1,
    ) -> "ExperimentSpec":
        """Build the canonical grid for a kind from a base preprocessing spec."""
        if kind == "table1":
            algorithms = ALGORITHMS
            variants = (replace(base, equalize=True, noise_reduction="gaussian"),)
        elif kind == "equalization_ablation":
            algorithms = ("canny",)
            variants = (
                replace(base, equalize=True, noise_reduction="gaussian"),
                replace(base, equalize=False, noise_reduction="gaussian"),
            )
        elif kind == "noise_ablation":
            algorithms = ("canny",)
            variants = (
                replace(base, equalize=True, noise_reduction="none"),
                replace(base, equalize=True, noise_reduction="gaussian"),
                replace(base, equalize=True, noise_reduction="closing"),
            )
        else:
            raise ParamError(f"unknown experiment kind {kind!r}")
        return cls(
            kind=kind,
            algorithms=algorithms,
            preprocess_variants=variants,
            canny_params=canny_params,
            metric_params=metric_params,
            worker_count=worker_count,
        )

    @property
    def variant_tags(self) -> list[str]:
        return [v.tag for v in self.preprocess_variants]


@dataclass(frozen=True)
class RunResult:
    """All records and aggregates of one experiment, plus provenance."""

    spec: ExperimentSpec
    records: list
    aggregate_rows: list  # dicts: band, algorithm, preprocess, metric, mean, ...
    provenance: dict


def derive_reference(label: LabelMask, canny_params: CannyParams = CannyParams()) -> EdgeMap:
    """Ground-truth coastline edges: Canny applied to the binary label x 255.

    Internal smoothing is disabled so every reference edge pixel is
    guaranteed to touch (8-adjacency) a pixel of the opposite label class.
    """
    return canny(label.values * 255.0, replace(canny_params, smoothing=False))


# Faults of a cell's data or parameters. Anything else is a bug in the
# toolkit: it propagates instead of becoming an error record.
CELL_ERRORS = (CoastEdgeError, ArithmeticError, ValueError)


def _error_record(
    image_id: str, band_name: BandName, algorithm: str, variant: PreprocessSpec, exc: Exception
) -> MetricRecord:
    return MetricRecord(
        image_id=image_id,
        band_name=band_name.value,
        algorithm=algorithm,
        preprocess_tag=variant.tag,
        error=f"{type(exc).__name__}: {exc}",
    )


def run_cell(
    scene: Scene,
    band_name: BandName,
    algorithm: str,
    preprocess_spec: PreprocessSpec,
    canny_params: CannyParams,
    metric_params: MetricParams,
    reference: EdgeMap | PreparedReference,
    processed: np.ndarray,
) -> MetricRecord:
    """Detect edges on one band and score them against the reference.

    `processed` is the band's samples already run through `preprocess_spec`,
    and `reference` the scene's reference edges, plain or prepared for
    `metric_params`. A data or parameter fault comes back as a record with
    the error field set, so one bad cell cannot abort a corpus run.
    """
    try:
        edges = detect(processed, algorithm, canny_params)
        values = compute_all(edges, reference, metric_params)
    except CELL_ERRORS as exc:
        return _error_record(scene.id, band_name, algorithm, preprocess_spec, exc)
    return MetricRecord(
        image_id=scene.id,
        band_name=band_name.value,
        algorithm=algorithm,
        preprocess_tag=preprocess_spec.tag,
        **values,
    )


def _scene_records(entry: dict, spec: ExperimentSpec) -> list[MetricRecord]:
    """All grid cells for one corpus image (the parallel work unit).

    The scene is loaded and its reference derived and prepared once; each
    band is preprocessed once per variant, and every algorithm's cell
    reuses that band and the prepared reference.
    """
    try:
        scene = load_scene(entry)
        reference = PreparedReference(
            derive_reference(scene.label, spec.canny_params), spec.metric_params
        )
    except CELL_ERRORS as exc:
        return [
            _error_record(entry["id"], band, algorithm, variant, exc)
            for band in BandName
            for algorithm in spec.algorithms
            for variant in spec.preprocess_variants
        ]

    records = []
    for band in BandName:
        for variant in spec.preprocess_variants:
            try:
                processed = run_pipeline(scene.bands[band].samples, variant)
            except CELL_ERRORS as exc:
                records += [_error_record(scene.id, band, a, variant, exc) for a in spec.algorithms]
                continue
            for algorithm in spec.algorithms:
                records.append(
                    run_cell(
                        scene,
                        band,
                        algorithm,
                        variant,
                        spec.canny_params,
                        spec.metric_params,
                        reference,
                        processed,
                    )
                )
    return records


def _record_sort_key(spec: ExperimentSpec):
    band_index = {b.value: i for i, b in enumerate(BandName)}
    algo_index = {a: i for i, a in enumerate(ALGORITHMS)}
    tag_index = {t: i for i, t in enumerate(spec.variant_tags)}

    def key(record: MetricRecord):
        return (
            record.image_id,
            band_index.get(record.band_name, 99),
            algo_index.get(record.algorithm, 99),
            tag_index.get(record.preprocess_tag, 99),
        )

    return key


def corpus_hash(manifest_path) -> str:
    """SHA-256 over the manifest's bytes and those of every file it references.

    Each file is preceded by its entry id, key and size; a file that cannot
    be read counts with size -1 and no bytes.
    """
    manifest_path = Path(manifest_path)
    digest = hashlib.sha256(manifest_path.read_bytes())
    for entry in load_manifest(manifest_path):
        for key in ("image", "label"):
            try:
                with open(entry[key], "rb") as fh:
                    size = os.fstat(fh.fileno()).st_size
                    digest.update(f"{entry['id']}:{key}:{size}".encode())
                    for chunk in iter(lambda: fh.read(1 << 20), b""):
                        digest.update(chunk)
            except OSError:
                digest.update(f"{entry['id']}:{key}:-1".encode())
    return digest.hexdigest()


def aggregate_records(records: list, spec: ExperimentSpec) -> list[dict]:
    """Per-(variant, band, algorithm, metric) aggregate rows in canonical order."""
    rows = []
    for tag in spec.variant_tags:
        subset = [r for r in records if r.preprocess_tag == tag]
        for band in BandName:
            for algorithm in spec.algorithms:
                for metric_name in METRIC_NAMES:
                    try:
                        cell = aggregate(subset, band.value, algorithm, metric_name)
                    except EmptyGroupError:
                        continue
                    rows.append(
                        {
                            "band": cell.band_name,
                            "algorithm": cell.algorithm,
                            "preprocess": tag,
                            "metric": cell.metric_name,
                            "mean": cell.mean,
                            "std": cell.std,
                            "n_included": cell.n_included,
                            "n_excluded": cell.n_excluded,
                        }
                    )
    return rows


def run_experiment(manifest_path, spec: ExperimentSpec) -> RunResult:
    """Execute the full experiment grid over a corpus.

    The map over images is embarrassingly parallel; records are sorted
    canonically before aggregation so the result is byte-identical for any
    worker count.
    """
    manifest_path = Path(manifest_path)
    entries = load_manifest(manifest_path)
    if not entries:
        records = []
    elif spec.worker_count == 1:
        records = []
        for entry in entries:
            records.extend(_scene_records(entry, spec))
    else:
        records = []
        with concurrent.futures.ProcessPoolExecutor(max_workers=spec.worker_count) as pool:
            for chunk in pool.map(_scene_records, entries, [spec] * len(entries)):
                records.extend(chunk)

    records.sort(key=_record_sort_key(spec))
    rows = aggregate_records(records, spec)
    n_errors = sum(1 for r in records if r.error)
    provenance = {
        "experiment": spec.kind,
        "algorithms": list(spec.algorithms),
        "preprocess_variants": spec.variant_tags,
        "canny": {
            "low_threshold": spec.canny_params.low_threshold,
            "high_threshold": spec.canny_params.high_threshold,
            "smoothing": spec.canny_params.smoothing,
            "smooth_kernel_size": spec.canny_params.smooth_kernel_size,
            "smooth_sigma": spec.canny_params.smooth_sigma,
        },
        "metric_params": {
            "ssim_window": spec.metric_params.ssim_window,
            "ssim_sigma": spec.metric_params.ssim_sigma,
            "uqi_window": spec.metric_params.uqi_window,
        },
        "corpus_hash": corpus_hash(manifest_path),
        "n_images": len(entries),
        "n_records": len(records),
        "n_errors": n_errors,
        "toolkit_version": __version__,
    }
    return RunResult(spec=spec, records=records, aggregate_rows=rows, provenance=provenance)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

RECORD_COLUMNS = (
    "image_id",
    "band",
    "algorithm",
    "preprocess",
    "rmse",
    "psnr",
    "ssim",
    "uqi",
    "error",
)

AGGREGATE_COLUMNS = (
    "band",
    "algorithm",
    "preprocess",
    "metric",
    "mean",
    "std",
    "n_included",
    "n_excluded",
)


def _fmt(x: float) -> str:
    """Full-precision float text that parses back to the identical double."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(float(x))


def format_mean_std(mean: float, std: float) -> str:
    """'13.2 ± 2' style: mean to 1 decimal, std to 1 significant figure."""
    if not math.isfinite(mean):
        return "n/a"
    mean_s = f"{mean:.1f}"
    if mean_s.endswith(".0"):
        mean_s = mean_s[:-2]
    if not math.isfinite(std) or std == 0:
        std_s = "0"
    else:
        exponent = math.floor(math.log10(abs(std)))
        std_s = f"{round(std, -exponent):g}"
    return f"{mean_s} ± {std_s}"


def write_records_csv(records: list, path) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(RECORD_COLUMNS)
            for r in records:
                if r.error:
                    metric_cells = ["", "", "", ""]
                else:
                    metric_cells = [_fmt(r.rmse), _fmt(r.psnr), _fmt(r.ssim), _fmt(r.uqi)]
                writer.writerow(
                    [r.image_id, r.band_name, r.algorithm, r.preprocess_tag]
                    + metric_cells
                    + [r.error]
                )
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_records_csv(path) -> list:
    """Parse a records CSV back into MetricRecord objects (exact floats)."""
    def parse(cell: str) -> float:
        return float(cell) if cell else math.nan

    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != RECORD_COLUMNS:
                raise CorpusError(f"{path}: unexpected records CSV header {header}")
            records = []
            for row in reader:
                if len(row) != len(RECORD_COLUMNS):
                    raise CorpusError(f"{path}: malformed row {row}")
                records.append(
                    MetricRecord(
                        image_id=row[0],
                        band_name=row[1],
                        algorithm=row[2],
                        preprocess_tag=row[3],
                        rmse=parse(row[4]),
                        psnr=parse(row[5]),
                        ssim=parse(row[6]),
                        uqi=parse(row[7]),
                        error=row[8],
                    )
                )
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    return records


def write_aggregates_csv(rows: list, path) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(AGGREGATE_COLUMNS)
            for row in rows:
                writer.writerow(
                    [
                        row["band"],
                        row["algorithm"],
                        row["preprocess"],
                        row["metric"],
                        _fmt(row["mean"]),
                        _fmt(row["std"]),
                        row["n_included"],
                        row["n_excluded"],
                    ]
                )
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def markdown_table(rows: list, algorithms: tuple = ALGORITHMS, metrics=("psnr", "ssim")) -> str:
    """Aggregate table as markdown, 'mean ± std' cells, canonical row order."""
    cells = {(r["band"], r["algorithm"], r["metric"]): r for r in rows}
    header = ["Band"]
    for algorithm in algorithms:
        for metric in metrics:
            header.append(f"{algorithm.capitalize()} {metric.upper()}")
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    for band in BandName:
        line = [band.display]
        for algorithm in algorithms:
            for metric in metrics:
                row = cells.get((band.value, algorithm, metric))
                line.append(format_mean_std(row["mean"], row["std"]) if row else "n/a")
        lines.append("| " + " | ".join(line) + " |")
    return "\n".join(lines) + "\n"


def write_plotdata_csv(result: RunResult, path) -> None:
    """One row per band, one mean-PSNR column per preprocessing variant."""
    tags = result.spec.variant_tags
    cells = {
        (r["band"], r["preprocess"]): r
        for r in result.aggregate_rows
        if r["metric"] == "psnr"
    }
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["band"] + tags)
            for band in BandName:
                row = [band.value]
                for tag in tags:
                    cell = cells.get((band.value, tag))
                    row.append(_fmt(cell["mean"]) if cell else "")
                writer.writerow(row)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


_PLOTDATA_NAMES = {
    "equalization_ablation": "fig5_equalization.csv",
    "noise_ablation": "fig6_noise.csv",
}


def emit_report(result: RunResult, out_dir, formats=("csv", "markdown", "plotdata")) -> list[Path]:
    """Write report files for an experiment; returns the paths written."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out_dir}: {exc}") from exc

    written = []
    if "csv" in formats:
        records_path = out_dir / "records.csv"
        write_records_csv(result.records, records_path)
        aggregates_path = out_dir / "aggregates.csv"
        write_aggregates_csv(result.aggregate_rows, aggregates_path)
        written += [records_path, aggregates_path]
    if "markdown" in formats and result.spec.kind == "table1":
        table_path = out_dir / "table1.md"
        table_path.write_text(markdown_table(result.aggregate_rows, result.spec.algorithms))
        written.append(table_path)
    if "plotdata" in formats and result.spec.kind in _PLOTDATA_NAMES:
        plot_path = out_dir / _PLOTDATA_NAMES[result.spec.kind]
        write_plotdata_csv(result, plot_path)
        written.append(plot_path)

    provenance_path = out_dir / "provenance.json"
    provenance_path.write_text(json.dumps(result.provenance, indent=2, sort_keys=True) + "\n")
    written.append(provenance_path)
    return written


def dump_band_edges(
    scene: Scene,
    algorithm: str,
    preprocess_spec: PreprocessSpec,
    out_dir,
    canny_params: CannyParams = CannyParams(),
) -> list[Path]:
    """Write one edge-map PGM per band, filenames in canonical band order."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out_dir}: {exc}") from exc
    paths = []
    for i, name in enumerate(BandName):
        processed = run_pipeline(scene.bands[name].samples, preprocess_spec)
        edges = detect(processed, algorithm, canny_params)
        path = out_dir / f"{i:02d}_{name.value}.pgm"
        write_pgm(edges, path)
        paths.append(path)
    return paths
