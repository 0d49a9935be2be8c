"""Benchmark harness: experiment grids, per-scene scoring, report emission.

Runs three experiment shapes over any corpus described by a manifest:
the full band x algorithm results table, the histogram-equalization
ablation and the noise-reduction ablation. Scenes come from
`raster.load_scene` and their reference edges from
`edgedetect.derive_reference`; only a `CoastEdgeError` becomes an error
record, anything else is a bug and propagates. Only `evaluate` and `report`
import this module.
"""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .edgedetect import ALGORITHMS, CannyParams, derive_reference, detect
from .errors import CoastEdgeError, CorpusError, IoError, ParamError
from .metrics import METRIC_NAMES, MetricParams, MetricRecord, PreparedReference, compute_all
from .preprocess import PreprocessSpec, run_pipeline
from .raster import BandName, Scene, load_manifest, load_scene

# experiment kind -> its algorithms, the (equalize, noise_reduction) pair of
# each preprocessing variant, and its report files (format -> file name);
# `evaluate` writes every report file, and `report` re-creates any one
GRIDS = {
    "table1": {
        "algorithms": ALGORITHMS,
        "variants": ((True, "gaussian"),),
        "report_files": {"csv": "aggregates.csv", "markdown": "table1.md"},
    },
    "equalization_ablation": {
        "algorithms": ("canny",),
        "variants": ((True, "gaussian"), (False, "gaussian")),
        "report_files": {"csv": "aggregates.csv", "plotdata": "fig5_equalization.csv"},
    },
    "noise_ablation": {
        "algorithms": ("canny",),
        "variants": ((True, "none"), (True, "gaussian"), (True, "closing")),
        "report_files": {"csv": "aggregates.csv", "plotdata": "fig6_noise.csv"},
    },
}


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: its kind's grid, run from a base preprocessing spec."""

    kind: str
    base: PreprocessSpec = PreprocessSpec()
    canny_params: CannyParams = CannyParams()
    metric_params: MetricParams = MetricParams()
    worker_count: int = 1

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in GRIDS:
            raise ParamError(f"unknown experiment kind {self.kind!r}")
        if self.worker_count < 1:
            raise ParamError("worker_count must be >= 1")

    @classmethod
    def for_kind(cls, kind: str, **fields) -> "ExperimentSpec":
        """The same as `ExperimentSpec(kind, **fields)`."""
        return cls(kind, **fields)

    @property
    def algorithms(self) -> tuple:
        return GRIDS[self.kind]["algorithms"]

    @property
    def preprocess_variants(self) -> tuple:
        return tuple(
            replace(self.base, equalize=equalize, noise_reduction=noise)
            for equalize, noise in GRIDS[self.kind]["variants"]
        )

    @property
    def variant_tags(self) -> list[str]:
        return [v.tag for v in self.preprocess_variants]

    @property
    def report_files(self) -> dict:
        return GRIDS[self.kind]["report_files"]


@dataclass(frozen=True)
class RunResult:
    """All records and aggregates of one experiment, plus provenance."""

    spec: ExperimentSpec
    records: list
    aggregate_rows: list  # dicts: band, algorithm, preprocess, metric, mean, ...
    provenance: dict


# Faults of a cell's data or parameters. Anything else is a bug in the
# toolkit: it propagates instead of becoming an error record.
CELL_ERRORS = CoastEdgeError


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
    metric_params: MetricParams,
    reference: np.ndarray | PreparedReference,
    edges: np.ndarray,
) -> MetricRecord:
    """Score one band's edge plane against the reference.

    `edges` is the 2D edge map `algorithm` detected on the band after
    `preprocess_spec`, and `reference` the scene's reference edges, plain or
    prepared for `metric_params`. A data or parameter fault comes back as a
    record with the error field set, so one bad cell cannot abort a corpus run.
    """
    try:
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


# Bands are preprocessed and detected in chunks of at most this many pixels and
# at least one band: 6 bands of a 64x64 scene, 1 of a 256x256 one. One call per
# chunk saves numpy's per-call cost on small chips; a bigger chunk only holds
# more temporaries at once (12 bands of 64x64 ran no faster than 6).
_CHUNK_PIXELS = 24_576


def _scene_records(entry: dict, spec: ExperimentSpec) -> list[MetricRecord]:
    """All grid cells for one corpus image (the parallel work unit).

    The scene is loaded and its reference derived and prepared once. Its
    band stack is run in chunks of bands: each chunk is preprocessed once per
    variant and detected once per algorithm, each stage treating every band
    on its own, and each cell is then scored alone against the prepared
    reference.
    """
    variants = spec.preprocess_variants
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
            for variant in variants
        ]

    bands = list(BandName)
    per_chunk = max(1, _CHUNK_PIXELS // scene.label.values.size)
    records = []
    for start in range(0, len(bands), per_chunk):
        chunk = bands[start : start + per_chunk]
        for variant in variants:
            try:
                processed = run_pipeline(scene.stack[start : start + per_chunk], variant)
            except CELL_ERRORS as exc:
                records += [
                    _error_record(scene.id, b, a, variant, exc) for b in chunk for a in spec.algorithms
                ]
                continue
            for algorithm in spec.algorithms:
                try:
                    edges = detect(processed, algorithm, spec.canny_params)
                except CELL_ERRORS as exc:
                    records += [_error_record(scene.id, b, algorithm, variant, exc) for b in chunk]
                    continue
                for band, plane in zip(chunk, edges):
                    records.append(
                        run_cell(scene, band, algorithm, variant, spec.metric_params, reference, plane)
                    )
    return records


def _record_sort_key(spec: ExperimentSpec):
    band_index = {b.value: i for i, b in enumerate(BandName)}
    algo_index = {a: i for i, a in enumerate(ALGORITHMS)}
    tag_index = {t: i for i, t in enumerate(spec.variant_tags)}

    def key(record: MetricRecord):
        return (
            record.image_id,
            band_index[record.band_name],
            algo_index[record.algorithm],
            tag_index[record.preprocess_tag],
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
    """Per-(variant, band, algorithm, metric) aggregate rows in canonical order.

    Each row holds the mean and population std of the group's finite values
    of one metric; non-finite values (PSNR +inf) and error records are
    counted as excluded. A group's records are taken in image_id order, so
    the reduction is independent of arrival order. A group with no records
    gives no rows.
    """
    groups = {}
    for r in sorted(records, key=lambda r: r.image_id):
        groups.setdefault((r.preprocess_tag, r.band_name, r.algorithm), []).append(r)
    rows = []
    for tag, band, algorithm in itertools.product(spec.variant_tags, BandName, spec.algorithms):
        group = groups.get((tag, band.value, algorithm))
        if group is None:
            continue
        values = np.array(
            [[math.nan if r.error else getattr(r, m) for m in METRIC_NAMES] for r in group]
        )
        for metric_name, column in zip(METRIC_NAMES, values.T):
            finite = column[np.isfinite(column)]
            mean = std = math.nan
            if len(finite):
                mean = float(finite.mean())
                std = float(np.sqrt(np.mean((finite - mean) ** 2)))
            rows.append(
                {
                    "band": band.value,
                    "algorithm": algorithm,
                    "preprocess": tag,
                    "metric": metric_name,
                    "mean": mean,
                    "std": std,
                    "n_included": len(finite),
                    "n_excluded": len(column) - len(finite),
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
    # a pool starts all its workers at once, so it gets no more than one per scene
    workers = min(spec.worker_count, len(entries))
    records = []
    if workers <= 1:
        for entry in entries:
            records.extend(_scene_records(entry, spec))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk in pool.map(_scene_records, entries, [spec] * len(entries)):
                records.extend(chunk)

    records.sort(key=_record_sort_key(spec))
    rows = aggregate_records(records, spec)
    n_errors = sum(1 for r in records if r.error)
    provenance = {
        "experiment": spec.kind,
        "algorithms": list(spec.algorithms),
        "preprocess_variants": spec.variant_tags,
        "canny": asdict(spec.canny_params),
        "metric_params": asdict(spec.metric_params),
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


def _write(path, text: str = "", rows=()) -> None:
    """Write `text`, then `rows` as CSV lines, to `path`; an OSError is an `IoError`."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
            csv.writer(fh).writerows(rows)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_records_csv(records: list, path) -> None:
    rows = [RECORD_COLUMNS]
    for r in records:
        if r.error:
            metric_cells = ["", "", "", ""]
        else:
            metric_cells = [_fmt(r.rmse), _fmt(r.psnr), _fmt(r.ssim), _fmt(r.uqi)]
        rows.append([r.image_id, r.band_name, r.algorithm, r.preprocess_tag, *metric_cells, r.error])
    _write(path, rows=rows)


def read_records_csv(path) -> list:
    """Parse a records CSV back into MetricRecord objects (exact floats).

    A wrong header, row length or metric cell is a `CorpusError` naming the
    file and, for a row, its line number.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != RECORD_COLUMNS:
                raise CorpusError(f"{path}: unexpected records CSV header {header}")
            records = []
            for row in reader:
                if len(row) != len(RECORD_COLUMNS):
                    raise CorpusError(f"{path}: row {reader.line_num}: malformed row {row}")
                try:
                    metrics = [float(cell) if cell else math.nan for cell in row[4:8]]
                except ValueError as exc:
                    raise CorpusError(f"{path}: row {reader.line_num}: {exc}") from exc
                records.append(MetricRecord(*row[:4], *metrics, error=row[8]))
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    return records


def write_aggregates_csv(rows: list, path) -> None:
    lines = [AGGREGATE_COLUMNS]
    for row in rows:
        lines.append(
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
    _write(path, rows=lines)


# the columns of the markdown results table: each algorithm's PSNR and SSIM
_TABLE_CELLS = tuple(itertools.product(ALGORITHMS, ("psnr", "ssim")))


def markdown_table(rows: list) -> str:
    """Aggregate table as markdown, 'mean ± std' cells, canonical row order."""
    cells = {(r["band"], r["algorithm"], r["metric"]): r for r in rows}
    header = ["Band"] + [f"{a.capitalize()} {m.upper()}" for a, m in _TABLE_CELLS]
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    for band in BandName:
        line = [band.display]
        for algorithm, metric in _TABLE_CELLS:
            row = cells.get((band.value, algorithm, metric))
            line.append(format_mean_std(row["mean"], row["std"]) if row else "n/a")
        lines.append("| " + " | ".join(line) + " |")
    return "\n".join(lines) + "\n"


def write_plotdata_csv(rows: list, tags: list, path) -> None:
    """One row per band, one mean-PSNR column per preprocessing variant."""
    cells = {(r["band"], r["preprocess"]): r for r in rows if r["metric"] == "psnr"}
    lines = [["band"] + tags]
    for band in BandName:
        row = [band.value]
        for tag in tags:
            cell = cells.get((band.value, tag))
            row.append(_fmt(cell["mean"]) if cell else "")
        lines.append(row)
    _write(path, rows=lines)


def write_report(result: RunResult, fmt: str, path) -> None:
    """Write one of the run's `report_files` formats to `path`."""
    if fmt == "csv":
        write_aggregates_csv(result.aggregate_rows, path)
    elif fmt == "markdown":
        _write(path, markdown_table(result.aggregate_rows))
    else:
        write_plotdata_csv(result.aggregate_rows, result.spec.variant_tags, path)


def emit_report(result: RunResult, out_dir) -> list[Path]:
    """Write an experiment's records, report files and provenance; returns the paths."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out_dir}: {exc}") from exc

    records_path = out_dir / "records.csv"
    write_records_csv(result.records, records_path)
    written = [records_path]
    for fmt, name in result.spec.report_files.items():
        path = out_dir / name
        write_report(result, fmt, path)
        written.append(path)

    provenance_path = out_dir / "provenance.json"
    _write(provenance_path, json.dumps(result.provenance, indent=2, sort_keys=True) + "\n")
    written.append(provenance_path)
    return written


def read_run(records_path) -> RunResult:
    """Read an `emit_report` directory back: records.csv and the provenance.json beside it.

    The grid is the `GRIDS` entry of the provenance's experiment kind. A
    provenance file that names another grid, or a record outside the grid,
    is a `ParamError`.
    """
    records_path = Path(records_path)
    provenance_path = records_path.with_name("provenance.json")
    try:
        provenance = json.loads(provenance_path.read_text())
    except OSError as exc:
        raise IoError(f"cannot read {provenance_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParamError(f"{provenance_path} is not valid JSON: {exc}") from exc
    if not isinstance(provenance, dict):
        raise ParamError(f"{provenance_path}: expected a JSON object")

    try:
        spec = ExperimentSpec(provenance.get("experiment"))
    except ParamError as exc:
        raise ParamError(f"{provenance_path}: {exc}") from exc
    grid = {"algorithms": list(spec.algorithms), "preprocess_variants": spec.variant_tags}
    for key, expected in grid.items():
        if provenance.get(key) != expected:
            raise ParamError(
                f"{provenance_path}: {key} {provenance.get(key)!r} is not the "
                f"{spec.kind} grid's {expected!r}"
            )

    records = read_records_csv(records_path)
    cells = {(b.value, a, t) for b in BandName for a in spec.algorithms for t in spec.variant_tags}
    for r in records:
        if (r.band_name, r.algorithm, r.preprocess_tag) not in cells:
            raise ParamError(
                f"{records_path}: record ({r.image_id}, {r.band_name}, {r.algorithm}, "
                f"{r.preprocess_tag}) is outside the {spec.kind} grid"
            )
    return RunResult(
        spec=spec,
        records=records,
        aggregate_rows=aggregate_records(records, spec),
        provenance=provenance,
    )
