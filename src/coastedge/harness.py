"""Benchmark harness: experiment grids, per-scene scoring, report emission.

Runs three experiment shapes over any corpus described by a manifest:
the full band x algorithm results table, the histogram-equalization
ablation and the noise-reduction ablation. Scenes come from
`raster.load_scene` and their reference edges from
`edgedetect.derive_reference`. Each cell is scored by `run_cell` from its
record key and the scene's prepared reference. A scene that fails to load
gives its `CoastEdgeError` in every cell's record; past that, only a chip
too small for a kernel (`KernelTooLarge`) or a window (`WindowError`) gives
an error record, and anything else is a bug and propagates. Several
experiments run in one pass over the corpus (`evaluate --experiment all`):
each scene is loaded and its reference prepared once, and a cell that
several grids share is scored once. Only `evaluate` and `report` import
this module.
"""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import io
import itertools
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .edgedetect import ALGORITHMS, CannyParams, derive_reference, detect
from .errors import CoastEdgeError, CorpusError, IoError, KernelTooLarge, ParamError, WindowError
from .metrics import METRIC_NAMES, MetricParams, MetricRecord, PreparedReference, compute_all
from .preprocess import PreprocessSpec, run_pipeline
from .raster import BandName, load_manifest, load_scene, read_file, write_file

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
    """One experiment: its kind's grid, run from a base preprocessing spec.

    Each variant of the grid replaces the base's equalization and noise
    reduction, so only its kernel, sigma and closing element act.
    """

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

    @property
    def cells(self) -> dict:
        """Each (band, algorithm, preprocessing tag) of the grid -> its rank in canonical record order."""
        grid = itertools.product([b.value for b in BandName], self.algorithms, self.variant_tags)
        return {cell: rank for rank, cell in enumerate(grid)}


@dataclass(frozen=True)
class RunResult:
    """All records and aggregates of one experiment, plus provenance."""

    spec: ExperimentSpec
    records: list
    aggregate_rows: list  # dicts: band, algorithm, preprocess, metric, mean, ...
    provenance: dict


def _error_record(key: tuple, exc: Exception) -> MetricRecord:
    return MetricRecord(*key, error=f"{type(exc).__name__}: {exc}")


def run_cell(key: tuple, reference: PreparedReference, edges: np.ndarray) -> MetricRecord:
    """Score one cell's edge plane against the scene's reference.

    `key` is the record's first four fields (image id, band name, algorithm,
    preprocessing tag), `edges` the 2D edge map detected for the cell and
    `reference` the scene's prepared reference edges, scored with its own
    `params`. A chip smaller than a window gives a record with the error
    field set, so it cannot abort a corpus run; any other fault is a bug.
    """
    try:
        values = compute_all(edges, reference)
    except WindowError as exc:
        return _error_record(key, exc)
    return MetricRecord(*key, **values)


# Bands are preprocessed and detected in chunks of at most this many pixels and
# at least one band: 6 bands of a 64x64 scene, 1 of a 256x256 one. One call per
# chunk saves numpy's per-call cost on small chips; a bigger chunk only holds
# more temporaries at once (12 bands of 64x64 ran no faster than 6).
_CHUNK_PIXELS = 24_576


def _cell(record: MetricRecord) -> tuple:
    return (record.band_name, record.algorithm, record.preprocess_tag)


def _scene_records(entry: dict, specs: list[ExperimentSpec]) -> list[MetricRecord]:
    """The cells of every grid in `specs` for one corpus image (the parallel work unit).

    The scene is loaded and its reference derived and prepared once. Its
    band stack is run in chunks of bands: each chunk is preprocessed once per
    variant of any grid and detected once per algorithm any grid runs on
    that variant, each stage treating every band on its own, and each cell
    is then scored alone against the prepared reference.
    """
    spec = specs[0]  # the specs share every parameter but their kind
    algorithms_of = {}
    for s in specs:
        for variant in s.preprocess_variants:
            algorithms_of.setdefault(variant, set()).update(s.algorithms)
    runs = {variant: [a for a in ALGORITHMS if a in names] for variant, names in algorithms_of.items()}
    bands = [b.value for b in BandName]
    try:
        scene = load_scene(entry)
        reference = PreparedReference(
            derive_reference(scene.label, spec.canny_params), spec.metric_params
        )
    except CoastEdgeError as exc:
        return [
            _error_record((entry["id"], band, algorithm, variant.tag), exc)
            for band in bands
            for variant, algorithms in runs.items()
            for algorithm in algorithms
        ]

    per_chunk = max(1, _CHUNK_PIXELS // scene.label.values.size)
    records = []
    for start in range(0, len(bands), per_chunk):
        chunk = bands[start : start + per_chunk]
        for variant, algorithms in runs.items():
            try:
                processed = run_pipeline(scene.stack[start : start + per_chunk], variant)
            except KernelTooLarge as exc:
                records += [_error_record((scene.id, b, a, variant.tag), exc) for b in chunk for a in algorithms]
                continue
            for algorithm in algorithms:
                try:
                    edges = detect(processed, algorithm, spec.canny_params)
                except KernelTooLarge as exc:
                    records += [_error_record((scene.id, b, algorithm, variant.tag), exc) for b in chunk]
                    continue
                for band, plane in zip(chunk, edges):
                    records.append(run_cell((scene.id, band, algorithm, variant.tag), reference, plane))
    return records


def corpus_hash(manifest_path) -> str:
    """SHA-256 over the manifest's bytes and those of every file it references.

    Each file is preceded by its entry id, key and size; a file that cannot
    be read counts with size -1 and no bytes.
    """
    digest = hashlib.sha256(read_file(manifest_path))
    for entry in load_manifest(manifest_path):
        for key in ("image", "label"):
            try:
                data = read_file(entry[key])
            except IoError:
                digest.update(f"{entry['id']}:{key}:-1".encode())
                continue
            digest.update(f"{entry['id']}:{key}:{len(data)}".encode())
            digest.update(data)
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


def run_experiments(manifest_path, specs) -> list[RunResult]:
    """Execute several experiment grids in one pass over a corpus; one result per spec.

    The specs must differ in their kind alone. The map over images is
    embarrassingly parallel; each spec's records are picked from the pass and
    sorted canonically before aggregation, so each result is byte-identical
    to a run of its spec alone, for any worker count.
    """
    specs = list(specs)
    spec = specs[0]
    if any(replace(s, kind=spec.kind) != spec for s in specs):
        raise ParamError("experiments run in one pass must share every parameter but their kind")
    manifest_path = Path(manifest_path)
    entries = load_manifest(manifest_path)
    # a pool starts all its workers at once, so it gets no more than one per scene
    workers = min(spec.worker_count, len(entries))
    records = []
    if workers <= 1:
        for entry in entries:
            records.extend(_scene_records(entry, specs))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk in pool.map(_scene_records, entries, [specs] * len(entries)):
                records.extend(chunk)

    digest = corpus_hash(manifest_path)
    results = []
    for spec in specs:
        rank = spec.cells
        own = [r for r in records if _cell(r) in rank]
        own.sort(key=lambda r: (r.image_id, rank[_cell(r)]))
        provenance = {
            "experiment": spec.kind,
            "algorithms": list(spec.algorithms),
            "preprocess_variants": spec.variant_tags,
            "preprocess_params": [asdict(v) for v in spec.preprocess_variants],
            "canny": asdict(spec.canny_params),
            "metric_params": asdict(spec.metric_params),
            "corpus_hash": digest,
            "n_images": len(entries),
            "n_records": len(own),
            "n_errors": sum(1 for r in own if r.error),
            "toolkit_version": __version__,
        }
        results.append(RunResult(spec, own, aggregate_records(own, spec), provenance))
    return results


def run_experiment(manifest_path, spec: ExperimentSpec) -> RunResult:
    """Execute one experiment grid over a corpus: `run_experiments` of one spec."""
    return run_experiments(manifest_path, [spec])[0]


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
    return repr(float(x))


def format_mean_std(mean: float, std: float) -> str:
    """'13.2 ± 2' style: mean to 1 decimal, std to 1 significant figure."""
    if not math.isfinite(mean):
        return "n/a"
    mean_s = f"{round(mean, 1) + 0.0:.1f}"  # + 0.0 turns a -0.0 into 0.0
    if mean_s.endswith(".0"):
        mean_s = mean_s[:-2]
    if not math.isfinite(std) or std == 0:
        std_s = "0"
    else:
        exponent = math.floor(math.log10(abs(std)))
        std_s = f"{round(std, -exponent):g}"
    return f"{mean_s} ± {std_s}"


def _write_csv(path, rows) -> None:
    """Write `rows` to `path` as CSV lines ending in CR LF."""
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    write_file(path, text.getvalue())


def write_records_csv(records: list, path) -> None:
    rows = [RECORD_COLUMNS]
    for r in records:
        if r.error:
            metric_cells = ["", "", "", ""]
        else:
            metric_cells = [_fmt(r.rmse), _fmt(r.psnr), _fmt(r.ssim), _fmt(r.uqi)]
        rows.append([r.image_id, r.band_name, r.algorithm, r.preprocess_tag, *metric_cells, r.error])
    _write_csv(path, rows)


def read_records_csv(path) -> list:
    """Parse a records CSV back into MetricRecord objects (exact floats).

    Bytes that are not UTF-8, or a wrong header, row length or metric cell,
    or a line the csv module cannot split, are a `CorpusError` naming the
    file and, for a row, its line number.
    """
    try:
        text = read_file(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: records CSV is not UTF-8: {exc}") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    records = []
    try:
        header = next(reader, None)
        if header is None or tuple(header) != RECORD_COLUMNS:
            raise CorpusError(f"{path}: unexpected records CSV header {header}")
        for row in reader:
            if len(row) != len(RECORD_COLUMNS):
                raise CorpusError(f"{path}: row {reader.line_num}: malformed row {row}")
            try:
                metrics = [float(cell) if cell else math.nan for cell in row[4:8]]
            except ValueError as exc:
                raise CorpusError(f"{path}: row {reader.line_num}: {exc}") from exc
            records.append(MetricRecord(*row[:4], *metrics, error=row[8]))
    except csv.Error as exc:  # a line the csv module cannot split, such as an over-long field
        raise CorpusError(f"{path}: row {reader.line_num}: {exc}") from exc
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
    _write_csv(path, lines)


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
    _write_csv(path, lines)


def write_report(result: RunResult, fmt: str, path) -> None:
    """Write one of the run's `report_files` formats to `path`."""
    if fmt == "csv":
        write_aggregates_csv(result.aggregate_rows, path)
    elif fmt == "markdown":
        write_file(path, markdown_table(result.aggregate_rows))
    else:
        write_plotdata_csv(result.aggregate_rows, result.spec.variant_tags, path)


def emit_report(result: RunResult, out_dir) -> None:
    """Write an experiment's records, report files and provenance into `out_dir`."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out_dir}: {exc}") from exc

    write_records_csv(result.records, out_dir / "records.csv")
    for fmt, name in result.spec.report_files.items():
        write_report(result, fmt, out_dir / name)
    write_file(out_dir / "provenance.json", json.dumps(result.provenance, indent=2, sort_keys=True) + "\n")


def read_run(records_path) -> RunResult:
    """Read an `emit_report` directory back: records.csv and the provenance.json beside it.

    The grid is the `GRIDS` entry of the provenance's experiment kind. A
    provenance file that names another grid, or a record outside the grid,
    is a `ParamError`.
    """
    records_path = Path(records_path)
    provenance_path = records_path.with_name("provenance.json")
    try:
        provenance = json.loads(read_file(provenance_path).decode("utf-8"))
    except ValueError as exc:  # bytes that are not UTF-8, or text that is not JSON
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
    cells = spec.cells
    for r in records:
        if _cell(r) not in cells:
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
