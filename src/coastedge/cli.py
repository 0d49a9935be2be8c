"""Command-line entry point: detect, evaluate, synth and report subcommands.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 evaluate run with
partial cell failures (reports are still written).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .edgedetect import ALGORITHMS, CannyParams, detect
from .errors import CoastEdgeError, CorpusError, IoError
from .harness import (
    ExperimentSpec,
    aggregate_records,
    derive_reference,
    emit_report,
    markdown_table,
    read_records_csv,
    run_experiment,
    write_aggregates_csv,
    write_plotdata_csv,
    RunResult,
)
from .metrics import MetricParams, compute_all
from .preprocess import PreprocessSpec, run_pipeline
from .raster import Band, BandName, LabelMask, read_npy, write_npy, write_pgm
from .synth import SynthSpec, generate_corpus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_PARTIAL = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so we control exit codes."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def _add_canny_flags(parser):
    parser.add_argument("--canny-low", type=float, default=50.0, help="low hysteresis threshold (normalized 0-255 magnitude)")
    parser.add_argument("--canny-high", type=float, default=150.0, help="high hysteresis threshold (normalized 0-255 magnitude)")
    parser.add_argument("--canny-smoothing", action=argparse.BooleanOptionalAction, default=True, help="internal Gaussian smoothing inside Canny")
    parser.add_argument("--canny-smooth-kernel", type=int, default=5, help="Canny internal smoothing kernel size")
    parser.add_argument("--canny-smooth-sigma", type=float, default=1.4, help="Canny internal smoothing sigma")


def _add_preprocess_flags(parser):
    parser.add_argument("--equalize", action=argparse.BooleanOptionalAction, default=True, help="histogram equalization after scaling")
    parser.add_argument("--noise", choices=("none", "gaussian", "closing"), default="gaussian", help="noise reduction method")
    parser.add_argument("--gaussian-kernel", type=int, default=5, help="Gaussian blur kernel size")
    parser.add_argument("--gaussian-sigma", type=float, default=1.0, help="Gaussian blur sigma")
    parser.add_argument("--closing-element", type=int, default=3, help="morphological closing element size")


def _add_metric_flags(parser):
    parser.add_argument("--ssim-window", type=int, default=11, help="SSIM Gaussian window size")
    parser.add_argument("--ssim-sigma", type=float, default=1.5, help="SSIM Gaussian window sigma")
    parser.add_argument("--uqi-window", type=int, default=8, help="UQI uniform window size")


def build_parser() -> _Parser:
    parser = _Parser(prog="coastedge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("detect", formatter_class=fmt, help="detect edges on one band of an image chip")
    p.add_argument("--input", required=True, help="image NPY (HxWx12, canonical band order)")
    p.add_argument("--label", default=None, help="optional binary label NPY; prints metrics when given")
    p.add_argument("--band", required=True, help="canonical band name, e.g. CoastalAerosol")
    p.add_argument("--algorithm", choices=ALGORITHMS, default="canny")
    p.add_argument("--out", required=True, help="output edge map path")
    p.add_argument("--format", choices=("npy", "pgm"), default="pgm")
    _add_preprocess_flags(p)
    _add_canny_flags(p)
    _add_metric_flags(p)

    p = sub.add_parser("evaluate", formatter_class=fmt, help="run a benchmark experiment over a corpus")
    p.add_argument("--manifest", required=True, help="corpus manifest JSON")
    p.add_argument("--experiment", choices=("table1", "equalization", "noise", "all"), default="table1")
    p.add_argument("--out-dir", required=True, help="report output directory")
    p.add_argument("--workers", type=int, default=1, help="parallel image workers")
    _add_preprocess_flags(p)
    _add_canny_flags(p)
    _add_metric_flags(p)

    p = sub.add_parser("synth", formatter_class=fmt, help="generate a seeded synthetic corpus")
    p.add_argument("--n", type=int, required=True, help="number of scenes")
    p.add_argument("--size", type=int, default=256, help="scene side length in pixels")
    p.add_argument("--seed", type=int, default=0, help="base seed; scene i uses seed+i")
    p.add_argument("--boundary", choices=("halfplane", "sinusoid", "blob"), default="sinusoid")
    p.add_argument("--noise-sigma", type=float, default=100.0, help="per-pixel Gaussian noise sigma (raw scale)")
    p.add_argument("--contrast", type=float, default=1.0, help="land/water contrast compression factor in (0,1]")
    p.add_argument("--development", type=int, default=0, help="number of high-intensity development rectangles")
    p.add_argument("--development-size", type=int, default=8, help="development rectangle side length")
    p.add_argument("--out-dir", required=True, help="corpus output directory")

    p = sub.add_parser("report", formatter_class=fmt, help="re-aggregate an existing records CSV")
    p.add_argument("--records", required=True, help="records.csv from an evaluate run")
    p.add_argument("--format", choices=("markdown", "csv", "plotdata"), default="csv")
    p.add_argument("--out", required=True, help="output file path")

    return parser


def _canny_params(args) -> CannyParams:
    return CannyParams(
        low_threshold=args.canny_low,
        high_threshold=args.canny_high,
        smoothing=args.canny_smoothing,
        smooth_kernel_size=args.canny_smooth_kernel,
        smooth_sigma=args.canny_smooth_sigma,
    )


def _preprocess_spec(args) -> PreprocessSpec:
    return PreprocessSpec(
        equalize=args.equalize,
        noise_reduction=args.noise,
        gaussian_kernel_size=args.gaussian_kernel,
        gaussian_sigma=args.gaussian_sigma,
        closing_element=args.closing_element,
    )


def _metric_params(args) -> MetricParams:
    return MetricParams(
        ssim_window=args.ssim_window,
        ssim_sigma=args.ssim_sigma,
        uqi_window=args.uqi_window,
    )


def _read_band(path, band_name: BandName) -> Band:
    """One band of an HxWx12 image stack; the rest of the stack is not kept."""
    image = read_npy(path)
    if image.ndim != 3 or image.shape[2] != 12:
        raise CliError(f"{path}: expected an HxWx12 image stack, got shape {image.shape}")
    index = list(BandName).index(band_name)
    return Band(name=band_name, samples=image[:, :, index].astype(np.float64))


def cmd_detect(args) -> int:
    try:
        band_name = BandName.from_string(args.band)
    except ValueError as exc:
        raise CliError(str(exc))

    canny_params, metric_params = _canny_params(args), _metric_params(args)

    # the image stack and the preprocessed band are freed before scoring,
    # which is the memory peak of this call
    processed = run_pipeline(_read_band(args.input, band_name).samples, _preprocess_spec(args))
    edges = detect(processed, args.algorithm, canny_params)
    del processed

    if args.format == "pgm":
        write_pgm(edges, args.out)
    else:
        write_npy(edges.values, args.out)

    if args.label is not None:
        label = LabelMask(read_npy(args.label))
        reference = derive_reference(label, canny_params)
        values = compute_all(edges, reference, metric_params)
        print(",".join(repr(values[m]) for m in ("rmse", "psnr", "ssim", "uqi")))
    return EXIT_OK


_EXPERIMENT_ALIASES = {
    "table1": ["table1"],
    "equalization": ["equalization_ablation"],
    "noise": ["noise_ablation"],
    "all": ["table1", "equalization_ablation", "noise_ablation"],
}


def cmd_evaluate(args) -> int:
    kinds = _EXPERIMENT_ALIASES[args.experiment]
    out_base = Path(args.out_dir)
    any_errors = False
    for kind in kinds:
        spec = ExperimentSpec.for_kind(
            kind,
            base=_preprocess_spec(args),
            canny_params=_canny_params(args),
            metric_params=_metric_params(args),
            worker_count=args.workers,
        )
        out_dir = out_base / kind if len(kinds) > 1 else out_base
        result = run_experiment(args.manifest, spec)
        emit_report(result, out_dir)
        if kind == "table1":
            print(markdown_table(result.aggregate_rows, spec.algorithms))
        if result.provenance["n_errors"]:
            any_errors = True
            print(
                f"warning: {result.provenance['n_errors']} cell(s) failed in {kind}",
                file=sys.stderr,
            )
    return EXIT_PARTIAL if any_errors else EXIT_OK


def cmd_synth(args) -> int:
    spec = SynthSpec(
        size=args.size,
        seed=args.seed,
        boundary=args.boundary,
        noise_sigma=args.noise_sigma,
        contrast=args.contrast,
        development_count=args.development,
        development_size=args.development_size,
    )
    manifest = generate_corpus(args.n, spec, args.out_dir)
    print(manifest)
    return EXIT_OK


def cmd_report(args) -> int:
    records = read_records_csv(args.records)
    tags, algorithms = [], []
    for r in records:
        if r.preprocess_tag not in tags:
            tags.append(r.preprocess_tag)
        if r.algorithm not in algorithms:
            algorithms.append(r.algorithm)
    algorithms = [a for a in ALGORITHMS if a in algorithms] or list(ALGORITHMS)

    # reconstruct a spec shell just to drive canonical aggregation ordering
    kind = "table1" if len(tags) <= 1 else (
        "equalization_ablation" if len(tags) == 2 else "noise_ablation"
    )
    variants = tuple(_spec_from_tag(tag) for tag in tags) or (PreprocessSpec(),)
    spec = ExperimentSpec(kind=kind, algorithms=tuple(algorithms), preprocess_variants=variants)
    rows = aggregate_records(records, spec)

    if args.format == "csv":
        write_aggregates_csv(rows, args.out)
    elif args.format == "markdown":
        Path(args.out).write_text(markdown_table(rows, tuple(algorithms)))
    else:
        result = RunResult(spec=spec, records=records, aggregate_rows=rows, provenance={})
        write_plotdata_csv(result, args.out)
    return EXIT_OK


def _spec_from_tag(tag: str) -> PreprocessSpec:
    try:
        eq_part, noise_part = tag.split(",")
        equalize = eq_part.split("=")[1] == "on"
        noise = noise_part.split("=")[1]
        return PreprocessSpec(equalize=equalize, noise_reduction=noise)
    except (ValueError, IndexError) as exc:
        raise CliError(f"unrecognized preprocess tag {tag!r} in records") from exc


_COMMANDS = {
    "detect": cmd_detect,
    "evaluate": cmd_evaluate,
    "synth": cmd_synth,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except (IoError, CorpusError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (CoastEdgeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
