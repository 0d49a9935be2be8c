"""Command-line entry point: detect, evaluate, synth and report subcommands.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 evaluate run with
partial cell failures (reports are still written).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .edgedetect import ALGORITHMS, CannyParams, derive_reference, detect
from .errors import CoastEdgeError, CorpusError, IoError, ShapeError
from .metrics import MetricParams, compute_all
from .preprocess import PreprocessSpec, run_pipeline
from .raster import BandName, LabelMask, check_samples, read_npy, read_stack, write_npy, write_pgm

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


# `evaluate --experiment` names, each for one kind of `harness.GRIDS`; "all"
# runs every kind
_EXPERIMENT_KINDS = {"table1": "table1", "equalization": "equalization_ablation", "noise": "noise_ablation"}


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
    p.add_argument("--band", required=True, choices=[b.value for b in BandName], help="canonical band name")
    p.add_argument("--algorithm", choices=ALGORITHMS, default="canny")
    p.add_argument("--out", required=True, help="output edge map path")
    p.add_argument("--format", choices=("npy", "pgm"), default="pgm")
    _add_preprocess_flags(p)
    _add_canny_flags(p)
    _add_metric_flags(p)

    p = sub.add_parser("evaluate", formatter_class=fmt, help="run a benchmark experiment over a corpus")
    p.add_argument("--manifest", required=True, help="corpus manifest JSON")
    p.add_argument("--experiment", choices=(*_EXPERIMENT_KINDS, "all"), default="table1")
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
    p.add_argument("--records", required=True, help="records.csv from an evaluate run, with its provenance.json beside it")
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


def _read_band(path, band_name: BandName) -> np.ndarray:
    """One band of an HxWx12 image stack as checked float64 samples; the rest is not kept."""
    return check_samples(read_stack(path, path)[list(BandName).index(band_name)])


def cmd_detect(args) -> int:
    canny_params, metric_params = _canny_params(args), _metric_params(args)

    samples = _read_band(args.input, BandName(args.band))
    if args.label is not None:
        label = LabelMask(read_npy(args.label))
        if label.values.shape != samples.shape:
            raise ShapeError(
                f"{args.label}: label shape {label.values.shape} != band shape {samples.shape}"
            )

    # the image stack and the band, raw and preprocessed, are freed before
    # scoring, which is the memory peak of this call
    processed = run_pipeline(samples, _preprocess_spec(args))
    del samples
    edges = detect(processed, args.algorithm, canny_params)
    del processed

    if args.format == "pgm":
        write_pgm(edges, args.out)
    else:
        write_npy(edges, args.out)

    if args.label is not None:
        reference = derive_reference(label, canny_params)
        values = compute_all(edges, reference, metric_params)
        print(",".join(repr(values[m]) for m in ("rmse", "psnr", "ssim", "uqi")))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    # every command is a fresh process, so the batch harness and the corpus
    # generator are imported only by the commands that run them
    from .harness import GRIDS, ExperimentSpec, emit_report, markdown_table, run_experiment

    kinds = list(GRIDS) if args.experiment == "all" else [_EXPERIMENT_KINDS[args.experiment]]
    out_base = Path(args.out_dir)
    any_errors = False
    for kind in kinds:
        spec = ExperimentSpec(
            kind,
            base=_preprocess_spec(args),
            canny_params=_canny_params(args),
            metric_params=_metric_params(args),
            worker_count=args.workers,
        )
        out_dir = out_base / kind if len(kinds) > 1 else out_base
        result = run_experiment(args.manifest, spec)
        emit_report(result, out_dir)
        if "markdown" in spec.report_files:
            print(markdown_table(result.aggregate_rows))
        if result.provenance["n_errors"]:
            any_errors = True
            print(
                f"warning: {result.provenance['n_errors']} cell(s) failed in {kind}",
                file=sys.stderr,
            )
    return EXIT_PARTIAL if any_errors else EXIT_OK


def cmd_synth(args) -> int:
    from .synth import SynthSpec, generate_corpus

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
    from .harness import read_run, write_report

    result = read_run(args.records)
    formats = result.spec.report_files
    if args.format not in formats:
        raise CliError(
            f"{args.records}: a {result.spec.kind} run has no {args.format} report "
            f"(it has {', '.join(formats)})"
        )
    write_report(result, args.format, args.out)
    return EXIT_OK


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
    except CoastEdgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
