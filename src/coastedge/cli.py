"""Command-line entry point: detect, evaluate, synth and report subcommands.

`detect` runs one preprocessing variant, chosen with --equalize/--no-equalize
and --noise. `evaluate` takes neither flag: each experiment grid sets
equalization and noise reduction for every variant it runs.

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
from .metrics import MetricParams, PreparedReference, compute_all
from .preprocess import NOISE_REDUCTIONS, PreprocessSpec, run_pipeline
from .raster import BandName, read_band, read_label, write_npy, write_pgm
from .threads import run_beside

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_PARTIAL = 3


class CliError(Exception):
    """A usage error: `main` prints it and exits with `EXIT_USAGE`."""


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so we control exit codes."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


# `evaluate --experiment` names, each for one kind of `harness.GRIDS`; "all"
# runs every kind
_EXPERIMENT_KINDS = {"table1": "table1", "equalization": "equalization_ablation", "noise": "noise_ablation"}


def _add_canny_flags(parser):
    d = CannyParams()
    parser.add_argument("--canny-low", type=float, default=d.low_threshold, help="low hysteresis threshold (normalized 0-255 magnitude)")
    parser.add_argument("--canny-high", type=float, default=d.high_threshold, help="high hysteresis threshold (normalized 0-255 magnitude)")
    parser.add_argument("--canny-smoothing", action=argparse.BooleanOptionalAction, default=d.smoothing, help="internal Gaussian smoothing inside Canny")
    parser.add_argument("--canny-smooth-kernel", type=int, default=d.smooth_kernel_size, help="Canny internal smoothing kernel size")
    parser.add_argument("--canny-smooth-sigma", type=float, default=d.smooth_sigma, help="Canny internal smoothing sigma")


def _add_preprocess_flags(parser):
    d = PreprocessSpec()
    parser.add_argument("--gaussian-kernel", type=int, default=d.gaussian_kernel_size, help="Gaussian blur kernel size")
    parser.add_argument("--gaussian-sigma", type=float, default=d.gaussian_sigma, help="Gaussian blur sigma")
    parser.add_argument("--closing-element", type=int, default=d.closing_element, help="morphological closing element size")


def _add_metric_flags(parser):
    d = MetricParams()
    parser.add_argument("--ssim-window", type=int, default=d.ssim_window, help="SSIM Gaussian window size")
    parser.add_argument("--ssim-sigma", type=float, default=d.ssim_sigma, help="SSIM Gaussian window sigma")
    parser.add_argument("--uqi-window", type=int, default=d.uqi_window, help="UQI uniform window size")


def _add_detect_arguments(p):
    p.add_argument("--input", required=True, help="image NPY (HxWx12, canonical band order)")
    p.add_argument("--label", default=None, help="optional binary label NPY; prints metrics when given")
    p.add_argument("--band", required=True, choices=[b.value for b in BandName], help="canonical band name")
    p.add_argument("--algorithm", choices=ALGORITHMS, default="canny")
    p.add_argument("--out", required=True, help="output edge map path")
    p.add_argument("--format", choices=("npy", "pgm"), default="pgm")
    d = PreprocessSpec()
    p.add_argument("--equalize", action=argparse.BooleanOptionalAction, default=d.equalize, help="histogram equalization after scaling")
    p.add_argument("--noise", choices=NOISE_REDUCTIONS, default=d.noise_reduction, help="noise reduction method")
    _add_preprocess_flags(p)
    _add_canny_flags(p)
    _add_metric_flags(p)


def _add_evaluate_arguments(p):
    p.add_argument("--manifest", required=True, help="corpus manifest JSON")
    p.add_argument("--experiment", choices=(*_EXPERIMENT_KINDS, "all"), default="table1")
    p.add_argument("--out-dir", required=True, help="report output directory")
    p.add_argument("--workers", type=int, default=1, help="parallel image workers")
    _add_preprocess_flags(p)
    _add_canny_flags(p)
    _add_metric_flags(p)


def _add_synth_arguments(p):
    from .synth import BOUNDARY_KINDS, SynthSpec

    d = SynthSpec()
    p.add_argument("--n", type=int, required=True, help="number of scenes")
    p.add_argument("--size", type=int, default=d.size, help="scene side length in pixels")
    p.add_argument("--seed", type=int, default=d.seed, help="base seed; scene i uses seed+i")
    p.add_argument("--boundary", choices=BOUNDARY_KINDS, default=d.boundary)
    p.add_argument("--noise-sigma", type=float, default=d.noise_sigma, help="per-pixel Gaussian noise sigma (raw scale)")
    p.add_argument("--contrast", type=float, default=d.contrast, help="land/water contrast compression factor in (0,1]")
    p.add_argument("--development", type=int, default=d.development_count, help="number of high-intensity development rectangles")
    p.add_argument("--development-size", type=int, default=d.development_size, help="development rectangle side length")
    p.add_argument("--out-dir", required=True, help="corpus output directory")


def _add_report_arguments(p):
    p.add_argument("--records", required=True, help="records.csv from an evaluate run, with its provenance.json beside it")
    p.add_argument("--format", choices=("markdown", "csv", "plotdata"), default="csv")
    p.add_argument("--out", required=True, help="output file path")


def build_parser(argv) -> _Parser:
    """The parser for `argv`: every subcommand is listed, only the one `argv` runs has arguments.

    Every command is a fresh process, which never needs the other three
    subcommands' arguments: building them took about a third of a `detect`
    parse. The top-level parser has no option that takes a value, so the
    first word of `argv` that is not an option is the subcommand argparse
    will run.
    """
    command = next((word for word in argv if not word.startswith("-")), None)
    parser = _Parser(prog="coastedge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, add_arguments) in _COMMANDS.items():
        p = sub.add_parser(name, formatter_class=argparse.ArgumentDefaultsHelpFormatter, help=help_text)
        if name == command:
            add_arguments(p)
    return parser


def _canny_params(args) -> CannyParams:
    return CannyParams(
        low_threshold=args.canny_low,
        high_threshold=args.canny_high,
        smoothing=args.canny_smoothing,
        smooth_kernel_size=args.canny_smooth_kernel,
        smooth_sigma=args.canny_smooth_sigma,
    )


def _preprocess_spec(args, **variant) -> PreprocessSpec:
    """The size flags' spec; `variant` sets equalization and noise reduction, else they default."""
    return PreprocessSpec(
        gaussian_kernel_size=args.gaussian_kernel,
        gaussian_sigma=args.gaussian_sigma,
        closing_element=args.closing_element,
        **variant,
    )


def _metric_params(args) -> MetricParams:
    return MetricParams(
        ssim_window=args.ssim_window,
        ssim_sigma=args.ssim_sigma,
        uqi_window=args.uqi_window,
    )


def cmd_detect(args) -> int:
    canny_params, metric_params = _canny_params(args), _metric_params(args)
    samples = read_band(args.input, BandName(args.band))

    def band_edges() -> np.ndarray:
        # the band, raw and preprocessed, is freed before scoring, which is
        # the memory peak of this call
        nonlocal samples
        processed = run_pipeline(
            samples, _preprocess_spec(args, equalize=args.equalize, noise_reduction=args.noise)
        )
        samples = None
        edges = detect(processed, args.algorithm, canny_params)
        del processed
        if args.format == "pgm":
            write_pgm(edges, args.out)
        else:
            write_npy(edges, args.out)
        return edges

    if args.label is None:
        band_edges()
        return EXIT_OK

    label = read_label(args.label, args.label)
    if label.values.shape != samples.shape:
        raise ShapeError(f"{args.label}: label shape {label.values.shape} != band shape {samples.shape}")

    def prepared_reference() -> PreparedReference:
        reference = PreparedReference(derive_reference(label, canny_params), metric_params)
        reference.window_stats  # built on this thread too; a window fault is raised after the band's
        return reference

    # The reference needs the label alone, so it is built on the second core
    # while this thread preprocesses, detects and writes the band. Errors show
    # in the serial order: the band's, then the output file's, then the
    # reference's.
    edges, reference = run_beside(prepared_reference, band_edges)
    values = compute_all(edges, reference)
    print(",".join(repr(values[m]) for m in ("rmse", "psnr", "ssim", "uqi")))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    # every command is a fresh process, so the batch harness and the corpus
    # generator are imported only by the commands that run them
    from .harness import GRIDS, ExperimentSpec, emit_report, markdown_table, run_experiments

    kinds = list(GRIDS) if args.experiment == "all" else [_EXPERIMENT_KINDS[args.experiment]]
    specs = [
        ExperimentSpec(kind, _preprocess_spec(args), _canny_params(args), _metric_params(args), args.workers)
        for kind in kinds
    ]
    out_base = Path(args.out_dir)
    any_errors = False
    for result in run_experiments(args.manifest, specs):
        kind = result.spec.kind
        emit_report(result, out_base / kind if len(kinds) > 1 else out_base)
        if "markdown" in result.spec.report_files:
            table = markdown_table(result.aggregate_rows) + "\n"
            buffer = getattr(sys.stdout, "buffer", None)
            if buffer is None:  # a text-only stream, such as io.StringIO
                sys.stdout.write(table)
            else:
                # UTF-8 in any locale, like table1.md: the table has a ±
                sys.stdout.flush()
                buffer.write(table.encode("utf-8"))
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


# name: (command, help line, argument builder)
_COMMANDS = {
    "detect": (cmd_detect, "detect edges on one band of an image chip", _add_detect_arguments),
    "evaluate": (cmd_evaluate, "run a benchmark experiment over a corpus", _add_evaluate_arguments),
    "synth": (cmd_synth, "generate a seeded synthetic corpus", _add_synth_arguments),
    "report": (cmd_report, "re-aggregate an existing records CSV", _add_report_arguments),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv).parse_args(argv)
        return _COMMANDS[args.command][0](args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except (IoError, CorpusError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CoastEdgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
