#!/usr/bin/env python3
"""coastedge benchmark: seeded synthetic corpora run through the public API.

    python3 perfbench/run.py --workload table1_256 --seed 1 --seconds 30 --trace 0

Builds its corpus with coastedge.synth from --seed, runs the workload's passes
for --seconds, checks every output, and prints one JSON object as the last
line of stdout. With --trace 0 it reports the end-to-end metrics; with
--trace 1 it wraps the package's public functions and reports per-layer self
time and call counts instead. Exits 1 when an output check fails and 2 when
the coastedge sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    return args


def write_spans(path: Path, spans: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("unit", "span_id", "parent_id", "name", "start_ns", "end_ns"))
        for unit, span in spans:
            writer.writerow((unit, *span))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coastedge" / "__init__.py").is_file():
        print(f"error: coastedge sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import coastedge.cli  # noqa: F401  every layer, numpy and scipy

    if Path(coastedge.cli.__file__).resolve().parent != SRC / "coastedge":
        print(f"error: imported coastedge from {coastedge.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    run_dir = WORK / f"run-{os.getpid()}"
    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), run_dir, SRC)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print("identity " + json.dumps(outcome.identity, sort_keys=True))
    for key, digest in sorted(outcome.digests.items()):
        print(f"sha256 {key} {digest}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"metric {name} {value} {unit}")
    for problem in outcome.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()},
    }
    stem = f"{args.workload}-trace{args.trace}"
    report = dict(result, identity=outcome.identity, digests=outcome.digests, problems=outcome.problems, **outcome.detail)
    (WORK / f"{stem}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if outcome.spans:
        write_spans(WORK / f"{stem}.spans.csv", outcome.spans)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
