#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 --out runs.json
    python3 perfbench/spread.py --compare first.json second.json
    python3 perfbench/spread.py --seeds 1-10 --trace --out layers.json

For every workload in BENCHMARK.json it runs perfbench/run.py once per seed,
one run at a time, and prints each end-to-end metric's median and its
quartile spread, (Q3 - Q1) / median from statistics.quantiles(n=4), next to
a third of the metric's bound; it exits 1 if any spread is wider. --compare
checks that the medians of a second set of runs are no worse than the first
by more than each bound. --trace makes traced runs instead and prints each
per-layer metric's median and each function's share of the self time of a
pass.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


# functions that run only while the corpus is generated, not in a pass
SETUP_ONLY = ("synth.generate_corpus", "raster.write_npy")


def run_all(bench: dict, workloads: list, seeds: list, trace: int) -> dict:
    runs = {}
    for workload in workloads:
        runs[workload] = []
        for seed in seeds:
            cmd = bench["command"] + [
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", str(trace),
            ]  # fmt: skip
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 else {}
            if not result.get("correct"):
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            identity = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("identity "))
            runs[workload].append({"identity": identity, **result})
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
    return runs


def summarize(bench: dict, runs: dict) -> dict:
    summary = {}
    for workload, results in runs.items():
        summary[workload] = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            summary[workload][metric["name"]] = {
                "median": median,
                "spread": (q3 - q1) / median,
                "unit": metric["unit"],
            }
    return summary


def print_summary(bench: dict, summary: dict) -> bool:
    steady = True
    for workload, metrics in summary.items():
        for metric in bench["end_to_end"]:
            s = metrics[metric["name"]]
            ok = s["spread"] <= metric["bound"] / 3
            steady &= ok
            print(
                f"{workload:14} {metric['name']:15} median {s['median']:12.6g} {s['unit']:8} "
                f"spread {s['spread']:.4f}  bound/3 {metric['bound'] / 3:.4f}  {'ok' if ok else 'WIDE'}"
            )
    return steady


def summarize_trace(bench: dict, runs: dict) -> dict:
    """Median, min and max of each per-layer metric, and each function's median share of pass self time."""
    summary = {}
    for workload, results in runs.items():
        metrics = {}
        for metric in bench["per_layer"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            metrics[metric["name"]] = {"median": statistics.median(values), "min": min(values), "max": max(values)}
        shares = {}
        for r in results:
            self_s = {
                name[: -len(".self_s")]: m["value"]
                for name, m in r["metrics"].items()
                if name.endswith(".self_s") and name[: -len(".self_s")] not in SETUP_ONLY
            }
            total = sum(self_s.values())
            for fn, value in self_s.items():
                shares.setdefault(fn, []).append(value / total)
        median_share = {fn: statistics.median(v) for fn, v in shares.items()}
        summary[workload] = {
            "metrics": metrics,
            "pass_self_share": dict(sorted(median_share.items(), key=lambda kv: -kv[1])),
        }
    return summary


def print_trace_summary(summary: dict) -> None:
    for workload, s in summary.items():
        m = s["metrics"]
        print(
            f"{workload}: useful_ratio {m['preprocess.run_pipeline.useful_ratio']['median']:.4f}  "
            f"coverage {m['trace.coverage']['min']:.4f}-{m['trace.coverage']['max']:.4f}  "
            f"overhead {m['trace.overhead_frac']['median']:.4f}"
        )
        for fn, share in s["pass_self_share"].items():
            if share >= 0.005:
                print(f"  {fn:40} {share:7.2%}  calls {m[fn + '.calls']['median']:g}")


def compare(bench: dict, first: dict, second: dict) -> bool:
    ok = True
    for workload in first:
        for metric in bench["end_to_end"]:
            a = first[workload][metric["name"]]["median"]
            b = second[workload][metric["name"]]["median"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            passed = worse <= metric["bound"]
            ok &= passed
            print(f"{workload:14} {metric['name']:15} {a:12.6g} -> {b:12.6g}  worse by {worse:+.4f}  {'ok' if passed else 'REGRESSED'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--trace", action="store_true", help="traced runs and per-layer metrics")
    parser.add_argument("--out", default=None, help="write every run and the summary as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"), help="compare two --out files")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.compare:
        first, second = (json.loads(Path(p).read_text())["summary"] for p in args.compare)
        return 0 if compare(bench, first, second) else 1

    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    runs = run_all(bench, workloads, parse_seeds(args.seeds), int(args.trace))
    if args.trace:
        summary = summarize_trace(bench, runs)
        print_trace_summary(summary)
        steady = True
    else:
        summary = summarize(bench, runs)
        steady = print_summary(bench, summary)
    if args.out:
        Path(args.out).write_text(json.dumps({"summary": summary, "runs": runs}, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
