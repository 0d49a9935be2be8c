"""Byte-for-byte lock on the records and aggregates of every experiment."""

from pathlib import Path

import pytest

from coastedge.harness import GRIDS, ExperimentSpec, emit_report, run_experiment
from coastedge.synth import SynthSpec, generate_corpus

GOLDEN = Path(__file__).parent / "golden"

# golden directory -> the corpus its files were made from, its scene count and
# the experiments locked on it (see golden/README.md); the noise-free corpora
# hold NMS near-ties, where neighbouring magnitudes differ by less than one
# ulp, and the 256² scene locks the path where a row holds many windows
CORPORA = {
    ".": (SynthSpec(size=64, seed=0, boundary="sinusoid", noise_sigma=300.0), 3, tuple(GRIDS)),
    "sigma0/halfplane": (
        SynthSpec(size=64, seed=0, boundary="halfplane", noise_sigma=0.0, development_count=2),
        3,
        tuple(GRIDS),
    ),
    "sigma0/blob": (
        SynthSpec(size=64, seed=0, boundary="blob", noise_sigma=0.0, development_count=2),
        3,
        tuple(GRIDS),
    ),
    "size256": (SynthSpec(size=256, seed=1000, boundary="sinusoid", noise_sigma=300.0), 1, ("table1",)),
}


@pytest.fixture(scope="module")
def golden_corpora(tmp_path_factory):
    return {
        name: generate_corpus(count, spec, tmp_path_factory.mktemp("golden_corpus"))
        for name, (spec, count, _) in CORPORA.items()
    }


@pytest.mark.parametrize(
    "corpus, kind",
    [
        pytest.param(corpus, kind, id=kind if corpus == "." else f"{corpus}/{kind}")
        for corpus, (_, _, kinds) in CORPORA.items()
        for kind in kinds
    ],
)
def test_outputs_match_golden_files(golden_corpora, tmp_path, corpus, kind):
    result = run_experiment(golden_corpora[corpus], ExperimentSpec.for_kind(kind))
    emit_report(result, tmp_path)
    for name in ("records.csv", "aggregates.csv"):
        golden = GOLDEN / corpus / kind / name
        assert (tmp_path / name).read_bytes() == golden.read_bytes(), f"{corpus}/{kind}/{name}"
