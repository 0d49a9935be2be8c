"""Byte-for-byte lock on the records and aggregates of every experiment."""

from pathlib import Path

import pytest

from coastedge.harness import EXPERIMENT_KINDS, ExperimentSpec, emit_report, run_experiment
from coastedge.synth import SynthSpec, generate_corpus

GOLDEN = Path(__file__).parent / "golden"

# golden directory -> the 3-scene corpus its files were made from (see golden/README.md);
# the noise-free corpora hold NMS near-ties, where neighbouring magnitudes
# differ by less than one ulp
CORPORA = {
    ".": SynthSpec(size=64, seed=0, boundary="sinusoid", noise_sigma=300.0),
    "sigma0/halfplane": SynthSpec(
        size=64, seed=0, boundary="halfplane", noise_sigma=0.0, development_count=2
    ),
    "sigma0/blob": SynthSpec(size=64, seed=0, boundary="blob", noise_sigma=0.0, development_count=2),
}


@pytest.fixture(scope="module")
def golden_corpora(tmp_path_factory):
    return {
        name: generate_corpus(3, spec, tmp_path_factory.mktemp("golden_corpus"))
        for name, spec in CORPORA.items()
    }


@pytest.mark.parametrize(
    "corpus, kind",
    [
        pytest.param(corpus, kind, id=kind if corpus == "." else f"{corpus}/{kind}")
        for corpus in CORPORA
        for kind in EXPERIMENT_KINDS
    ],
)
def test_outputs_match_golden_files(golden_corpora, tmp_path, corpus, kind):
    result = run_experiment(golden_corpora[corpus], ExperimentSpec.for_kind(kind))
    emit_report(result, tmp_path)
    for name in ("records.csv", "aggregates.csv"):
        golden = GOLDEN / corpus / kind / name
        assert (tmp_path / name).read_bytes() == golden.read_bytes(), f"{corpus}/{kind}/{name}"
