"""Byte-for-byte lock on the records and aggregates of every experiment."""

from pathlib import Path

import pytest

from coastedge.harness import EXPERIMENT_KINDS, ExperimentSpec, emit_report, run_experiment
from coastedge.synth import SynthSpec, generate_corpus

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def golden_corpus(tmp_path_factory):
    spec = SynthSpec(size=64, seed=0, boundary="sinusoid", noise_sigma=300.0)
    return generate_corpus(3, spec, tmp_path_factory.mktemp("golden_corpus"))


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_outputs_match_golden_files(golden_corpus, tmp_path, kind):
    result = run_experiment(golden_corpus, ExperimentSpec.for_kind(kind))
    emit_report(result, tmp_path, formats=("csv",))
    for name in ("records.csv", "aggregates.csv"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / kind / name).read_bytes(), f"{kind}/{name}"
