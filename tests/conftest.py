from dataclasses import dataclass

import numpy as np
import pytest

import valsketch as vs
from valsketch.verify import brute_reference_table, family_invariant_check


@dataclass
class CorpusEntry:
    pipeline: str
    spec: vs.InstanceSpec
    oracle: vs.ValuationOracle
    sketch: vs.Sketch
    truth: np.ndarray
    estimate: np.ndarray


def build_and_check(oracle, card, xos):
    """Build a sketch and insist its structural invariants hold."""
    sketch = vs.build_sketch(oracle, card, xos)
    violations = family_invariant_check(sketch)
    assert violations == [], violations
    return sketch


@pytest.fixture(scope="session")
def corpus():
    """All desk-scale fixtures, sketched once and shared by the suite."""
    entries = []
    for name, spec in vs.standard_fixture_corpus():
        pipeline = vs.get_pipeline(name)
        oracle = spec.build(vs.QueryLedger())
        sketch = build_and_check(oracle, pipeline.card, pipeline.xos)
        entries.append(
            CorpusEntry(
                pipeline=name,
                spec=spec,
                oracle=oracle,
                sketch=sketch,
                truth=brute_reference_table(oracle),
                estimate=vs.evaluate_all(sketch),
            )
        )
    return entries
