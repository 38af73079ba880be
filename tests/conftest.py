import base64
import json
import zlib
from dataclasses import dataclass

import numpy as np
import pytest

import valsketch as vs
from valsketch import bitsets
from valsketch.verify import brute_reference_table, family_invariant_check


@dataclass
class CorpusEntry:
    pipeline: str
    spec: vs.InstanceSpec
    oracle: vs.ValuationOracle
    sketch: vs.Sketch
    truth: np.ndarray
    estimate: np.ndarray


def table_bytes(payload):
    """The inflated "bundles" table of a schema v4 payload."""
    return zlib.decompress(base64.b64decode(payload["bundles"]))


def table_entries(payload):
    """The member bundles a schema v4 payload's table holds, in order."""
    raw, width = table_bytes(payload), (payload["n"] + 7) // 8
    return [int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]


def listed_payload(text):
    """The payload of serialize's text in schema v3: the bundles table a
    list of base64 strings, one per entry."""
    payload = json.loads(text)
    payload["bundles"] = list(map(bitsets.to_base64, table_entries(payload)))
    payload["schema_version"] = 3
    return payload


def inline_payload(text, version, spell):
    """The payload of serialize's text in the inline layout of schema v1
    and v2: no bundles table, each member written in its family, and
    every bundle spelled by `spell`, under schema_version `version`."""
    payload = json.loads(text)
    table = table_entries(payload)
    del payload["bundles"]
    payload["schema_version"] = version
    for g in payload["groups"]:
        g["items"] = spell(bitsets.from_base64(g["items"]))
        for f in g["families"]:
            f["members"] = [spell(table[i]) for i in f["members"]]
    return payload


def build_and_check(oracle, card, xos):
    """Build a sketch and insist its structural invariants hold."""
    sketch = vs.build_sketch(oracle, card, xos)
    violations = family_invariant_check(sketch)
    assert violations == [], violations
    return sketch


def sketch_entries(fixtures):
    """A CorpusEntry per (pipeline name, InstanceSpec) pair: built, sketched
    with its invariants checked, and evaluated on every bundle."""
    entries = []
    for name, spec in fixtures:
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


@pytest.fixture(scope="session")
def corpus():
    """All desk-scale fixtures, sketched once and shared by the suite."""
    return sketch_entries(vs.standard_fixture_corpus())


#: the sizes of the exhaustive net: past the corpus's 12, up to VALIDATE_LIMIT
NET_SIZES = (14, 16)


@pytest.fixture(scope="session")
def net():
    """The corpus's four blocks at each of NET_SIZES and seeds
    0..NET_SEEDS-1, as `scripts/verify_corpus.py --sizes 14,16` checks them."""
    return sketch_entries([fixture for n in NET_SIZES for seed in range(vs.pipelines.NET_SEEDS)
                           for fixture in vs.pipelines.corpus_blocks(n, seed)])
