import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import valsketch as vs
from valsketch.errors import SerializationError
from valsketch.instances import MAX_ITEMS, _repair_table


def test_generation_is_deterministic():
    a = vs.generate_instance("coverage", 8, seed=3)
    b = vs.generate_instance("coverage", 8, seed=3)
    assert a == b
    assert a.to_json() == b.to_json()
    assert vs.generate_instance("coverage", 8, seed=4) != a


def test_instance_json_round_trip(tmp_path):
    spec = vs.generate_instance("xos-explicit", 6, seed=9)
    path = tmp_path / "inst.json"
    vs.save_instance(spec, str(path))
    loaded = vs.load_instance(str(path))
    assert loaded == spec
    # same oracle behavior, not just same record
    a, b = spec.build(), loaded.build()
    for mask in range(1 << 6):
        assert a._value(mask) == b._value(mask)


def test_instance_files_take_plain_keys_numbers_and_empty_clauses():
    # the number and key rules refuse strings, bools and non-plain keys, not these
    text = json.dumps({"schema_version": 1, "family": "xos-explicit", "n": 11, "seed": 0,
                       "params": {"clauses": [{}, {"0": 1, "10": 2.5}, {"9": 0}]}})
    oracle = vs.InstanceSpec.from_json(text).build()
    assert oracle._value(1 | 1 << 10) == 3.5 and oracle._value(1 << 9) == 0.0
    for family, n, params in [("additive", 2, {"weights": [0, 2.5]}),
                              ("subadditive-table", 1, {"table": [0, 1.5]}),
                              ("coverage", 1, {"universe": 0, "covers": [[]]})]:
        assert vs.InstanceSpec(family, n, params, 0).build().n == n


def test_xos_clauses_of_one_weight_build_uniform():
    """A clause whose weights are all equal is built as a uniform clause,
    equal to the one AdditiveClause makes from its dict; a bad weight gets
    AdditiveClause's message, naming the item."""
    clauses = [{"0": 2, "3": 2.0}, {"1": 1, "2": 3}, {"4": 5}, {}]
    oracle = vs.InstanceSpec("xos-explicit", 5, {"clauses": clauses}, 0).build()
    assert [c._uniform_weight for c in oracle.clauses] == [2.0, None, 5.0, None]
    assert [c._weights is None for c in oracle.clauses] == [True, False, True, False]
    assert list(oracle.clauses) == [vs.AdditiveClause({int(j): w for j, w in c.items()})
                                    for c in clauses]
    for bad in (-1, -0.5, math.inf, math.nan):
        spec = vs.InstanceSpec("xos-explicit", 5, {"clauses": [{"0": 1}, {"1": bad, "3": bad}]}, 0)
        with pytest.raises(ValueError, match=r"^clause weight for item 1 must be finite and >= 0$"):
            spec.build()


@pytest.mark.parametrize("family", vs.instances.FAMILIES)
def test_build_refuses_a_parameter_the_family_does_not_take(family):
    """An instance builds from exactly the keys its generator writes; an
    extra one is named, never ignored."""
    spec = vs.generate_instance(family, 4, 0)
    assert spec.build().n == 4
    for extra in ("weights", "bogus"):
        if extra in spec.params:
            continue
        bad = vs.InstanceSpec(family, 4, {**spec.params, extra: [1]}, 0)
        with pytest.raises(SerializationError,
                           match=rf"unknown parameters for {family}: \['{extra}'\]"):
            bad.build()


def test_instance_json_rejects_garbage():
    with pytest.raises(SerializationError):
        vs.InstanceSpec.from_json("not json")
    with pytest.raises(SerializationError):
        vs.InstanceSpec.from_json(json.dumps({"schema_version": 1, "family": "additive"}))
    with pytest.raises(SerializationError):
        vs.InstanceSpec.from_json(
            json.dumps({"schema_version": 1, "family": "nope", "n": 3, "seed": 0}))


def test_n_is_bounded_from_both_sides():
    def record(n):
        return json.dumps({"schema_version": 1, "family": "uniform-matroid", "n": n,
                           "seed": 0, "params": {"cap": 1}})

    assert vs.InstanceSpec.from_json(record(MAX_ITEMS)).n == MAX_ITEMS == 65_536
    for n in (0, MAX_ITEMS + 1):
        with pytest.raises(SerializationError, match=f"n={n}"):
            vs.InstanceSpec.from_json(record(n))
        with pytest.raises(ValueError, match=f"n must lie in 1..{MAX_ITEMS}, got {n}"):
            vs.generate_instance("uniform-matroid", n)


def test_unknown_family_and_params_rejected():
    with pytest.raises(ValueError):
        vs.generate_instance("mystery", 4)
    with pytest.raises(ValueError):
        vs.generate_instance("additive", 4, flavor=3)


def test_seed_changes_content():
    seen = {vs.generate_instance("subadditive-table", 6, seed=s).to_json() for s in range(8)}
    assert len(seen) == 8


def test_generators_cover_requested_params():
    spec = vs.generate_instance("coverage", 5, seed=0, universe=7, max_cover=2)
    assert spec.params["universe"] == 7
    assert all(len(c) <= 2 for c in spec.params["covers"])
    spec = vs.generate_instance("partition-matroid", 9, seed=1, block_size=3, cap=2)
    blocks = spec.params["blocks"]
    assert sorted(j for b in blocks for j in b) == list(range(9))
    assert all(len(b) <= 3 for b in blocks)


def test_graphic_edges_stay_in_range():
    spec = vs.generate_instance("graphic-matroid", 10, seed=2)
    v = spec.params["vertices"]
    assert all(0 <= a < v and 0 <= b < v and a != b for a, b in spec.params["edges"])


def test_table_generation_size_guard():
    with pytest.raises(vs.ScaleError):
        vs.generate_instance("subadditive-table", 17, seed=0)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_repair_table_output_is_always_valid(n, data):
    raw = [0.0] + [
        float(data.draw(st.integers(min_value=1, max_value=12), label=f"v{m}"))
        for m in range(1, 1 << n)
    ]
    fixed = _repair_table(np.asarray(raw), n)
    # repaired table must construct cleanly, which runs the full checks
    truth = vs.brute_reference_table(vs.SubadditiveTableValuation(fixed))
    for prop in ("monotone", "subadditive"):
        ok, witness = vs.validate_class(truth, prop)
        assert ok, (prop, witness)
    # singletons have no proper splits, so they survive untouched
    assert all(fixed[1 << j] == raw[1 << j] for j in range(n))


@pytest.mark.parametrize("family, params, name", [
    ("additive", {"low": -1}, "low"),
    ("additive", {"low": 5, "high": 4}, "high"),
    ("coverage", {"universe": 4, "max_cover": 5}, "max_cover"),
    ("coverage", {"max_cover": 0}, "max_cover"),
    ("uniform-matroid", {"cap": -1}, "cap"),
    ("uniform-matroid", {"cap": 2.0}, "cap"),
    ("partition-matroid", {"cap": True}, "cap"),
    ("graphic-matroid", {"vertices": 1}, "vertices"),
    ("xos-explicit", {"support": "3"}, "support"),
    ("xos-explicit", {"uniform": 1}, "uniform"),
    ("subadditive-table", {"high": 0}, "high"),
])
def test_generator_params_checked(family, params, name):
    with pytest.raises(ValueError, match=f"{family} parameter {name} must be"):
        vs.generate_instance(family, 6, **params)
