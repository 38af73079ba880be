"""Construction, evaluation, and serialization of sketches.

The n = 4 free matroid trace below was worked out by hand: with exact
maximization and marginal clauses, the only surviving cells are
(k=2, r=2) with the two halves, and (k=4, r in {1, 2}) with the full
set, and the estimate of the full bundle is exactly 2.
"""

import dataclasses
import hashlib
import json
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import valsketch as vs
from valsketch import bitsets
from valsketch import sketch as sketch_module
from valsketch.cardinality import card_demand_price_grid, greedy_threshold_steps
from valsketch.errors import SerializationError
from valsketch.sketch import GridParams, _estimates, well_bounded_partition
from valsketch.valuations import OracleView

from conftest import build_and_check

seeds = st.integers(min_value=0, max_value=2_000)

#: the build workloads of perfbench/workloads.py at instance seed 0, as
#: (pipeline, family, n, params): matroid-value, coverage-greedy, xos-demand
PERFBENCH_RECIPES = [
    ("matroid", "partition-matroid", 512, {"block_size": 4, "cap": 1}),
    ("submodular", "coverage", 512, {"universe": 1024, "max_cover": 6}),
    ("subadditive", "xos-explicit", 2048, {"clauses": 24, "support": 256, "uniform": True}),
]


def _build_recipe(name, family, n, params):
    """(oracle, sketch) for one perfbench recipe at instance seed 0."""
    pipeline = vs.get_pipeline(name)
    oracle = vs.generate_instance(family, n, 0, **params).build(vs.QueryLedger())
    return oracle, vs.build_sketch(oracle, pipeline.card, pipeline.xos)


def _loop_estimate(sketch, bundle):
    """Reference estimate: the per-member loop `evaluate` ran before the
    compiled table, kept to check the kernel bit for bit."""
    best = 0.0
    for j in bitsets.iter_items(bundle):
        if sketch.singletons[j] > best:
            best = sketch.singletons[j]
    for group in sketch.groups:
        for fam in group.families:
            unit = fam.r / (4.0 * group.alpha * group.beta_certified) * group.scale
            for member in fam.members:
                hits = (member & bundle).bit_count()
                if hits and hits * unit > best:
                    best = hits * unit
    return best


def _sampled_bundles(sketch, count, rng):
    """Bundles drawn as perfbench draws them (random bundles of log-uniform
    size, stored members, prefixes of members), then the empty and the
    full bundle."""
    n = sketch.n
    members = [m for g in sketch.groups for f in g.families for m in f.members]
    members = members or [1 << j for j in range(n)]
    out = []
    for i in range(count):
        if i % 3 == 0:
            size = min(n, max(1, int(math.exp(rng.random() * math.log(n + 1)))))
            bundle = bitsets.from_items(rng.sample(range(n), size))
        else:
            bundle = rng.choice(members)
            if i % 3 == 2:
                items = list(bitsets.iter_items(bundle))
                bundle = bitsets.from_items(items[:rng.randint(1, len(items))])
        out.append(bundle)
    return out + [0, bitsets.full_mask(n)]


def assert_matches_loop(sketch, bundles):
    """evaluate, one by one and as one batch through the kernel, equals
    the reference loop exactly."""
    expected = [_loop_estimate(sketch, b) for b in bundles]
    assert [vs.evaluate(sketch, b) for b in bundles] == expected
    batch = _estimates(sketch, bitsets.to_words(bundles, sketch.n))
    assert np.array_equal(batch, expected)


def assert_loads_as_built(sketch):
    """deserialize(serialize(sketch)) equals sketch field by field and
    estimates sampled bundles bit for bit like it."""
    twin = vs.deserialize(vs.serialize(sketch))
    assert twin == sketch
    words = bitsets.to_words(_sampled_bundles(sketch, 600, random.Random(sketch.n)), sketch.n)
    assert np.array_equal(_estimates(twin, words), _estimates(sketch, words))


def assert_dense_matches_loop(sketch):
    expected = [_loop_estimate(sketch, b) for b in range(1 << sketch.n)]
    assert np.array_equal(vs.evaluate_all(sketch), expected)
    assert [vs.evaluate(sketch, b) for b in range(1 << sketch.n)] == expected


class TestGrid:
    def test_frozen_grids(self):
        g4 = GridParams.for_ground_set(4)
        assert g4.k_grid == (2, 4)
        assert g4.r_grid == (1.0, 2.0, 4.0, 8.0, 16.0)
        g12 = GridParams.for_ground_set(12)
        assert g12.k_grid == (4, 8, 12)
        assert g12.r_grid == tuple(float(1 << t) for t in range(9))
        g1 = GridParams.for_ground_set(1)
        assert g1.k_grid == (1,) and g1.r_grid == (1.0,)

    def test_k_grid_doubles_from_sqrt_and_ends_at_n(self):
        for n in (2, 5, 16, 100, 256):
            ks = GridParams.for_ground_set(n).k_grid
            assert ks[-1] == n
            assert ks[0] == math.isqrt(n - 1) + 1  # ceil(sqrt(n))
            assert all(b == min(2 * a, n) for a, b in zip(ks, ks[1:]))
            assert len(set(ks)) == len(ks)


class TestPartition:
    def test_frozen_partition(self):
        groups = well_bounded_partition([8.0, 4.0, 1.0, 0.0], 4)
        assert groups == [[0, 1, 2], [1, 2], [2]]

    def test_big_gap_splits_groups(self):
        groups = well_bounded_partition([100.0, 1.0, 1.0, 1.0], 4)
        assert groups == [[0], [1, 2, 3]]

    def test_groups_are_ranked_leader_first(self):
        groups = well_bounded_partition([1.0, 4.0, 0.0, 4.0, 2.0], 5)
        assert groups == [[1, 3, 4, 0], [0]]

    def test_zero_items_never_join(self):
        assert well_bounded_partition([0.0, 0.0], 2) == []

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=10),
        data=st.data(),
    )
    def test_partition_properties(self, n, data):
        values = [
            float(data.draw(st.sampled_from([0, 1, 2, 3, 8, 64, 1024]), label=f"v{j}"))
            for j in range(n)
        ]
        groups = well_bounded_partition(values, n)
        ranking = sorted((j for j in range(n) if values[j] > 0), key=lambda j: (-values[j], j))
        covered = set()
        leaders = []
        for ranked in groups:
            # each group is a contiguous slice of the global ranking, leader first
            start = ranking.index(ranked[0])
            assert ranked == ranking[start:start + len(ranked)]
            vals = [values[j] for j in ranked]
            assert min(vals) > 0
            assert max(vals) <= n * n * min(vals) * (1 + 1e-8)
            covered.update(ranked)
            leaders.append(vals[0])
        assert covered == set(ranking)
        # leaders weaken geometrically, so membership counts stay small
        assert leaders == sorted(leaders, reverse=True)
        step = max(n / 2, 2.0)
        limit = math.ceil(math.log(n * n * (1 + 1e-9), step)) + 1
        for j in range(n):
            count = sum(1 for ranked in groups if j in ranked)
            assert count <= limit


class TestGoldenTrace:
    def trace(self):
        led = vs.QueryLedger()
        oracle = vs.UniformMatroidRank(4, 4, led)  # free matroid: v(S) = |S|
        sketch = build_and_check(oracle, vs.brute_force(), vs.clause_marginal())
        return oracle, sketch

    def test_structure(self):
        _, sketch = self.trace()
        assert len(sketch.groups) == 1
        g = sketch.groups[0]
        assert (g.leader, g.items, g.scale) == (0, 0xF, 1.0)
        assert (g.alpha, g.beta_certified) == (1.0, 1.0)
        cells = {(f.k, f.r): f.members for f in g.families}
        assert cells == {
            (2, 2.0): [0b0011, 0b1100],
            (4, 1.0): [0xF],
            (4, 2.0): [0xF],
        }

    def test_estimates(self):
        oracle, sketch = self.trace()
        assert vs.evaluate(sketch, 0xF) == 2.0
        assert vs.evaluate(sketch, 0b0001) == 1.0
        assert vs.evaluate(sketch, 0) == 0.0
        report = vs.exhaustive_ratio_report(vs.brute_reference_table(oracle), sketch)
        assert report.sound and report.within_bound
        assert report.max_under == 2.0  # the full bundle

    def test_queries(self):
        oracle, _ = self.trace()
        # 4 singletons, then marginal clauses, whose singleton prefixes the
        # group view already holds: at (2, 2), 0b0011 and 0b1100 cost 1
        # each; at (4, 1), 0b0011 is known, so 0b0111 and 0xF cost 2; (4, 2)
        # reuses (4, 1), and the brute-force maximizer is uncounted
        assert oracle.ledger.totals() == (8, 0)


class TestEvaluate:
    @settings(max_examples=25, deadline=None)
    @given(
        family=st.sampled_from(["coverage", "xos-explicit", "uniform-matroid"]),
        seed=seeds,
    )
    def test_evaluate_all_agrees_with_scalar(self, family, seed):
        spec = vs.generate_instance(family, 7, seed)
        oracle = spec.build(vs.QueryLedger())
        pipeline = vs.get_pipeline("submodular" if family != "xos-explicit" else "subadditive")
        sketch = build_and_check(oracle, pipeline.card, pipeline.xos)
        dense = vs.evaluate_all(sketch)
        for mask in range(1 << 7):
            assert dense[mask] == vs.evaluate(sketch, mask) == _loop_estimate(sketch, mask)

    def test_rejects_foreign_bundle(self):
        oracle = vs.AdditiveValuation([1, 2])
        sketch = vs.build_sketch(oracle, vs.brute_force(), vs.clause_marginal())
        with pytest.raises(vs.MalformedBundleError):
            vs.evaluate(sketch, 0b100)

    def test_all_zero_valuation(self):
        oracle = vs.AdditiveValuation([0.0, 0.0, 0.0])
        sketch = vs.build_sketch(oracle, vs.brute_force(), vs.clause_marginal())
        assert sketch.groups == []
        assert vs.evaluate(sketch, 0b111) == 0.0

    def test_single_item(self):
        oracle = vs.AdditiveValuation([5.0])
        sketch = vs.build_sketch(oracle, vs.brute_force(), vs.clause_marginal())
        assert vs.evaluate(sketch, 0b1) == 5.0

    def test_corpus_matches_loop_on_every_bundle(self, corpus):
        for entry in corpus:
            assert_dense_matches_loop(entry.sketch)

    @pytest.mark.parametrize("n", [63, 64, 65, 130])  # around 64-bit word boundaries
    @pytest.mark.parametrize("name", ["matroid", "submodular", "subadditive"])
    def test_bench_instances_match_loop(self, name, n):
        pipeline = vs.get_pipeline(name)
        oracle = vs.bench_instance(name, n).build(vs.QueryLedger())
        sketch = vs.build_sketch(oracle, pipeline.card, pipeline.xos)
        assert_matches_loop(sketch, _sampled_bundles(sketch, 600, random.Random(n)))

    @pytest.mark.parametrize("name, family, n, params", PERFBENCH_RECIPES)
    def test_perfbench_recipes_match_loop(self, name, family, n, params):
        sketch = vs.deserialize(vs.serialize(_build_recipe(name, family, n, params)[1]))
        assert_matches_loop(sketch, _sampled_bundles(sketch, 600, random.Random(0)))

    @pytest.mark.parametrize("weights", [[0.0, 0.0, 0.0], [5.0], [0.0]])
    def test_degenerate_sketches_match_loop(self, weights):
        oracle = vs.AdditiveValuation(weights)
        sketch = vs.build_sketch(oracle, vs.brute_force(), vs.clause_marginal())
        assert_dense_matches_loop(sketch)
        assert_matches_loop(sketch, list(range(1 << sketch.n)))

    def test_refuses_a_unit_that_overflows(self):
        # each field is finite, but r * scale is not: no estimate may be inf
        group = vs.SketchGroup(0, 0b11, 1e300, 1.0, 1.0, [vs.SketchFamily(1, 1e300, [0b01])])
        sketch = vs.Sketch(2, [1.0, 1.0], [group])
        with pytest.raises(SerializationError, match="overflows"):
            vs.evaluate(sketch, 0b10)
        with pytest.raises(SerializationError, match="overflows"):
            vs.evaluate_all(sketch)

    def test_table_is_built_on_first_evaluate_not_on_load(self):
        oracle = vs.generate_instance("coverage", 8, 2).build(vs.QueryLedger())
        pipeline = vs.get_pipeline("submodular")
        text = vs.serialize(vs.build_sketch(oracle, pipeline.card, pipeline.xos))
        sketch = vs.deserialize(text)
        assert "_table" not in vars(sketch)
        vs.evaluate(sketch, 0x3)
        assert "_table" in vars(sketch)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sketch.singletons = [0.0] * 8
        with pytest.raises(dataclasses.FrozenInstanceError):
            sketch.groups[0].scale = 2.0

    def test_evaluation_needs_no_queries(self):
        led = vs.QueryLedger()
        oracle = vs.generate_instance("coverage", 8, 2).build(led)
        pipeline = vs.get_pipeline("submodular")
        sketch = vs.build_sketch(oracle, pipeline.card, pipeline.xos)
        before = led.totals()
        for mask in (0x1, 0x3F, 0xFF):
            vs.evaluate(sketch, mask)
        vs.evaluate_all(sketch)
        assert led.totals() == before


def _group(family=None, **overrides):
    """A one-group payload over items {0, 1}, with fields overridden."""
    fam = {"k": 1, "r": 1.0, "members": ["1"], **(family or {})}
    group = {"leader": 0, "items": "3", "scale": 1.0, "alpha": 1.0, "beta": 1.0,
             "families": [fam], **overrides}
    return [group]


class TestSerialization:
    def roundtrip(self, seed=4):
        spec = vs.generate_instance("xos-explicit", 8, seed)
        oracle = spec.build(vs.QueryLedger())
        pipeline = vs.get_pipeline("subadditive")
        sketch = vs.build_sketch(oracle, pipeline.card, pipeline.xos)
        return sketch, vs.serialize(sketch)

    def test_canonical_fixed_point(self):
        _, text = self.roundtrip()
        again = vs.serialize(vs.deserialize(text))
        assert again == text

    def test_deserialized_sketch_evaluates_identically(self):
        sketch, text = self.roundtrip()
        twin = vs.deserialize(text)
        for mask in range(256):
            assert vs.evaluate(twin, mask) == vs.evaluate(sketch, mask)

    def test_loaded_corpus_sketch_is_the_built_one(self, corpus):
        """Floats are written exactly, so a loaded sketch equals the built
        one field by field and estimates every bundle bit for bit like it."""
        for entry in corpus:
            twin = vs.deserialize(vs.serialize(entry.sketch))
            assert twin == entry.sketch
            assert np.array_equal(vs.evaluate_all(twin), entry.estimate)

    @pytest.mark.parametrize("n", [256, 1024])
    @pytest.mark.parametrize("name", ["matroid", "submodular", "subadditive"])
    def test_loaded_bench_sketch_is_the_built_one(self, name, n):
        pipeline = vs.get_pipeline(name)
        oracle = vs.bench_instance(name, n).build(vs.QueryLedger())
        assert_loads_as_built(vs.build_sketch(oracle, pipeline.card, pipeline.xos))

    @pytest.mark.parametrize("recipe", PERFBENCH_RECIPES,
                             ids=["matroid-value", "coverage-greedy", "xos-demand"])
    def test_loaded_perfbench_sketch_is_the_built_one(self, recipe):
        assert_loads_as_built(_build_recipe(*recipe)[1])

    def test_a_unit_next_to_overflow_loads_as_saved(self):
        # the unit is finite, 1.7976931348584e308; 12 significant digits
        # of the scale and alpha made it overflow once read back
        group = vs.SketchGroup(0, 0b11, 5.735233303158803e307, 1.2761317695326655, 1.0,
                               [vs.SketchFamily(1, 16.0, [0b01])])
        sketch = vs.Sketch(2, [1.0, 1.0], [group])
        twin = vs.deserialize(vs.serialize(sketch))
        assert twin == sketch
        assert vs.evaluate(twin, 0b01) == vs.evaluate(sketch, 0b01) < math.inf

    def test_loaded_spellings_save_in_canonical_form(self):
        """A file need not be canonical to load: an indented copy with
        uppercase hex loads, and serialize writes it back canonically:
        compact, lowercase hex, each float the shortest text that reads
        back as the same float. The loaded sketch is the saved one."""
        oracle = vs.generate_instance("coverage", 8, 3).build(vs.QueryLedger())
        pipeline = vs.get_pipeline("submodular")
        text = vs.serialize(vs.build_sketch(oracle, pipeline.card, pipeline.xos))
        payload = json.loads(text)
        for g in payload["groups"]:
            g["items"] = g["items"].upper()
            for f in g["families"]:
                f["members"] = [m.upper() for m in f["members"]]
        spelled = json.dumps(payload, indent=2)
        assert spelled.lower() != spelled  # some hex field has a letter digit
        assert vs.serialize(vs.deserialize(spelled)) == text

    def test_build_queries_survive(self):
        sketch, text = self.roundtrip()
        twin = vs.deserialize(text)
        assert twin.build_queries == sketch.build_queries
        assert twin.build_queries["value_queries"] > 0

    def test_rebuild_from_same_seed_is_byte_identical(self):
        _, a = self.roundtrip(seed=7)
        _, b = self.roundtrip(seed=7)
        assert a == b

    def test_file_round_trip(self, tmp_path):
        sketch, text = self.roundtrip()
        path = tmp_path / "sketch.json"
        vs.save_sketch(sketch, str(path))
        assert vs.serialize(vs.load_sketch(str(path))) == text

    def _payload(self, **overrides):
        base = {
            "schema_version": 1,
            "kind": "valuation-sketch",
            "n": 2,
            "singletons": [1.0, 1.0],
            "groups": _group(),
            "build_queries": None,
        }
        base.update(overrides)
        return json.dumps(base)

    def test_accepts_minimal_payload(self):
        sketch = vs.deserialize(self._payload())
        assert vs.evaluate(sketch, 0b11) == 1.0

    @pytest.mark.parametrize(
        "breakage",
        [
            {"kind": "other"},
            {"schema_version": 2},
            {"n": 0},
            {"singletons": [1.0]},
            {"groups": [{"leader": 0}]},
            {"singletons": [None, 1.0]},
            {"singletons": [float("inf"), 1.0]},
            {"singletons": [float("nan"), 1.0]},
            {"singletons": [-1.0, 1.0]},
            {"groups": _group(scale=float("nan"))},
            {"groups": _group(alpha=float("inf"))},
            {"groups": _group(beta=float("nan"))},
            {"groups": _group(family={"r": float("inf")})},
            {"groups": _group(family={"r": float("nan")})},
            {"groups": _group(family={"r": 0.0})},
            {"groups": _group(family={"k": 0, "members": []})},
            {"groups": _group(leader=1, items="1")},
            {"groups": _group(family={"k": 2, "members": ["1", "1"]})},
            {"groups": _group(scale=True)},
            {"groups": _group(alpha=True)},
            {"groups": _group(family={"r": True})},
            {"groups": _group(leader=True)},
            {"schema_version": True},
            {"singletons": ["2", 1.0]},
            {"singletons": [True, 1.0]},
            {"groups": _group(family={"members": "1"})},
            {"groups": _group(families="")},
            {"groups": _group(family={"k": True})},
            {"groups": ""},
            {"groups": _group(items="0x3")},
            {"groups": _group(items="03")},
            {"groups": _group(items="\u0663")},  # an Arabic-Indic 3
            {"groups": _group(family={"members": [" +1 "]})},
            {"groups": _group(family={"members": ["+1"]})},
            {"n": 5, "singletons": [1.0] * 5,
             "groups": _group(leader=4, items="1_0", family={"members": ["10"]})},
            {"build_queries": float("nan")},
            {"build_queries": "junk"},
            {"build_queries": [1, 2]},
            {"build_queries": True},
            {"build_queries": {"value_queries": -5, "demand_queries": 0}},
            {"build_queries": {"value_queries": True, "demand_queries": 0}},
            {"build_queries": {"value_queries": 1.0, "demand_queries": 0}},
            {"build_queries": {"value_queries": float("nan"), "demand_queries": 0}},
            {"build_queries": {"value_queries": 1}},
            {"build_queries": {"value_queries": 1, "demand_queries": 0, "extra": 0}},
        ],
    )
    def test_rejects_malformed_payloads(self, breakage):
        with pytest.raises(SerializationError):
            vs.deserialize(self._payload(**breakage))

    def test_rejects_not_json(self):
        with pytest.raises(SerializationError):
            vs.deserialize("{nope")

    def test_rejects_member_escaping_group(self):
        group = {
            "leader": 0, "items": "1", "scale": 1.0, "alpha": 1.0, "beta": 1.0,
            "families": [{"k": 1, "r": 1.0, "members": ["2"]}],
        }
        with pytest.raises(SerializationError, match="leaves the group"):
            vs.deserialize(self._payload(groups=[group]))

    def test_rejects_member_over_size_budget(self):
        group = {
            "leader": 0, "items": "3", "scale": 1.0, "alpha": 1.0, "beta": 1.0,
            "families": [{"k": 1, "r": 1.0, "members": ["3"]}],
        }
        with pytest.raises(SerializationError, match="larger than k"):
            vs.deserialize(self._payload(groups=[group]))

    def test_rejects_nonpositive_scale(self):
        group = {
            "leader": 0, "items": "3", "scale": 0.0, "alpha": 1.0, "beta": 1.0,
            "families": [],
        }
        with pytest.raises(SerializationError, match="scale"):
            vs.deserialize(self._payload(groups=[group]))

    def test_rejects_a_unit_that_overflows(self):
        # scale and r are each finite, but a member's unit r / 4 * scale is not
        payload = self._payload(groups=_group(scale=1e10, family={"r": 1e300}))
        with pytest.raises(SerializationError, match="member unit .* overflows at k=1 r=1e"):
            vs.deserialize(payload)
        assert vs.evaluate(vs.deserialize(self._payload(groups=_group(
            scale=1e10, family={"r": 1e297}))), 0b01) == 2.5e306

    def test_rejects_overfull_family(self):
        group = {
            "leader": 0, "items": "3", "scale": 1.0, "alpha": 1.0, "beta": 1.0,
            "families": [{"k": 2, "r": 1.0, "members": ["3", "3"]}],
        }
        with pytest.raises(SerializationError, match="overlapping"):
            vs.deserialize(self._payload(groups=[group]))


class TestSerializeContract:
    @pytest.mark.parametrize(
        "fields, needle",
        [
            ({"scale": math.nan}, "scale"),
            ({"families": [vs.SketchFamily(1, math.inf, [0b01])]}, "r must be"),
            ({"leader": 1, "items": 0b01}, "leader outside"),
            ({"families": [vs.SketchFamily(True, 1.0, [0b01])]}, "k must be"),
            ({"build_queries": math.nan}, "build_queries"),
            ({"scale": 1e10, "families": [vs.SketchFamily(1, 1e300, [0b01])]}, "member unit"),
        ],
    )
    def test_serialize_refuses_what_deserialize_would(self, tmp_path, fields, needle):
        group = dict(leader=0, items=0b11, scale=1.0, alpha=1.0, beta_certified=1.0,
                     families=[vs.SketchFamily(1, 1.0, [0b01])])
        fields = dict(fields)
        counts = fields.pop("build_queries", None)
        sketch = vs.Sketch(2, [1.0, 1.0], [vs.SketchGroup(**{**group, **fields})], counts)
        with pytest.raises(SerializationError, match=needle):
            vs.serialize(sketch)
        path = tmp_path / "sketch.json"
        path.write_text("earlier sketch\n")
        with pytest.raises(SerializationError):
            vs.save_sketch(sketch, str(path))
        assert path.read_text() == "earlier sketch\n"


_BAD_VALUES = [None, "x", "1", True, False, math.nan, math.inf, -math.inf, -1, -0.5, 0, [], [1]]


def _json_paths(obj, path=()):
    """Every position below the root of a decoded JSON value, as key tuples."""
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, list):
        children = enumerate(obj)
    else:
        return
    for key, value in children:
        yield path + (key,)
        yield from _json_paths(value, path + (key,))


class TestDeserializeFuzz:
    TEXT = TestSerialization().roundtrip()[1]
    PATHS = list(_json_paths(json.loads(TEXT)))

    @settings(max_examples=300, deadline=None)
    @given(path=st.sampled_from(PATHS), bad=st.sampled_from(_BAD_VALUES))
    def test_one_bad_field_is_refused_or_harmless(self, path, bad):
        payload = json.loads(self.TEXT)
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = bad
        try:
            sketch = vs.deserialize(json.dumps(payload))
        except SerializationError:
            return
        assert all(math.isfinite(e) for e in vs.evaluate_all(sketch))
        assert math.isfinite(vs.evaluate(sketch, bitsets.full_mask(sketch.n)))
        vs.deserialize(vs.serialize(sketch))


class TestBuildContract:
    @settings(max_examples=20, deadline=None)
    @given(seed=seeds)
    def test_build_is_deterministic(self, seed):
        spec = vs.generate_instance("coverage", 9, seed)
        pipeline = vs.get_pipeline("submodular")
        runs = []
        for _ in range(2):
            oracle = spec.build(vs.QueryLedger())
            runs.append(vs.serialize(vs.build_sketch(oracle, pipeline.card, pipeline.xos)))
        assert runs[0] == runs[1]

    def test_build_refuses_value_only_oracle_before_any_query(self):
        oracle = vs.UniformMatroidRank(30, 4)
        pipeline = vs.get_pipeline("subadditive")
        with pytest.raises(vs.CapabilityError, match="UniformMatroidRank"):
            vs.build_sketch(oracle, pipeline.card, pipeline.xos)
        assert oracle.ledger.totals() == (0, 0)

    @pytest.mark.parametrize("name", ["matroid", "submodular", "subadditive"])
    def test_group_sweep_repeats_no_call(self, name):
        """Within a group, no maximizer run repeats a (pool, k) and no
        clause call repeats a bundle."""
        calls = []  # holds each view, so no two views share an id

        class CountingCard:
            def __init__(self, spec):
                self.spec = spec

            def __getattr__(self, name):
                return getattr(self.spec, name)

            def run(self, view, pool, k, **hint):
                calls.append(("run", view, pool, k))
                return self.spec.run(view, pool, k, **hint)

        def counting(spec, field):
            inner = getattr(spec, field)

            def wrapped(view, *args, **hint):
                calls.append((field, view, *args))
                return inner(view, *args, **hint)

            return dataclasses.replace(spec, **{field: wrapped})

        pipeline = vs.get_pipeline(name)
        oracle = vs.bench_instance(name, 64).build(vs.QueryLedger())
        vs.build_sketch(oracle, CountingCard(pipeline.card), counting(pipeline.xos, "clause"))
        keys = [(field, id(view), *args) for field, view, *args in calls]
        assert {key[0] for key in keys} == {"run", "clause"}
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("name", ["matroid", "submodular", "subadditive"])
    def test_group_view_asks_each_question_once(self, name):
        """The root oracle hears each question of a group view once, no view
        asks again for a singleton of the first scan, and the ledger counts
        exactly the questions the root answered."""
        oracle = vs.bench_instance(name, 64).build(vs.QueryLedger())
        asked = []  # (view, question); view None during the singleton scan
        current = [None]
        value, demand_uniform = oracle._value, oracle._demand_uniform
        oracle._value = lambda bundle: asked.append((current[0], bundle)) or value(bundle)
        oracle._demand_uniform = lambda q, included: (
            asked.append((current[0], (q, included))) or demand_uniform(q, included))

        class Noting:
            """The spec, noting the view each maximizer or clause call gets."""

            def __init__(self, spec):
                self.spec = spec

            def __getattr__(self, attr):
                return getattr(self.spec, attr)

            def run(self, view, *args, **kwargs):
                current[0] = view
                return self.spec.run(view, *args, **kwargs)

            def clause(self, view, *args):
                current[0] = view
                return self.spec.clause(view, *args)

        pipeline = vs.get_pipeline(name)
        vs.build_sketch(oracle, Noting(pipeline.card), Noting(pipeline.xos))
        scan = {question for view, question in asked if view is None}
        in_views = [(id(view), question) for view, question in asked if view is not None]
        assert len(scan) == 64 and in_views
        assert len(set(in_views)) == len(in_views)
        assert not scan & {question for _, question in in_views}
        assert sum(oracle.ledger.totals()) == len(asked)

    def test_group_views_ask_only_about_their_group(self):
        """Every question a group's view is asked, counted or not, lies inside
        the group: each value bundle and each demand's priced set, on the
        corpus and on each pipeline's bench instance (brute's stops at
        n = 12). This traffic is why a view needs no mask of its own."""
        asked = {"value": 0, "demand": 0}
        group = [0]

        class Guarded(sketch_module.OracleView):
            def __init__(self, parent, scale):
                super().__init__(parent, scale)
                self.items = group[0]

            def inside(self, kind, bundle):
                assert bundle & ~self.items == 0, (kind, hex(bundle), hex(self.items))
                asked[kind] += 1

            def value(self, bundle):
                self.inside("value", bundle)
                return super().value(bundle)

            def _value(self, bundle):
                self.inside("value", bundle)
                return super()._value(bundle)

            def demand(self, prices):
                self.inside("demand", prices.included)
                return super().demand(prices)

        build_group = sketch_module.build_group_sketch

        def noting_group(oracle, ranked, *args):
            group[0] = bitsets.from_items(ranked)
            return build_group(oracle, ranked, *args)

        runs = [*vs.standard_fixture_corpus(), ("brute", vs.bench_instance("brute", 8)),
                *((name, vs.bench_instance(name, 64))
                  for name in ("matroid", "submodular", "subadditive"))]
        with mock.patch.object(sketch_module, "OracleView", Guarded), \
                mock.patch.object(sketch_module, "build_group_sketch", noting_group):
            for name, spec in runs:
                pipeline = vs.get_pipeline(name)
                vs.build_sketch(spec.build(vs.QueryLedger()), pipeline.card, pipeline.xos)
        # 16,379 value and 4,268 demand questions when this was written; the
        # floor only shows the checks ran
        assert asked["value"] > 10_000 and asked["demand"] > 2_000

    @pytest.mark.parametrize("bundle", [0b0001, 0b0011])  # a singleton; a view's query
    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
    def test_build_refuses_bad_oracle_output(self, bad, bundle):
        class Broken(vs.AdditiveValuation):
            def _value(self, asked):
                return bad if asked == bundle else super()._value(asked)

        oracle = Broken([1.0, 1.0, 1.0, 1.0])
        pipeline = vs.get_pipeline("submodular")
        with pytest.raises(ValueError, match=f"Broken valued bundle {bundle:x} at"):
            vs.build_sketch(oracle, pipeline.card, pipeline.xos)

    @pytest.mark.parametrize("stray", ["outside", "negative"])
    def test_build_refuses_bad_demand_answer(self, stray):
        # item 7 is worth nothing, so no group ever prices it
        class Stray(vs.XOSExplicitValuation):
            def _demand_uniform(self, q, included):
                answer = super()._demand_uniform(q, included)
                return answer | 1 << 7 if stray == "outside" else -1

        clauses = [vs.AdditiveClause({j: 1.0 for j in range(7)}),
                   vs.AdditiveClause({0: 3.0, 1: 2.0})]
        oracle = Stray(clauses, n=8)
        pipeline = vs.get_pipeline("subadditive")
        with pytest.raises(ValueError, match="Stray answered a demand query with"):
            vs.build_sketch(oracle, pipeline.card, pipeline.xos)

    def test_heavy_cells_stay_out_of_families(self):
        # one dominant item: its group is a singleton, covered by the
        # singleton term alone at every (k, r) it dominates
        oracle = vs.AdditiveValuation([100.0, 1.0, 1.0, 1.0])
        sketch = build_and_check(oracle, vs.brute_force(), vs.clause_marginal())
        by_leader = {g.leader: g for g in sketch.groups}
        assert set(by_leader) == {0, 1}
        assert by_leader[0].items == 0b0001
        assert by_leader[1].items == 0b1110
        for fam in by_leader[0].families:
            assert fam.members == [] or fam.members == [0b0001]
        assert vs.evaluate(sketch, 0b0001) == 100.0


class _ViewWithoutItemTable(OracleView):
    """A group view whose item table stays empty, so threshold greedy
    values each pool item's singleton by its one-item bundle. The view
    files the seeded singletons in `answers` under their one-item bundles
    instead, so it still answers those bundles uncounted."""

    @property
    def singles(self):
        return {}

    @singles.setter
    def singles(self, table):
        self.answers.update((1 << j, value) for j, value in table.items())


def _submodular_build_record(spec, view_class):
    """Build spec under the submodular pipeline with group views of
    view_class. Returns the sketch text, every greedy step in order, the
    root oracle's value questions in order, the one-item lookups greedy
    made in a view, and the size of every pool greedy ran on."""
    pipeline = vs.get_pipeline("submodular")
    steps, root, pools, lookups, in_greedy = [], [], [], [0], [False]
    oracle = spec.build(vs.QueryLedger())
    ask, view_value = oracle.value, OracleView.value

    def asked(bundle):
        root.append(bundle)
        return ask(bundle)

    def looked_up(view, bundle):
        if in_greedy[0] and bundle.bit_count() == 1:
            lookups[0] += 1
        return view_value(view, bundle)

    def greedy_steps(view, pool):
        pools.append(pool.bit_count())
        for step in greedy_threshold_steps(view, pool, 0.1):
            steps.append(step)
            yield step

    stepwise = vs.CardOracleSpec.stepwise(greedy_steps, pipeline.card.alpha)

    def run(view, pool, k, **hints):
        in_greedy[0] = True
        try:
            return stepwise.run(view, pool, k, **hints)
        finally:
            in_greedy[0] = False

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "value", asked)
        mp.setattr(OracleView, "value", looked_up)
        mp.setattr(sketch_module, "OracleView", view_class)
        sketch = vs.build_sketch(oracle, vs.CardOracleSpec(run, stepwise.alpha), pipeline.xos)
    plain = vs.build_sketch(spec.build(vs.QueryLedger()), pipeline.card, pipeline.xos)
    assert vs.serialize(sketch) == vs.serialize(plain)  # the recorded build is the pipeline's
    return vs.serialize(sketch), steps, root, lookups[0], pools


def _coverage_corpus():
    return [spec for name, spec in vs.standard_fixture_corpus() if name == "submodular"]


@pytest.mark.parametrize("specs", [
    _coverage_corpus,
    lambda: [vs.generate_instance(*PERFBENCH_RECIPES[1][1:3], 0, **PERFBENCH_RECIPES[1][3])],
], ids=["corpus", "coverage-greedy"])
def test_greedy_reads_singletons_from_the_item_table(specs):
    """Threshold greedy reads each pool item's singleton from the group's
    item table, never from the view, and takes the same steps after the
    same root questions as through a view without the table."""
    runs = 0
    for spec in specs():
        text, steps, root, lookups, pools = _submodular_build_record(spec, OracleView)
        plain = _submodular_build_record(spec, _ViewWithoutItemTable)
        assert (text, steps, root) == plain[:3]
        assert lookups == 0
        assert plain[3] == sum(pools) and pools == plain[4]  # one lookup per pool item per run
        runs += len(pools)
    assert runs > 0


def _recorded_builds(fixtures):
    """Build each (pipeline name, InstanceSpec) of fixtures, recording every
    group view the builds make and every clause call as (view, args)."""
    views, clause_calls = [], []

    class Recorded(OracleView):
        def __init__(self, parent, scale):
            super().__init__(parent, scale)
            views.append(self)

    def recorded(clause):
        def wrapped(view, *args):
            clause_calls.append((view, args))
            return clause(view, *args)
        return wrapped

    with mock.patch.object(sketch_module, "OracleView", Recorded):
        for name, spec in fixtures:
            pipeline = vs.get_pipeline(name)
            xos = dataclasses.replace(pipeline.xos, clause=recorded(pipeline.xos.clause))
            vs.build_sketch(spec.build(vs.QueryLedger()), pipeline.card, xos)
    return views, clause_calls


def _recipe_fixtures(index):
    pipeline, family, n, params = PERFBENCH_RECIPES[index]
    return [(pipeline, vs.generate_instance(family, n, 0, **params))]


@pytest.mark.parametrize("fixtures, calls", [
    *(pytest.param(lambda i=i: _recipe_fixtures(i), calls, id=name) for i, (name, calls) in
      enumerate([("matroid-value", 43), ("coverage-greedy", 75), ("xos-demand", 117)])),
    pytest.param(vs.standard_fixture_corpus, None, id="corpus"),
])
def test_group_views_hold_each_value_once(fixtures, calls):
    """A group's singletons live only in its item table, so after a build no
    view's `answers` holds a one-item bundle; the build calls the clause
    routine as clause(view, bundle), once for each distinct bundle of each
    group, as many times on each perfbench recipe as it always has."""
    views, clause_calls = _recorded_builds(fixtures())
    assert views and all(view.singles for view in views)
    stored = [key for view in views for key in view.answers if isinstance(key, int)]
    assert stored and [key for key in stored if key.bit_count() == 1] == []
    assert clause_calls and all(len(args) == 1 for _, args in clause_calls)
    keys = [(id(view), bundle) for view, (bundle,) in clause_calls]
    assert len(set(keys)) == len(keys)
    assert calls is None or len(keys) == calls


def test_demand_grid_splits_each_response_once_per_call(monkeypatch):
    """A demand response the last grid level already split is not split
    again; the xos-demand sketch and its totals stay those of the pipeline."""
    splits, calls, chunks = [], [0], bitsets.chunks

    def counted_chunks(mask, k):
        splits.append((calls[0], mask, k))
        return chunks(mask, k)

    def run(view, pool, k, **hints):
        calls[0] += 1
        return card_demand_price_grid(view, pool, k, **hints)

    pipeline = vs.get_pipeline("subadditive")
    _, family, n, params = PERFBENCH_RECIPES[2]
    spec = vs.generate_instance(family, n, 0, **params)
    plain = vs.build_sketch(spec.build(vs.QueryLedger()), pipeline.card, pipeline.xos)
    monkeypatch.setattr(bitsets, "chunks", counted_chunks)
    oracle = spec.build(vs.QueryLedger())
    sketch = vs.build_sketch(oracle, dataclasses.replace(pipeline.card, run=run), pipeline.xos)
    assert splits and len(splits) == len(set(splits))
    assert oracle.ledger.totals() == (2309, 1302)
    assert vs.serialize(sketch) == vs.serialize(plain)


def _payload_digest(*sketches):
    """sha256 of the serialized sketches without build_queries, one per line:
    what was built, whatever it cost in queries."""
    texts = [vs.serialize(dataclasses.replace(s, build_queries=None)) for s in sketches]
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


#: additive weights at n = 16 (sqrt n = 4, scale 1 in both groups), so the
#: heavy threshold t = k r / sqrt(n) of many cells is a power of two. Items
#: tie, sit on t, on t (1 - RELATIVE_TOL), the very float `meets` compares
#: with, RELATIVE_TOL / 2 below t (heavy) and 2 RELATIVE_TOL below it (not)
_TOL = vs.RELATIVE_TOL
BOUNDARY_WEIGHTS = [1.0, 1.0, 2.0, 2.0, 2.0 * (1 - _TOL / 2), 2.0 * (1 - _TOL),
                    4.0, 4.0 * (1 - _TOL), 4.0 * (1 - 2 * _TOL), 8.0, 8.0 * (1 - _TOL / 2),
                    3.0, 16.0 * (1 - _TOL), 16.0 * (1 - _TOL / 2), 1.0, 32.0]


class TestPinnedOutput:
    """What the builds make, and what they cost. The digests cover the
    payload without build_queries, so they move only when a sketch does;
    a change that moves one must say why and re-record it here; last when
    floats began to be written exactly, which moved every sketch with an
    alpha or beta of more than 12 significant digits. The
    totals are re-recorded whenever the builds ask fewer questions:
    last when the matroid maximizer began to gallop to each augmenting
    item and drop the spanned items it passes for good."""

    @pytest.mark.parametrize(
        "name, n, digest, totals",
        [
            ("matroid", 64,
             "e8d042fe5ce1fdfb59f2400cae8701cb99692e0da1f8ffc8db9b82158f820baa", (243, 0)),
            ("submodular", 64,
             "ce6e44b37b4a4ea522d63a02726ed8ae2b3c98df9eccbef8fcf86bc1c2f7b699", (691, 0)),
            ("subadditive", 64,
             "7e5010c56de28058b84dfa732351305280fe68623f6427205ac8a9599a7845fb", (78, 105)),
            ("brute", 8,
             "ba74877beeaf82d7ee58b2db810637a1d3088d744ec6e4000a063f0757c2e66f", (11, 0)),
        ],
        # fixed ids, so re-recording a digest keeps the test names
        ids=["matroid-64", "submodular-64", "subadditive-64", "brute-8"],
    )
    def test_bench_instance_bytes_and_totals(self, name, n, digest, totals):
        pipeline = vs.get_pipeline(name)
        oracle = vs.bench_instance(name, n).build(vs.QueryLedger())
        sketch = vs.build_sketch(oracle, pipeline.card, pipeline.xos)
        assert _payload_digest(sketch) == digest
        assert oracle.ledger.totals() == totals

    @pytest.mark.parametrize(
        "recipe, digest, totals",
        zip(PERFBENCH_RECIPES, [
            "0155fb58238f532c30e80590ac904fb3a858f6cd8fe6ba2a378ae1acd24998a4",
            "f19fbb349225cd709252a2a65eb347d8cc58fd6a2dbf0b1b527e777d3af6d320",
            "480450ee1511098c47c61e3c4c73acaa5f99e1b133746c7a711b65e1eecd7942",
        ], [(3055, 0), (8864, 0), (2309, 1302)]),
        ids=["matroid-value", "coverage-greedy", "xos-demand"],
    )
    def test_benchmark_recipe_bytes_and_totals(self, recipe, digest, totals):
        # a change that moves a benchmark sketch or count fails here first
        oracle, sketch = _build_recipe(*recipe)
        assert _payload_digest(sketch) == digest
        assert oracle.ledger.totals() == totals

    @pytest.mark.parametrize(
        "name, base, n, groups, digest, totals",
        [
            ("submodular", 4, 8, 8,
             "f284ba8ab18f44a9949539197020f40c086b75d0c99ff4850b33705c7901425a", (37, 0)),
            ("submodular", 4, 12, 6,
             "65bf7b22e7b1018431edf8e09632bada6bec4aa5c24ab45438f3cb01dc5266b6", (38, 0)),
            ("submodular", 4, 16, 8,
             "18999338e80a17c95214f5ad5c3e8546c8564d6001faca281f0b945ed198721c", (64, 0)),
            ("subadditive", 3, 8, 4,
             "b4c81840f7fd0cba24eaa5b77a8fd008fee5fe31f61e1bce6b8398f732fe35cd", (21, 97)),
            ("subadditive", 3, 12, 6,
             "708c2e7a1a2bef8c727c736dbf46af8668a2bab7d81aff3af0fc1fb043a7ea82", (41, 203)),
            ("subadditive", 3, 16, 8,
             "f2462dda538b6d55f7f1e3a0ecbe8ca25dd5fd850fdb43d67ce3876e5ddb364a", (69, 357)),
        ],
        ids=["submodular-4j-8", "submodular-4j-12", "submodular-4j-16",
             "subadditive-3j-8", "subadditive-3j-12", "subadditive-3j-16"],
    )
    def test_overlapping_groups_bytes_and_totals(self, name, base, n, groups, digest, totals):
        # additive weights base**j spread past n^2, so the partition cuts
        # several groups and each item sits in up to four of them
        pipeline = vs.get_pipeline(name)
        oracle = vs.AdditiveValuation([float(base ** j) for j in range(n)], vs.QueryLedger())
        sketch = build_and_check(oracle, pipeline.card, pipeline.xos)
        assert len(sketch.groups) == groups
        assert _payload_digest(sketch) == digest
        assert oracle.ledger.totals() == totals

    def test_corpus_payloads(self, corpus):
        assert len(corpus) == 201
        digest = _payload_digest(*(entry.sketch for entry in corpus))
        assert digest == "b68d240a401272e9a11c38422dafd4495a3e49b3318ffa83152b6cd4ebccbab0"

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("submodular", "1a6489d505f06d34edfdd858b77b6ee0e5927eb0fe95aa1790ad0e86d7105a48"),
            ("subadditive", "70199de2d4f08c329f310eef64082c18acc2ff07ed6e0f0b77d9965f15befe40"),
        ],
        ids=["submodular", "subadditive"],
    )
    def test_heavy_threshold_boundaries(self, name, digest):
        pipeline = vs.get_pipeline(name)
        oracle = vs.AdditiveValuation(BOUNDARY_WEIGHTS)
        sketch = build_and_check(oracle, pipeline.card, pipeline.xos)
        assert [g.scale for g in sketch.groups] == [1.0, 1.0]
        assert _payload_digest(sketch) == digest
