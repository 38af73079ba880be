"""Construction, evaluation, and serialization of sketches.

The n = 4 free matroid trace below was worked out by hand: with exact
maximization and marginal clauses, the only surviving cells are
(k=2, r=2) with the two halves, and (k=4, r in {1, 2}) with the full
set, and the estimate of the full bundle is exactly 2.
"""

import hashlib
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

import valsketch as vs
from valsketch import bitsets
from valsketch.errors import SerializationError
from valsketch.sketch import GridParams, well_bounded_partition

from conftest import build_and_check

seeds = st.integers(min_value=0, max_value=2_000)


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

    def test_grid_must_match_oracle(self):
        oracle = vs.AdditiveValuation([1, 2])
        with pytest.raises(ValueError):
            vs.build_sketch(oracle, vs.brute_force(), vs.clause_marginal(),
                            GridParams.for_ground_set(3))


class TestPartition:
    def test_frozen_partition(self):
        groups = well_bounded_partition([8.0, 4.0, 1.0, 0.0], 4)
        assert groups == [(0, 0b0111), (1, 0b0110), (2, 0b0100)]

    def test_big_gap_splits_groups(self):
        groups = well_bounded_partition([100.0, 1.0, 1.0, 1.0], 4)
        assert groups == [(0, 0b0001), (1, 0b1110)]

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
        covered = 0
        leaders = []
        for leader, mask in groups:
            assert (mask >> leader) & 1
            vals = [values[j] for j in bitsets.items(mask)]
            assert min(vals) > 0
            # leader is the strongest member
            assert values[leader] == max(vals)
            assert max(vals) <= n * n * min(vals) * (1 + 1e-8)
            covered |= mask
            leaders.append(values[leader])
        for j in range(n):
            assert ((covered >> j) & 1) == (values[j] > 0)
        # leaders weaken geometrically, so membership counts stay small
        assert leaders == sorted(leaders, reverse=True)
        step = max(n / 2, 2.0)
        limit = math.ceil(math.log(n * n * (1 + 1e-9), step)) + 1
        for j in range(n):
            count = sum(1 for _, mask in groups if (mask >> j) & 1)
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
        report = vs.exhaustive_ratio_report(oracle, sketch)
        assert report.sound and report.within_bound
        assert report.max_under == 2.0  # the full bundle

    def test_queries(self):
        oracle, _ = self.trace()
        snap = oracle.ledger.snapshot()
        assert snap["phases"]["partition"]["value"] == 4
        # marginal clauses: 2 + 2 at (2, 2), 4 at (4, 1), 4 at (4, 2)
        assert snap["phases"]["oracle-internal"]["value"] == 12
        assert snap["demand_queries"] == 0


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
            assert dense[mask] == vs.evaluate(sketch, mask)

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

    def test_evaluation_needs_no_queries(self):
        led = vs.QueryLedger()
        oracle = vs.generate_instance("coverage", 8, 2).build(led)
        sketch = vs.build_sketch(oracle, vs.greedy_classic(), vs.clause_marginal())
        before = led.totals()
        for mask in (0x1, 0x3F, 0xFF):
            vs.evaluate(sketch, mask)
        vs.evaluate_all(sketch)
        assert led.totals() == before


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
            assert vs.evaluate(twin, mask) == pytest.approx(
                vs.evaluate(sketch, mask), rel=1e-11
            )

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
            "groups": [
                {
                    "leader": 0,
                    "items": "3",
                    "scale": 1.0,
                    "alpha": 1.0,
                    "beta": 1.0,
                    "families": [{"k": 1, "r": 1.0, "members": ["1"]}],
                }
            ],
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
        with pytest.raises(SerializationError, match="escapes"):
            vs.deserialize(self._payload(groups=[group]))

    def test_rejects_member_over_size_budget(self):
        group = {
            "leader": 0, "items": "3", "scale": 1.0, "alpha": 1.0, "beta": 1.0,
            "families": [{"k": 1, "r": 1.0, "members": ["3"]}],
        }
        with pytest.raises(SerializationError, match="escapes"):
            vs.deserialize(self._payload(groups=[group]))

    def test_rejects_nonpositive_scale(self):
        group = {
            "leader": 0, "items": "3", "scale": 0.0, "alpha": 1.0, "beta": 1.0,
            "families": [],
        }
        with pytest.raises(SerializationError, match="scale"):
            vs.deserialize(self._payload(groups=[group]))

    def test_rejects_overfull_family(self):
        group = {
            "leader": 0, "items": "3", "scale": 1.0, "alpha": 1.0, "beta": 1.0,
            "families": [{"k": 2, "r": 1.0, "members": ["3", "3"]}],
        }
        with pytest.raises(SerializationError, match="exceed"):
            vs.deserialize(self._payload(groups=[group]))


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

    def test_demand_pipeline_refuses_value_only_oracle(self):
        oracle = vs.UniformMatroidRank(30, 4)
        with pytest.raises(vs.CapabilityError):
            vs.get_pipeline("subadditive").check_compatible(oracle)

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


class TestPinnedOutput:
    """Sketch bytes and query totals of the bench instances, as recorded
    before the oracle specs began holding their functions. A change that
    moves them must say why and re-record them here."""

    @pytest.mark.parametrize(
        "name, n, digest, totals",
        [
            ("matroid", 64,
             "8ed0495ee891d10626b969743e5b4752cd4efdcdb40e6a9425fb6c4a3b9ebc40", (6450, 0)),
            ("submodular", 64,
             "25e088da9df1697d6c1a70eb8621e5097fc82d4a4bb79f8e324d34c790753d58", (9093, 0)),
            ("subadditive", 64,
             "56c6bb1442b695cbcdb453ced6e82e56fc1a77c8a8085b5d1a4d6c54ec0fa7a0", (335, 3436)),
            ("brute", 8,
             "179b054c31929fb6c1d9335bb1d900ae0d5f19bc05f8a968b3442be349d0479a", (14, 0)),
        ],
    )
    def test_bench_instance_bytes_and_totals(self, name, n, digest, totals):
        pipeline = vs.get_pipeline(name)
        oracle = vs.bench_instance(name, n).build(vs.QueryLedger())
        text = vs.serialize(vs.build_sketch(oracle, pipeline.card, pipeline.xos))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert oracle.ledger.totals() == totals
