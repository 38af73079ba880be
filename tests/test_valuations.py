import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import valsketch as vs
from valsketch import bitsets
from valsketch.instances import _repair_table
from valsketch.valuations import (
    RELATIVE_TOL,
    AdditiveClause,
    OracleView,
    RecentBundles,
    meets,
    subadditive_witness,
)

from reference import (capped_block_sum, cheapest_split_caps_loop, lattice_class_check,
                       subadditive_witness_loop, xos_consistent)


def test_meets_tolerance_boundary():
    assert meets(1.0, 1.0)
    assert meets(1.0 - 5e-10, 1.0)
    assert not meets(1.0 - 5e-9, 1.0)
    assert meets(0.0, 0.0)


def _around(w):
    """Thresholds t whose slackened t (1 - RELATIVE_TOL) sits at w and an ulp either side."""
    t = w / (1 - RELATIVE_TOL)
    return [t, math.nextafter(t, math.inf), math.nextafter(t, 0.0)]


class TestAdditiveClause:
    def test_values_and_support(self):
        c = AdditiveClause({0: 3.0, 2: 1.5})
        assert c.support == 0b101
        assert c.value(0b001) == 3.0
        assert c.value(0b111) == 4.5
        assert c.value(0b010) == 0.0
        assert c.value(c.support) == 4.5
        assert c.weights.get(1, 0.0) == 0.0

    def test_uniform_constructor_and_fast_path(self):
        c = AdditiveClause.uniform(2.5, 0b1011)
        assert c._uniform_weight == 2.5
        assert c.value(0b0011) == 5.0
        mixed = AdditiveClause({0: 1.0, 1: 2.0})
        assert mixed._uniform_weight is None

    @pytest.mark.parametrize("price", [-1.0, -1e-300, math.nan, math.inf])
    @pytest.mark.parametrize("mask", [0b1011, 0])
    def test_uniform_rejects_bad_price(self, price, mask):
        with pytest.raises(ValueError):
            AdditiveClause.uniform(price, mask)

    def test_uniform_on_empty_mask_is_the_empty_clause(self):
        c = AdditiveClause.uniform(2.5, 0)
        assert c._uniform_weight is None and c.support == 0 and c == AdditiveClause({})
        assert c.meeting(0.0) == 0 and c.meeting(2.5) == 0 and c.value(0b111) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(mask=st.integers(min_value=0, max_value=(1 << 300) - 1),
           price=st.one_of(st.sampled_from([0.0, 0.25, 1.0, 3.0]),
                           st.floats(min_value=0, max_value=1e6)),
           t=st.floats(min_value=0, max_value=1e6),
           bundle=st.integers(min_value=0, max_value=(1 << 300) - 1))
    def test_uniform_matches_the_per_item_constructor(self, mask, price, t, bundle):
        fast = AdditiveClause.uniform(price, mask)
        slow = AdditiveClause({j: price for j in bitsets.iter_items(mask)})
        assert fast.support == slow.support
        assert fast._uniform_weight == slow._uniform_weight
        assert (fast._uniform_weight is None) == (slow._uniform_weight is None)
        assert fast.value(bundle) == slow.value(bundle)
        for threshold in (t, price):
            assert fast.meeting(threshold) == slow.meeting(threshold)
        # on a nonempty support, value and meeting read only the uniform weight
        assert fast._weights is None or not mask
        assert fast == slow and list(fast.weights) == list(slow.weights)
        assert repr(fast) == repr(slow)

    @pytest.mark.parametrize("mask", [-1, -0b1010, True, False, 3.0, np.int64(3), "0b11", None])
    def test_uniform_refuses_a_mask_that_is_not_a_bundle(self, mask):
        # iter_items(-1) never ends, and meeting() would hand out a negative bundle
        with pytest.raises(vs.MalformedBundleError, match="int >= 0"):
            AdditiveClause.uniform(1.0, mask)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            AdditiveClause({0: -1.0})
        with pytest.raises(ValueError):
            AdditiveClause({0: math.inf})

    @pytest.mark.parametrize("weights", [{1.5: 2.0, True: 3.0}, {True: 3.0},
                                         {"0": 1.0}, {0: 1.0, 2.0: 1.0}, {np.float64(1): 1.0}])
    def test_refuses_keys_that_are_not_integers(self, weights):
        # int() would truncate 1.5 to 1 and merge True into item 1, losing a weight
        with pytest.raises(vs.MalformedBundleError, match="integer item ids"):
            AdditiveClause(weights)

    def test_numpy_integer_keys_are_item_ids(self):
        c = AdditiveClause({np.int64(3): 1.0, np.uint8(0): 2.0})
        assert c == AdditiveClause({0: 2.0, 3: 1.0}) and c.support == 0b1001
        assert all(type(j) is int for j in c.weights)

    def test_equality(self):
        assert AdditiveClause({0: 1, 1: 2}) == AdditiveClause({1: 2.0, 0: 1.0})
        assert AdditiveClause({0: 1}) != AdditiveClause({0: 2})

    @pytest.mark.parametrize("clause", [
        AdditiveClause.uniform(2.0, 0b101101),
        AdditiveClause({0: 2.0, 2: 1.0, 3: 2.0 * (1 - RELATIVE_TOL), 5: 4.0, 6: 0.0}),
        AdditiveClause({}),
    ], ids=["uniform", "mixed", "empty"])
    @pytest.mark.parametrize("t", [
        0.0, 1.0, 5.0, *_around(2.0), *_around(4.0), *_around(2.0 * (1 - RELATIVE_TOL)),
    ])
    def test_meeting_is_the_items_whose_weight_meets(self, clause, t):
        for bundle in (0, 0b1111111, 0b1010101, clause.support):
            walked = bitsets.from_items(
                j for j in bitsets.iter_items(bundle) if meets(clause.weights.get(j, 0.0), t))
            if not meets(0.0, t):
                assert bundle & clause.meeting(t) == walked
            else:  # at t = 0 every item meets, weighed in the support or not
                assert walked == bundle and clause.meeting(t) == clause.support


    @pytest.mark.parametrize("t", [1.0, 3.0, 0.1, 2.5e-300, 7e300])
    def test_mixed_meeting_at_the_tolerance_boundary(self, t):
        cut = t * (1 - RELATIVE_TOL)  # the float meets(w, t) compares w with
        weights = {0: math.nextafter(cut, 0.0), 1: cut, 2: math.nextafter(cut, math.inf),
                   3: t * (1 - 2 * RELATIVE_TOL), 4: t * (1 - RELATIVE_TOL / 2), 5: t,
                   6: 0.0, 9: 2 * t}
        outside = {j: weights[j] for j in (0, 3, 6)}  # every weight just short: an empty result
        for kept, expected in ((weights, 0b1000110110), (outside, 0)):
            clause = AdditiveClause(kept)
            assert clause._uniform_weight is None
            walked = bitsets.from_items(j for j, w in kept.items() if meets(w, t))
            assert clause.meeting(t) == walked == expected

    @settings(max_examples=200, deadline=None)
    @given(weights=st.dictionaries(st.integers(min_value=0, max_value=600),
                                   st.floats(min_value=0, max_value=1e6), max_size=40),
           t=st.floats(min_value=0, max_value=1e6))
    def test_mixed_meeting_is_the_items_whose_weight_meets(self, weights, t):
        clause = AdditiveClause(weights)
        assert clause.meeting(t) == bitsets.from_items(
            j for j, w in clause.weights.items() if meets(w, t))


class TestFamilies:
    def test_additive(self):
        v = vs.AdditiveValuation([1, 2, 4])
        assert v._value(0b101) == 5.0
        assert v._value(0) == 0.0

    def test_coverage_unit_weights(self):
        v = vs.CoverageValuation([1, 1, 1, 1], [[0, 1], [1, 2], [3]])
        assert v._value(0b011) == 3.0
        assert v._value(0b111) == 4.0
        assert v._value(0b010) == 2.0

    def test_coverage_weighted(self):
        v = vs.CoverageValuation([2, 1, 0.5], [[0], [0, 1], [2]])
        assert v._value(0b011) == 3.0
        assert v._value(0b100) == 0.5
        assert v._value(0b111) == 3.5

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 127, 129, 513])
    @pytest.mark.parametrize("unit", [True, False], ids=["unit", "weighted"])
    def test_coverage_value_is_the_item_walk_union(self, n, unit):
        rng = random.Random(n)
        universe = 3 * n
        weights = [1.0 if unit else rng.choice([0.5, 1.0, 2.0, 3.25]) for _ in range(universe)]
        covers = [rng.sample(range(universe), rng.randint(0, 4)) for _ in range(n)]
        v = vs.CoverageValuation(weights, covers)
        bundles = [0, bitsets.full_mask(n), 1 << (n - 1)]
        bundles += [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(40)]
        # B | j for a few items j under one base B, as a greedy pass asks,
        # then under the next bases, more of them than the memo remembers,
        # and back to the first: each B | j starts from B, a new base from
        # a smaller remembered subset or from nothing
        for base in bundles[3:9] + bundles[3:5]:
            bundles += [base | (1 << j) for j in rng.sample(range(n), min(n, 12))]
        # a prefix scan that grows one item at a time, asking each prefix twice
        # and then every other item of it, a subset of the remembered prefixes
        order = rng.sample(range(n), min(n, 20))
        for i in range(1, len(order) + 1):
            grown = bitsets.from_items(order[:i])
            bundles += [grown, grown, bitsets.from_items(order[:i:2])]
        for bundle in bundles:
            union = 0
            for j in bitsets.iter_items(bundle):
                union |= bitsets.from_items(covers[j])
            assert v._value(bundle) == sum(weights[e] for e in bitsets.iter_items(union))

    def test_coverage_scan_keeps_its_base_remembered(self):
        v = vs.CoverageValuation([1.0] * 3, [[j % 3] for j in range(130)])
        assert v._recent == {}  # constructing remembers nothing
        base = (1 << 129) | 0b101
        assert v._value(base) == 2.0
        for j in range(64, 70):
            assert v._value(base | (1 << j)) == (3.0 if j % 3 == 1 else 2.0)
            assert base in v._recent  # refreshed by each B | j, so never evicted
        assert len(v._recent) == vs.CoverageValuation.RECENT
        # the last bundles asked, the base refreshed just before the newest
        assert list(v._recent)[-2:] == [base, base | (1 << 69)]

    def test_coverage_memo_stays_bounded_through_a_build(self):
        pipeline = vs.get_pipeline("submodular")
        oracle = vs.generate_instance("coverage", 512, 0, universe=1024, max_cover=6).build()
        vs.build_sketch(oracle, pipeline.card, pipeline.xos)
        assert 1 <= len(oracle._recent) <= vs.CoverageValuation.RECENT

    def test_coverage_rejects_out_of_universe(self):
        with pytest.raises(ValueError):
            vs.CoverageValuation([1], [[0, 1]])

    def test_uniform_matroid(self):
        v = vs.UniformMatroidRank(5, 2)
        assert v._value(0b00111) == 2.0
        assert v._value(0b00001) == 1.0

    def test_partition_matroid(self):
        v = vs.PartitionMatroidRank([[0, 1], [2, 3, 4]], [1, 2])
        assert v._value(0b00011) == 1.0
        assert v._value(0b11101) == 3.0
        assert v._value(0b00110) == 2.0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_partition_matroid_is_capped_block_sum(self, data):
        n = data.draw(st.integers(min_value=1, max_value=70))
        block_of = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
        blocks = [[j for j in range(n) if block_of[j] == b] for b in range(6)]  # some empty
        caps = data.draw(st.lists(st.integers(0, 4), min_size=6, max_size=6))
        bundle = data.draw(st.integers(0, (1 << n) - 1))
        scale = data.draw(st.sampled_from([0.25, 1.0, 3.0]))

        def capped_sum(s):
            return float(sum(min(sum((s >> j) & 1 for j in b), c) for b, c in zip(blocks, caps)))

        v = vs.PartitionMatroidRank(blocks, caps)
        assert v.value(bundle) == capped_sum(bundle)
        assert OracleView(v).value(bundle) == capped_sum(bundle)
        assert OracleView(v, scale).value(bundle) == capped_sum(bundle) / scale

    def test_partition_matroid_rejects_overlap_and_gaps(self):
        with pytest.raises(ValueError):
            vs.PartitionMatroidRank([[0, 1], [1, 2]], [1, 1])
        with pytest.raises(ValueError):
            vs.PartitionMatroidRank([[0, 2]], [1])

    def test_graphic_matroid_triangle(self):
        v = vs.GraphicMatroidRank(3, [(0, 1), (1, 2), (0, 2)])
        assert v._value(0b111) == 2.0
        assert v._value(0b011) == 2.0
        assert v._value(0b001) == 1.0

    def test_graphic_matroid_k4(self):
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        v = vs.GraphicMatroidRank(4, edges)
        assert v._value(0b111111) == 3.0
        assert v._value(0b000111) == 3.0  # star at vertex 0 is a tree

    @pytest.mark.parametrize("vertices", [1e308, 4.0, True, 0, "4"])
    def test_graphic_matroid_needs_an_int_vertex_count(self, vertices):
        with pytest.raises(ValueError, match="vertices must be an int"):
            vs.GraphicMatroidRank(vertices, [(0, 1)])

    def test_graphic_matroid_rank_ignores_unused_vertices(self):
        # a 4-cycle with a chord, once on vertices 0..3 and once on far-apart ids
        small = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
        spread = [(10 ** 12 - 1, 5), (5, 7 * 10 ** 9), (7 * 10 ** 9, 3), (10 ** 12 - 1, 3),
                  (10 ** 12 - 1, 7 * 10 ** 9)]
        a, b = vs.GraphicMatroidRank(4, small), vs.GraphicMatroidRank(10 ** 12, spread)
        assert [a._value(s) for s in range(32)] == [b._value(s) for s in range(32)]
        assert b._value(0b11111) == 3.0

    def test_xos_explicit(self):
        v = vs.XOSExplicitValuation(
            [AdditiveClause({0: 3, 1: 1}), AdditiveClause({1: 2, 2: 2})]
        )
        assert v._value(0b010) == 2.0
        assert v._value(0b011) == 4.0
        assert v._value(0b110) == 4.0
        assert v._value(0b101) == 3.0
        assert v._value(0b111) == 4.0

    def test_subadditive_table(self):
        v = vs.SubadditiveTableValuation([0, 1, 2, 2])
        assert v._value(0b01) == 1.0
        assert v._value(0b11) == 2.0


class TestTableValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            vs.SubadditiveTableValuation([1, 1, 1, 1])

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError, match="monotone"):
            vs.SubadditiveTableValuation([0, 2, 1, 1])

    def test_rejects_non_subadditive(self):
        with pytest.raises(ValueError, match="subadditive"):
            vs.SubadditiveTableValuation([0, 1, 1, 3])

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            vs.SubadditiveTableValuation([0, 1, 2])

    @pytest.mark.parametrize("table", [1, [[0, 1], [1, 2]]])
    def test_rejects_a_table_that_is_not_flat(self, table):
        with pytest.raises(ValueError, match="flat list"):
            vs.SubadditiveTableValuation(table)

    def test_checks_every_split_past_twelve_items(self):
        # v(S) = |S|^2 is monotone; its first failing split is 1 + 1 < 4
        table = np.bitwise_count(np.arange(1 << 14)).astype(float) ** 2
        with pytest.raises(ValueError, match=re.escape("v(0x1) + v(0x2) < v(0x3)")):
            vs.SubadditiveTableValuation(table)

    def test_refuses_a_table_past_the_limit(self):
        with pytest.raises(vs.ScaleError, match="limited to 16 items"):
            vs.SubadditiveTableValuation(np.broadcast_to(0.0, 1 << 17))  # allocates no table

    @pytest.mark.parametrize("table, accepted", [([0, 1, 1, 1 - 1e-12], True),
                                                 ([0, 1, 1, 1 - 1e-6], False),
                                                 ([0, 1, 1, 2 + 1e-12], True),
                                                 ([0, 1, 1, 2 + 1e-6], False)])
    def test_accepts_what_validate_class_accepts(self, table, accepted):
        """A dip or a split excess within RELATIVE_TOL is forgiven by both."""
        ok, witness = vs.validate_class(np.asarray(table), "subadditive")
        assert ok is accepted
        if ok:
            assert vs.SubadditiveTableValuation(table).table.tolist() == table
        else:
            kind = "monotone" if len(witness) == 2 else "subadditive"
            with pytest.raises(ValueError, match=f"table is not {kind}"):
                vs.SubadditiveTableValuation(table)


class TestWrappers:
    def test_scaled_divides_value(self):
        v = vs.AdditiveValuation([2, 4])
        s = OracleView(v, 2.0)
        assert s._value(0b11) == 3.0

    def test_scaled_rejects_bad_scale(self):
        v = vs.AdditiveValuation([1])
        for scale in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                OracleView(v, scale)

    def test_stacked_wrappers_share_ledger(self):
        led = vs.QueryLedger()
        v = vs.AdditiveValuation([1, 2, 4], led)
        view = OracleView(OracleView(v, 2.0))
        assert view.value(0b101) == 2.5
        assert led.value_queries == 1

    def test_view_counts_a_repeated_question_once(self):
        led = vs.QueryLedger()
        view = OracleView(vs.AdditiveValuation([1, 2, 4], led))
        assert [view.value(b) for b in (0b011, 0b011)] == [3.0, 3.0]
        prices = vs.UniformPrices(1.5, 0b011)
        assert view.demand(prices) == view.demand(vs.UniformPrices(1.5, 0b011)) == 0b010
        assert led.totals() == (1, 1)

    def test_view_answers_one_item_bundles_from_its_item_table(self):
        """A one-item bundle the view has not stored is answered from
        `singles`, uncounted and not stored; an item the table lacks, and
        any larger bundle, goes to the root, which counts it."""
        led = vs.QueryLedger()
        view = OracleView(vs.AdditiveValuation([1, 2, 4], led), 2.0)
        view.singles = {0: 0.5, 2: 7.0}  # a seeded value is answered as given
        assert [view.value(b) for b in (0b001, 0b100, 0b001)] == [0.5, 7.0, 0.5]
        assert led.totals() == (0, 0) and view.answers == {}
        assert view.value(0b010) == 1.0 and view.value(0b101) == 2.5
        assert led.totals() == (2, 0) and view.answers == {0b010: 1.0, 0b101: 2.5}
        assert view.value(0) == 0.0 and led.totals() == (3, 0)

    @pytest.mark.parametrize("bundle", [0b1011, -1])  # item 3; bits past every item
    def test_view_hit_still_refuses_a_bad_bundle(self, bundle):
        v = vs.AdditiveValuation([1, 2, 4])
        view = OracleView(v)
        view.value(0b011)
        with pytest.raises(vs.MalformedBundleError):
            view.value(bundle)
        assert v.ledger.totals() == (1, 0) and view.answers == {0b011: 3.0}

    @pytest.mark.parametrize("bad", [1 << 3, 0b1011, -1, -2])
    def test_root_refuses_a_question_outside_the_ground_set(self, bad):
        """A view has no check of its own: a bundle or priced set with items
        outside 0..n-1, asked through nested views, is refused by the root,
        which counts nothing, and no view stores anything."""
        v = vs.AdditiveValuation([1, 2, 4])
        outer = OracleView(v, 2.0)
        inner = OracleView(outer, 0.5)
        with pytest.raises(vs.MalformedBundleError, match="outside 0..2"):
            inner.value(bad)
        with pytest.raises(vs.MalformedBundleError, match="outside 0..2"):
            inner.demand(vs.UniformPrices(1.0, bad))
        assert v.ledger.totals() == (0, 0)
        assert inner.answers == outer.answers == {}

    def test_view_does_not_store_a_refused_answer(self):
        class Broken(vs.AdditiveValuation):
            def _value(self, bundle):
                return math.nan if bundle == 0b011 else super()._value(bundle)

        led = vs.QueryLedger()
        view = OracleView(Broken([1, 2, 4], led))
        for _ in range(2):
            with pytest.raises(ValueError, match="Broken valued bundle 3 at nan"):
                view.value(0b011)
        assert led.value_queries == 2
        assert view.answers == {}

    def test_view_refuses_a_bad_demand_question_after_answering(self):
        view = OracleView(vs.AdditiveValuation([1, 2, 4]))
        assert view.demand(vs.UniformPrices(1.5, 0b011)) == 0b010
        with pytest.raises(vs.MalformedBundleError):
            view.demand(vs.UniformPrices(1.5, 0b1011))  # item 3 is outside the ground set
        with pytest.raises(ValueError, match="prices must be finite"):
            view.demand(vs.UniformPrices(-1.5, 0b011))
        assert view.parent.ledger.totals() == (0, 1) and len(view.answers) == 1

    def test_view_refuses_a_value_that_overflows_its_scale(self):
        """A finite root answer that reaches inf once divided by the scale
        is refused; the root counted it once and the view stores nothing."""
        view = OracleView(vs.AdditiveValuation([1e10, 1.0]), 1e-300)
        with pytest.raises(ValueError, match="bundle 1 overflows in units of scale 1e-300"):
            view.value(0b01)
        assert view.answers == {} and view.parent.ledger.totals() == (1, 0)
        assert view.value(0b10) == 1.0 / 1e-300
        assert view.parent.ledger.totals() == (2, 0)

    def test_nested_views_convert_in_order(self):
        """Each view divides a value by its scale and multiplies a price by
        it on the way to the root, the innermost first, bit for bit."""
        class Recording(vs.AdditiveValuation):
            def _demand_uniform(self, q, included):
                self.asked = q, included
                return super()._demand_uniform(q, included)

        rng = random.Random(5)
        for _ in range(200):
            root = Recording([rng.uniform(0.0, 10.0) for _ in range(6)])
            s_out, s_in = rng.uniform(1e-3, 1e3), rng.uniform(1e-3, 1e3)
            inner = OracleView(OracleView(root, s_out), s_in)
            bundle, q = rng.getrandbits(6), rng.uniform(0.0, 10.0)
            assert inner.value(bundle) == root._value(bundle) / s_out / s_in
            inner.demand(vs.UniformPrices(q, bundle))
            assert root.asked == (q * s_in * s_out, bundle)

    def test_stacked_views_count_a_repeat_once(self):
        led = vs.QueryLedger()
        inner = OracleView(OracleView(vs.AdditiveValuation([1, 2, 4], led), 2.0))
        assert inner.value(0b101) == inner.value(0b101) == 2.5
        prices = vs.UniformPrices(0.75, 0b101)  # 1.5 in the root's units
        assert inner.demand(prices) == inner.demand(prices) == 0b100
        assert led.totals() == (1, 1)


class TestClassValidation:
    def test_submodular_families_pass(self):
        v = vs.CoverageValuation([1, 1, 1], [[0], [0, 1], [2]])
        truth = vs.brute_reference_table(v)
        ok, _ = vs.validate_class(truth, "submodular")
        assert ok
        ok, _ = vs.validate_class(truth, "monotone")
        assert ok

    def test_subadditive_but_not_submodular(self):
        # flat at 1 on sizes 1 and 2, jumps to 2 on the full set
        truth = vs.brute_reference_table(vs.SubadditiveTableValuation([0, 1, 1, 1, 1, 1, 1, 2]))
        ok, witness = vs.validate_class(truth, "submodular")
        assert not ok and witness is not None
        ok, _ = vs.validate_class(truth, "subadditive")
        assert ok

    def test_matroid_rank(self):
        truth = vs.brute_reference_table(vs.PartitionMatroidRank([[0, 1], [2]], [1, 1]))
        assert vs.validate_class(truth, "matroid-rank") == (True, None)
        # submodular, but item 1 adds 2 to the empty bundle
        truth = vs.brute_reference_table(vs.CoverageValuation([1, 1, 1], [[0], [1, 2]]))
        assert vs.validate_class(truth, "submodular") == (True, None)
        assert vs.validate_class(truth, "matroid-rank") == (False, (0, 0b10))
        truth = vs.brute_reference_table(vs.AdditiveValuation([1, 0.5]))
        assert vs.validate_class(truth, "matroid-rank") == (False, (0, 0b10))
        # every marginal 0 or 1, but item 1 adds more to {0} than to the empty bundle
        truth = vs.brute_reference_table(_RawTable([0, 0, 0, 1], 2))
        assert vs.validate_class(truth, "matroid-rank") == (False, (0, 1, 1))

    def test_every_class_check_includes_monotonicity(self):
        # v({0, 1}) = 0.5 falls below v({0}) = 1: no split or marginal growth
        # fails, but no class holds a valuation that falls
        truth = vs.brute_reference_table(_RawTable([0, 1, 1, 0.5], 2))
        for prop in vs.verify.PROPERTIES:
            assert vs.validate_class(truth, prop) == (False, (0b01, 0b11)), prop

    def test_class_checks_match_the_lattice_loops(self):
        """On a monotone table every property gives the loops' (ok, witness);
        on a table that falls, submodular and subadditive give the loops'
        first monotone witness. matroid-rank's 0-or-1 marginals already
        imply monotone, so it matches the loops on every table."""
        outcomes = set()
        for seed in range(200):
            for table, n in _class_tables(seed):
                oracle = _RawTable(table, n)
                monotone = lattice_class_check(oracle, "monotone")
                truth = vs.brute_reference_table(oracle)
                for prop in vs.verify.PROPERTIES:
                    got = vs.validate_class(truth, prop)
                    if monotone[0] or prop in ("monotone", "matroid-rank"):
                        assert got == lattice_class_check(oracle, prop), (table, prop)
                    else:
                        assert got == monotone, (table, prop)
                    outcomes.add((prop, monotone[0], got[0]))
        # each property fails on tables that fall; the others both pass and fail
        assert {(p, False, False) for p in vs.verify.PROPERTIES} <= outcomes
        assert {(p, True, ok) for p in vs.verify.PROPERTIES[1:] for ok in (True, False)} <= outcomes

    def test_xos_consistent(self):
        v = vs.XOSExplicitValuation([AdditiveClause({0: 1, 1: 1})])
        assert xos_consistent(v) == (True, None)

    def test_unknown_property_rejected(self):
        truth = vs.brute_reference_table(vs.AdditiveValuation([1]))
        with pytest.raises(ValueError):
            vs.validate_class(truth, "concave")

    def test_scale_guard(self):
        # the class check reads a checked table, which stops at VALIDATE_LIMIT = 16
        with pytest.raises(vs.ScaleError):
            vs.brute_reference_table(vs.UniformMatroidRank(17, 3))


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["additive", "coverage", "uniform-matroid",
                            "partition-matroid", "graphic-matroid", "xos-explicit"]),
    n=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_generated_instances_are_monotone_and_classed(family, n, seed):
    spec = vs.generate_instance(family, n, seed)
    truth = vs.brute_reference_table(spec.build())
    ok, witness = vs.validate_class(truth, "monotone")
    assert ok, witness
    prop = {"xos-explicit": "subadditive", "uniform-matroid": "matroid-rank",
            "partition-matroid": "matroid-rank", "graphic-matroid": "matroid-rank"}
    ok, witness = vs.validate_class(truth, prop.get(family, "submodular"))
    assert ok, witness


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=7), seed=st.integers(min_value=0, max_value=10_000))
def test_generated_tables_are_subadditive(n, seed):
    spec = vs.generate_instance("subadditive-table", n, seed)
    truth = vs.brute_reference_table(spec.build())
    for prop in ("monotone", "subadditive"):
        ok, witness = vs.validate_class(truth, prop)
        assert ok, (prop, witness)


class _RawTable(vs.ValuationOracle):
    """Any table as an oracle, subadditive or not."""

    def __init__(self, table, n):
        super().__init__(n)
        self.table = table

    def _value(self, bundle):
        return self.table[bundle]


def _class_tables(seed):
    """Small integer and dyadic tables for one seed, as (table, n): raw
    draws, their monotone closures, coverage and partition matroid ranks,
    each also with one entry moved, and now and then v(empty) != 0."""
    rng = random.Random(seed)
    n = 1 + seed % 5
    size = 1 << n
    raw = [0] + [rng.randint(0, 3) for _ in range(size - 1)]
    dyadic = [0.0] + [rng.randint(0, 12) / 4 for _ in range(size - 1)]
    covers = [rng.getrandbits(4) for _ in range(n)]
    coverage = [_union_count(covers, s) for s in range(size)]
    blocks = [rng.randrange(3) for _ in range(n)]
    # a partition matroid with cap 1 per block: the number of blocks touched
    matroid = [len({blocks[j] for j in bitsets.iter_items(s)}) for s in range(size)]
    tables = [raw, dyadic, _monotone_closure(raw, n), _monotone_closure(dyadic, n),
              coverage, matroid]
    for table in list(tables):
        moved, s = list(table), rng.randrange(size)
        moved[s] = max(0, moved[s] + rng.choice((-1, -0.5, 0.5, 1)))
        tables.append(moved)
    return [(t, n) for t in tables]


def _union_count(covers, s):
    union = 0
    for j in bitsets.iter_items(s):
        union |= covers[j]
    return union.bit_count()


def _failing_splits(table, n):
    """Every (a, b, a | b) with 0 < a < b disjoint and v(a) + v(b) below
    v(a | b) beyond RELATIVE_TOL, from all pairs of nonempty bundles."""
    tol = 1.0 - RELATIVE_TOL
    return [(a, b, a | b) for a, b in itertools.combinations(range(1, 1 << n), 2)
            if not a & b and table[a] + table[b] < table[a | b] * tol]


def _monotone_closure(table, n):
    out = list(table)
    for s in range(1, 1 << n):
        out[s] = max([out[s]] + [out[s ^ (1 << j)] for j in range(n) if (s >> j) & 1])
    return out


def test_repair_closure_is_the_loop_closure():
    """With every nonempty value in [8, 12] no split undercuts a value, so
    the repair is only its monotone closure, taken one item at a time over
    the table; it must equal the loop over each bundle's subsets."""
    for seed in range(40):
        rng = random.Random(seed)
        n = 1 + seed % 8
        raw = [0.0] + [rng.randint(32, 48) / 4 for _ in range((1 << n) - 1)]
        assert _repair_table(np.asarray(raw), n).tolist() == _monotone_closure(raw, n)


def test_subadditive_witness_is_the_first_failing_split():
    """The witness is the failing split of the smallest bundle s, and of
    its halves the one with the largest a; None when no split fails.
    validate_class and the table constructor report that same split, and
    validate_class reports the first fall instead on a table that falls."""
    for seed in range(60):
        rng = random.Random(seed)
        n = 1 + seed % 6
        raw = [0.0] + [float(rng.randint(1, 12)) for _ in range((1 << n) - 1)]
        repaired = [float(x) for x in _repair_table(np.asarray(raw), n)]
        bumped = list(repaired)
        bumped[rng.randrange(1, 1 << n)] += rng.randint(1, 12)
        for table in (raw, repaired, bumped, _monotone_closure(raw, n)):
            bad = _failing_splits(table, n)
            witness = subadditive_witness(table)
            assert witness == (min(bad, key=lambda w: (w[2], -w[0])) if bad else None)
            oracle = _RawTable(table, n)
            monotone = lattice_class_check(oracle, "monotone")
            expected = (not bad, witness) if monotone[0] else monotone
            assert vs.validate_class(vs.brute_reference_table(oracle), "subadditive") == expected
        assert subadditive_witness(repaired) is None
        closure = _monotone_closure(raw, n)
        witness = subadditive_witness(closure)
        if witness is None:
            vs.SubadditiveTableValuation(closure)
        else:
            a, b, s = witness
            message = f"not subadditive: v({a:#x}) + v({b:#x}) < v({s:#x})"
            with pytest.raises(ValueError, match=re.escape(message)):
                vs.SubadditiveTableValuation(closure)


def test_subadditive_witness_matches_the_loop():
    """The per-size read finds the loop's witness on random tables up to
    n = 10: raw draws that fall and rise, their subadditive repairs, and
    repairs whose full bundle alone is raised past some of its splits."""
    for seed in range(120):
        rng = random.Random(seed)
        n = 1 + seed % 10
        full = (1 << n) - 1
        raw = [0.0] + [rng.randint(0, 16) / 4 for _ in range(full)]
        repaired = [float(x) for x in _repair_table(np.asarray(raw), n)]
        raised = list(repaired)
        cheapest = min((repaired[a] + repaired[full ^ a] for a in range(1, full)), default=0.0)
        raised[full] = max(raised[full], cheapest + rng.choice((0.25, 1.0, 5.0)))
        for table in (raw, repaired, raised):
            assert subadditive_witness(table) == subadditive_witness_loop(table)
            assert subadditive_witness(np.asarray(table)) == subadditive_witness_loop(table)
        if n > 1:
            assert subadditive_witness(repaired) is None
            assert subadditive_witness(raised)[2] == full


def test_repair_table_caps_each_value_as_the_split_loop_does():
    """The repair reads the splits of all bundles of one size at once; it
    equals the loop that caps each value by its cheapest split, size by
    size, followed by the monotone closure, float for float."""
    for seed in range(60):
        rng = random.Random(seed)
        n = 1 + seed % 10
        raw = [rng.choice([0.0, rng.randint(0, 40) / 4, rng.random() * 9]) for _ in range(1 << n)]
        capped = cheapest_split_caps_loop(raw, n)
        assert _repair_table(np.asarray(raw), n).tolist() == _monotone_closure(capped, n)


@st.composite
def _memo_walks(draw):
    """(n, bundles): B | j scans under more bases than RecentBundles.RECENT,
    a return to the first, evicted base, then shrinking bundles, repeats,
    new bundles and the empty bundle in any order."""
    n = draw(st.integers(min_value=1, max_value=70))
    bundles = st.integers(0, (1 << n) - 1)
    items = st.integers(0, n - 1)
    bases = draw(st.lists(bundles, min_size=RecentBundles.RECENT + 1, max_size=8))
    walk = [0]
    for base in bases + bases[:1]:
        walk += [base] + [base | 1 << j for j in draw(st.lists(items, min_size=1, max_size=4))]
    for kind in draw(st.lists(st.sampled_from(["shrink", "repeat", "new", "empty"]), max_size=12)):
        if kind == "shrink":
            walk.append(walk[-1] & draw(bundles))
        elif kind == "repeat":
            walk.append(draw(st.sampled_from(walk)))
        else:
            walk.append(draw(bundles) if kind == "new" else 0)
    return n, walk


@settings(max_examples=80, deadline=None)
@given(walk=_memo_walks(), data=st.data())
def test_recent_memo_answers_every_walk_exactly(walk, data):
    """Both families that grow their values from the recent-bundle memo
    answer each question of a walk with the capped block sum or the cover
    union, and keep at most RECENT bundles, the last one asked last."""
    n, bundles = walk
    block_of = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    blocks = [[j for j in range(n) if block_of[j] == b] for b in range(6)]  # some empty
    caps = data.draw(st.lists(st.integers(0, 3), min_size=6, max_size=6))
    weights = data.draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.25]),
                                 min_size=2 * n, max_size=2 * n))
    covers = data.draw(st.lists(st.sets(st.integers(0, 2 * n - 1), max_size=4),
                                min_size=n, max_size=n))
    matroid = vs.PartitionMatroidRank(blocks, caps)
    coverage = vs.CoverageValuation(weights, [sorted(c) for c in covers])
    for bundle in bundles:
        union = 0
        for j in bitsets.iter_items(bundle):
            union |= coverage.covers[j]
        assert matroid._value(bundle) == capped_block_sum(matroid.blocks, matroid.caps, bundle)
        assert coverage._value(bundle) == sum(weights[e] for e in bitsets.iter_items(union))
        for oracle in (matroid, coverage):
            assert isinstance(oracle, RecentBundles)
            assert len(oracle._recent) <= RecentBundles.RECENT
            assert not bundle or list(oracle._recent)[-1] == bundle


def test_partition_matroid_constructor_remembers_nothing():
    oracle = vs.generate_instance("partition-matroid", 512, 0, block_size=4, cap=1).build()
    assert oracle._recent == {}
    assert "_block_of" not in vars(oracle)  # the per-item table waits for the first value
    assert oracle._value(0b1011) == capped_block_sum(oracle.blocks, oracle.caps, 0b1011)
    assert "_block_of" in vars(oracle)


def test_partition_matroid_memo_through_the_matroid_value_build():
    """The n = 512 matroid-value recipe: the memo never holds more than
    RECENT bundles, and every root question equals the capped block sum."""
    oracle = vs.generate_instance("partition-matroid", 512, 0, block_size=4, cap=1).build()
    answers, hook = [], oracle._value

    def recording(bundle):
        answers.append((bundle, hook(bundle)))
        assert len(oracle._recent) <= RecentBundles.RECENT
        return answers[-1][1]

    oracle._value = recording
    pipeline = vs.get_pipeline("matroid")
    vs.build_sketch(oracle, pipeline.card, pipeline.xos)
    assert len(answers) == oracle.ledger.totals()[0] == 3055
    for bundle, answer in answers:
        assert answer == capped_block_sum(oracle.blocks, oracle.caps, bundle)
