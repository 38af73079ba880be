"""Demand query correctness, checked against an independent maximizer
that enumerates subsets through itertools rather than submask arithmetic.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import valsketch as vs
from valsketch.valuations import EXCLUDED, OracleView, UniformPrices


def reference_demand(oracle, prices):
    """Max profit, then fewest items, then smallest mask."""
    free = [j for j, p in enumerate(prices) if p is not EXCLUDED]
    best = (0.0, 0, 0)
    for size in range(1, len(free) + 1):
        for combo in itertools.combinations(free, size):
            mask = 0
            cost = 0.0
            for j in combo:
                mask |= 1 << j
                cost += prices[j]
            profit = oracle._value(mask) - cost
            key = (-profit, size, mask)
            if key < (-best[0], best[1], best[2]):
                best = (profit, size, mask)
    return best[2]


def family_instances(n, seed):
    for family in ("additive", "xos-explicit", "subadditive-table",
                   "coverage", "uniform-matroid", "graphic-matroid"):
        yield vs.generate_instance(family, n, seed).build()


price_lists = st.lists(
    st.one_of(st.none(), st.integers(min_value=0, max_value=12).map(lambda x: x / 2)),
    min_size=6,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(prices=price_lists, seed=st.integers(min_value=0, max_value=500))
def test_demand_matches_reference(prices, seed):
    for oracle in family_instances(6, seed):
        got = oracle.demand(list(prices))
        want = reference_demand(oracle, prices)
        assert got == want, (type(oracle).__name__, prices)


@settings(max_examples=40, deadline=None)
@given(
    q=st.integers(min_value=0, max_value=10).map(lambda x: x / 2),
    included=st.integers(min_value=0, max_value=63),
    seed=st.integers(min_value=0, max_value=500),
)
def test_uniform_prices_agree_with_list_form(q, included, seed):
    for oracle in family_instances(6, seed):
        fast = oracle.demand(UniformPrices(q, included, 6))
        slow = oracle.demand([q if (included >> j) & 1 else EXCLUDED for j in range(6)])
        assert fast == slow, type(oracle).__name__


@settings(max_examples=40, deadline=None)
@given(
    prices=price_lists,
    seed=st.integers(min_value=0, max_value=500),
)
def test_excluded_items_never_returned(prices, seed):
    banned = vs.bitsets.from_items(j for j, p in enumerate(prices) if p is EXCLUDED)
    for oracle in family_instances(6, seed):
        assert oracle.demand(list(prices)) & banned == 0


def test_demand_tie_breaks_to_empty_then_small():
    v = vs.AdditiveValuation([1.0, 1.0])
    # zero profit everywhere: the empty bundle wins on cardinality
    assert v.demand([1.0, 1.0]) == 0
    # equal positive profit on both singletons: smaller mask wins
    x = vs.XOSExplicitValuation(
        [vs.AdditiveClause({0: 2.0}), vs.AdditiveClause({1: 2.0})]
    )
    assert x.demand([1.0, 1.0]) == 0b01


def test_demand_profit_is_optimal_for_table():
    v = vs.SubadditiveTableValuation([0, 4, 3, 6, 2, 6, 5, 7])
    # {0,1}, {0,2} and the full set all realize profit 4; fewest items,
    # then the smaller mask, picks {0,1}
    assert v.demand([1.0, 1.0, 1.0]) == 0b011


def test_demand_price_validation():
    v = vs.AdditiveValuation([1.0, 2.0])
    with pytest.raises(ValueError):
        v.demand([1.0])
    with pytest.raises(ValueError):
        v.demand([-0.5, 1.0])
    with pytest.raises(ValueError):
        v.demand(UniformPrices(float("nan"), 0b11, 2))


def test_demand_capability_gate():
    big = vs.UniformMatroidRank(30, 3)
    assert not big.has_demand
    with pytest.raises(vs.CapabilityError):
        big.demand([1.0] * 30)


def test_scaled_demand_rescales_prices():
    led = vs.QueryLedger()
    v = vs.AdditiveValuation([2.0, 6.0], led)
    half = vs.valuations.OracleView(v, 0b11, 2.0)
    # in half-scale units the weights are 1 and 3; price 2 keeps only item 1
    assert half.demand([2.0, 2.0]) == 0b10
    assert half.demand(UniformPrices(2.0, 0b11, 2)) == 0b10


def test_restricted_demand_excludes_masked_items():
    v = vs.AdditiveValuation([5.0, 5.0, 5.0])
    view = v.restrict(0b011)
    assert view.demand([1.0, 1.0, 1.0]) == 0b011
    assert view.demand(UniformPrices(1.0, 0b111, 3)) == 0b011


@pytest.mark.parametrize("answer", [0b100, -1, 1.0, True])
def test_demand_answer_must_be_priced_int_bundle(answer):
    class Wayward(vs.AdditiveValuation):
        def _demand(self, prices):
            return answer

        def _demand_uniform(self, q, included):
            return answer

    v = Wayward([1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="Wayward answered a demand query"):
        v.demand([0.5, 0.5, EXCLUDED])
    with pytest.raises(ValueError, match="Wayward answered a demand query"):
        v.restrict(0b011).demand(UniformPrices(0.5, 0b011, 3))
    # every item priced: the masks of the nested views, not the prices, bound the answer
    with pytest.raises(ValueError, match="Wayward answered a demand query"):
        v.restrict(0b011).demand([0.5, 0.5, 0.5])
    with pytest.raises(ValueError, match="Wayward answered a demand query"):
        v.restrict(0b011).restrict(0b111).demand(UniformPrices(0.5, 0b111, 3))


def law_of_demand_oracles(n, seed):
    """Every shipped demand oracle on n items: additive, explicit XOS with
    uniform and with mixed clause weights, the subadditive table, and the
    exhaustive fallback on coverage and on a partition matroid."""
    yield vs.generate_instance("additive", n, seed).build()
    yield vs.generate_instance("xos-explicit", n, seed, uniform=True).build()
    yield vs.generate_instance("xos-explicit", n, seed).build()
    yield vs.generate_instance("subadditive-table", n, seed).build()
    yield vs.generate_instance("coverage", n, seed).build()
    yield vs.generate_instance("partition-matroid", n, seed, block_size=3, cap=2).build()


dyadic_prices = st.builds(lambda a, e: a / (1 << e),
                          st.integers(min_value=0, max_value=48),
                          st.integers(min_value=0, max_value=3))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=500),
    included=st.integers(min_value=0, max_value=255),
    mask=st.integers(min_value=0, max_value=255),
    scale=st.sampled_from([0.5, 1.0, 3.0, 8.0]),
    q=dyadic_prices,
    rise=dyadic_prices.filter(lambda x: x > 0),
)
def test_law_of_demand(n, seed, included, mask, scale, q, rise):
    """At a higher uniform price an optimal answer is no larger and no
    more valuable, and an answer holding every priced item at q still
    does at q/2. The early stops of both demand sweeps rest on these."""
    full = vs.bitsets.full_mask(n)
    included &= full
    for oracle in law_of_demand_oracles(n, seed):
        for asked in (oracle, OracleView(oracle, mask & full, scale)):
            low = asked.demand(UniformPrices(q, included, n))
            high = asked.demand(UniformPrices(q + rise, included, n))
            name = type(oracle).__name__
            assert high.bit_count() <= low.bit_count(), name
            assert asked._value(high) <= asked._value(low), name
            for price, answer in ((q, low), (q + rise, high)):
                if answer == included:
                    assert asked.demand(UniformPrices(price / 2, included, n)) == included, name
