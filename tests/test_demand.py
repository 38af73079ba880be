"""Demand query correctness, checked against an independent maximizer
that enumerates subsets through itertools rather than submask arithmetic.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import valsketch as vs
from valsketch.valuations import OracleView, UniformPrices


def reference_demand(oracle, q, included):
    """Max profit at price q on the items of `included`, then fewest
    items, then smallest mask."""
    free = list(vs.bitsets.iter_items(included))
    best = (0.0, 0, 0)
    for size in range(1, len(free) + 1):
        for combo in itertools.combinations(free, size):
            mask = 0
            cost = 0.0
            for j in combo:
                mask |= 1 << j
                cost += q
            profit = oracle._value(mask) - cost
            key = (-profit, size, mask)
            if key < (-best[0], best[1], best[2]):
                best = (profit, size, mask)
    return best[2]


def family_instances(n, seed):
    for family in ("additive", "xos-explicit", "subadditive-table",
                   "coverage", "uniform-matroid", "graphic-matroid"):
        yield vs.generate_instance(family, n, seed).build()


half_prices = st.integers(min_value=0, max_value=12).map(lambda x: x / 2)
dyadic_prices = st.builds(lambda a, e: a / (1 << e),
                          st.integers(min_value=0, max_value=48),
                          st.integers(min_value=0, max_value=3))


@settings(max_examples=60, deadline=None)
@given(q=half_prices, included=st.integers(min_value=0, max_value=63),
       seed=st.integers(min_value=0, max_value=500))
def test_demand_matches_reference(q, included, seed):
    for oracle in family_instances(6, seed):
        got = oracle.demand(UniformPrices(q, included))
        want = reference_demand(oracle, q, included)
        assert got == want, (type(oracle).__name__, q, included)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    q=dyadic_prices,
    included=st.integers(min_value=0, max_value=255),
    seed=st.integers(min_value=0, max_value=500),
)
def test_family_demand_matches_enumeration(n, q, included, seed):
    """Each family's own _demand_uniform answers as the inherited
    enumeration _demand does, ties included."""
    included &= vs.bitsets.full_mask(n)
    for oracle in family_instances(n, seed):
        assert oracle._demand_uniform(q, included) == oracle._demand(q, included), \
            type(oracle).__name__


@settings(max_examples=40, deadline=None)
@given(q=half_prices, included=st.integers(min_value=0, max_value=63),
       seed=st.integers(min_value=0, max_value=500))
def test_excluded_items_never_returned(q, included, seed):
    for oracle in family_instances(6, seed):
        assert oracle.demand(UniformPrices(q, included)) & ~included == 0


def test_demand_tie_breaks_to_empty_then_small():
    v = vs.AdditiveValuation([1.0, 1.0])
    # zero profit everywhere: the empty bundle wins on cardinality
    assert v.demand(UniformPrices(1.0, 0b11)) == 0
    # equal positive profit on both singletons: smaller mask wins
    x = vs.XOSExplicitValuation(
        [vs.AdditiveClause({0: 2.0}), vs.AdditiveClause({1: 2.0})]
    )
    assert x.demand(UniformPrices(1.0, 0b11)) == 0b01


def test_demand_profit_is_optimal_for_table():
    v = vs.SubadditiveTableValuation([0, 4, 3, 6, 2, 6, 5, 7])
    # {0,1}, {0,2} and the full set all realize profit 4; fewest items,
    # then the smaller mask, picks {0,1}
    assert v.demand(UniformPrices(1.0, 0b111)) == 0b011


def test_demand_price_validation():
    v = vs.AdditiveValuation([1.0, 2.0])
    for q in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="prices must be finite and >= 0"):
            v.demand(UniformPrices(q, 0b11))
    with pytest.raises(vs.MalformedBundleError):
        v.demand(UniformPrices(1.0, 0b111))  # prices an item outside the ground set
    assert v.ledger.totals() == (0, 0)


def test_demand_capability_gate():
    big = vs.UniformMatroidRank(30, 3)
    assert not big.has_demand
    with pytest.raises(vs.CapabilityError):
        big.demand(UniformPrices(1.0, vs.bitsets.full_mask(30)))


def test_scaled_demand_rescales_prices():
    led = vs.QueryLedger()
    v = vs.AdditiveValuation([2.0, 6.0], led)
    half = OracleView(v, 0b11, 2.0)
    # in half-scale units the weights are 1 and 3; price 2 keeps only item 1
    assert half.demand(UniformPrices(2.0, 0b11)) == 0b10


def test_restricted_demand_excludes_masked_items():
    v = vs.AdditiveValuation([5.0, 5.0, 5.0])
    view = OracleView(v, 0b011)
    assert view.demand(UniformPrices(1.0, 0b111)) == 0b011


@pytest.mark.parametrize("answer", [0b100, -1, 1.0, True])
def test_demand_answer_must_be_priced_int_bundle(answer):
    class Wayward(vs.AdditiveValuation):
        def _demand_uniform(self, q, included):
            return answer

    v = Wayward([1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="Wayward answered a demand query"):
        v.demand(UniformPrices(0.5, 0b011))
    with pytest.raises(ValueError, match="Wayward answered a demand query"):
        OracleView(v, 0b011).demand(UniformPrices(0.5, 0b011))
    # every item priced: the masks of the nested views, not the prices, bound the answer
    with pytest.raises(ValueError, match="Wayward answered a demand query"):
        OracleView(v, 0b011).demand(UniformPrices(0.5, 0b111))
    with pytest.raises(ValueError, match="Wayward answered a demand query"):
        OracleView(OracleView(v, 0b011), 0b111).demand(UniformPrices(0.5, 0b111))


def test_enumeration_is_the_fallback():
    """A family that overrides only _value answers demand by enumeration,
    up to 22 items; on more it answers no demand query."""
    class Plain(vs.ValuationOracle):
        def _value(self, bundle):
            return float(min(bundle.bit_count(), 2))

    v = Plain(3)
    assert v.has_demand and v.demand(UniformPrices(0.5, 0b111)) == 0b011
    big = Plain(23)
    assert not big.has_demand
    with pytest.raises(vs.CapabilityError, match="Plain does not answer demand queries"):
        big.demand(UniformPrices(0.5, vs.bitsets.full_mask(23)))
    assert big.ledger.totals() == (0, 0)


# the families that answer demand queries at any size; the rest enumerate
ALWAYS_DEMAND = ("additive", "xos-explicit", "subadditive-table")


@pytest.mark.parametrize("n", [22, 23])
@pytest.mark.parametrize("family", vs.instances.FAMILIES)
def test_has_demand_is_derived_as_each_family_passed_it(family, n):
    """has_demand follows from n and from whether the family overrides
    _demand_uniform: every shipped family answers up to ENUM_LIMIT items,
    and past it only the ALWAYS_DEMAND ones; a view reports its parent's."""
    if family != "subadditive-table":
        oracle = vs.generate_instance(family, n, 0).build()
    elif n <= 22:
        oracle = vs.SubadditiveTableValuation(np.zeros(1 << n))  # valid, checked quickly
    else:
        with pytest.raises(vs.ScaleError, match="limited to 22 items"):
            vs.SubadditiveTableValuation(np.broadcast_to(0.0, 1 << n))  # allocates no table
        return
    expected = family in ALWAYS_DEMAND or n <= 22
    assert oracle.n == n and oracle.has_demand is expected
    assert OracleView(oracle, 0b1, 2.0).has_demand is expected


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
            low = asked.demand(UniformPrices(q, included))
            high = asked.demand(UniformPrices(q + rise, included))
            name = type(oracle).__name__
            assert high.bit_count() <= low.bit_count(), name
            assert asked._value(high) <= asked._value(low), name
            for price, answer in ((q, low), (q + rise, high)):
                if answer == included:
                    assert asked.demand(UniformPrices(price / 2, included)) == included, name
