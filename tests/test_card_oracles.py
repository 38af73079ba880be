"""Maximizer contracts against the enumerated optimum.

Each maximizer is exercised on instance families inside its certified
class. Expected values in the frozen traces were worked out by hand
before the implementations existed.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

import valsketch as vs
from valsketch import bitsets
from valsketch.cardinality import brute_opt_k, card_demand_price_grid

# the step maximizers with budget k, each replaying its steps from the start
card_matroid_augment = vs.matroid_augment().run


def card_greedy_threshold(oracle, ground, k, epsilon):
    return vs.greedy_threshold(epsilon).run(oracle, ground, k)


SUBMODULAR = ("coverage", "uniform-matroid", "partition-matroid", "graphic-matroid", "additive")
MATROID = ("uniform-matroid", "partition-matroid", "graphic-matroid")
ALL = SUBMODULAR + ("xos-explicit", "subadditive-table")

seeds = st.integers(min_value=0, max_value=2_000)
ks = st.integers(min_value=1, max_value=5)


def opt_k(oracle, ground, k):
    _, best = brute_opt_k(oracle, ground, k)
    return best


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(SUBMODULAR), seed=seeds, k=ks)
def test_greedy_threshold_ratio(family, seed, k):
    eps = 0.1
    oracle = vs.generate_instance(family, 8, seed).build()
    ground = bitsets.full_mask(8)
    bundle, value = card_greedy_threshold(oracle, ground, k, eps)
    assert bundle.bit_count() <= k
    assert value == oracle._value(bundle)
    assert value >= (1 - 1 / math.e - eps) * opt_k(oracle, ground, k) * (1 - 1e-9)


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(MATROID), seed=seeds, k=ks)
def test_matroid_augment_is_exact(family, seed, k):
    oracle = vs.generate_instance(family, 9, seed).build()
    ground = bitsets.full_mask(9)
    bundle, value = card_matroid_augment(oracle, ground, k)
    assert bundle.bit_count() <= k
    assert value == oracle._value(bundle)
    assert value == opt_k(oracle, ground, k)


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(ALL), seed=seeds, k=ks)
def test_demand_grid_ratio(family, seed, k):
    oracle = vs.generate_instance(family, 8, seed).build()
    ground = bitsets.full_mask(8)
    bundle, value = card_demand_price_grid(oracle, ground, k)
    assert bundle.bit_count() <= k
    if bundle:
        assert value == oracle._value(bundle)
    assert value >= opt_k(oracle, ground, k) / 8.0 * (1 - 1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, k=ks, pool=st.integers(min_value=1, max_value=255))
def test_maximizers_respect_the_pool(seed, k, pool):
    oracle = vs.generate_instance("coverage", 8, seed).build()
    for runner in (card_greedy_threshold, card_matroid_augment):
        args = (oracle, pool, k, 0.2) if runner is card_greedy_threshold else (oracle, pool, k)
        bundle, _ = runner(*args)
        assert bundle & ~pool == 0


def test_greedy_threshold_query_budget():
    n, eps = 12, 0.1
    led = vs.QueryLedger()
    oracle = vs.generate_instance("coverage", n, 5).build(led)
    budget = 4 * (n / eps) * math.log(n / eps)
    for k in (1, 4, 12):
        before = led.value_queries
        card_greedy_threshold(oracle, bitsets.full_mask(n), k, eps)
        assert led.value_queries - before <= budget


def test_matroid_augment_frozen_trace():
    led = vs.QueryLedger()
    oracle = vs.PartitionMatroidRank([[0, 1], [2, 3]], [1, 1], led)
    bundle, value = card_matroid_augment(oracle, 0b1111, 2)
    assert (bundle, value) == (0b0101, 2.0)
    # {0} raises the rank; then {1} is spanned and leaves the pool, the
    # next chunk {2, 3} raises it and its left half {2} does too
    assert led.value_queries == 4


def test_matroid_augment_query_budget():
    led = vs.QueryLedger()
    oracle = vs.generate_instance("graphic-matroid", 12, 3).build(led)
    for k in (1, 4, 8):
        before = led.value_queries
        card_matroid_augment(oracle, bitsets.full_mask(12), k)
        spent = led.value_queries - before
        assert spent <= k * (math.ceil(math.log2(12)) + 1) + 1


def test_demand_grid_frozen_trace():
    clauses = [vs.AdditiveClause.uniform(1.0, 0b01111), vs.AdditiveClause({4: 3.0})]
    led = vs.QueryLedger()
    oracle = vs.XOSExplicitValuation(clauses, led)
    bundle, value = card_demand_price_grid(oracle, 0b11111, 2)
    # item 4 alone beats any pair under the max of the two clauses
    assert (bundle, value) == (0b10000, 3.0)
    # the first price is M / 4k = 3/8: {4} earns 3 - 3/8 = 2.625 against
    # (1 - 3/8) 4 = 2.5 for items 0-3, and it fits k = 2, so the sweep stops
    assert led.demand_queries == 1


def grid_prices_to_first_fit(oracle, ground, k):
    """How many grid prices the sweep asks: up to and including the first
    whose answer, read off the uncounted hook, fits in k items."""
    top = max(oracle._value(1 << j) for j in bitsets.iter_items(ground))
    levels = math.ceil(math.log2(8 * k * k)) + 1
    for t in range(levels):
        if oracle._demand_uniform(top / (4 * k) * (1 << t), ground).bit_count() <= k:
            return t + 1
    return levels


def test_demand_grid_demand_budget():
    led = vs.QueryLedger()
    ground = bitsets.full_mask(10)
    cases = [
        (vs.generate_instance("subadditive-table", 10, 7).build(led), [1, 1, 1]),
        # ten items worth 1: every price below 1 demands all ten, so the
        # first answer that fits is the empty one, at the first price past 1
        (vs.AdditiveValuation([1.0] * 10, led), [3, 4, 6]),
    ]
    for oracle, counts in cases:
        for k, count in zip((1, 2, 5), counts):
            before = led.demand_queries
            card_demand_price_grid(oracle, ground, k)
            spent = led.demand_queries - before
            assert spent == grid_prices_to_first_fit(oracle, ground, k) == count
            assert spent <= math.ceil(math.log2(8 * k * k)) + 1


def test_demand_grid_accepts_precomputed_singleton():
    spec = vs.generate_instance("xos-explicit", 8, 1)
    plain = spec.build(vs.QueryLedger())
    card_demand_price_grid(plain, 0xFF, 3)
    hinted = spec.build(vs.QueryLedger())
    top = max(hinted._value(1 << j) for j in range(8))
    bundle, value = card_demand_price_grid(hinted, 0xFF, 3, max_singleton=top)
    assert value >= opt_k(hinted, 0xFF, 3) / 8.0
    # identical run minus the eight-query singleton scan
    assert hinted.ledger.value_queries == plain.ledger.value_queries - 8
    assert hinted.ledger.demand_queries == plain.ledger.demand_queries


def test_demand_grid_needs_demand_capability():
    oracle = vs.UniformMatroidRank(30, 3)
    with pytest.raises(vs.CapabilityError):
        vs.demand_price_grid().run(oracle, bitsets.full_mask(30), 2)


def test_brute_returns_smallest_maximizer():
    oracle = vs.UniformMatroidRank(4, 1)  # every singleton is optimal
    bundle, value = brute_opt_k(oracle, 0b1111, 2)
    assert (bundle, value) == (0b0001, 1.0)


def test_brute_scale_guard():
    oracle = vs.UniformMatroidRank(30, 2)
    with pytest.raises(vs.ScaleError):
        brute_opt_k(oracle, bitsets.full_mask(30), 2)


def test_brute_is_uncounted():
    led = vs.QueryLedger()
    oracle = vs.generate_instance("coverage", 8, 0).build(led)
    brute_opt_k(oracle, 0xFF, 3)
    assert led.totals() == (0, 0)


def test_spec_factories_expose_alphas():
    assert vs.matroid_augment().alpha == 1.0
    assert vs.demand_price_grid().alpha == 8.0
    assert vs.brute_force().alpha == 1.0
    eps = 0.05
    assert vs.greedy_threshold(eps).alpha == pytest.approx(1 / (1 - 1 / math.e - eps))
    with pytest.raises(ValueError):
        vs.greedy_threshold(0.9)


def test_empty_pool_and_zero_values():
    oracle = vs.AdditiveValuation([0.0, 0.0, 0.0])
    for spec in (vs.greedy_threshold(0.1), vs.matroid_augment(), vs.demand_price_grid(),
                 vs.brute_force()):
        assert spec.run(oracle, 0, 3) == (0, 0.0)
        assert spec.run(oracle, 0b111, 2) == (0, 0.0)

