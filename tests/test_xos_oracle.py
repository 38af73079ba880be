"""XOSExplicitValuation skips the uniform clauses that cannot change an
answer; here it meets the loops over every clause that it replaced
(tests/reference.py), bit for bit.

The instances mix uniform and per-item clauses, zero weights and empty
supports. Most weights are dyadic, so that equal profits at different
cardinalities, and prices equal to a clause weight, come up often.
"""

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

import valsketch as vs
from valsketch import bitsets
from valsketch.valuations import AdditiveClause, XOSExplicitValuation

from reference import xos_demand_all_clauses, xos_value_all_clauses

DYADIC = [k / 4 for k in range(17)]  # 0, 0.25, ..., 4


def _mask(rng, n, density):
    return bitsets.from_items(j for j in range(n) if rng.random() < density)


def _clause(rng, n):
    kind = rng.choice(["uniform", "uniform", "uniform", "mixed", "zero", "empty"])
    mask = _mask(rng, n, rng.choice([0.02, 0.1, 0.3, 0.7]))
    if kind == "uniform":
        return AdditiveClause.uniform(rng.choice(DYADIC[1:] + [rng.uniform(0.1, 4)]), mask)
    if kind == "zero":
        return AdditiveClause.uniform(0.0, mask)
    if kind == "empty":
        return rng.choice([AdditiveClause({}), AdditiveClause.uniform(rng.choice(DYADIC), 0)])
    return AdditiveClause({j: rng.choice(DYADIC) for j in bitsets.iter_items(mask)})


def _same_float(a, b):
    return struct.pack("<d", a) == struct.pack("<d", b)


@pytest.mark.parametrize("n", [40, 300])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_pruned_oracle_matches_all_clause_loops(n, seed):
    rng = random.Random(seed)
    clauses = [_clause(rng, n) for _ in range(rng.randint(1, 30))]
    oracle = XOSExplicitValuation(clauses, n=n)
    supports = [c.support for c in clauses]
    bundles = supports + [0, bitsets.full_mask(n)]
    bundles += [s & _mask(rng, n, 0.5) for s in supports]
    bundles += [_mask(rng, n, rng.choice([0.01, 0.05, 0.2, 0.6])) for _ in range(20)]
    # every one-item bundle too: the table of one-item values, items in no
    # clause and items in per-item or zero-weight clauses only among them
    for bundle in bundles + [1 << j for j in range(n)]:
        assert _same_float(oracle._value(bundle), xos_value_all_clauses(oracle, bundle))
    weights = sorted({w for c in clauses for w in c.weights.values()})
    prices = [0.0] + weights + DYADIC + [rng.uniform(0, 4) for _ in range(5)]
    for q in prices:
        for included in bundles[::3]:
            assert oracle._demand_uniform(q, included) == xos_demand_all_clauses(oracle, q, included)


def test_equal_profits_at_different_cardinalities_go_to_the_smaller():
    # at q = 1 the clauses offer 3 * 2 = 2 * 3 = 1 * 6; the two items win,
    # whichever clause is read first
    clauses = [AdditiveClause.uniform(2.0, 0b111111), AdditiveClause.uniform(4.0, 0b11 << 6),
               AdditiveClause.uniform(3.0, 0b111 << 8)]
    for order in (clauses, clauses[::-1]):
        oracle = XOSExplicitValuation(order)
        assert oracle._demand_uniform(1.0, bitsets.full_mask(11)) == 0b11 << 6
        assert xos_demand_all_clauses(oracle, 1.0, bitsets.full_mask(11)) == 0b11 << 6


def test_a_clause_whose_bound_ties_the_best_is_still_compared():
    # equal weights: the larger support is read first and offers 0b01100000;
    # the smaller one's bound (2 - 1) * 2 ties that profit, and its bitset is smaller
    oracle = XOSExplicitValuation([AdditiveClause.uniform(2.0, 0b11100000),
                                   AdditiveClause.uniform(2.0, 0b11)])
    assert oracle._demand_uniform(1.0, 0b01100011) == 0b11


def test_value_reads_a_clause_whose_bound_just_clears_the_best():
    # the lighter clause's bound 0.429 * 7 = 3.003 barely beats 1.0 * 3
    oracle = XOSExplicitValuation([AdditiveClause.uniform(1.0, 0b111),
                                   AdditiveClause.uniform(0.429, 0b1111111 << 3)])
    assert oracle._value(bitsets.full_mask(10)) == 0.429 * 7


def test_one_item_value_of_a_negative_zero_weight_is_positive_zero():
    # -0.0 passes the weight checks; the clause scan answers +0.0, and so must the table
    oracle = XOSExplicitValuation([AdditiveClause.uniform(-0.0, 0b11), AdditiveClause({2: -0.0})],
                                  n=4)
    for bundle in (0b1, 0b10, 0b100, 0b1000):
        assert _same_float(oracle._value(bundle), 0.0)
        assert _same_float(xos_value_all_clauses(oracle, bundle), 0.0)


class _AllClauseXOS(XOSExplicitValuation):
    def _value(self, bundle):
        return xos_value_all_clauses(self, bundle)

    def _demand_uniform(self, q, included):
        return xos_demand_all_clauses(self, q, included)


@pytest.mark.parametrize("n, support, uniform, expected", [
    (2048, 256, True, (2309, 1302)),  # the xos-demand recipe of perfbench; TestPinnedOutput pins its digest
    (1024, 128, False, (1665, 2349)),  # per-item clauses: demand reads each weight
], ids=["uniform", "per-item"])
def test_benchmark_recipe_builds_the_same_sketch_with_the_same_questions(n, support, uniform,
                                                                          expected):
    spec = vs.generate_instance("xos-explicit", n, 0, clauses=24, support=support, uniform=uniform)
    pipeline = vs.get_pipeline("subadditive")
    texts, totals = [], []
    for make in (spec.build, lambda ledger: _AllClauseXOS(spec.build().clauses, ledger, n=n)):
        oracle = make(vs.QueryLedger())
        texts.append(vs.serialize(vs.build_sketch(oracle, pipeline.card, pipeline.xos)))
        totals.append(oracle.ledger.totals())
    assert texts[0] == texts[1]
    assert totals == [expected] * 2
