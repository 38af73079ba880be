"""Clause oracle contracts.

Validity is always checked exhaustively: every sub-bundle of the support
must dominate the clause's weight sum. The brute reference is cross
checked against a separate itertools search so the two never share a bug.
"""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

import valsketch as vs
from valsketch import bitsets
from valsketch.clauses import xos_clause_demand_uniform, xos_clause_marginal

from reference import brute_best_uniform_clause

seeds = st.integers(min_value=0, max_value=2_000)
bundles8 = st.integers(min_value=1, max_value=255)


def assert_supporting(oracle, clause, queried_bundle):
    """Exhaustive validity: clause never outvalues v below the support."""
    for sub in bitsets.submasks(clause.support):
        assert clause.value(sub) <= oracle._value(sub) * (1 + 1e-9), hex(sub)
    assert clause.value(queried_bundle) <= oracle._value(queried_bundle) * (1 + 1e-9)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["coverage", "uniform-matroid", "partition-matroid",
                            "graphic-matroid", "additive"]),
    seed=seeds,
    bundle=bundles8,
)
def test_marginal_clause_contract(family, seed, bundle):
    oracle = vs.generate_instance(family, 8, seed).build()
    clause, beta = xos_clause_marginal(oracle, bundle)
    assert beta == 1.0
    assert clause.support == bundle or clause.support & ~bundle == 0
    assert clause.value(bundle) == oracle._value(bundle)  # telescoping is exact
    assert_supporting(oracle, clause, bundle)


def test_marginal_clause_query_count():
    led = vs.QueryLedger()
    oracle = vs.generate_instance("coverage", 8, 3).build(led)
    bundle = 0b10110101
    xos_clause_marginal(oracle, bundle)
    assert led.value_queries == bundle.bit_count()


def test_marginal_clause_frozen():
    oracle = vs.CoverageValuation([1, 1, 1], [[0, 1], [1, 2], [0]])
    clause, _ = xos_clause_marginal(oracle, 0b111)
    # prefix order 0, 1, 2: gains 2, then 1, then 0
    assert clause.weights == {0: 2.0, 1: 1.0, 2: 0.0}


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["xos-explicit", "subadditive-table", "additive"]),
    seed=seeds,
    bundle=bundles8,
)
def test_demand_uniform_clause_contract(family, seed, bundle):
    oracle = vs.generate_instance(family, 8, seed).build()
    clause, beta = xos_clause_demand_uniform(oracle, bundle)
    v_s = oracle._value(bundle)
    assert beta >= 1.0
    assert clause.support & ~bundle == 0
    assert_supporting(oracle, clause, bundle)
    # the certificate is self-consistent: beta * clause total covers v(S)
    assert beta * clause.value(clause.support) >= v_s * (1 - 1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, bundle=bundles8)
def test_demand_uniform_query_budget(seed, bundle):
    led = vs.QueryLedger()
    oracle = vs.generate_instance("subadditive-table", 8, seed).build(led)
    xos_clause_demand_uniform(oracle, bundle)
    size = bundle.bit_count()
    assert led.demand_queries <= 2 * (math.ceil(math.log2(4 * size)) + 1)
    assert led.value_queries == 1  # v(S) itself


class Scripted(vs.ValuationOracle):
    """v(S) = 32 on four items; a demand question (q, included) is answered
    from `script`, the empty bundle when it has no entry, and recorded."""

    def __init__(self, script):
        super().__init__(4)
        self.script, self.asked = script, []

    def _value(self, bundle):
        return 32.0 if bundle else 0.0

    def _demand_uniform(self, q, included):
        self.asked.append((q, included))
        return self.script.get((q, included), 0)


# the first sweep on S = 0b1111 prices 16, 8, 4, 2, 1 (levels = 5); only the
# last answer is nonempty, one item for a score of 1 < v(S) / (4 * levels)
FIRST_SWEEP = {(1.0, 0b1111): 0b0001}


@pytest.mark.parametrize("second, clause, beta", [
    ({(8.0, 0b0001): 0b0001}, vs.AdditiveClause.uniform(8.0, 0b0001), 4.0),
    ({}, vs.AdditiveClause.uniform(1.0, 0b0001), 32.0),  # scores 0: the first clause stays
])
def test_demand_uniform_refinement_pass(second, clause, beta):
    """A first sweep whose every answer scores below v(S) / (4 levels)
    ends on an answer `last` that is not the bundle, so a second sweep
    prices `last` from the same basis v(S); the better-scoring clause is
    returned. An oracle whose demand answers are optimal never reaches
    this pass on 16 items or fewer, hence the scripted answers."""
    oracle = Scripted({**FIRST_SWEEP, **second})
    assert xos_clause_demand_uniform(oracle, 0b1111) == (clause, beta)
    first = [(32.0 / (1 << (t + 1)), 0b1111) for t in range(5)]
    # |last| = 1 gives 3 levels; the answer 0b0001 at 8 is the whole of last
    refined = [(16.0, 0b0001), (8.0, 0b0001)] + ([] if second else [(4.0, 0b0001)])
    assert oracle.asked == first + refined
    assert oracle.ledger.demand_queries <= 2 * (math.ceil(math.log2(4 * 4)) + 1)
    assert oracle.ledger.value_queries == 1


def test_demand_uniform_zero_bundle_value():
    oracle = vs.AdditiveValuation([0.0, 0.0])
    clause, beta = xos_clause_demand_uniform(oracle, 0b11)
    assert beta == 1.0
    assert clause.value(clause.support) == 0.0


def reference_best_uniform(oracle, bundle):
    """Independent optimum: try every support through itertools."""
    items = list(bitsets.iter_items(bundle))
    best = 0.0
    for size in range(1, len(items) + 1):
        for combo in itertools.combinations(items, size):
            mask = bitsets.from_items(combo)
            dens = min(
                oracle._value(sub) / sub.bit_count()
                for sub in bitsets.submasks(mask)
                if sub
            )
            best = max(best, dens * size)
    return best


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(["xos-explicit", "subadditive-table"]),
    seed=seeds,
    bundle=st.integers(min_value=1, max_value=127),
)
def test_brute_uniform_matches_reference(family, seed, bundle):
    oracle = vs.generate_instance(family, 7, seed).build()
    clause, beta = brute_best_uniform_clause(oracle, bundle)
    v_s = oracle._value(bundle)
    want = reference_best_uniform(oracle, bundle)
    assert clause.value(clause.support) == pytest.approx(want, rel=1e-12)
    if v_s > 0:
        assert beta == pytest.approx(max(1.0, v_s / want), rel=1e-12)
    assert_supporting(oracle, clause, bundle)


def test_brute_uniform_unit_demand_is_tight():
    # max-of-singletons valuation: a single top item is already a perfect
    # uniform clause, so the exact beta is 1
    clauses = [vs.AdditiveClause({j: 1.0}) for j in range(8)]
    oracle = vs.XOSExplicitValuation(clauses)
    clause, beta = brute_best_uniform_clause(oracle, 0xFF)
    assert beta == 1.0
    assert clause.value(clause.support) == 1.0
    assert clause.support == 0b1


def test_brute_uniform_additive_small_spread():
    # weights within a factor two of each other keep the exact beta <= 2
    oracle = vs.AdditiveValuation([1.0, 1.5, 2.0])
    clause, beta = brute_best_uniform_clause(oracle, 0b111)
    # {1, 2} at price 1.5 ties the full support at total 3; smaller mask wins
    assert clause.support == 0b110
    assert clause.value(clause.support) == 3.0
    assert beta == 1.5


def test_brute_uniform_scale_guard():
    oracle = vs.UniformMatroidRank(18, 4)
    with pytest.raises(vs.ScaleError):
        brute_best_uniform_clause(oracle, bitsets.full_mask(18))


@settings(max_examples=30, deadline=None)
@given(seed=seeds, bundle=st.integers(min_value=1, max_value=127))
def test_demand_uniform_within_log_factor_of_brute(seed, bundle):
    oracle = vs.generate_instance("subadditive-table", 7, seed).build()
    _, beta_demand = xos_clause_demand_uniform(oracle, bundle)
    _, beta_exact = brute_best_uniform_clause(oracle, bundle)
    size = bundle.bit_count()
    assert beta_demand <= 4 * math.log2(2 * size) * beta_exact * (1 + 1e-9)


def test_spec_dispatch_and_capability():
    oracle = vs.UniformMatroidRank(30, 3)  # too big for brute demand
    with pytest.raises(vs.CapabilityError):
        vs.clause_demand_uniform().clause(oracle, 0b111)
    clause, beta = vs.clause_marginal().clause(oracle, 0b111)
    assert beta == 1.0 and clause.value(0b111) == 3.0
