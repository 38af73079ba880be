"""The two uniform-price demand sweeps stop early; here they meet the
full sweeps they replaced.

Both stops rest on the law of demand (tests/test_demand.py): the price
grid stops after its first answer that fits in k items, and the clause
sweep after its first answer that is the whole bundle. The references
below ask every grid price. On every call the subadditive builds of the
corpus and of a small xos-explicit instance make, each sweep runs on a
view with a fresh ledger, and the two must give the same answer.
"""

import copy
import math
from unittest import mock

import valsketch as vs
from valsketch import bitsets, clauses
from valsketch.cardinality import card_demand_price_grid
from valsketch.clauses import xos_clause_demand_uniform
from valsketch.valuations import OracleView, UniformPrices

from conftest import build_and_check


def full_price_grid(oracle, ground, k, *, max_singleton=None):
    """card_demand_price_grid as it was before it stopped: every grid
    price is asked."""
    if not ground or k < 1:
        return 0, 0.0
    if max_singleton is None:
        max_singleton = max(oracle.value(1 << j) for j in bitsets.iter_items(ground))
    if max_singleton <= 0:
        return 0, 0.0
    best_bundle, best_value = 0, 0.0
    cache = {}
    for t in range(math.ceil(math.log2(8 * k * k)) + 1):
        q = max_singleton / (4 * k) * (1 << t)
        resp = oracle.demand(UniformPrices(q, ground))
        blocks = [resp] if resp.bit_count() <= k else bitsets.chunks(resp, k)
        for block in blocks:
            if not block:
                continue
            val = cache.get(block)
            if val is None:
                val = oracle.value(block)
                cache[block] = val
            if val > best_value:
                best_bundle, best_value = block, val
    return best_bundle, best_value


def full_uniform_sweep(oracle, bundle, basis):
    """clauses._best_uniform_response as it was before it stopped: every
    grid price is asked."""
    size = bundle.bit_count()
    levels = math.ceil(math.log2(4 * size)) + 1
    best_q, best_resp, best_score = 0.0, 0, 0.0
    resp = 0
    for t in range(levels):
        q = basis / (1 << (t + 1))
        resp = oracle.demand(UniformPrices(q, bundle))
        score = q * resp.bit_count()
        if score > best_score:
            best_q, best_resp, best_score = q, resp, score
    return best_q, best_resp, best_score, levels, resp


def fresh_view(view):
    """The same view of the same oracle, on a fresh ledger and with an
    empty answer table."""
    parent = copy.copy(view.parent)
    parent.ledger = vs.QueryLedger()
    return OracleView(parent, view.scale)


def checking_specs(calls):
    """The subadditive pipeline's two specs. On every call, each runs the
    stopping sweep and the full one on fresh views, asserts they agree and
    that the stop kept to its demand budget, and logs the call's kind."""

    def card(view, ground, k, max_singleton=None):
        stopping = fresh_view(view)
        got = card_demand_price_grid(stopping, ground, k, max_singleton=max_singleton)
        want = full_price_grid(fresh_view(view), ground, k, max_singleton=max_singleton)
        assert repr(got) == repr(want), (hex(ground), k)
        assert stopping.parent.ledger.demand_queries <= math.ceil(math.log2(8 * k * k)) + 1
        calls.append("card")
        return got

    def clause(view, bundle):
        stopping = fresh_view(view)
        got = xos_clause_demand_uniform(stopping, bundle)
        with mock.patch.object(clauses, "_best_uniform_response", full_uniform_sweep):
            want = xos_clause_demand_uniform(fresh_view(view), bundle)
        assert repr(got) == repr(want), hex(bundle)
        size = bundle.bit_count()
        assert stopping.parent.ledger.demand_queries <= 2 * (math.ceil(math.log2(4 * size)) + 1)
        calls.append("clause")
        return got

    pipeline = vs.get_pipeline("subadditive")
    return (vs.CardOracleSpec(card, pipeline.card.alpha, needs_demand=True),
            vs.XosOracleSpec(clause, needs_demand=True))


def _subadditive_instances():
    for name, spec in vs.standard_fixture_corpus():
        if name == "subadditive":
            yield spec
    yield vs.bench_instance("subadditive", 64)


def test_stopping_sweeps_match_full_sweeps():
    calls = []
    card, xos = checking_specs(calls)
    for spec in _subadditive_instances():
        build_and_check(spec.build(), card, xos)
    # 2,331 and 888 calls when this was written; the floor only shows the
    # checks ran
    assert calls.count("card") > 1000 and calls.count("clause") > 100


def test_clause_sweep_stops_at_the_whole_bundle():
    # items worth 4 each: at v(S)/2 = 8 nothing is demanded, at 4 nothing
    # earns a profit, at 2 the whole bundle is demanded and the sweep stops
    led = vs.QueryLedger()
    oracle = vs.AdditiveValuation([4.0] * 4, led)
    clause, beta = xos_clause_demand_uniform(oracle, 0b1111)
    assert (clause, beta) == (vs.AdditiveClause.uniform(2.0, 0b1111), 2.0)
    assert led.demand_queries == 3
    with mock.patch.object(clauses, "_best_uniform_response", full_uniform_sweep):
        assert xos_clause_demand_uniform(oracle, 0b1111) == (clause, beta)
    assert led.demand_queries == 3 + math.ceil(math.log2(16)) + 1
