"""Supporting-clause extraction.

Given a bundle S, produce an additive clause a with

    sum of a over any T inside S is at most v(T), and
    v(S) <= beta * a(S)

together with the certified beta for this call. Clause weights double as
per-item value shares, which is what the sketch stores.

An XosOracleSpec holds the extraction routine itself, called as
extract(oracle, S, v_S) with v_S the value of S in the oracle's scale
when the caller already knows it, else None.
"""

import math
from dataclasses import dataclass
from typing import Callable

from . import bitsets
from .errors import ScaleError
from .valuations import AdditiveClause, UniformPrices, ValuationOracle


@dataclass(frozen=True)
class XosOracleSpec:
    """A clause oracle returning (clause, certified beta)."""

    extract: Callable
    needs_demand: bool = False

    def clause(self, oracle: ValuationOracle, bundle: int, value_of_bundle=None):
        return self.extract(oracle, bundle, value_of_bundle)


def clause_marginal() -> XosOracleSpec:
    """Prefix marginals; a valid clause with beta = 1 on submodular inputs."""
    return XosOracleSpec(lambda oracle, bundle, _: xos_clause_marginal(oracle, bundle))


def clause_demand_uniform() -> XosOracleSpec:
    """Uniform-weight clause found by demand queries; beta certified per call."""
    return XosOracleSpec(xos_clause_demand_uniform, needs_demand=True)


def clause_brute_uniform() -> XosOracleSpec:
    """Best possible uniform-weight clause, by enumeration (reference)."""
    return XosOracleSpec(brute_best_uniform_clause)


def xos_clause_marginal(oracle: ValuationOracle, bundle: int):
    """Weights are marginals along the ascending-id order.

    The weights telescope to v(S) exactly, and on submodular inputs every
    sub-bundle's weight sum is dominated by its value, so beta = 1.
    Costs |S| value queries. Negative float dust is clamped to zero.
    """
    with oracle.ledger.phase("oracle-internal"):
        weights = {}
        prefix, prev = 0, 0.0
        for j in bitsets.iter_items(bundle):
            prefix |= 1 << j
            cur = oracle.value(prefix)
            weights[j] = max(cur - prev, 0.0)
            prev = cur
        return AdditiveClause(weights), 1.0


def xos_clause_demand_uniform(oracle: ValuationOracle, bundle: int, value_of_bundle=None):
    """Uniform clause from demand responses at geometric prices.

    A response R to uniform price q satisfies v(T) >= q|T| for every T
    inside R whenever v is subadditive, so price q supported on R is a
    valid clause; the certified beta is v(S) divided by the best q|R|
    seen. Prices sweep v(S)/2 down past v(S)/(4|S|), which keeps beta
    logarithmic in |S| for subadditive inputs. If every response is small
    the final one is still worth 3/4 v(S) by its profit, so one refinement
    pass over that response recovers a sharper clause. At most
    2 (ceil(log2 4|S|) + 1) demand queries; the only value query is v(S)
    when it is not passed in.
    """
    with oracle.ledger.phase("oracle-internal"):
        v_s = oracle.value(bundle) if value_of_bundle is None else value_of_bundle
        if v_s <= 0:
            return AdditiveClause.uniform(0.0, bundle), 1.0
        price, support, score, levels, last = _best_uniform_response(oracle, bundle, v_s)
        if score < v_s / (4 * levels) and last and last != bundle:
            p2, s2, sc2, _, _ = _best_uniform_response(oracle, last, v_s)
            if sc2 > score:
                price, support, score = p2, s2, sc2
        if score <= 0:
            # unreachable through a demand oracle honoring the profit of S
            # itself; kept so a broken oracle fails loudly in verification
            return AdditiveClause.uniform(0.0, bundle), math.inf
        return AdditiveClause.uniform(price, support), max(1.0, v_s / score)


def _best_uniform_response(oracle: ValuationOracle, bundle: int, basis: float):
    """One grid sweep; returns the response maximizing price * size."""
    size = bundle.bit_count()
    levels = math.ceil(math.log2(4 * size)) + 1
    best_q, best_resp, best_score = 0.0, 0, 0.0
    resp = 0
    for t in range(levels):
        q = basis / (1 << (t + 1))
        resp = oracle.demand(UniformPrices(q, bundle, oracle.n)) & bundle
        score = q * resp.bit_count()
        if score > best_score:
            best_q, best_resp, best_score = q, resp, score
    return best_q, best_resp, best_score, levels, resp


def brute_best_uniform_clause(oracle: ValuationOracle, bundle: int, value_of_bundle=None):
    """The optimal uniform clause, found by exhausting all supports.

    The stiffest admissible price on support R is the minimum density
    min over nonempty T inside R of v(T)/|T|; a subset-DP computes it for
    every R at once. Maximizes price * |R|, ties to the numerically
    smallest support. Reference oracle: queries are not counted.
    """
    items = list(bitsets.iter_items(bundle))
    s = len(items)
    if s > 16:
        raise ScaleError("exhaustive clause search is limited to 16 items")
    v_s = oracle._value(bundle) if value_of_bundle is None else value_of_bundle
    if s == 0 or v_s <= 0:
        return AdditiveClause.uniform(0.0, bundle), 1.0
    expand = [0] * (1 << s)
    for p in range(1, 1 << s):
        low = p & -p
        expand[p] = expand[p ^ low] | (1 << items[low.bit_length() - 1])
    mindens = [math.inf] * (1 << s)
    best_total, best_dense = 0.0, 0
    for p in range(1, 1 << s):
        c = p.bit_count()
        dens = oracle._value(expand[p]) / c
        for j in range(s):
            if (p >> j) & 1 and mindens[p ^ (1 << j)] < dens:
                dens = mindens[p ^ (1 << j)]
        mindens[p] = dens
        if dens * c > best_total:
            best_total, best_dense = dens * c, p
    support = expand[best_dense]
    price = mindens[best_dense]
    return AdditiveClause.uniform(price, support), max(1.0, v_s / best_total)
