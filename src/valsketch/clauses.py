"""Supporting-clause extraction.

Given a bundle S, produce an additive clause a with

    sum of a over any T inside S is at most v(T), and
    v(S) <= beta * a(S)

together with the certified beta for this call. Clause weights double as
per-item value shares, which is what the sketch stores.

An XosOracleSpec holds the extraction routine itself as its clause
field, called as clause(oracle, S). The oracle is a ValuationOracle or,
in a build, a group's OracleView of one, which answers from its memo a
value the maximizer already asked for.
"""

import math
from dataclasses import dataclass
from typing import Callable

from . import bitsets
from .valuations import AdditiveClause, OracleView, ValuationOracle


@dataclass(frozen=True)
class XosOracleSpec:
    """A clause oracle returning (clause, certified beta)."""

    clause: Callable
    needs_demand: bool = False


def clause_marginal() -> XosOracleSpec:
    """Prefix marginals; a valid clause with beta = 1 on submodular inputs."""
    return XosOracleSpec(xos_clause_marginal)


def clause_demand_uniform() -> XosOracleSpec:
    """Uniform-weight clause found by demand queries; beta certified per call."""
    return XosOracleSpec(xos_clause_demand_uniform, needs_demand=True)


def xos_clause_marginal(oracle: ValuationOracle | OracleView, bundle: int):
    """Weights are marginals along the ascending-id order.

    The weights telescope to v(S) exactly, and on submodular inputs every
    sub-bundle's weight sum is dominated by its value, so beta = 1.
    Costs |S| value queries, v(S) among them. Negative float dust is
    clamped to zero.
    """
    weights = {}
    prefix, prev = 0, 0.0
    for j in bitsets.iter_items(bundle):
        prefix |= 1 << j
        cur = oracle.value(prefix)
        weights[j] = max(cur - prev, 0.0)
        prev = cur
    return AdditiveClause(weights), 1.0


def xos_clause_demand_uniform(oracle: ValuationOracle | OracleView, bundle: int):
    """Uniform clause from demand responses at geometric prices.

    A response R to uniform price q satisfies v(T) >= q|T| for every T
    inside R whenever v is subadditive, so price q supported on R is a
    valid clause; the certified beta is v(S) divided by the best q|R|
    seen. Prices sweep v(S)/2 down past v(S)/(4|S|), which keeps beta
    logarithmic in |S| for subadditive inputs. If every response is small
    the final one is still worth 3/4 v(S) by its profit, so one refinement
    pass over that response recovers a sharper clause. Each sweep stops
    once the response is the whole bundle it prices. At most
    2 (ceil(log2 4|S|) + 1) demand queries and one value query, v(S),
    which a group's view answers from its memo when the price grid found S.
    """
    v_s = oracle.value(bundle)
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


def _best_uniform_response(oracle: ValuationOracle | OracleView, bundle: int, basis: float):
    """One grid sweep at falling prices; returns the response maximizing
    price * size, the number of grid levels and the last response."""
    size = bundle.bit_count()
    levels = math.ceil(math.log2(4 * size)) + 1
    best_q, best_resp, best_score = 0.0, 0, 0.0
    resp = 0
    for t in range(levels):
        q = basis / (1 << (t + 1))
        resp = oracle.demand((q, bundle))
        score = q * resp.bit_count()
        if score > best_score:
            best_q, best_resp, best_score = q, resp, score
        if resp == bundle:
            # law of demand: an optimal answer at a lower price is no
            # smaller, so it is the whole bundle again and scores less
            break
    return best_q, best_resp, best_score, levels, resp
