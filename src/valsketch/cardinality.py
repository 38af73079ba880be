"""Cardinality-constrained maximizers: given a pool N' and a budget k,
return a bundle T, |T| <= k, whose value is within a known factor alpha
of the best size-k bundle.

Every routine returns (bundle, value) with the value in the oracle's own
scale, wraps its queries in the "oracle-internal" ledger phase, and never
exceeds the size budget. brute_opt_k is the uncounted reference.

A CardOracleSpec holds the maximizer itself, called as
maximize(oracle, ground, k, max_singleton=M), and its certified alpha. M
is the best singleton value in the pool, a hint the maximizer may
ignore; the factories below bind everything else.
"""

import heapq
import math
from dataclasses import dataclass
from typing import Callable

from . import bitsets
from .errors import ScaleError
from .valuations import UniformPrices, ValuationOracle

ALPHA_GREEDY = math.e / (math.e - 1.0)


@dataclass(frozen=True)
class CardOracleSpec:
    """A maximizer plus its certified approximation factor."""

    maximize: Callable
    alpha: float
    needs_demand: bool = False

    def run(self, oracle: ValuationOracle, ground: int, k: int, *, max_singleton=None):
        return self.maximize(oracle, ground, k, max_singleton=max_singleton)


def _without_hint(maximize, *fixed):
    """Adapt a maximizer that takes fixed trailing arguments and no hint."""
    return lambda oracle, ground, k, max_singleton=None: maximize(oracle, ground, k, *fixed)


def greedy_classic() -> CardOracleSpec:
    """Lazy greedy; e/(e-1)-approximate on monotone submodular inputs."""
    return CardOracleSpec(_without_hint(card_greedy_classic), ALPHA_GREEDY)


def greedy_threshold(epsilon: float = 0.1) -> CardOracleSpec:
    """Descending-threshold greedy, 1/(1 - 1/e - eps) approximate on
    monotone submodular inputs with O((n/eps) log(n/eps)) value queries."""
    if not 0 < epsilon < 1 - 1 / math.e:
        raise ValueError("epsilon must lie in (0, 1 - 1/e)")
    return CardOracleSpec(
        _without_hint(card_greedy_threshold, epsilon), 1.0 / (1.0 - 1.0 / math.e - epsilon)
    )


def matroid_augment() -> CardOracleSpec:
    """Exact on matroid rank functions via bisection for augmenting items."""
    return CardOracleSpec(_without_hint(card_matroid_augment), 1.0)


def demand_price_grid() -> CardOracleSpec:
    """8-approximate on subadditive inputs, using a logarithmic number of
    uniform-price demand queries instead of value scans."""
    return CardOracleSpec(card_demand_price_grid, 8.0, needs_demand=True)


def brute_force() -> CardOracleSpec:
    return CardOracleSpec(_without_hint(brute_opt_k), 1.0)


def card_greedy_classic(oracle: ValuationOracle, ground: int, k: int):
    """Greedy with lazy marginal re-evaluation.

    Entries carry the round their gain was computed at; a popped entry is
    accepted only when fresh, which is valid whenever marginals shrink as
    the solution grows. At most n*k value queries. The running value is
    accumulated from accepted marginals, so it is exact on integer-valued
    inputs and tight to float rounding otherwise.
    """
    with oracle.ledger.phase("oracle-internal"):
        if not ground or k < 1:
            return 0, 0.0
        heap = []
        for j in bitsets.iter_items(ground):
            heap.append((-oracle.value(1 << j), j, 0))
        heapq.heapify(heap)
        bundle, total, rounds = 0, 0.0, 0
        while rounds < k and heap:
            neg_gain, j, at = heapq.heappop(heap)
            if at == rounds:
                if -neg_gain <= 0:
                    break
                bundle |= 1 << j
                total += -neg_gain
                rounds += 1
            else:
                gain = oracle.value(bundle | (1 << j)) - total
                heapq.heappush(heap, (-gain, j, rounds))
        return bundle, total


def card_greedy_threshold(oracle: ValuationOracle, ground: int, k: int, epsilon: float):
    """Take every item whose marginal clears w; lower w geometrically.

    Cached marginals serve as upper bounds (they only shrink on submodular
    inputs), so items far below the threshold are skipped without a query.
    """
    with oracle.ledger.phase("oracle-internal"):
        items = list(bitsets.iter_items(ground))
        if not items or k < 1:
            return 0, 0.0
        upper = {}
        for j in items:
            upper[j] = oracle.value(1 << j)
        w_max = max(upper.values())
        if w_max <= 0:
            return 0, 0.0
        bundle, total, size = 0, 0.0, 0
        w = w_max
        floor = (epsilon / len(items)) * w_max
        while w >= floor and size < k:
            for j in items:
                if (bundle >> j) & 1 or upper[j] < w:
                    continue
                if bundle:
                    gain = oracle.value(bundle | (1 << j)) - total
                    upper[j] = gain
                else:
                    gain = upper[j]
                if gain >= w:
                    bundle |= 1 << j
                    total += gain
                    size += 1
                    if size == k:
                        break
            w *= 1.0 - epsilon
        return bundle, total


def card_matroid_augment(oracle: ValuationOracle, ground: int, k: int):
    """Exact maximizer for matroid rank functions.

    While the pool still raises the rank, bisect for a single augmenting
    item: if adding the lower half changes nothing, the witness must sit in
    the upper half (spanned sets stay spanned), so that branch costs no
    query. Each item found costs at most ceil(log2 n) + 1 queries and
    raises the value by exactly 1. Output on non-rank inputs is still a
    bundle of size <= k, but carries no guarantee.
    """
    with oracle.ledger.phase("oracle-internal"):
        bundle, total = 0, 0.0
        remaining = ground
        while bundle.bit_count() < k and remaining:
            if oracle.value(bundle | remaining) <= total:
                break
            cand = remaining
            while cand.bit_count() > 1:
                left = bitsets.lower_half(cand)
                if oracle.value(bundle | left) > total:
                    cand = left
                else:
                    cand ^= left
            bundle |= cand
            total += 1.0
            remaining &= ~cand
        return bundle, total


def card_demand_price_grid(oracle: ValuationOracle, ground: int, k: int, *, max_singleton=None):
    """Pick the most valuable demand response over a geometric price grid.

    Prices run from M/(4k) doubling up to 2kM, M the best singleton in the
    pool (pass max_singleton, in the oracle's scale, to avoid re-buying the
    singleton scan). Oversized responses are split into ascending-id blocks
    of k items and the blocks are valued instead; by subadditivity one of
    them carries its proportional share. ceil(log2(8 k^2)) + 1 demand
    queries, value queries only for distinct candidate blocks.
    """
    with oracle.ledger.phase("oracle-internal"):
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
            resp = oracle.demand(UniformPrices(q, ground, oracle.n)) & ground
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


def brute_opt_k(oracle: ValuationOracle, ground: int, k: int):
    """Exact optimum by enumeration; reference only, queries not counted.

    Scans submasks in ascending numeric order with a strict improvement
    test, so of all maximizers it returns the numerically smallest mask.
    """
    if ground.bit_count() > 22:
        raise ScaleError("exhaustive search is limited to pools of 22 items")
    best_bundle, best_value = 0, 0.0
    for sub in bitsets.submasks(ground):
        if sub and sub.bit_count() <= k:
            val = oracle._value(sub)
            if val > best_value:
                best_bundle, best_value = sub, val
    return best_bundle, best_value
