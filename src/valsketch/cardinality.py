"""Cardinality-constrained maximizers: given a pool N' and a budget k,
return a bundle T, |T| <= k, whose value is within a known factor alpha
of the best size-k bundle.

Every routine returns (bundle, value) with the value in the oracle's own
scale and never exceeds the size budget.

A CardOracleSpec holds the maximizer itself, called as
run(oracle, ground, k, max_singleton=M), and its certified alpha. M is
the best singleton value in the pool, a hint the maximizer may ignore;
the factories below bind everything else.

Threshold greedy and matroid augmenting add one item at a time, and
with budget k they stop after the first k steps of their run with a
larger budget. Each is written once, as a step generator
steps(oracle, ground) that yields (bundle, value) after every item it
adds; its spec's run replays it to step k, or to the last step if the
run ends sooner. A build hands run its group's OracleView, a memo in the
group's units of each answer the root oracle gave, so a replay's
repeated questions go uncounted; threshold greedy reads its pool's
singletons from the view's table by item id. Matroid augmenting gallops
to each item it adds and drops for good the items a probe showed
spanned, so a step pays for the items it skips, not for the size of the
pool. Threshold greedy steps over the levels no item can clear without
scanning them.
"""

import math
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable

from . import bitsets
from .valuations import OracleView, UniformPrices, ValuationOracle


@dataclass(frozen=True)
class CardOracleSpec:
    """A maximizer plus its certified approximation factor."""

    run: Callable
    alpha: float
    needs_demand: bool = False

    @classmethod
    def stepwise(cls, steps: Callable, alpha: float) -> "CardOracleSpec":
        """A spec whose run with budget k is step k of steps, or its last
        step if it ends sooner; (0, 0.0) for k < 1 or no steps."""
        def run(oracle, ground, k, *, max_singleton=None):
            last = 0, 0.0
            for last in islice(steps(oracle, ground), max(k, 0)):
                pass
            return last
        return cls(run, alpha)


def greedy_threshold(epsilon: float = 0.1) -> CardOracleSpec:
    """Descending-threshold greedy, 1/(1 - 1/e - eps) approximate on
    monotone submodular inputs with O((n/eps) log(n/eps)) value queries."""
    if not 0 < epsilon < 1 - 1 / math.e:
        raise ValueError("epsilon must lie in (0, 1 - 1/e)")
    return CardOracleSpec.stepwise(
        partial(greedy_threshold_steps, epsilon=epsilon), 1.0 / (1.0 - 1.0 / math.e - epsilon)
    )


def matroid_augment() -> CardOracleSpec:
    """Exact on matroid rank functions, galloping to each augmenting item."""
    return CardOracleSpec.stepwise(matroid_augment_steps, 1.0)


def demand_price_grid() -> CardOracleSpec:
    """8-approximate on subadditive inputs, using a logarithmic number of
    uniform-price demand queries instead of value scans."""
    return CardOracleSpec(card_demand_price_grid, 8.0, needs_demand=True)


def greedy_threshold_steps(oracle: ValuationOracle | OracleView, ground: int, epsilon: float):
    """Take every item whose marginal clears w; lower w geometrically.

    Cached marginals serve as upper bounds (they only shrink on submodular
    inputs), so items far below the threshold are skipped without a query.
    Each pass also records top, the largest bound left outside the bundle,
    and the levels w > top that follow are skipped unscanned: no item has a
    bound of w there, so a scan would ask nothing and take nothing. The
    skipped levels are still stepped through one multiplication at a time,
    so every scanned w is the float a level-by-level run scans, and the
    run asks the same questions in the same order.

    A view's `singles` table gives each pool item's singleton by its id, all
    read in one pass; an item it lacks, and every item of a bare oracle, is
    then valued by its bundle, in ascending id order. A taken item's bound
    becomes -inf, so later scans pass over it without reading the bundle.
    """
    items = bitsets.item_ids(ground)
    if not items:
        return
    upper = dict(zip(items, map(getattr(oracle, "singles", {}).get, items)))
    if None in upper.values():
        for j in items:
            if upper[j] is None:
                upper[j] = oracle.value(1 << j)
    w_max = max(upper.values())
    if w_max <= 0:
        return
    bundle, total = 0, 0.0
    w = w_max
    floor = (epsilon / len(items)) * w_max
    while w >= floor:
        top = -math.inf
        for j, gain in upper.items():
            if gain >= w and bundle:
                gain = upper[j] = oracle.value(bundle | (1 << j)) - total
            if gain >= w:
                upper[j] = -math.inf  # taken: no level reaches it again
                bundle |= 1 << j
                total += gain
                yield bundle, total
            elif gain > top:
                top = gain
        w *= 1.0 - epsilon
        while w > top and w >= floor:
            w *= 1.0 - epsilon


def matroid_augment_steps(oracle: ValuationOracle | OracleView, ground: int):
    """Exact maximizer for matroid rank functions.

    Each step gallops through the pool for an augmenting item: it tests
    the 1, 2, 4, ... smallest-id items still in the pool, stops at the
    first such chunk that raises the rank and bisects inside it, going
    left whenever the left half raises the rank. A probe that raises
    nothing proves its items lie in span(bundle); spans only grow, so
    they leave the pool for good, failed chunks and failed left halves
    alike. The item found is the smallest-id one outside the span, the
    one bisecting the whole pool would find, and it raises the value by
    exactly 1. The run ends when a chunk holding the whole pool fails.

    A step that skips s spanned items costs at most 2 floor(log2(s+1)) + 1
    value queries, the final check over the last r items at most
    floor(log2(r+1)) + 1. A step that skips nearly the whole pool can cost
    up to about twice the 1 + ceil(log2 |pool|) of bisecting the pool. On
    non-rank inputs each step still adds exactly one item, but the
    bundles carry no guarantee.
    """
    bundle, total = 0, 0.0
    remaining, width = ground, 1
    while remaining:
        cand = bitsets.prefix(remaining, width)
        if oracle.value(bundle | cand) <= total:
            remaining ^= cand
            width *= 2
            continue
        while cand.bit_count() > 1:
            left = bitsets.lower_half(cand)
            if oracle.value(bundle | left) > total:
                cand = left
            else:
                remaining ^= left
                cand ^= left
        bundle |= cand
        total += 1.0
        remaining ^= cand
        width = 1
        yield bundle, total


def card_demand_price_grid(oracle: ValuationOracle | OracleView, ground: int, k: int, *,
                           max_singleton=None):
    """Pick the most valuable demand response over a geometric price grid.

    Prices run from M/(4k) doubling up to 2kM, M the best singleton in the
    pool (pass max_singleton, in the oracle's scale, to avoid re-buying the
    singleton scan). Oversized responses are split into ascending-id blocks
    of k items and the blocks are valued instead; by subadditivity one of
    them carries its proportional share. The sweep stops after the first
    response that fits in k items, the empty one included. At most
    ceil(log2(8 k^2)) + 1 demand queries and one value query per candidate
    block. A response equal to the last level's is not split again, since
    its blocks were valued there; in a build the group's view answers a
    block repeated across calls, so each distinct block is valued once.
    """
    if not ground or k < 1:
        return 0, 0.0
    if max_singleton is None:
        max_singleton = max(oracle.value(1 << j) for j in bitsets.iter_items(ground))
    if max_singleton <= 0:
        return 0, 0.0
    best_bundle, best_value, last = 0, 0.0, None
    for t in range(math.ceil(math.log2(8 * k * k)) + 1):
        q = max_singleton / (4 * k) * (1 << t)
        resp = oracle.demand(UniformPrices(q, ground))
        if resp == last:
            # the last level's oversized response, whose blocks were valued there
            continue
        last = resp
        fits = resp.bit_count() <= k
        blocks = [resp] if fits else bitsets.chunks(resp, k)
        for block in blocks:
            if not block:
                continue
            val = oracle.value(block)
            if val > best_value:
                best_bundle, best_value = block, val
        if fits:
            # law of demand: optimal answers R at q and R' at q' > q give
            # |R'| <= |R| and v(R') <= v(R) - q (|R| - |R'|) <= v(R), so
            # every later response fits too and none beats v(R)
            break
    return best_bundle, best_value

