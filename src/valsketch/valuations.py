"""Valuation oracles: a query-counted black box plus concrete families.

Conventions used throughout the package:

  * bundles are int bitsets (see bitsets), values are nonnegative floats,
    v(empty) = 0, and every shipped family is monotone
  * a price vector is a sequence of per-item prices where None marks an
    item that must not appear in any demand answer; UniformPrices is a
    compact equivalent for one price on one bundle
  * demand ties break toward smaller cardinality, then the numerically
    smaller bitset; profit comparisons are exact, so fixtures that need
    reproducible ties should stick to dyadic rationals
  * threshold comparisons elsewhere use the relative tolerance below
"""

import math

import numpy as np

from . import bitsets
from .errors import CapabilityError, ScaleError
from .ledger import QueryLedger

RELATIVE_TOL = 1e-9

#: price marker for an item that may not be demanded at all
EXCLUDED = None


def meets(x: float, threshold: float) -> bool:
    """x >= threshold, forgiving a relative slack of RELATIVE_TOL."""
    return x >= threshold * (1.0 - RELATIVE_TOL)


class AdditiveClause:
    """Nonnegative per-item weights supported on a bundle.

    Items outside the support have implicit weight 0. Weight order is kept
    sorted by item id so float accumulations are reproducible.
    """

    __slots__ = ("support", "weights", "_uniform_weight")

    def __init__(self, weights):
        ws = {}
        for j in sorted(weights):
            w = float(weights[j])
            if w < 0 or not math.isfinite(w):
                raise ValueError(f"clause weight for item {j} must be finite and >= 0")
            ws[int(j)] = w
        self.weights = ws
        self.support = bitsets.from_items(ws)
        distinct = set(ws.values())
        self._uniform_weight = distinct.pop() if len(distinct) == 1 else None

    @classmethod
    def uniform(cls, price: float, mask: int) -> "AdditiveClause":
        return cls({j: price for j in bitsets.iter_items(mask)})

    def weight(self, item: int) -> float:
        return self.weights.get(item, 0.0)

    def value(self, bundle: int) -> float:
        inter = bundle & self.support
        if not inter:
            return 0.0
        if self._uniform_weight is not None:
            return self._uniform_weight * inter.bit_count()
        return sum(w for j, w in self.weights.items() if (bundle >> j) & 1)

    def total(self) -> float:
        return self.value(self.support)

    def __eq__(self, other):
        return isinstance(other, AdditiveClause) and self.weights == other.weights

    def __repr__(self):
        return f"AdditiveClause({self.weights!r})"


class UniformPrices:
    """One price q for every item of `included`, everything else excluded."""

    __slots__ = ("q", "included", "n")

    def __init__(self, q: float, included: int, n: int):
        self.q = float(q)
        self.included = included
        self.n = n


class ValuationOracle:
    """Black-box valuation with query accounting.

    Subclasses implement _value (and may override _demand and
    _demand_uniform). The public value()/demand() wrappers do the counting,
    so internal computations of an implementation never inflate the ledger.
    """

    def __init__(self, n: int, ledger: QueryLedger | None = None, has_demand: bool = False):
        if n < 1:
            raise ValueError("ground set must contain at least one item")
        self.n = n
        self.ledger = ledger if ledger is not None else QueryLedger()
        self.has_demand = has_demand

    # -- public, counted interface ------------------------------------

    def value(self, bundle: int) -> float:
        bitsets.check_bundle(bundle, self.n)
        self.ledger.count_value()
        return self._value(bundle)

    def demand(self, prices) -> int:
        """Profit-maximizing bundle under item prices (one demand query)."""
        if not self.has_demand:
            raise CapabilityError(f"{type(self).__name__} does not answer demand queries")
        if isinstance(prices, UniformPrices):
            if prices.n != self.n:
                raise ValueError("price vector length does not match the ground set")
            bitsets.check_bundle(prices.included, self.n)
            _check_price(prices.q)
            self.ledger.count_demand()
            return self._demand_uniform(prices.q, prices.included)
        prices = list(prices)
        if len(prices) != self.n:
            raise ValueError("price vector length does not match the ground set")
        for p in prices:
            if p is not EXCLUDED:
                _check_price(p)
        self.ledger.count_demand()
        return self._demand(prices)

    def restrict(self, mask: int) -> "RestrictedOracle":
        """View of this valuation on a sub-ground-set, sharing the ledger."""
        bitsets.check_bundle(mask, self.n)
        return RestrictedOracle(self, mask)

    # -- implementation hooks (uncounted) ------------------------------

    def _value(self, bundle: int) -> float:
        raise NotImplementedError

    def _demand(self, prices: list) -> int:
        return _demand_brute(self, prices)

    def _demand_uniform(self, q: float, included: int) -> int:
        return self._demand([q if (included >> j) & 1 else EXCLUDED for j in range(self.n)])


def _check_price(p) -> None:
    if not isinstance(p, (int, float)) or not math.isfinite(p) or p < 0:
        raise ValueError(f"prices must be finite and >= 0, got {p!r}")


def _demand_brute(oracle: ValuationOracle, prices: list) -> int:
    """Reference demand: enumerate submasks of the non-excluded items.

    Exact profit comparisons; ties go to smaller cardinality, then smaller
    bitset. The empty bundle (profit 0) is always a candidate.
    """
    feasible = bitsets.from_items(j for j, p in enumerate(prices) if p is not EXCLUDED)
    if feasible.bit_count() > 22:
        raise ScaleError("exhaustive demand is limited to 22 priced items")
    best_profit, best_card, best_mask = 0.0, 0, 0
    for sub in bitsets.submasks(feasible):
        if not sub:
            continue
        cost = 0.0
        for j in bitsets.iter_items(sub):
            cost += prices[j]
        profit = oracle._value(sub) - cost
        card = sub.bit_count()
        if profit > best_profit or (
            profit == best_profit and (card, sub) < (best_card, best_mask)
        ):
            best_profit, best_card, best_mask = profit, card, sub
    return best_mask


class RestrictedOracle(ValuationOracle):
    """Valuation masked to a sub-ground-set; shares the parent ledger."""

    def __init__(self, parent: ValuationOracle, mask: int):
        super().__init__(parent.n, parent.ledger, parent.has_demand)
        self.parent = parent
        self.mask = mask

    def _value(self, bundle: int) -> float:
        return self.parent._value(bundle & self.mask)

    def _demand(self, prices: list) -> int:
        masked = [p if (self.mask >> j) & 1 else EXCLUDED for j, p in enumerate(prices)]
        return self.parent._demand(masked)

    def _demand_uniform(self, q: float, included: int) -> int:
        return self.parent._demand_uniform(q, included & self.mask)


class ScaledOracle(ValuationOracle):
    """Valuation divided by a positive scale; shares the parent ledger."""

    def __init__(self, parent: ValuationOracle, scale: float):
        if scale <= 0 or not math.isfinite(scale):
            raise ValueError("scale must be positive and finite")
        super().__init__(parent.n, parent.ledger, parent.has_demand)
        self.parent = parent
        self.scale = float(scale)

    def _value(self, bundle: int) -> float:
        return self.parent._value(bundle) / self.scale

    def _demand(self, prices: list) -> int:
        rescaled = [p if p is EXCLUDED else p * self.scale for p in prices]
        return self.parent._demand(rescaled)

    def _demand_uniform(self, q: float, included: int) -> int:
        return self.parent._demand_uniform(q * self.scale, included)


# ---------------------------------------------------------------------
# concrete families
# ---------------------------------------------------------------------


class AdditiveValuation(ValuationOracle):
    def __init__(self, weights, ledger: QueryLedger | None = None):
        ws = tuple(float(w) for w in weights)
        for w in ws:
            if w < 0 or not math.isfinite(w):
                raise ValueError("additive weights must be finite and >= 0")
        super().__init__(len(ws), ledger, has_demand=True)
        self.weights = ws

    def _value(self, bundle: int) -> float:
        total = 0.0
        for j in bitsets.iter_items(bundle):
            total += self.weights[j]
        return total

    def _demand(self, prices: list) -> int:
        # strictly positive profit per item; w == p stays out (cardinality tie)
        take = 0
        for j, p in enumerate(prices):
            if p is not EXCLUDED and self.weights[j] > p:
                take |= 1 << j
        return take

    def _demand_uniform(self, q: float, included: int) -> int:
        take = 0
        for j in bitsets.iter_items(included):
            if self.weights[j] > q:
                take |= 1 << j
        return take


class CoverageValuation(ValuationOracle):
    """Weighted coverage: item j covers a fixed set of universe elements.

    Monotone and submodular. Demand falls back to exhaustive enumeration,
    so it is only available up to 22 items.
    """

    def __init__(self, element_weights, covers, ledger: QueryLedger | None = None):
        n = len(covers)
        ews = tuple(float(w) for w in element_weights)
        for w in ews:
            if w < 0 or not math.isfinite(w):
                raise ValueError("element weights must be finite and >= 0")
        masks = []
        m = len(ews)
        for cov in covers:
            cm = bitsets.from_items(cov)
            if cm >> m:
                raise ValueError("cover references an element outside the universe")
            masks.append(cm)
        super().__init__(n, ledger, has_demand=(n <= 22))
        self.element_weights = ews
        self.covers = tuple(masks)
        self._unit = all(w == 1.0 for w in ews)

    def _value(self, bundle: int) -> float:
        union = 0
        for j in bitsets.iter_items(bundle):
            union |= self.covers[j]
        if self._unit:
            return float(union.bit_count())
        total = 0.0
        for e in bitsets.iter_items(union):
            total += self.element_weights[e]
        return total


class UniformMatroidRank(ValuationOracle):
    def __init__(self, n: int, cap: int, ledger: QueryLedger | None = None):
        if cap < 0:
            raise ValueError("cap must be >= 0")
        super().__init__(n, ledger, has_demand=(n <= 22))
        self.cap = int(cap)

    def _value(self, bundle: int) -> float:
        return float(min(bundle.bit_count(), self.cap))


class PartitionMatroidRank(ValuationOracle):
    """Sum over blocks of min(|S intersect block|, cap_block)."""

    def __init__(self, blocks, caps, ledger: QueryLedger | None = None):
        if len(blocks) != len(caps) or not blocks:
            raise ValueError("need one cap per nonempty block list")
        masks = [bitsets.from_items(b) for b in blocks]
        union = 0
        for bm in masks:
            if union & bm:
                raise ValueError("blocks must be disjoint")
            union |= bm
        n = union.bit_length()
        if union != bitsets.full_mask(n):
            raise ValueError("blocks must cover the ground set 0..n-1 exactly")
        for c in caps:
            if c < 0:
                raise ValueError("caps must be >= 0")
        super().__init__(n, ledger, has_demand=(n <= 22))
        self.blocks = tuple(masks)
        self.caps = tuple(int(c) for c in caps)

    def _value(self, bundle: int) -> float:
        total = 0
        for bm, cap in zip(self.blocks, self.caps):
            total += min((bundle & bm).bit_count(), cap)
        return float(total)


class GraphicMatroidRank(ValuationOracle):
    """Rank of an edge subset in the graphic matroid of a fixed multigraph.

    Items are edges; rank counts edges that join two previously separate
    components (union-find over the touched vertices).
    """

    def __init__(self, vertices: int, edges, ledger: QueryLedger | None = None):
        if vertices < 1:
            raise ValueError("need at least one vertex")
        es = []
        for u, v in edges:
            if not (0 <= u < vertices and 0 <= v < vertices):
                raise ValueError("edge endpoint outside the vertex range")
            es.append((int(u), int(v)))
        super().__init__(len(es), ledger, has_demand=(len(es) <= 22))
        self.vertices = vertices
        self.edges = tuple(es)

    def _value(self, bundle: int) -> float:
        parent = list(range(self.vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        rank = 0
        for j in bitsets.iter_items(bundle):
            u, v = self.edges[j]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                rank += 1
        return float(rank)


class XOSExplicitValuation(ValuationOracle):
    """Max over an explicit list of additive clauses.

    Demand is exact at any n: the per-clause threshold rule picks, for each
    clause, the items priced strictly below their weight; the best clause
    candidate (and the empty bundle) realizes the optimum profit, and the
    minimum-cardinality optimum is always of this shape.
    """

    def __init__(self, clauses, ledger: QueryLedger | None = None, n: int | None = None):
        cls = list(clauses)
        if not cls:
            raise ValueError("need at least one clause")
        top = 0
        for c in cls:
            if not isinstance(c, AdditiveClause):
                raise TypeError("clauses must be AdditiveClause instances")
            top = max(top, c.support.bit_length())
        if n is None:
            n = max(top, 1)
        elif top > n:
            raise ValueError("clause references an item outside the ground set")
        super().__init__(n, ledger, has_demand=True)
        self.clauses = tuple(cls)

    def _value(self, bundle: int) -> float:
        best = 0.0
        for c in self.clauses:
            val = c.value(bundle)
            if val > best:
                best = val
        return best

    def _demand(self, prices: list) -> int:
        best = (0.0, 0, 0)  # profit, cardinality, mask; empty bundle seeds it
        for c in self.clauses:
            pos = 0
            profit = 0.0
            for j, w in c.weights.items():
                p = prices[j]
                if p is not EXCLUDED and w > p:
                    pos |= 1 << j
                    profit += w - p
            cand = (profit, pos.bit_count(), pos)
            if cand[0] > best[0] or (cand[0] == best[0] and (cand[1], cand[2]) < (best[1], best[2])):
                best = cand
        return best[2]

    def _demand_uniform(self, q: float, included: int) -> int:
        best = (0.0, 0, 0)
        for c in self.clauses:
            uw = c._uniform_weight
            if uw is not None:
                pos = (c.support & included) if uw > q else 0
                profit = (uw - q) * pos.bit_count() if pos else 0.0
            else:
                pos = 0
                profit = 0.0
                for j, w in c.weights.items():
                    if (included >> j) & 1 and w > q:
                        pos |= 1 << j
                        profit += w - q
            cand = (profit, pos.bit_count(), pos)
            if cand[0] > best[0] or (cand[0] == best[0] and (cand[1], cand[2]) < (best[1], best[2])):
                best = cand
        return best[2]


class SubadditiveTableValuation(ValuationOracle):
    """Explicit 2^n table indexed by bundle mask. Limited to n <= 22.

    The constructor always checks normalization and monotonicity. The
    subadditive inequality over all disjoint splits costs 3^n table reads,
    so it is verified here only up to n = 12; larger tables are expected to
    come from the repairing generator and can be re-checked explicitly via
    validate_class.
    """

    FULL_CHECK_LIMIT = 12

    def __init__(self, table, ledger: QueryLedger | None = None):
        arr = np.asarray(table, dtype=np.float64)
        size = arr.shape[0]
        if size < 2 or size & (size - 1):
            raise ValueError("table length must be a power of two, at least 2")
        n = size.bit_length() - 1
        if n > 22:
            raise ScaleError("explicit tables are limited to 22 items")
        if arr[0] != 0.0:
            raise ValueError("table is not normalized: v(empty) must be 0")
        if not np.all(np.isfinite(arr)) or arr.min() < 0:
            raise ValueError("table values must be finite and >= 0")
        masks = np.arange(size, dtype=np.int64)
        for j in range(n):
            without = np.flatnonzero((masks >> j) & 1 == 0)
            if np.any(arr[without | (1 << j)] < arr[without]):
                raise ValueError("table is not monotone")
        if n <= self.FULL_CHECK_LIMIT:
            _check_table_subadditive(arr, n)
        super().__init__(n, ledger, has_demand=True)
        self.table = arr
        self._masks = masks
        self._pc = popcount_table(n)

    def _value(self, bundle: int) -> float:
        return float(self.table[bundle])

    def _pick_best(self, profit: np.ndarray) -> int:
        best = profit.max()
        cands = np.flatnonzero(profit == best)
        order = np.lexsort((cands, self._pc[cands]))
        return int(cands[order[0]])

    def _demand(self, prices: list) -> int:
        psum = np.zeros(len(self.table))
        excluded = 0
        for j, p in enumerate(prices):
            if p is EXCLUDED:
                excluded |= 1 << j
            elif p:
                psum[((self._masks >> j) & 1) == 1] += p
        profit = self.table - psum
        if excluded:
            profit = np.where((self._masks & excluded) == 0, profit, -np.inf)
        return self._pick_best(profit)

    def _demand_uniform(self, q: float, included: int) -> int:
        profit = self.table - q * self._pc
        outside = bitsets.full_mask(self.n) ^ included
        if outside:
            profit = np.where((self._masks & outside) == 0, profit, -np.inf)
        return self._pick_best(profit)


def _check_table_subadditive(arr: np.ndarray, n: int) -> None:
    for s in range(1, 1 << n):
        v = arr[s]
        a = (s - 1) & s
        while a:
            if arr[a] + arr[s ^ a] < v * (1.0 - RELATIVE_TOL):
                raise ValueError(
                    f"table is not subadditive: v({a:#x}) + v({s ^ a:#x}) < v({s:#x})"
                )
            a = (a - 1) & s
    return None


def popcount_table(n: int) -> np.ndarray:
    """Array of length 2^n whose entry at mask m is m.bit_count()."""
    pc = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        pc = np.concatenate([pc, pc + 1])
    return pc
