"""Valuation oracles: a query-counted black box plus concrete families.

Conventions used throughout the package:

  * bundles are int bitsets (see bitsets), values are nonnegative floats,
    v(empty) = 0, and every shipped family is monotone
  * a demand query asks one price q for every item of a bundle and
    excludes every other item (UniformPrices)
  * demand ties break toward smaller cardinality, then the numerically
    smaller bitset; profit comparisons are exact, so fixtures that need
    reproducible ties should stick to dyadic rationals
  * threshold comparisons elsewhere use the relative tolerance below
"""

import math
import struct
from functools import cached_property, reduce
from itertools import accumulate, compress, repeat
from operator import getitem, or_

import numpy as np

from . import bitsets
from .errors import CapabilityError, ScaleError
from .ledger import QueryLedger

RELATIVE_TOL = 1e-9

# the most priced items the inherited demand answers by enumeration
ENUM_LIMIT = 22


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

    def meeting(self, threshold: float) -> int:
        """The support items j with meets(weight(j), threshold)."""
        if self._uniform_weight is not None:
            return self.support if meets(self._uniform_weight, threshold) else 0
        return bitsets.from_items(j for j, w in self.weights.items() if meets(w, threshold))

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

    __slots__ = ("q", "included")

    def __init__(self, q: float, included: int):
        self.q = float(q)
        self.included = included


class ValuationOracle:
    """Black-box valuation with query accounting.

    Subclasses implement _value and may override _demand_uniform; the
    inherited one answers by enumeration (_demand), so without an override
    has_demand holds only up to ENUM_LIMIT items. The public value()/demand()
    wrappers count and check each answer, so internal computations never
    inflate the ledger.
    """

    def __init__(self, n: int, ledger: QueryLedger | None = None):
        if n < 1:
            raise ValueError("ground set must contain at least one item")
        self.n = n
        self.ledger = ledger if ledger is not None else QueryLedger()
        self.has_demand = (n <= ENUM_LIMIT
                           or type(self)._demand_uniform is not ValuationOracle._demand_uniform)
        self._reach = bitsets.full_mask(n)  # items a demand answer may hold

    # -- public, counted interface ------------------------------------

    def value(self, bundle: int) -> float:
        bitsets.check_bundle(bundle, self.n)
        self.ledger.count_value()
        v = self._value(bundle)
        if not 0 <= v < math.inf:
            raise ValueError(
                f"{self._answerer()} valued bundle {bitsets.to_hex(bundle)} at {v!r}; "
                "values must be finite and >= 0"
            )
        return v

    def demand(self, prices: UniformPrices) -> int:
        """Profit-maximizing bundle at one price on prices.included (one demand query)."""
        if not self.has_demand:
            raise CapabilityError(f"{type(self).__name__} does not answer demand queries")
        q, included = prices.q, prices.included
        bitsets.check_bundle(included, self.n)
        if not 0 <= q < math.inf:
            raise ValueError(f"prices must be finite and >= 0, got {q!r}")
        self.ledger.count_demand()
        answer = self._demand_uniform(q, included)
        # a negative int has bits outside any priced set
        if type(answer) is not int or answer & ~(included & self._reach):
            raise ValueError(
                f"{self._answerer()} answered a demand query with {answer!r}; "
                "answers must be int bundles of priced items"
            )
        return answer

    def _answerer(self) -> str:
        """Class name of the oracle that answers this one's queries."""
        root = self
        while isinstance(root, OracleView):
            root = root.parent  # name the oracle that answered, not a view of it
        return type(root).__name__

    # -- implementation hooks (uncounted) ------------------------------

    def _value(self, bundle: int) -> float:
        raise NotImplementedError

    def _demand_uniform(self, q: float, included: int) -> int:
        return self._demand(q, included)

    def _demand(self, q: float, included: int) -> int:
        """Exhaustive demand: enumerate the submasks of `included`.

        Exact profit comparisons; ties go to smaller cardinality, then
        smaller bitset. The empty bundle (profit 0) is always a candidate.
        A bundle's price adds q once per item, never q * |S|, which can
        round differently and move a tie.
        """
        size = included.bit_count()
        if size > ENUM_LIMIT:
            raise ScaleError(f"exhaustive demand is limited to {ENUM_LIMIT} priced items")
        cost = list(accumulate(repeat(q, size), initial=0.0))  # cost[c] adds q c times
        best_profit, best_card, best_mask = 0.0, 0, 0
        for sub in bitsets.submasks(included):
            if not sub:
                continue
            card = sub.bit_count()
            profit = self._value(sub) - cost[card]
            if profit > best_profit or (
                profit == best_profit and (card, sub) < (best_card, best_mask)
            ):
                best_profit, best_card, best_mask = profit, card, sub
        return best_mask


class OracleView(ValuationOracle):
    """The parent valuation on the items of `mask`, in units of `scale`.

    Items outside the mask add nothing and are never demanded; values are
    divided by the scale and prices multiplied by it. Shares the parent's
    ledger, so a query through the view is counted once.

    The view asks each question once. `answers` maps a question to its
    checked answer: a value question by `bundle & mask`, a demand
    question by `(q, included)`. A repeat passes the argument checks and
    is answered from the table, uncounted. A caller may seed `answers`
    with values it holds, in the view's scale.
    """

    def __init__(self, parent: ValuationOracle, mask: int, scale: float = 1.0):
        if scale <= 0 or not math.isfinite(scale):
            raise ValueError("scale must be positive and finite")
        super().__init__(parent.n, parent.ledger)
        self.has_demand = parent.has_demand
        self.parent = parent
        self.mask = mask
        self.scale = float(scale)
        self._reach = parent._reach & mask
        self.answers = {}

    def value(self, bundle: int) -> float:
        bitsets.check_bundle(bundle, self.n)
        key = bundle & self.mask
        answer = self.answers.get(key)
        if answer is None:
            answer = self.answers[key] = super().value(bundle)
        return answer

    def demand(self, prices: UniformPrices) -> int:
        # only checked questions are stored, so a key match needs no check
        key = (prices.q, prices.included)
        answer = self.answers.get(key)
        if answer is None:
            answer = self.answers[key] = super().demand(prices)
        return answer

    def _value(self, bundle: int) -> float:
        return self.parent._value(bundle & self.mask) / self.scale

    def _demand_uniform(self, q: float, included: int) -> int:
        return self.parent._demand_uniform(q * self.scale, included & self.mask)


# ---------------------------------------------------------------------
# concrete families
# ---------------------------------------------------------------------


class AdditiveValuation(ValuationOracle):
    def __init__(self, weights, ledger: QueryLedger | None = None):
        ws = tuple(float(w) for w in weights)
        for w in ws:
            if w < 0 or not math.isfinite(w):
                raise ValueError("additive weights must be finite and >= 0")
        super().__init__(len(ws), ledger)
        self.weights = ws

    def _value(self, bundle: int) -> float:
        total = 0.0
        for j in bitsets.iter_items(bundle):
            total += self.weights[j]
        return total

    def _demand_uniform(self, q: float, included: int) -> int:
        # strictly positive profit per item; w == q stays out (cardinality tie)
        take = 0
        for j in bitsets.iter_items(included):
            if self.weights[j] > q:
                take |= 1 << j
        return take


class CoverageValuation(ValuationOracle):
    """Weighted coverage: item j covers a fixed set of universe elements.

    Monotone and submodular. A value reads the bundle as 64-bit words. Each
    word index keeps a small cache of the last word values asked there and
    their unions (at most _WordUnions.BOUND entries, so memory does not grow
    with the queries); a greedy scan asking B | j for a fixed B finds every
    word but j's there. A miss ORs the per-byte union memos of the word's
    nonzero bytes, filled on first use. Demand falls back to exhaustive
    enumeration, so it is only available up to ENUM_LIMIT items.
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
            bitsets.check_ids(cov, m, "cover element")
            masks.append(bitsets.from_items(cov))
        super().__init__(n, ledger)
        self.element_weights = ews
        self.covers = tuple(masks)
        self._unit = all(w == 1.0 for w in ews)
        words = (n + 63) // 64
        self._read_words = struct.Struct(f"<{words}Q").unpack
        self._word_bytes = 8 * words

    @cached_property
    def _unions(self):
        """One _CoverUnions per byte of a bundle; table i serves items 8i to 8i + 7."""
        return [_CoverUnions(self.covers[i:i + 8]) for i in range(0, self.n, 8)]

    @cached_property
    def _words(self):
        """One _WordUnions per 64-bit word of a bundle, over its bytes' tables."""
        unions = self._unions
        return [_WordUnions(unions[i:i + 8]) for i in range(0, len(unions), 8)]

    def _value(self, bundle: int) -> float:
        words = self._read_words(bundle.to_bytes(self._word_bytes, "little"))
        union = reduce(or_, map(getitem, self._words, words), 0)
        if self._unit:
            return float(union.bit_count())
        total = 0.0
        for e in bitsets.iter_items(union):
            total += self.element_weights[e]
        return total


class _CoverUnions(dict):
    """Byte value b -> the union of covers[bit] over the bits set in b. An
    entry is made on first use: b's lowest bits are cleared until an entry
    is found, and their covers are ORed onto it. Only the asked b is
    stored, so the table holds no value no query asked."""

    __slots__ = ("covers",)

    def __init__(self, covers):
        super().__init__({0: 0})
        self.covers = covers

    def __missing__(self, b: int) -> int:
        rest, union = b, 0
        while rest not in self:
            low = rest & -rest
            union |= self.covers[low.bit_length() - 1]
            rest ^= low
        union = self[b] = self[rest] | union
        return union


class _WordUnions(dict):
    """64-bit word value -> the union of the covers of the items set in it,
    for the last few words asked. A miss ORs the byte tables of the word's
    nonzero bytes; a full cache is emptied first, so it never holds more
    than BOUND entries."""

    __slots__ = ("tables",)
    BOUND = 3

    def __init__(self, tables):
        super().__init__()
        self.tables = tables

    def __missing__(self, word: int) -> int:
        if len(self) >= self.BOUND:
            self.clear()
        raw = word.to_bytes(8, "little")
        union = self[word] = reduce(or_, map(getitem, compress(self.tables, raw), filter(None, raw)), 0)
        return union


class UniformMatroidRank(ValuationOracle):
    def __init__(self, n: int, cap: int, ledger: QueryLedger | None = None):
        if type(cap) is not int or cap < 0:  # a bool is not an int here
            raise ValueError(f"cap must be an int >= 0, got {cap!r}")
        super().__init__(n, ledger)
        self.cap = cap

    def _value(self, bundle: int) -> float:
        return float(min(bundle.bit_count(), self.cap))


class PartitionMatroidRank(ValuationOracle):
    """Sum over blocks of min(|S intersect block|, cap_block)."""

    def __init__(self, blocks, caps, ledger: QueryLedger | None = None):
        if len(blocks) != len(caps) or not blocks:
            raise ValueError("need one cap per nonempty block list")
        listed = sum(map(len, blocks))  # covering 0..n-1 exactly takes n = listed
        for b in blocks:
            bitsets.check_ids(b, listed, "block item")
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
            if type(c) is not int or c < 0:  # a bool is not an int here
                raise ValueError(f"caps must be ints >= 0, got {c!r}")
        super().__init__(n, ledger)
        self.blocks = tuple(masks)
        self.caps = tuple(caps)

    @cached_property
    def _block_arrays(self):
        """(block id per item, caps as floats); built on first use so
        constructing an oracle stays cheap."""
        block_of = np.empty(self.n, dtype=np.intp)
        for b, bm in enumerate(self.blocks):
            block_of[bitsets.to_array(bm, self.n).astype(bool)] = b
        return block_of, np.array(self.caps, dtype=np.float64)

    def _value(self, bundle: int) -> float:
        block_of, caps = self._block_arrays
        counts = np.bincount(
            block_of, weights=bitsets.to_array(bundle, self.n), minlength=len(caps)
        )
        return float(np.minimum(counts, caps).sum())


class GraphicMatroidRank(ValuationOracle):
    """Rank of an edge subset in the graphic matroid of a fixed multigraph.

    Items are edges; rank counts edges that join two previously separate
    components (union-find over the touched vertices). The endpoints are
    relabelled 0, 1, ... in order of first use, so a query costs the
    same however many vertices the graph names.
    """

    def __init__(self, vertices: int, edges, ledger: QueryLedger | None = None):
        if type(vertices) is not int or vertices < 1:  # a bool is not an int here
            raise ValueError(f"vertices must be an int >= 1, got {vertices!r}")
        ends = []
        label = {}
        for u, v in edges:
            if not all(type(x) is int and 0 <= x < vertices for x in (u, v)):
                raise ValueError(f"edge {[u, v]!r} needs int endpoints in 0..{vertices - 1}")
            ends.append((label.setdefault(u, len(label)), label.setdefault(v, len(label))))
        super().__init__(len(ends), ledger)
        self._ends = tuple(ends)
        self._used = len(label)

    def _value(self, bundle: int) -> float:
        parent = list(range(self._used))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        rank = 0
        for j in bitsets.iter_items(bundle):
            u, v = self._ends[j]
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
        super().__init__(n, ledger)
        self.clauses = tuple(cls)

    def _value(self, bundle: int) -> float:
        best = 0.0
        for c in self.clauses:
            val = c.value(bundle)
            if val > best:
                best = val
        return best

    def _demand_uniform(self, q: float, included: int) -> int:
        best = (0.0, 0, 0)  # profit, cardinality, mask; empty bundle seeds it
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
    subadditive inequality over all disjoint splits costs 3^n / 2 table reads,
    so it is verified here only up to n = 12; larger tables are expected to
    come from the repairing generator and can be re-checked explicitly via
    validate_class.
    """

    FULL_CHECK_LIMIT = 12

    def __init__(self, table, ledger: QueryLedger | None = None):
        arr = np.asarray(table, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("table must be a flat list of values")
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
        witness = subadditive_witness(arr.tolist(), n) if n <= self.FULL_CHECK_LIMIT else None
        if witness is not None:
            a, b, s = witness
            raise ValueError(f"table is not subadditive: v({a:#x}) + v({b:#x}) < v({s:#x})")
        super().__init__(n, ledger)
        self.table = arr
        self._masks = masks
        self._pc = popcount_table(n)

    def _value(self, bundle: int) -> float:
        return float(self.table[bundle])

    def _demand_uniform(self, q: float, included: int) -> int:
        profit = self.table - q * self._pc
        outside = bitsets.full_mask(self.n) ^ included
        if outside:
            profit = np.where((self._masks & outside) == 0, profit, -np.inf)
        cands = np.flatnonzero(profit == profit.max())
        return int(cands[np.lexsort((cands, self._pc[cands]))[0]])


def subadditive_witness(table, n: int):
    """The first split (a, s ^ a, s) with v(a) + v(s ^ a) < v(s) beyond
    RELATIVE_TOL, bundles s ascending and each s's submasks a descending;
    None if the table is subadditive. Only a < s ^ a is read, since the
    inequality is symmetric in the two halves."""
    tol = 1.0 - RELATIVE_TOL
    for s in range(1, 1 << n):
        floor = table[s] * tol
        a = (s - 1) & s
        while a:
            if a < (s ^ a) and table[a] + table[s ^ a] < floor:
                return a, s ^ a, s
            a = (a - 1) & s
    return None


def popcount_table(n: int) -> np.ndarray:
    """Array of length 2^n whose entry at mask m is m.bit_count()."""
    pc = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        pc = np.concatenate([pc, pc + 1])
    return pc
