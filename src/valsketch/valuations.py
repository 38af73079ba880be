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
from functools import cached_property
from itertools import accumulate, repeat

import numpy as np

from . import bitsets
from .errors import CapabilityError, MalformedBundleError, ScaleError
from .ledger import QueryLedger

RELATIVE_TOL = 1e-9

# the most priced items the inherited demand answers by enumeration
ENUM_LIMIT = 22

# the most items of an exhaustive table: an explicit one, or verify's 2^n bundles
VALIDATE_LIMIT = 16


def meets(x: float, threshold: float) -> bool:
    """x >= threshold, forgiving a relative slack of RELATIVE_TOL."""
    return x >= threshold * (1.0 - RELATIVE_TOL)


def bad_value(oracle, bundle: int, v) -> ValueError:
    """The error for a value that is NaN, negative or infinite."""
    return ValueError(f"{type(oracle).__name__} valued bundle {bitsets.to_hex(bundle)} at {v!r}; "
                      "values must be finite and >= 0")


class AdditiveClause:
    """Nonnegative per-item weights supported on a bundle.

    Items outside the support have implicit weight 0. Weight order is kept
    sorted by item id so float accumulations are reproducible.
    """

    __slots__ = ("support", "_weights", "_uniform_weight")

    def __init__(self, weights):
        for j in weights:  # a bool, a float or a str is refused, not truncated
            if type(j) is not int and not isinstance(j, np.integer):
                raise MalformedBundleError(f"clause keys must be integer item ids, got {j!r}")
        ws = {}
        for j in sorted(weights):
            w = float(weights[j])
            if w < 0 or not math.isfinite(w):
                raise ValueError(f"clause weight for item {j} must be finite and >= 0")
            ws[int(j)] = w
        self._weights = ws
        self.support = bitsets.from_items(ws)
        distinct = set(ws.values())
        self._uniform_weight = distinct.pop() if len(distinct) == 1 else None

    @classmethod
    def uniform(cls, price: float, mask: int) -> "AdditiveClause":
        w = float(price)
        if w < 0 or not math.isfinite(w):
            raise ValueError(f"uniform clause price must be finite and >= 0, got {price!r}")
        if type(mask) is not int or mask < 0:  # a bool is not an int here
            raise MalformedBundleError(f"uniform clause support must be an int >= 0, got {mask!r}")
        clause = cls.__new__(cls)
        clause._weights, clause.support, clause._uniform_weight = None, mask, w if mask else None
        return clause

    @property
    def weights(self) -> dict:
        """item -> weight, ascending by item; a uniform clause builds it on first read."""
        if self._weights is None:
            self._weights = dict.fromkeys(bitsets.iter_items(self.support), self._uniform_weight)
        return self._weights

    def meeting(self, threshold: float) -> int:
        """The support items j whose weight meets(w, threshold)."""
        if self._uniform_weight is not None:
            return self.support if meets(self._uniform_weight, threshold) else 0
        cut, kept = threshold * (1.0 - RELATIVE_TOL), 0  # meets(w, threshold) is w >= cut
        for j, w in self.weights.items():
            if w >= cut:
                kept |= 1 << j
        return kept

    def value(self, bundle: int) -> float:
        inter = bundle & self.support
        if not inter:
            return 0.0
        if self._uniform_weight is not None:
            return self._uniform_weight * inter.bit_count()
        return sum(w for j, w in self.weights.items() if (bundle >> j) & 1)

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

    # -- public, counted interface ------------------------------------

    def value(self, bundle: int) -> float:
        bitsets.check_bundle(bundle, self.n)
        self.ledger.count_value()
        v = self._value(bundle)
        if not 0 <= v < math.inf:
            raise bad_value(self, bundle, v)
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
        if type(answer) is not int or answer & ~included:
            raise ValueError(
                f"{type(self).__name__} answered a demand query with {answer!r}; "
                "answers must be int bundles of priced items"
            )
        return answer

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


class OracleView:
    """The parent valuation in units of `scale`: values are divided by it
    and prices multiplied by it. The view only remembers and converts:
    each question it has not seen goes to the parent's counted value() or
    demand(), so the root oracle counts, checks and names every answer,
    once.

    `answers` maps a question to its answer: a value question by its
    bundle, a demand question by `(q, included)`. Only a question the root
    accepted is stored, so a repeat is answered from the table, unchecked
    and uncounted. `singles` maps an item id to the value of its one-item
    bundle, in the view's scale, for a caller to seed with values it holds:
    a one-item bundle missing from `answers` is answered from it, uncounted
    and not stored, and a maximizer may read it by id instead of by bundle.
    """

    def __init__(self, parent: "ValuationOracle | OracleView", scale: float = 1.0):
        if scale <= 0 or not math.isfinite(scale):
            raise ValueError("scale must be positive and finite")
        self.parent = parent
        self.scale = float(scale)
        self.answers = {}
        self.singles = {}

    def value(self, bundle: int) -> float:
        answer = self.answers.get(bundle)
        if answer is None:
            if not bundle & (bundle - 1) and (j := bundle.bit_length() - 1) in self.singles:
                return self.singles[j]
            answer = self.parent.value(bundle) / self.scale
            if answer == math.inf:
                raise ValueError(f"the value of bundle {bitsets.to_hex(bundle)} overflows "
                                 f"in units of scale {self.scale!r}")
            self.answers[bundle] = answer
        return answer

    def demand(self, prices: UniformPrices) -> int:
        key = prices.q, prices.included
        answer = self.answers.get(key)
        if answer is None:
            answer = self.answers[key] = self.parent.demand(
                UniformPrices(prices.q * self.scale, prices.included))
        return answer

    def _value(self, bundle: int) -> float:
        return self.parent._value(bundle) / self.scale


class RecentBundles(ValuationOracle):
    """A family whose value is _read(state) of an int state, a cover union or
    a rank, that _grow(base, state, bundle) takes from a subset to bundle.
    The last RECENT bundles are remembered as (bundle, size, state) entries
    in a list, least recently used first; a value grows from the first
    largest remembered subset of its bundle and moves it last, so a scan of
    B | j for a fixed B keeps B remembered. The scan compares the stored
    sizes before it tests for a subset, so a question counts the bits of
    its own bundle only."""

    RECENT = 4

    def __init__(self, n: int, ledger: QueryLedger | None = None):
        super().__init__(n, ledger)
        self._recent = []  # (bundle, size, state), least recently used first

    def _value(self, bundle: int) -> float:
        recent = self._recent
        size = bundle.bit_count()
        hit, largest = None, 0
        for entry in recent:
            b, s, _ = entry
            if largest < s <= size and b & bundle == b:
                hit, largest = entry, s
        base = state = 0
        if hit is not None:
            recent.remove(hit)  # bundles are distinct, so this is the hit itself
            recent.append(hit)
            base, _, state = hit
        if base != bundle:
            state = self._grow(base, state, bundle)
            recent.append((bundle, size, state))
            if len(recent) > self.RECENT:
                del recent[0]
        return self._read(state)

    def _read(self, state: int) -> float:
        return float(state)


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


class CoverageValuation(RecentBundles):
    """Weighted coverage: item j covers a fixed set of universe elements.

    Monotone and submodular. The state is the union of the bundle's covers,
    so a greedy scan asking B | j for a fixed B ORs one cover. Demand falls
    back to exhaustive enumeration, so it is only available up to ENUM_LIMIT
    items.
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

    def _grow(self, base: int, union: int, bundle: int) -> int:
        covers = self.covers
        rest = bundle ^ base
        while rest:
            low = rest & -rest
            union |= covers[low.bit_length() - 1]
            rest ^= low
        return union

    def _read(self, union: int) -> float:
        if self._unit:
            return float(union.bit_count())
        total = 0.0
        for e in bitsets.iter_items(union):
            total += self.element_weights[e]
        return total


class UniformMatroidRank(ValuationOracle):
    def __init__(self, n: int, cap: int, ledger: QueryLedger | None = None):
        if type(cap) is not int or cap < 0:  # a bool is not an int here
            raise ValueError(f"cap must be an int >= 0, got {cap!r}")
        super().__init__(n, ledger)
        self.cap = cap

    def _value(self, bundle: int) -> float:
        return float(min(bundle.bit_count(), self.cap))


class PartitionMatroidRank(RecentBundles):
    """Sum over blocks of min(|S intersect block|, cap_block); the state is
    the rank, grown one touched block at a time."""

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
    def _block_of(self):
        """Item j's (block mask, cap) at index j, built on first use so constructing stays cheap."""
        block_of = [None] * self.n
        for bm, cap in zip(self.blocks, self.caps):
            for j in bitsets.iter_items(bm):
                block_of[j] = bm, cap
        return block_of

    def _grow(self, base: int, rank: int, bundle: int) -> int:
        block_of = self._block_of
        rest = bundle ^ base
        while rest:  # once per block that bundle ^ base touches
            bm, cap = block_of[(rest & -rest).bit_length() - 1]
            rest &= ~bm
            have, had = (bundle & bm).bit_count(), (base & bm).bit_count()
            rank += (have if have < cap else cap) - (had if had < cap else cap)
        return rank


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
    minimum-cardinality optimum is always of this shape. Uniform clauses are
    read heaviest weight first, skipping those that cannot change an answer.
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
        self._uniform = sorted(((c._uniform_weight, c.support.bit_count(), c.support)
                                for c in cls if c._uniform_weight is not None), reverse=True)
        self._mixed = tuple(c for c in cls if c._uniform_weight is None)

    @cached_property
    def _single(self) -> list:
        """item -> v({j}), built on first use so constructing stays cheap: exactly
        the heaviest weight a clause gives j (w * 1 = w if uniform), or 0.0."""
        weights, supports = zip(*[(w, s) for w, _, s in self._uniform if w > 0] or [(0.0, 0)])
        bits = np.unpackbits(bitsets.to_words(supports, self.n).view(np.uint8), axis=1,
                             count=self.n, bitorder="little")  # rows heaviest first
        single = np.where(bits.any(axis=0), np.array(weights)[bits.argmax(axis=0)], 0.0).tolist()
        for c in self._mixed:
            for j, w in c.weights.items():
                if w > single[j]:
                    single[j] = w
        return single

    def _value(self, bundle: int) -> float:
        best, items = 0.0, bundle.bit_count()
        if items == 1:
            return self._single[bundle.bit_length() - 1]
        for w, size, support in self._uniform:
            # float products of factors >= 0 rise with each factor: this clause is
            # worth at most w * min(items, size), and each later w' <= w at most w * items
            if w * items <= best:
                break
            if w * size > best:
                val = w * (bundle & support).bit_count()
                if val > best:
                    best = val
        for c in self._mixed:
            val = c.value(bundle)
            if val > best:
                best = val
        return best

    def _demand_uniform(self, q: float, included: int) -> int:
        # the answer is the least (-profit, card, mask) over all candidates, in any order
        best_profit, best_card, best_mask = 0.0, 0, 0
        for w, size, support in self._uniform:
            # from the first w <= q on, a clause offers only the empty bundle;
            # (w - q) * card <= (w - q) * size < best loses, a tie is compared
            if w <= q:
                break
            if (w - q) * size < best_profit:
                continue
            pos = support & included
            card = pos.bit_count()
            profit = (w - q) * card
            if profit > best_profit or (profit == best_profit and (card, pos) < (best_card, best_mask)):
                best_profit, best_card, best_mask = profit, card, pos
        for c in self._mixed:
            pos, profit = 0, 0.0
            for j, w in c.weights.items():
                if (included >> j) & 1 and w > q:
                    pos |= 1 << j
                    profit += w - q
            card = pos.bit_count()
            if profit > best_profit or (profit == best_profit and (card, pos) < (best_card, best_mask)):
                best_profit, best_card, best_mask = profit, card, pos
        return best_mask


class SubadditiveTableValuation(ValuationOracle):
    """Explicit 2^n table indexed by bundle mask, n <= VALIDATE_LIMIT. A
    finite, nonnegative table is accepted exactly when
    verify.validate_class(table, "subadditive") accepts it."""

    def __init__(self, table, ledger: QueryLedger | None = None):
        arr = np.asarray(table, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("table must be a flat list of values")
        size = arr.shape[0]
        if size < 2 or size & (size - 1):
            raise ValueError("table length must be a power of two, at least 2")
        n = size.bit_length() - 1
        if n > VALIDATE_LIMIT:
            raise ScaleError(f"explicit tables are limited to {VALIDATE_LIMIT} items")
        if arr[0] != 0.0:
            raise ValueError("table is not normalized: v(empty) must be 0")
        if not np.all(np.isfinite(arr)) or arr.min() < 0:
            raise ValueError("table values must be finite and >= 0")
        if monotone_witness(arr) is not None:
            raise ValueError("table is not monotone")
        witness = subadditive_witness(arr)
        if witness is not None:
            a, b, s = witness
            raise ValueError(f"table is not subadditive: v({a:#x}) + v({b:#x}) < v({s:#x})")
        super().__init__(n, ledger)
        self.table = arr
        self._masks = np.arange(size, dtype=np.int64)
        self._pc = np.bitwise_count(self._masks)

    def _value(self, bundle: int) -> float:
        return float(self.table[bundle])

    def _demand_uniform(self, q: float, included: int) -> int:
        profit = self.table - q * self._pc
        outside = bitsets.full_mask(self.n) ^ included
        if outside:
            profit = np.where((self._masks & outside) == 0, profit, -np.inf)
        cands = np.flatnonzero(profit == profit.max())
        return int(cands[np.lexsort((cands, self._pc[cands]))[0]])


def disjoint_splits(size: int):
    """Chunks (s, a, s ^ a) over the bundles s of a 2^n table with two items
    or more, by size and then ascending: a row per s, and a column per split
    of s into nonempty halves, a ascending over the nonempty submasks of s
    without its top bit, so a < s ^ a. A chunk holds about 2^15 splits, and
    a caller may change the table between chunks for the sizes passed."""
    bundles = np.arange(size, dtype=np.int64)
    sizes = np.bitwise_count(bundles)
    for k in range(2, int(sizes[-1]) + 1):
        group = bundles[sizes == k]
        rows = max(1, (1 << 15) >> (k - 1))
        for start in range(0, group.shape[0], rows):
            s = group[start:start + rows]
            a, rest = np.zeros((s.shape[0], 1), dtype=np.int64), s.copy()
            for _ in range(k - 1):  # the submasks of s's lower items, doubling per item
                low = rest & -rest
                a = np.concatenate((a, a | low[:, None]), axis=1)
                rest ^= low
            yield s, a[:, 1:], s[:, None] ^ a[:, 1:]


def subadditive_witness(table):
    """The first split (a, s ^ a, s) with v(a) + v(s ^ a) < v(s) beyond
    RELATIVE_TOL in a 2^n table, bundles s ascending and each s's submasks a
    descending; None if the table is subadditive. Only a < s ^ a is read,
    since the inequality is symmetric in the two halves."""
    tab = np.asarray(table, dtype=np.float64)
    first = None
    for s, a, b in disjoint_splits(tab.shape[0]):
        bad = tab[a] + tab[b] < (tab[s] * (1.0 - RELATIVE_TOL))[:, None]
        failing = np.flatnonzero(bad.any(axis=1))
        if failing.size and (first is None or s[failing[0]] < first[2]):
            r, c = failing[0], a.shape[1] - 1 - int(bad[failing[0], ::-1].argmax())
            first = int(a[r, c]), int(b[r, c]), int(s[r])
    return first


def monotone_witness(table: np.ndarray):
    """The first (s, s | 1 << j) whose value falls by more than RELATIVE_TOL."""
    return marginal_witness(table, lambda low, high: high < low * (1.0 - RELATIVE_TOL))


def marginal_witness(table: np.ndarray, fails):
    """The first (s, s | 1 << j), s ascending and then j, whose pair of values
    fails: over arrays of table[s] and table[s | 1 << j] for every s without
    j, fails(low, high) flags the pairs that fail. None if none does."""
    first = None
    for j in range(table.shape[0].bit_length() - 1):
        halves = table.reshape(-1, 2, 1 << j)  # [r, 0, c] is s = r << (j + 1) | c
        bad = fails(halves[:, 0], halves[:, 1]).ravel()
        p = int(bad.argmax())
        s = (p >> j << j + 1) | (p & ((1 << j) - 1))
        if bad[p] and (first is None or s < first[0]):
            first = s, s | 1 << j
    return first
