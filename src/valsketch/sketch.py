"""Sketch construction, evaluation, and serialization.

A sketch compresses a monotone valuation into singleton values plus a
small list of weighted member bundles, such that the query-free estimate

    max over j in S of v({j}), and
    max over stored members m of |m & S| * r / (4 alpha beta) * scale

never exceeds v(S) and stays within a polylogarithmic-in-structure factor
of it. Construction ranks the items once by singleton value, cuts the
ranking into well-bounded groups, each a slice of it, and runs the whole
grid of size budgets k and value levels r over each group, peeling
near-optimal bundles found by a cardinality maximizer and keeping the
items their supporting clause certifies as individually valuable.
"""

import json
import math
import zlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import neg, or_

import numpy as np

from . import bitsets
from .cardinality import CardOracleSpec
from .clauses import XosOracleSpec
from .errors import CapabilityError, ScaleError, SerializationError
from .valuations import RELATIVE_TOL, OracleView, ValuationOracle, meets

SCHEMA_VERSION = 4
# a v4 table inflates to at most this many bytes per character of its file,
# so what a load holds grows in step with the text (the matroid bench sketch
# reaches 10.4 at n = 65,536, the largest ground set an instance may have)
INFLATE_PER_CHAR = 64
EVAL_CHUNK = 1024  # bundles per kernel call in evaluate_all


def certified_bound(n: int, alpha: float, beta: float) -> float:
    """Worst-case factor by which a finished sketch may undershoot."""
    return 512.0 * alpha * alpha * beta ** 3 * math.sqrt(n) * math.log2(2 * n)


def sketch_bound(sketch: "Sketch") -> float:
    """certified_bound at the worst alpha and the worst beta over the
    groups; inf where that leaves the float range."""
    alpha = max((g.alpha for g in sketch.groups), default=1.0)
    beta = max((g.beta_certified for g in sketch.groups), default=1.0)
    try:
        return certified_bound(sketch.n, alpha, beta)
    except OverflowError:  # beta ** 3 raises where a product would give inf
        return math.inf


@dataclass(frozen=True)
class GridParams:
    """Size budgets and value levels swept during construction."""

    n: int
    k_grid: tuple
    r_grid: tuple

    @classmethod
    def for_ground_set(cls, n: int) -> "GridParams":
        if n < 1:
            raise ValueError("n must be >= 1")
        base = math.isqrt(n)
        if base * base < n:
            base += 1
        ks = []
        k = base
        while k < n:
            ks.append(k)
            k *= 2
        ks.append(n)
        rs = tuple(float(1 << t) for t in range(math.ceil(2 * math.log2(n)) + 1))
        return cls(n, tuple(ks), rs)


@dataclass(frozen=True)
class SketchFamily:
    """Member bundles kept for one (k, r) cell; disjoint, each <= k items."""

    k: int
    r: float
    members: list


@dataclass(frozen=True)
class SketchGroup:
    """Sketch of one well-bounded part, in units of its scale."""

    leader: int
    items: int
    scale: float
    alpha: float
    beta_certified: float
    families: list


@dataclass(frozen=True)
class Sketch:
    """Read-only once built or loaded: the first evaluation compiles it
    into `_table`, which an edit would leave stale."""

    n: int
    singletons: list
    groups: list
    build_queries: dict | None = None

    @cached_property
    def _table(self):
        """(words, weights): each stored member as a column of `bitsets.to_words`
        words, shape (ceil(n/64), M), as a sum over the leading axis is twice as
        fast; the n singleton values, then each member's unit, its estimate per hit."""
        fams = [(f, member_unit(g, f)) for g in self.groups for f in g.families]
        words = bitsets.to_words([m for f, _ in fams for m in f.members], self.n).T
        units = [unit for f, unit in fams for _ in f.members]
        weights = np.array([*self.singletons, *units], dtype=np.float64)
        if not np.isfinite(weights).all():
            raise SerializationError("a member's unit r / (4 alpha beta) * scale overflows")
        return np.ascontiguousarray(words), weights


def member_unit(group: SketchGroup, family: SketchFamily) -> float:
    """The estimate a family's member adds per item it shares with a
    bundle: r / (4 alpha beta) * scale; inf where that overflows."""
    return family.r / (4.0 * group.alpha * group.beta_certified) * group.scale


def well_bounded_partition(singletons, n: int):
    """Cover the items with groups of bounded singleton spread.

    Items are ranked by singleton value (ties by id). Each group starts at
    a leader and runs down while the spread stays within n^2; the next
    leader is the first item at least max(n/2, 2) below the current one.
    Both ends are found by bisecting the ranking. Zero-valued items never
    enter a group. Leaders drop geometrically, so no item appears in more
    than ceil(log(n^2)/log(max(n/2, 2))) + 1 groups. Returns each group as
    a slice of the ranking, its items leader first, strongest leader first.
    """
    ranking = sorted((j for j in range(n) if singletons[j] > 0), key=lambda j: (-singletons[j], j))
    spread = n * n
    step = max(n / 2, 2.0)
    groups = []
    lead = 0
    while lead < len(ranking):
        v_lead = singletons[ranking[lead]]
        end = bisect_left(ranking, True, lead, key=lambda j: (
            v_lead > spread * singletons[j] * (1.0 + RELATIVE_TOL)))
        groups.append(ranking[lead:end])
        lead = bisect_left(ranking, True, lead + 1,
                           key=lambda j: meets(v_lead / singletons[j], step))
    return groups


def build_group_sketch(
    oracle: ValuationOracle,
    ranked: list,
    singletons,
    card: CardOracleSpec,
    xos: XosOracleSpec,
    grid: GridParams,
) -> SketchGroup:
    """Sweep the (k, r) grid over one group, given as its items by falling
    singleton value: the leader first, the item that sets the scale last.

    Heavy items (singleton already at the k r / sqrt(n) level) are set
    aside per cell since their own singleton value covers them. From the
    rest, bundles worth k r / (2 alpha) are peeled while they last; each
    keeps the items whose clause weight clears r / (4 alpha beta), which
    is what makes the member count per item charge against r. Cells
    reuse identical maximizer and clause calls made earlier in the group,
    and the group's view asks each question once: replaying a pool for a
    larger k pays only for new steps. The singleton values are seeded into
    the view's `singles` table by item id, which answers the view's
    one-item bundles and lets a maximizer replaying a pool read each item's
    singleton without building and hashing its one-item bundle.
    """
    scale = singletons[ranked[-1]]
    # sing[i] is the scaled value of ranked[i] and prefix[i] the set of
    # ranked[:i], so each cell's heavy items are a prefix
    sing = [singletons[j] / scale for j in ranked]
    prefix = list(accumulate((1 << j for j in ranked), or_, initial=0))
    items = prefix[-1]
    view = OracleView(oracle, scale)
    view.singles = dict(zip(ranked, sing))  # what the view would answer
    sqrt_n = math.sqrt(grid.n)
    beta_cert = 1.0
    families = []
    # view is fixed and max_singleton is a function of pool: these keys determine each call
    best_of = {}  # (pool, k) -> card.run result
    clause_of = {}  # bundle -> xos.clause result
    for k in grid.k_grid:
        for r in grid.r_grid:
            # the items `meets(value, k * r / sqrt_n)` counts as heavy, by the same float
            count = bisect_right(sing, -(k * r / sqrt_n * (1.0 - RELATIVE_TOL)), key=neg)
            pool = items & ~prefix[count]
            members = []
            while pool:
                if (pool, k) not in best_of:
                    # pool's best item is ranked[i - 1], for the first prefix[i]
                    # that meets pool; pool & prefix[i] only grows with i
                    i = bisect_left(prefix, 1, count + 1, key=pool.__and__)
                    best_of[pool, k] = card.run(view, pool, k, max_singleton=sing[i - 1])
                bundle, value = best_of[pool, k]
                if not bundle or not meets(value, k * r / (2 * card.alpha)):
                    break
                if bundle not in clause_of:
                    clause_of[bundle] = xos.clause(view, bundle)
                clause, beta_call = clause_of[bundle]
                beta_cert = max(beta_cert, beta_call)
                # an item outside the clause's support weighs 0, which meets t only at t = 0
                t = r / (4 * card.alpha * beta_call)
                kept = bundle if meets(0.0, t) else bundle & clause.meeting(t)
                if not kept:
                    break
                members.append(kept)
                pool &= ~kept
            if members:
                families.append(SketchFamily(k, float(r), members))
    return SketchGroup(ranked[0], items, scale, card.alpha, beta_cert, families)


def build_sketch(oracle: ValuationOracle, card: CardOracleSpec, xos: XosOracleSpec) -> Sketch:
    """Full pipeline: singleton scan, partition, per-group grid sweep.

    Refuses, with CapabilityError and before any query, an oracle without
    demand queries when the maximizer or the clause oracle needs them.
    """
    if (card.needs_demand or xos.needs_demand) and not oracle.has_demand:
        raise CapabilityError("the maximizer or clause oracle needs demand queries, "
                              f"which {type(oracle).__name__} does not answer")
    n = oracle.n
    grid = GridParams.for_ground_set(n)
    singletons = [oracle.value(1 << j) for j in range(n)]
    groups = [build_group_sketch(oracle, ranked, singletons, card, xos, grid)
              for ranked in well_bounded_partition(singletons, n)]
    return Sketch(n, singletons, groups, build_queries=oracle.ledger.snapshot())


def _estimates(sketch: Sketch, bundles: np.ndarray) -> np.ndarray:
    """The evaluation kernel, over bundles as `bitsets.to_words` rows: the best
    of each item's singleton value and each member's |member & bundle| * unit."""
    words, weights = sketch._table
    items = np.unpackbits(bundles.view(np.uint8), axis=1, count=sketch.n, bitorder="little")
    hits = np.add.reduce(np.bitwise_count(bundles[:, :, None] & words), axis=1)
    return np.maximum.reduce(np.concatenate((items, hits), axis=1) * weights, axis=1)


def evaluate(sketch: Sketch, bundle: int) -> float:
    """Query-free value estimate; a true lower bound up to float dust."""
    bitsets.check_bundle(bundle, sketch.n)
    return float(_estimates(sketch, bitsets.to_words([bundle], sketch.n))[0])


def evaluate_all(sketch: Sketch) -> np.ndarray:
    """Estimates for every bundle at once; n is capped at 20."""
    n = sketch.n
    if n > 20:
        raise ScaleError("dense evaluation over 2^n bundles needs n <= 20")
    bundles = np.arange(1 << n, dtype="<u8").reshape(-1, 1)
    return np.concatenate([_estimates(sketch, bundles[lo:lo + EVAL_CHUNK])
                           for lo in range(0, 1 << n, EVAL_CHUNK)])


# -- the file contract and its canonical JSON form ------------------------


def sketch_errors(sketch: Sketch) -> list:
    """Every way the sketch breaks the file contract; empty if it holds.

    The contract: one finite, non-negative singleton per item; each
    group's items inside the ground set, its leader among them, a finite
    positive scale, and finite alpha and beta of at least 1, whose worst
    values over the groups give a finite certified bound; each family
    an int k >= 1, a finite positive r, a finite member_unit, and
    pairwise disjoint members of at most k items inside the group;
    build_queries null, or exactly value_queries and demand_queries,
    each an int >= 0. A bool is not an int here. Fields are read as given, so a value of the wrong type
    raises TypeError.
    """
    n = sketch.n
    errors = []
    singletons = sketch.singletons
    if len(singletons) != n:
        errors.append("singleton list length must equal n")
    elif not all(map(math.isfinite, singletons)) or min(singletons) < 0:
        errors.append("singleton values must be finite and non-negative")
    for gi, g in enumerate(sketch.groups):
        tag = f"group {gi} (leader {g.leader})"
        if g.items >> n:
            errors.append(f"{tag}: items outside the ground set")
        if not (type(g.leader) is int and 0 <= g.leader < n and (g.items >> g.leader) & 1):
            errors.append(f"{tag}: leader outside the group")
        group_ok = math.isfinite(g.scale) and g.scale > 0  # so member_unit can be computed
        if not group_ok:
            errors.append(f"{tag}: scale must be positive and finite")
        if not (math.isfinite(g.alpha) and math.isfinite(g.beta_certified)
                and g.alpha >= 1 and g.beta_certified >= 1):
            group_ok = False
            errors.append(f"{tag}: alpha and beta must be finite and at least 1")
        outside = ~g.items
        for fam in g.families:
            cell = f"k={fam.k} r={fam.r}"
            if not (type(fam.k) is int and fam.k >= 1):
                errors.append(f"{tag}: k must be an int of at least 1 at {cell}")
            if not (math.isfinite(fam.r) and fam.r > 0):
                errors.append(f"{tag}: r must be positive and finite at {cell}")
            elif group_ok and member_unit(g, fam) == math.inf:
                errors.append(f"{tag}: the member unit r / (4 alpha beta) * scale "
                              f"overflows at {cell}")
            used = 0
            for m in fam.members:
                if m & outside:
                    errors.append(f"{tag}: member leaves the group at {cell}")
                if m.bit_count() > fam.k:
                    errors.append(f"{tag}: member larger than k at {cell}")
                if m & used:
                    errors.append(f"{tag}: overlapping members at {cell}")
                used |= m
    counts = sketch.build_queries
    if counts is not None and not (
            type(counts) is dict and counts.keys() == {"value_queries", "demand_queries"}
            and all(type(c) is int and c >= 0 for c in counts.values())):
        errors.append("build_queries must be null or value_queries and demand_queries, "
                      "each an int >= 0")
    if not errors and sketch_bound(sketch) == math.inf:
        errors.append("the groups' alpha and beta give an infinite certified bound")
    return errors


def serialize(sketch: Sketch) -> str:
    """Canonical JSON text, schema v4. A top-level "bundles" table holds
    each distinct member bundle once, in order of first use (group, then
    family, then member), and a family's "members" are indices into it.
    The table is one string: `bitsets.encode_base64` of the level-1 zlib
    stream of its entries, each ceil(n/8) little-endian bytes. A group's
    "items" are written inline, as `bitsets.to_base64` writes them. Raises
    SerializationError if the sketch breaks the file contract, or if its
    table would inflate to more than INFLATE_PER_CHAR bytes per character
    of the text, which deserialize refuses. Empty
    families are left out. Each float is written as json.dumps writes it,
    the shortest text that reads back as the same float, so deserialize
    gives back the sketch field by field."""
    errors = sketch_errors(sketch)
    if errors:
        raise SerializationError(errors[0])
    index = {}  # member bundle -> its entry in the table, in order of first use
    groups = [
        {
            "leader": g.leader,
            "items": bitsets.to_base64(g.items),
            "scale": float(g.scale),
            "alpha": float(g.alpha),
            "beta": float(g.beta_certified),
            "families": [
                {"k": f.k, "r": float(f.r),
                 "members": [index.setdefault(m, len(index)) for m in f.members]}
                for f in g.families
                if f.members
            ],
        }
        for g in sketch.groups
    ]
    width = (sketch.n + 7) // 8
    table = b"".join([m.to_bytes(width, "little") for m in index])
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "valuation-sketch",
        "n": sketch.n,
        "singletons": [float(v) for v in sketch.singletons],
        "bundles": bitsets.encode_base64(zlib.compress(table, 1)),
        "groups": groups,
        "build_queries": sketch.build_queries,
    }
    text = json.dumps(payload, separators=(",", ":"))
    if len(table) > INFLATE_PER_CHAR * len(text):
        raise SerializationError(f"the bundles table inflates to more than {INFLATE_PER_CHAR} "
                                 "bytes per character of the file")
    return text


def _json(value, *types):
    """value, if json.loads gave it one of `types` (a bool is not an int)."""
    if type(value) not in types:
        raise TypeError(f"unexpected JSON value {value!r}")
    return value


def _inline_members(obj, decode, size):
    """v1 and v2: each member is a bundle string in the version's codec."""
    return decode, lambda groups: None


def _table_members(table):
    """v3 and v4: each member is an index into the "bundles" table, whose
    entries are decoded once, so equal members share one int. Returns the
    member reader and a check of the loaded groups: the table must be
    exactly what serialize writes, each member bundle once, in order of
    first use."""

    def member(i):
        if type(i) is not int or not 0 <= i < len(table):  # table[-1] would read
            raise ValueError(f"member {i!r} is not an index into the bundles table")
        return table[i]

    def check(groups):
        if list(dict.fromkeys(m for g in groups for f in g.families for m in f.members)) != table:
            raise ValueError("the bundles table must hold each member bundle once, "
                             "in order of first use")

    return member, check


def _listed_table(obj, decode, size):
    """v3: the table is a list of bundle strings in the version's codec."""
    return _table_members([decode(text) for text in _json(obj["bundles"], list)])


def _deflated_table(obj, decode, size):
    """v4: the table is one string, canonical base64 of a zlib stream of
    entries of ceil(n/8) little-endian bytes each (n was checked against
    the singletons first, so the text bounds the width). The stream must
    end where the text does and hold no more entries than the file has
    member indices, in at most INFLATE_PER_CHAR bytes per character of the
    file (`size`); inflating stops one byte past the lesser bound."""
    blob = bitsets.decode_base64(_json(obj["bundles"], str))
    if blob is None:
        raise ValueError("the bundles table is not canonical base64")
    width = (obj["n"] + 7) // 8
    indices = sum(len(_json(f["members"], list))
                  for g in _json(obj["groups"], list) for f in _json(g["families"], list))
    limit = min(indices * width, INFLATE_PER_CHAR * size)
    stream = zlib.decompressobj()
    try:
        raw = stream.decompress(blob, limit + 1)  # max_length 0 would mean no limit
    except zlib.error as exc:  # not a ValueError
        raise ValueError(f"the bundles table does not inflate: {exc}") from None
    if len(raw) > indices * width:
        raise ValueError("the bundles table inflates to more entries than the file has members")
    if len(raw) > limit:
        raise ValueError(f"the bundles table inflates to more than {INFLATE_PER_CHAR} bytes "
                         "per character of the file")
    if not stream.eof or stream.unused_data:
        raise ValueError("the bundles table's stream must end where its text does")
    if len(raw) % width:
        raise ValueError(f"the bundles table's length is not a multiple of {width} bytes")
    return _table_members([int.from_bytes(raw[i:i + width], "little")
                           for i in range(0, len(raw), width)])


# per schema version: the codec of every inline bundle string and the
# reader of a family's members; nothing else differs
_FORMATS = {1: (bitsets.from_hex, _inline_members), 2: (bitsets.from_base64, _inline_members),
            3: (bitsets.from_base64, _listed_table), 4: (bitsets.from_base64, _deflated_table)}


def deserialize(text: str) -> Sketch:
    """Decode sketch JSON and hold it to the file contract; any fault
    raises SerializationError. Numbers must be JSON numbers, lists JSON
    lists and bundles strings in the version's codec: base64 as
    `bitsets.to_base64` writes it (v2 to v4), or hex (v1). A v3 or v4
    member is an int index into the "bundles" table, which must hold each
    member bundle once, in order of first use: a list of base64 strings in
    v3, one deflated string as serialize writes it in v4, which may
    inflate to at most INFLATE_PER_CHAR bytes per character of `text`
    (n is checked against the singletons first). v1 and v2
    members are inline strings. Every version loads to the same sketch
    and is saved as v4. k, leader, n and schema_version are ints."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"sketch file is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or obj.get("kind") != "valuation-sketch":
        raise SerializationError("not a sketch payload")
    version = obj.get("schema_version")
    if type(version) is not int or version not in _FORMATS:
        raise SerializationError(f"unsupported schema version {version!r}")
    n = obj.get("n")
    if type(n) is not int or n < 1:
        raise SerializationError("bad ground set size")
    try:
        singletons = _json(obj["singletons"], list)
        if len(singletons) != n:  # before the members, whose v4 width n sets
            raise ValueError("singleton list length must equal n")
        decode, read_members = _FORMATS[version]
        member, check_members = read_members(obj, decode, len(text))
        groups = [
            SketchGroup(
                g["leader"],
                decode(g["items"]),
                _json(g["scale"], int, float),
                _json(g["alpha"], int, float),
                _json(g["beta"], int, float),
                [
                    SketchFamily(f["k"], _json(f["r"], int, float),
                                 [member(m) for m in _json(f["members"], list)])
                    for f in _json(g["families"], list)
                ],
            )
            for g in _json(obj["groups"], list)
        ]
        check_members(groups)
        if not set(map(type, singletons)) <= {int, float}:
            raise TypeError("singletons must be JSON numbers")
        sketch = Sketch(n, list(map(float, singletons)), groups, obj.get("build_queries"))
        errors = sketch_errors(sketch)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SerializationError(f"malformed sketch payload: {exc}") from exc
    if errors:
        raise SerializationError(errors[0])
    return sketch


def save_sketch(sketch: Sketch, path: str) -> None:
    text = serialize(sketch)  # before open, so a rejected sketch leaves the file as it was
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_sketch(path: str) -> Sketch:
    with open(path) as fh:
        return deserialize(fh.read())
