"""Sketch construction, evaluation, and serialization.

A sketch compresses a monotone valuation into singleton values plus a
small list of weighted member bundles, such that the query-free estimate

    max over j in S of v({j}), and
    max over stored members m of |m & S| * r / (4 alpha beta) * scale

never exceeds v(S) and stays within a polylogarithmic-in-structure factor
of it. Construction runs the whole grid of size budgets k and value
levels r over each well-bounded part of the ground set, peeling
near-optimal bundles found by a cardinality maximizer and keeping the
items their supporting clause certifies as individually valuable.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import bitsets
from .cardinality import CardOracleSpec
from .clauses import XosOracleSpec
from .errors import ScaleError, SerializationError
from .valuations import (
    RELATIVE_TOL,
    ScaledOracle,
    ValuationOracle,
    meets,
    popcount_table,
)

SCHEMA_VERSION = 1


def certified_bound(n: int, alpha: float, beta: float) -> float:
    """Worst-case factor by which a finished sketch may undershoot."""
    return 512.0 * alpha * alpha * beta ** 3 * math.sqrt(n) * math.log2(2 * n)


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


@dataclass
class SketchFamily:
    """Member bundles kept for one (k, r) cell; disjoint, each <= k items."""

    k: int
    r: float
    members: list


@dataclass
class SketchGroup:
    """Sketch of one well-bounded part, in units of its scale."""

    leader: int
    items: int
    scale: float
    alpha: float
    beta_certified: float
    families: list


@dataclass
class Sketch:
    n: int
    singletons: list
    groups: list
    build_queries: dict | None = None
    schema_version: int = field(default=SCHEMA_VERSION)


def well_bounded_partition(singletons, n: int):
    """Cover the items with groups of bounded singleton spread.

    Items are ranked by singleton value (ties by id). Each group starts at
    a leader and runs down while the spread stays within n^2; the next
    leader is the first item at least max(n/2, 2) below the current one.
    Zero-valued items never enter a group. Leaders drop geometrically, so
    no item appears in more than ceil(log(n^2)/log(max(n/2, 2))) + 1
    groups. Returns (leader, item mask) pairs, strongest leader first.
    """
    order = sorted((j for j in range(n) if singletons[j] > 0), key=lambda j: (-singletons[j], j))
    if not order:
        return []
    spread = n * n
    step = max(n / 2, 2.0)
    groups = []
    lead_pos = 0
    while lead_pos is not None:
        leader = order[lead_pos]
        v_lead = singletons[leader]
        mask = 0
        for j in order[lead_pos:]:
            if v_lead > spread * singletons[j] * (1.0 + RELATIVE_TOL):
                break
            mask |= 1 << j
        groups.append((leader, mask))
        nxt = None
        for pos in range(lead_pos + 1, len(order)):
            if meets(v_lead / singletons[order[pos]], step):
                nxt = pos
                break
        lead_pos = nxt
    return groups


def build_group_sketch(
    oracle: ValuationOracle,
    leader: int,
    items: int,
    scale: float,
    singletons,
    card: CardOracleSpec,
    xos: XosOracleSpec,
    grid: GridParams,
) -> SketchGroup:
    """Sweep the (k, r) grid over one group.

    Heavy items (singleton already at the k r / sqrt(n) level) are set
    aside per cell since their own singleton value covers them. From the
    rest, bundles worth k r / (2 alpha) are peeled while they last; each
    keeps the items whose clause weight clears r / (4 alpha beta), which
    is what makes the member count per item charge against r.
    """
    view = ScaledOracle(oracle, scale).restrict(items)
    sing = {j: singletons[j] / scale for j in bitsets.iter_items(items)}
    sqrt_n = math.sqrt(grid.n)
    beta_cert = 1.0
    families = []
    with oracle.ledger.phase("build"):
        for k in grid.k_grid:
            for r in grid.r_grid:
                heavy = 0
                for j, value in sing.items():
                    if meets(value, k * r / sqrt_n):
                        heavy |= 1 << j
                pool = items & ~heavy
                members = []
                while pool:
                    top = max(sing[j] for j in bitsets.iter_items(pool))
                    bundle, value = card.run(view, pool, k, max_singleton=top)
                    if not bundle or not meets(value, k * r / (2 * card.alpha)):
                        break
                    clause, beta_call = xos.clause(view, bundle, value)
                    beta_cert = max(beta_cert, beta_call)
                    kept = 0
                    for j in bitsets.iter_items(bundle):
                        if meets(clause.weight(j), r / (4 * card.alpha * beta_call)):
                            kept |= 1 << j
                    if not kept:
                        break
                    members.append(kept)
                    pool &= ~kept
                if members:
                    families.append(SketchFamily(k, float(r), members))
    return SketchGroup(leader, items, scale, card.alpha, beta_cert, families)


def build_sketch(
    oracle: ValuationOracle,
    card: CardOracleSpec,
    xos: XosOracleSpec,
    grid: GridParams | None = None,
) -> Sketch:
    """Full pipeline: singleton scan, partition, per-group grid sweep."""
    n = oracle.n
    if grid is None:
        grid = GridParams.for_ground_set(n)
    elif grid.n != n:
        raise ValueError("grid was sized for a different ground set")
    with oracle.ledger.phase("partition"):
        singletons = [oracle.value(1 << j) for j in range(n)]
    groups = []
    for leader, items in well_bounded_partition(singletons, n):
        scale = min(singletons[j] for j in bitsets.iter_items(items))
        groups.append(
            build_group_sketch(oracle, leader, items, scale, singletons, card, xos, grid)
        )
    return Sketch(n, singletons, groups, build_queries=oracle.ledger.snapshot())


def evaluate(sketch: Sketch, bundle: int) -> float:
    """Query-free value estimate; a true lower bound up to float dust."""
    bitsets.check_bundle(bundle, sketch.n)
    best = 0.0
    for j in bitsets.iter_items(bundle):
        if sketch.singletons[j] > best:
            best = sketch.singletons[j]
    for group in sketch.groups:
        for fam in group.families:
            unit = fam.r / (4.0 * group.alpha * group.beta_certified) * group.scale
            for member in fam.members:
                hits = (member & bundle).bit_count()
                if hits and hits * unit > best:
                    best = hits * unit
    return best


def evaluate_all(sketch: Sketch) -> np.ndarray:
    """Estimates for every bundle at once; n is capped at 20."""
    n = sketch.n
    if n > 20:
        raise ScaleError("dense evaluation over 2^n bundles needs n <= 20")
    masks = np.arange(1 << n, dtype=np.int64)
    pc = popcount_table(n)
    est = np.zeros(1 << n)
    for j, value in enumerate(sketch.singletons):
        if value > 0:
            has = ((masks >> j) & 1) == 1
            est[has] = np.maximum(est[has], value)
    for group in sketch.groups:
        for fam in group.families:
            unit = fam.r / (4.0 * group.alpha * group.beta_certified) * group.scale
            for member in fam.members:
                np.maximum(est, pc[masks & member] * unit, out=est)
    return est


# -- canonical JSON form ------------------------------------------------


def _canon(x: float) -> float:
    """12 significant digits; applying it twice is a fixed point."""
    return float(format(float(x), ".12g"))


def _check_members(members, items: int, k, n: int) -> None:
    """Each member a bundle inside its group of at most k items; n items in all."""
    total = 0
    for m in members:
        bitsets.check_bundle(m, n)
        if m & ~items or m.bit_count() > k:
            raise SerializationError("family member escapes its group or size budget")
        total += m.bit_count()
    if total > n:
        raise SerializationError("family members exceed the ground set")


def _family_payload(group: SketchGroup, n: int):
    out = []
    for fam in group.families:
        if not fam.members:
            continue
        _check_members(fam.members, group.items, fam.k, n)
        out.append(
            {
                "k": fam.k,
                "r": _canon(fam.r),
                "members": [bitsets.to_hex(m) for m in fam.members],
            }
        )
    return out


def serialize(sketch: Sketch) -> str:
    groups = []
    for g in sketch.groups:
        bitsets.check_bundle(g.items, sketch.n)
        groups.append(
            {
                "leader": g.leader,
                "items": bitsets.to_hex(g.items),
                "scale": _canon(g.scale),
                "alpha": _canon(g.alpha),
                "beta": _canon(g.beta_certified),
                "families": _family_payload(g, sketch.n),
            }
        )
    payload = {
        "schema_version": sketch.schema_version,
        "kind": "valuation-sketch",
        "n": sketch.n,
        "singletons": [_canon(v) for v in sketch.singletons],
        "groups": groups,
        "build_queries": sketch.build_queries,
    }
    return json.dumps(payload, separators=(",", ":"))


def deserialize(text: str) -> Sketch:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"sketch file is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or obj.get("kind") != "valuation-sketch":
        raise SerializationError("not a sketch payload")
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise SerializationError(f"unsupported schema version {obj.get('schema_version')!r}")
    n = obj.get("n")
    if not isinstance(n, int) or n < 1:
        raise SerializationError("bad ground set size")
    singletons = obj.get("singletons")
    if not isinstance(singletons, list) or len(singletons) != n:
        raise SerializationError("singleton list must have one entry per item")
    groups = []
    try:
        singletons = list(map(float, singletons))
        if not all(map(math.isfinite, singletons)) or min(singletons) < 0:
            raise SerializationError("singleton values must be finite and non-negative")
        for g in obj["groups"]:
            items = bitsets.from_hex(g["items"])
            bitsets.check_bundle(items, n)
            families = []
            for f in g["families"]:
                members = [bitsets.from_hex(m) for m in f["members"]]
                _check_members(members, items, f["k"], n)
                families.append(SketchFamily(int(f["k"]), float(f["r"]), members))
            if g["scale"] <= 0 or g["alpha"] < 1 or g["beta"] < 1:
                raise SerializationError("scale must be positive, alpha and beta at least 1")
            groups.append(
                SketchGroup(
                    int(g["leader"]), items, float(g["scale"]),
                    float(g["alpha"]), float(g["beta"]), families,
                )
            )
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed sketch payload: {exc}") from exc
    return Sketch(n, singletons, groups, obj.get("build_queries"))


def save_sketch(sketch: Sketch, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(serialize(sketch))
        fh.write("\n")


def load_sketch(path: str) -> Sketch:
    with open(path) as fh:
        return deserialize(fh.read())
