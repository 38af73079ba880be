"""Seeded instance generation.

An InstanceSpec is a small JSON-serializable record (family, n, params,
seed) that deterministically rebuilds the same oracle. Generators use
integer weights throughout so that downstream float arithmetic on the
test fixtures stays exact.
"""

import json
import math
import random
import re
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import bitsets, valuations
from .errors import MalformedBundleError, ScaleError, SerializationError
from .ledger import QueryLedger
from .valuations import (
    AdditiveClause,
    AdditiveValuation,
    CoverageValuation,
    GraphicMatroidRank,
    PartitionMatroidRank,
    SubadditiveTableValuation,
    UniformMatroidRank,
    ValuationOracle,
    XOSExplicitValuation,
    disjoint_splits,
)

SCHEMA_VERSION = 1

# the largest n an instance may have: a coverage oracle costs about 208 B per
# item, so an n read from the command line or a file is bounded before
# anything is drawn or built
MAX_ITEMS = 65_536

# clause keys joined by commas, each an item id with key == str(int(key)) in ASCII
_ITEM_IDS = re.compile(r"(?:(?:0|[1-9][0-9]*),)*")


@dataclass(frozen=True)
class InstanceSpec:
    family: str
    n: int
    params: dict = field(default_factory=dict)
    seed: int = 0

    def build(self, ledger: QueryLedger | None = None) -> ValuationOracle:
        """The oracle; SerializationError if params are malformed, hold a key
        the family does not take, or give another n."""
        _, keys, build = _family(self.family)
        try:
            extra = self.params.keys() - keys
            if extra:
                raise SerializationError(f"unknown parameters for {self.family}: {sorted(extra)}")
            oracle = build(self.n, self.params, ledger)
        except (KeyError, TypeError, AttributeError) as exc:
            raise SerializationError(f"bad {self.family} parameters: {exc!r}") from exc
        if oracle.n != self.n:
            raise SerializationError(f"{self.family} parameters give n = {oracle.n}, not {self.n}")
        return oracle

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "family": self.family,
                "n": self.n,
                "params": self.params,
                "seed": self.seed,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "InstanceSpec":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SerializationError(f"instance file is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise SerializationError("instance file must hold a JSON object")
        version = obj.get("schema_version")
        if type(version) is not int or version != SCHEMA_VERSION:
            raise SerializationError(f"unsupported instance schema version {version!r}")
        family, n, seed = obj.get("family"), obj.get("n"), obj.get("seed")
        params = obj.get("params", {})
        if family not in FAMILIES:
            raise SerializationError(f"unknown family {family!r}")
        # a bool is not an int here
        if (type(n) is not int or not 1 <= n <= MAX_ITEMS or type(seed) is not int
                or type(params) is not dict):
            raise SerializationError(f"instance needs int n in 1..{MAX_ITEMS}, int seed, object "
                                     f"params; got n={n!r}, seed={seed!r}, "
                                     f"params {type(params).__name__}")
        return cls(family, n, params, seed)


def save_instance(spec: InstanceSpec, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(spec.to_json())
        fh.write("\n")


def load_instance(path: str) -> InstanceSpec:
    with open(path) as fh:
        return InstanceSpec.from_json(fh.read())


def generate_instance(family: str, n: int, seed: int = 0, **params) -> InstanceSpec:
    """Fill in family-specific parameters deterministically from the seed."""
    make, _, _ = _family(family)
    if not 1 <= n <= MAX_ITEMS:
        raise ValueError(f"n must lie in 1..{MAX_ITEMS}, got {n}")
    rng = random.Random((seed, family, n).__repr__())
    filled = make(n, rng, dict(params))
    return InstanceSpec(family, n, filled, seed)


# -- per-family parameter generators ----------------------------------


def _int_param(family, name, value, low, high=None):
    """value, if it is an int (a bool is not) in low..high; else a
    ValueError that names the parameter."""
    if type(value) is not int or value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{family} parameter {name} must be an int {bound}, got {value!r}")
    return value


def _gen_additive(n, rng, params):
    lo = _int_param("additive", "low", params.pop("low", 1), 0)
    hi = _int_param("additive", "high", params.pop("high", 16), lo)
    _reject_extras("additive", params)
    return {"weights": [rng.randint(lo, hi) for _ in range(n)]}


def _gen_coverage(n, rng, params):
    universe = _int_param("coverage", "universe", params.pop("universe", 2 * n), 1)
    max_cover = _int_param("coverage", "max_cover", params.pop("max_cover", min(6, universe)),
                           1, universe)
    _reject_extras("coverage", params)
    covers = []
    for _ in range(n):
        size = rng.randint(1, max_cover)
        covers.append(sorted(rng.sample(range(universe), size)))
    return {"universe": universe, "covers": covers}


def _gen_uniform_matroid(n, rng, params):
    cap = params.pop("cap", None)
    _reject_extras("uniform-matroid", params)
    if cap is None:
        cap = rng.randint(1, max(1, n // 2))
    return {"cap": _int_param("uniform-matroid", "cap", cap, 0)}


def _gen_partition_matroid(n, rng, params):
    block_size = _int_param("partition-matroid", "block_size", params.pop("block_size", 4), 1)
    cap = _int_param("partition-matroid", "cap", params.pop("cap", 1), 0)
    _reject_extras("partition-matroid", params)
    items = list(range(n))
    rng.shuffle(items)
    blocks = [sorted(items[i : i + block_size]) for i in range(0, n, block_size)]
    return {"blocks": blocks, "caps": [min(cap, len(b)) for b in blocks]}


def _gen_graphic_matroid(n, rng, params):
    vertices = params.pop("vertices", None)
    _reject_extras("graphic-matroid", params)
    if vertices is None:
        # few enough vertices that random edges create real cycles
        vertices = max(3, int(round(n ** 0.5)) + 2)
    vertices = _int_param("graphic-matroid", "vertices", vertices, 2)
    edges = []
    for _ in range(n):
        u = rng.randrange(vertices)
        v = rng.randrange(vertices - 1)
        if v >= u:
            v += 1
        edges.append([min(u, v), max(u, v)])
    return {"vertices": vertices, "edges": edges}


# a generated clause costs about 270 B at n = 4 and more with its support,
# so the cap keeps a small instance near a few MB
MAX_XOS_CLAUSES = 10_000
# a drawn clause entry costs about 81 B, so the entries a generated
# instance may draw (clauses times the largest clause) stay near 85 MB
MAX_XOS_ENTRIES = 1 << 20


def _gen_xos_explicit(n, rng, params):
    clauses = _int_param("xos-explicit", "clauses",
                         params.pop("clauses", min(max(3, n // 2), MAX_XOS_CLAUSES)),
                         1, MAX_XOS_CLAUSES)
    support = _int_param("xos-explicit", "support", params.pop("support", max(2, n // 2)), 1)
    uniform = params.pop("uniform", False)
    _reject_extras("xos-explicit", params)
    if type(uniform) is not bool:
        raise ValueError(f"xos-explicit parameter uniform must be true or false, got {uniform!r}")
    if clauses * min(support, n) > MAX_XOS_ENTRIES:
        raise ValueError(f"xos-explicit would draw up to {clauses} clauses of {min(support, n)} "
                         f"items, over {MAX_XOS_ENTRIES} entries; pass smaller clauses or support")
    out = []
    for _ in range(clauses):
        size = rng.randint(1, min(support, n))
        items = sorted(rng.sample(range(n), size))
        if uniform:
            w = rng.randint(1, 16)
            out.append({str(j): w for j in items})
        else:
            out.append({str(j): rng.randint(1, 16) for j in items})
    return {"clauses": out}


def _gen_subadditive_table(n, rng, params):
    limit = valuations.VALIDATE_LIMIT
    if n > limit:
        raise ScaleError(f"subadditive tables are generated only up to n = {limit}")
    high = _int_param("subadditive-table", "high", params.pop("high", 8), 1)
    _reject_extras("subadditive-table", params)
    raw = [0] + [rng.randint(1, high) for _ in range((1 << n) - 1)]
    table = _repair_table(np.asarray(raw, dtype=np.float64), n)
    return {"table": [float(x) for x in table]}


def _reject_extras(family, params):
    if params:
        raise ValueError(f"unknown parameters for {family}: {sorted(params)}")


def _repair_table(raw: np.ndarray, n: int) -> np.ndarray:
    """Turn arbitrary positive entries into a monotone subadditive table.

    First cap every entry by the cheapest proper disjoint split (processed
    in increasing popcount order so splits are already repaired), then push
    monotonicity up by max-propagation. The second pass cannot break the
    first: raising v(T) for T inside a split never lowers the split's cost,
    and the propagated maximum for S is some v(T), T subset of S, which the
    repaired split bound of S already dominates.
    """
    table = raw.astype(np.float64).copy()
    table[0] = 0.0
    for s, a, b in disjoint_splits(1 << n):
        table[s] = np.minimum(table[s], (table[a] + table[b]).min(axis=1))
    for j in range(n):  # each value becomes the largest over its subsets
        halves = table.reshape(-1, 2, 1 << j)
        np.maximum(halves[:, 0], halves[:, 1], out=halves[:, 1])
    return table


def _numbers(values, name):
    """values, if a list of ints and floats (a bool is neither); else a SerializationError."""
    if type(values) is not list or not set(map(type, values)) <= {int, float}:
        raise SerializationError(f"{name} must be a list of JSON numbers")
    return values


def _build_coverage(n, p, ledger):
    """Unit weights up to the largest cover element: elements outside
    every cover never count, so a huge `universe` allocates nothing."""
    covers, universe = p["covers"], _int_param("coverage", "universe", p["universe"], 0)
    used = max(chain.from_iterable(covers), default=-1) + 1
    if used > universe:
        for c in covers:
            bitsets.check_ids(c, universe, "cover element")
    return CoverageValuation([1.0] * used, covers, ledger)


def _build_xos_explicit(n, p, ledger):
    """A clause whose weights are all equal and valid is built uniform,
    with no per-item dict; any other goes through AdditiveClause, which
    checks each weight and names the item of a bad one."""
    clauses = []
    for c in p["clauses"]:
        if c and not _ITEM_IDS.fullmatch(",".join(c) + ","):
            raise MalformedBundleError("clause keys must be item ids in plain decimal")
        ids, weights = list(map(int, c)), _numbers(list(c.values()), "clause weights")
        bitsets.check_ids(ids, n, "clause item")
        w = weights[0] if weights else -1
        if weights.count(w) == len(weights) and 0 <= w < math.inf:
            clauses.append(AdditiveClause.uniform(w, bitsets.from_items(ids)))
        else:
            clauses.append(AdditiveClause(dict(zip(ids, weights))))
    return XOSExplicitValuation(clauses, ledger, n=n)


# family -> (parameter generator, the parameter keys it writes,
#            oracle builder from (n, params, ledger))
_FAMILY_TABLE = {
    "additive": (_gen_additive, {"weights"},
                 lambda n, p, led: AdditiveValuation(_numbers(p["weights"], "weights"), led)),
    "coverage": (_gen_coverage, {"universe", "covers"}, _build_coverage),
    "uniform-matroid": (_gen_uniform_matroid, {"cap"},
                        lambda n, p, led: UniformMatroidRank(n, p["cap"], led)),
    "partition-matroid": (_gen_partition_matroid, {"blocks", "caps"},
                          lambda n, p, led: PartitionMatroidRank(p["blocks"], p["caps"], led)),
    "graphic-matroid": (_gen_graphic_matroid, {"vertices", "edges"},
                        lambda n, p, led: GraphicMatroidRank(p["vertices"], p["edges"], led)),
    "xos-explicit": (_gen_xos_explicit, {"clauses"}, _build_xos_explicit),
    "subadditive-table": (
        _gen_subadditive_table, {"table"},
        lambda n, p, led: SubadditiveTableValuation(_numbers(p["table"], "table"), led)),
}

FAMILIES = tuple(_FAMILY_TABLE)


def _family(name: str):
    try:
        return _FAMILY_TABLE[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}") from None
