"""Seeded instance generation and valuation-class validation.

An InstanceSpec is a small JSON-serializable record (family, n, params,
seed) that deterministically rebuilds the same oracle. Generators use
integer weights throughout so that downstream float arithmetic on the
test fixtures stays exact.
"""

import json
import random
from dataclasses import dataclass, field

import numpy as np

from . import bitsets
from .errors import ScaleError, SerializationError
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
    RELATIVE_TOL,
)

@dataclass(frozen=True)
class InstanceSpec:
    family: str
    n: int
    params: dict = field(default_factory=dict)
    seed: int = 0

    def build(self, ledger: QueryLedger | None = None) -> ValuationOracle:
        _, build = _family(self.family)
        return build(self.n, self.params, ledger)

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema_version": 1,
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
        for key in ("family", "n", "seed"):
            if key not in obj:
                raise SerializationError(f"instance file is missing {key!r}")
        if obj["family"] not in FAMILIES:
            raise SerializationError(f"unknown family {obj['family']!r}")
        return cls(obj["family"], int(obj["n"]), obj.get("params", {}), int(obj["seed"]))


def save_instance(spec: InstanceSpec, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(spec.to_json())
        fh.write("\n")


def load_instance(path: str) -> InstanceSpec:
    with open(path) as fh:
        return InstanceSpec.from_json(fh.read())


def generate_instance(family: str, n: int, seed: int = 0, **params) -> InstanceSpec:
    """Fill in family-specific parameters deterministically from the seed."""
    make, _ = _family(family)
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random((seed, family, n).__repr__())
    filled = make(n, rng, dict(params))
    return InstanceSpec(family, n, filled, seed)


# -- per-family parameter generators ----------------------------------


def _gen_additive(n, rng, params):
    lo = params.pop("low", 1)
    hi = params.pop("high", 16)
    _reject_extras("additive", params)
    return {"weights": [rng.randint(lo, hi) for _ in range(n)]}


def _gen_coverage(n, rng, params):
    universe = params.pop("universe", 2 * n)
    max_cover = params.pop("max_cover", min(6, universe))
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
    return {"cap": cap}


def _gen_partition_matroid(n, rng, params):
    block_size = params.pop("block_size", 4)
    cap = params.pop("cap", 1)
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
    edges = []
    for _ in range(n):
        u = rng.randrange(vertices)
        v = rng.randrange(vertices - 1)
        if v >= u:
            v += 1
        edges.append([min(u, v), max(u, v)])
    return {"vertices": vertices, "edges": edges}


def _gen_xos_explicit(n, rng, params):
    clauses = params.pop("clauses", max(3, n // 2))
    support = params.pop("support", max(2, n // 2))
    uniform = params.pop("uniform", False)
    _reject_extras("xos-explicit", params)
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
    if n > 12:
        raise ScaleError("subadditive tables are generated only up to n = 12")
    high = params.pop("high", 8)
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
    order = sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m))
    for s in order:
        if s.bit_count() < 2:
            continue
        best = table[s]
        a = (s - 1) & s
        while a:
            if a < (s ^ a):  # each unordered split once
                cost = table[a] + table[s ^ a]
                if cost < best:
                    best = cost
            a = (a - 1) & s
        table[s] = best
    for s in order:
        m = table[s]
        rest = s
        while rest:
            low = rest & -rest
            sub = table[s ^ low]
            if sub > m:
                m = sub
            rest ^= low
        table[s] = m
    return table


def _build_xos_explicit(n, p, ledger):
    clauses = [AdditiveClause({int(j): w for j, w in c.items()}) for c in p["clauses"]]
    return XOSExplicitValuation(clauses, ledger, n=n)


# family -> (parameter generator, oracle builder from (n, params, ledger))
_FAMILY_TABLE = {
    "additive": (_gen_additive, lambda n, p, led: AdditiveValuation(p["weights"], led)),
    "coverage": (
        _gen_coverage,
        lambda n, p, led: CoverageValuation([1.0] * p["universe"], p["covers"], led),
    ),
    "uniform-matroid": (
        _gen_uniform_matroid,
        lambda n, p, led: UniformMatroidRank(n, p["cap"], led),
    ),
    "partition-matroid": (
        _gen_partition_matroid,
        lambda n, p, led: PartitionMatroidRank(p["blocks"], p["caps"], led),
    ),
    "graphic-matroid": (
        _gen_graphic_matroid,
        lambda n, p, led: GraphicMatroidRank(p["vertices"], p["edges"], led),
    ),
    "xos-explicit": (_gen_xos_explicit, _build_xos_explicit),
    "subadditive-table": (
        _gen_subadditive_table,
        lambda n, p, led: SubadditiveTableValuation(p["table"], led),
    ),
}

FAMILIES = tuple(_FAMILY_TABLE)


def _family(name: str):
    try:
        return _FAMILY_TABLE[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}") from None


# -- exhaustive class validation (small n) -----------------------------

VALIDATE_LIMIT = 16

PROPERTIES = ("monotone", "subadditive", "submodular", "xos-consistent")


def validate_class(oracle: ValuationOracle, prop: str):
    """Exhaustively check a structural property; (ok, witness) on failure.

    Witnesses are bundle tuples whose values violate the inequality. All
    checks enumerate the full lattice, so n is capped at 16. Queries go
    through the uncounted _value hook on purpose: validation is not part
    of any algorithm's budget.
    """
    n = oracle.n
    if n > VALIDATE_LIMIT:
        raise ScaleError(f"validation enumerates 2^n bundles; n={n} is too large")
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {prop!r}")
    full = bitsets.full_mask(n)
    tab = [oracle._value(s) for s in range(full + 1)]
    tol = 1.0 - RELATIVE_TOL

    if tab[0] != 0.0:
        return False, (0,)

    if prop == "monotone":
        for s in range(full + 1):
            for j in range(n):
                if not (s >> j) & 1 and tab[s | (1 << j)] < tab[s] * tol:
                    return False, (s, s | (1 << j))
        return True, None

    if prop == "subadditive":
        for s in range(1, full + 1):
            a = (s - 1) & s
            while a:
                if a < (s ^ a) and tab[a] + tab[s ^ a] < tab[s] * tol:
                    return False, (a, s ^ a, s)
                a = (a - 1) & s
        return True, None

    if prop == "submodular":
        # local characterization: marginals of j shrink as the base grows
        for s in range(full + 1):
            for i in range(n):
                if (s >> i) & 1:
                    continue
                si = s | (1 << i)
                for j in range(n):
                    if (si >> j) & 1:
                        continue
                    gain_small = tab[s | (1 << j)] - tab[s]
                    gain_large = tab[si | (1 << j)] - tab[si]
                    if gain_large > gain_small + RELATIVE_TOL * max(1.0, tab[full]):
                        return False, (s, si, j)
        return True, None

    # xos-consistent: the explicit clause list actually attains the max
    # from below everywhere (each clause is a valid lower bound and is
    # tight on its own support restricted to the bundle)
    if not isinstance(oracle, XOSExplicitValuation):
        raise ValueError("xos-consistent applies to explicit clause lists only")
    for s in range(full + 1):
        best = max((c.value(s) for c in oracle.clauses), default=0.0)
        if best != tab[s]:
            return False, (s,)
    return True, None
