"""Reference routines the tests check the system against.

None of these runs in a pipeline, the CLI or the benchmark: the exact
size-k maximizer by enumeration and its spec (criterion 10 and the grid
tests), the optimal uniform clause by enumeration (criterion 05), the
weight-bucket core check (criterion 06), the demand pipeline's query
ceilings (criterion 08), the XOS oracle's loops over every clause, the check
that its clause list attains its values, the class checks' loops over
the lattice and the partition matroid's rank without a memo. Valuations
are read through the uncounted _value hook, so checking costs no counted
queries.
"""

import math
from dataclasses import dataclass

from valsketch import bitsets
from valsketch.cardinality import CardOracleSpec
from valsketch.errors import ScaleError
from valsketch.valuations import (ENUM_LIMIT, RELATIVE_TOL, AdditiveClause, OracleView,
                                  ValuationOracle)


def brute_force() -> CardOracleSpec:
    return CardOracleSpec(
        lambda oracle, ground, k, max_singleton=None: brute_opt_k(oracle, ground, k), 1.0
    )


def brute_opt_k(oracle: ValuationOracle | OracleView, ground: int, k: int):
    """Exact optimum by enumeration; reference only, queries not counted.

    Scans submasks in ascending numeric order with a strict improvement
    test, so of all maximizers it returns the numerically smallest mask.
    """
    if ground.bit_count() > ENUM_LIMIT:
        raise ScaleError(f"exhaustive search is limited to pools of {ENUM_LIMIT} items")
    best_bundle, best_value = 0, 0.0
    for sub in bitsets.submasks(ground):
        if sub and sub.bit_count() <= k:
            val = oracle._value(sub)
            if val > best_value:
                best_bundle, best_value = sub, val
    return best_bundle, best_value


def brute_best_uniform_clause(oracle: ValuationOracle, bundle: int):
    """The optimal uniform clause, found by exhausting all supports.

    The stiffest admissible price on support R is the minimum density
    min over nonempty T inside R of v(T)/|T|; a subset-DP computes it for
    every R at once. Maximizes price * |R|, ties to the numerically
    smallest support. Reference oracle: queries are not counted.
    """
    items = list(bitsets.iter_items(bundle))
    s = len(items)
    if s > 16:
        raise ScaleError("exhaustive clause search is limited to 16 items")
    v_s = oracle._value(bundle)
    if s == 0 or v_s <= 0:
        return AdditiveClause.uniform(0.0, bundle), 1.0
    expand = [0] * (1 << s)
    for p in range(1, 1 << s):
        low = p & -p
        expand[p] = expand[p ^ low] | (1 << items[low.bit_length() - 1])
    mindens = [math.inf] * (1 << s)
    best_total, best_dense = 0.0, 0
    for p in range(1, 1 << s):
        c = p.bit_count()
        dens = oracle._value(expand[p]) / c
        for j in range(s):
            if (p >> j) & 1 and mindens[p ^ (1 << j)] < dens:
                dens = mindens[p ^ (1 << j)]
        mindens[p] = dens
        if dens * c > best_total:
            best_total, best_dense = dens * c, p
    support = expand[best_dense]
    price = mindens[best_dense]
    return AdditiveClause.uniform(price, support), max(1.0, v_s / best_total)


@dataclass
class ProjectionDecomposition:
    """Clause items bucketed by the power-of-two floor of their weight.

    Bucket t holds items with weight in [2^t, 2^(t+1)); weights below 1
    land in the underflow bucket (key None) and never form a core.
    Masses are sums of the weights as given, not of the bucket floors.
    """

    buckets: dict
    mass: dict

    def core(self):
        """(level, item mask) of the heaviest real bucket, ties to lower level."""
        best = None
        for t, m in self.mass.items():
            if t is None:
                continue
            if best is None or m > self.mass[best] or (m == self.mass[best] and t < best):
                best = t
        if best is None:
            return None, 0
        return best, self.buckets[best]


def r_projection(clause: AdditiveClause) -> ProjectionDecomposition:
    buckets, mass = {}, {}
    for j, w in clause.weights.items():
        if w <= 0:
            continue
        t = math.frexp(w)[1] - 1
        key = t if t >= 0 else None
        buckets[key] = buckets.get(key, 0) | (1 << j)
        mass[key] = mass.get(key, 0.0) + w
    return ProjectionDecomposition(buckets, mass)


def check_core_claim(oracle: ValuationOracle, clause: AdditiveClause, beta_call: float):
    """The heaviest weight bucket alone must carry its share of v(support).

    Weights are first rescaled so the smallest positive one equals 1,
    which pins every item into a real bucket; the levels then mirror the
    value levels r of the construction. The chain checked is

        v(core) >= a(core) >= v(support) / (max(beta, 1) * 2 log2(2n))

    with a(core) the core's weight mass as given. Returns (ok, info).
    """
    positive = [w for w in clause.weights.values() if w > 0]
    info = {"support": clause.support, "core": 0, "level": None}
    if not positive:
        return True, info
    unit = min(positive)
    scaled = AdditiveClause({j: w / unit for j, w in clause.weights.items() if w > 0})
    level, core = r_projection(scaled).core()
    mass = clause.value(core)
    v_support = oracle._value(clause.support)
    v_core = oracle._value(core)
    need = v_support / (max(beta_call, 1.0) * 2.0 * math.log2(2 * oracle.n))
    slack = 1.0 - RELATIVE_TOL
    ok = v_core >= mass * slack and mass >= need * slack
    info.update(core=core, level=level, value=v_core, mass=mass, required=need)
    return ok, info


def demand_pipeline_budgets(n: int, c: int = 64):
    """(value, demand) query ceilings for the demand-query pipeline."""
    log_term = math.log2(2 * n)
    return c * n * log_term, c * math.sqrt(n) * log_term ** 3


def xos_value_all_clauses(oracle, bundle: int) -> float:
    """XOSExplicitValuation._value as it was before it skipped clauses:
    every clause is read, in the order given."""
    best = 0.0
    for c in oracle.clauses:
        val = c.value(bundle)
        if val > best:
            best = val
    return best


def xos_demand_all_clauses(oracle, q: float, included: int) -> int:
    """XOSExplicitValuation._demand_uniform as it was before it skipped
    clauses: every clause offers a candidate, in the order given."""
    best = (0.0, 0, 0)  # profit, cardinality, mask; empty bundle seeds it
    for c in oracle.clauses:
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


def xos_consistent(oracle) -> tuple:
    """(ok, witness): the explicit clause list attains the max from below
    on every bundle, each clause a lower bound and the best one tight.
    The witness is the first bundle where the best clause misses v."""
    for s in range(1 << oracle.n):
        best = max((c.value(s) for c in oracle.clauses), default=0.0)
        if best != oracle._value(s):
            return False, (s,)
    return True, None


def lattice_class_check(oracle, prop: str) -> tuple:
    """verify.validate_class as it was before it scanned one checked
    table: Python loops over the lattice, with monotonicity checked only
    when "monotone" is asked. (ok, witness) in validate_class's form."""
    n = oracle.n
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
        witness = subadditive_witness_loop(tab)
        return witness is None, witness
    if prop == "matroid-rank":
        for s in range(full + 1):
            for j in range(n):
                if not (s >> j) & 1 and tab[s | (1 << j)] - tab[s] not in (0, 1):
                    return False, (s, s | (1 << j))
    # submodular: marginals of j shrink as the base grows
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


def subadditive_witness_loop(table):
    """valuations.subadditive_witness as it was before it read all bundles
    of one size at once: a loop over each bundle s, ascending, and its
    submasks a, descending, reading only a < s ^ a."""
    tol = 1.0 - RELATIVE_TOL
    for s in range(1, len(table)):
        floor = table[s] * tol
        a = (s - 1) & s
        while a:
            if a < (s ^ a) and table[a] + table[s ^ a] < floor:
                return a, s ^ a, s
            a = (a - 1) & s
    return None


def cheapest_split_caps_loop(raw, n: int) -> list:
    """The first pass of instances._repair_table as it was before it read
    all bundles of one size at once: in order of size, then ascending, each
    value capped by the cheapest split of its bundle into two halves."""
    table = [float(x) for x in raw]
    table[0] = 0.0
    for s in sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m)):
        a = (s - 1) & s
        while a:
            if a < (s ^ a) and table[a] + table[s ^ a] < table[s]:
                table[s] = table[a] + table[s ^ a]
            a = (a - 1) & s
    return table


def capped_block_sum(blocks, caps, bundle: int) -> float:
    """A partition matroid's rank by its definition: over the block masks,
    the sum of min(|bundle in the block|, the block's cap)."""
    return float(sum(min((bundle & bm).bit_count(), cap) for bm, cap in zip(blocks, caps)))
