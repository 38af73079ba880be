"""Desk-scale verification: exhaustive ratio reports, structural
invariants, clause core checks, and query budget checks.

Everything here may read valuations through the uncounted _value hook;
verification cost is deliberately kept out of the query ledger.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import bitsets
from .errors import ScaleError
from .ledger import QueryLedger
from .sketch import Sketch, certified_bound, evaluate_all, sketch_errors
from .valuations import RELATIVE_TOL, AdditiveClause, ValuationOracle, popcount_table

#: slack allowed on "never overestimates": one filter tolerance of dust
SOUND_TOL = 4.0 * RELATIVE_TOL


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


@dataclass
class RatioReport:
    """Outcome of comparing a sketch against the truth on every bundle."""

    n: int
    max_over: float
    argmax_over: int
    max_under: float
    argmax_under: int
    bound: float
    sound: bool
    within_bound: bool

    def summary(self) -> str:
        flag = "ok" if self.sound and self.within_bound else "VIOLATED"
        return (
            f"n={self.n} over={self.max_over:.12f} under={self.max_under:.3f} "
            f"bound={self.bound:.1f} [{flag}]"
        )


def exhaustive_ratio_report(oracle: ValuationOracle, sketch: Sketch) -> RatioReport:
    """Check the two-sided contract on all 2^n bundles.

    Soundness: the estimate never exceeds the true value (beyond float
    dust). Coverage: the true value never exceeds the estimate times the
    certified bound, which uses the worst alpha and beta over the groups.
    """
    n = oracle.n
    if n != sketch.n:
        raise ValueError("sketch was built for a different ground set")
    if n > 16:
        raise ScaleError("exhaustive comparison needs n <= 16")
    est = evaluate_all(sketch)
    truth = brute_reference_table(oracle)
    alpha = max((g.alpha for g in sketch.groups), default=1.0)
    beta = max((g.beta_certified for g in sketch.groups), default=1.0)
    bound = certified_bound(n, alpha, beta)
    # ratio 1 where a side holds trivially (the empty bundle included);
    # argmax keeps the first worst bundle
    with np.errstate(divide="ignore", invalid="ignore"):
        over = np.where(est > truth, est / truth, 1.0)
        under = np.where(truth > 0, truth / est, 1.0)
    argmax_over, argmax_under = int(over.argmax()), int(under.argmax())
    max_over, max_under = float(over[argmax_over]), float(under[argmax_under])
    return RatioReport(
        n=n,
        max_over=max_over,
        argmax_over=argmax_over,
        max_under=max_under,
        argmax_under=argmax_under,
        bound=bound,
        sound=max_over <= 1.0 + SOUND_TOL,
        within_bound=max_under <= bound * (1.0 + RELATIVE_TOL),
    )


def family_invariant_check(sketch: Sketch) -> list:
    """Violations of the file contract (sketch_errors) or, on a sketch
    that meets it, of the invariants construction guarantees."""
    bad = sketch_errors(sketch)
    if bad:
        # the checks below index singletons by item id and need finite fields
        return bad
    n = sketch.n
    membership = [0] * n
    for gi, g in enumerate(sketch.groups):
        tag = f"group {gi} (leader {g.leader})"
        for j in bitsets.iter_items(g.items):
            membership[j] += 1
        values = [sketch.singletons[j] for j in bitsets.iter_items(g.items)]
        if values and max(values) > n * n * min(values) * (1.0 + 2 * RELATIVE_TOL):
            bad.append(f"{tag}: singleton spread exceeds n^2")
        fam_limit = math.ceil(4 * g.alpha * g.beta_certified * math.sqrt(n)) + 1
        seen_cells = set()
        for fam in g.families:
            cell = (fam.k, fam.r)
            if cell in seen_cells:
                bad.append(f"{tag}: duplicate family for k={fam.k} r={fam.r}")
            seen_cells.add(cell)
            if not fam.members:
                bad.append(f"{tag}: empty family for k={fam.k} r={fam.r}")
            if len(fam.members) > fam_limit:
                bad.append(
                    f"{tag}: {len(fam.members)} members at k={fam.k} r={fam.r}, "
                    f"limit {fam_limit}"
                )
    if sketch.groups:
        base = max(n / 2, 2.0)
        group_limit = math.ceil(math.log(n * n * (1 + RELATIVE_TOL), base)) + 1
        worst = max(membership)
        if worst > group_limit:
            bad.append(f"an item belongs to {worst} groups, limit {group_limit}")
    covered = 0
    for g in sketch.groups:
        covered |= g.items
    for j in range(n):
        if sketch.singletons[j] > 0 and not (covered >> j) & 1:
            bad.append(f"item {j} has positive value but no group")
    return bad


def demand_pipeline_budgets(n: int, c: int = 64):
    """(value, demand) query ceilings for the demand-query pipeline."""
    log_term = math.log2(2 * n)
    return c * n * log_term, c * math.sqrt(n) * log_term ** 3


def query_budget_check(ledger_or_snapshot, value_budget: float, demand_budget: float):
    """Compare realized query totals against ceilings; (ok, info)."""
    snap = ledger_or_snapshot
    if isinstance(snap, QueryLedger):
        snap = snap.snapshot()
    value_q, demand_q = snap["value_queries"], snap["demand_queries"]
    ok = value_q <= value_budget and demand_q <= demand_budget
    return ok, {
        "value_queries": value_q,
        "value_budget": value_budget,
        "demand_queries": demand_q,
        "demand_budget": demand_budget,
    }


def brute_reference_table(oracle: ValuationOracle) -> np.ndarray:
    """All 2^n true values via the uncounted hook (n <= 20)."""
    if oracle.n > 20:
        raise ScaleError("reference tables need n <= 20")
    return np.array([oracle._value(s) for s in range(1 << oracle.n)])


def max_value_bundles(oracle: ValuationOracle, k: int) -> float:
    """True optimum over bundles of at most k items, by enumeration."""
    table = brute_reference_table(oracle)
    pc = popcount_table(oracle.n)
    return float(table[pc <= k].max())
