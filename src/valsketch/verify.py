"""Desk-scale verification, as `valsketch verify` runs it: the true
value table, class checks, ratio reports and structural invariants.

Everything here may read valuations through the uncounted _value hook;
verification cost is deliberately kept out of the query ledger.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import bitsets
from .errors import ScaleError
from .sketch import Sketch, evaluate_all, sketch_bound, sketch_errors
from .valuations import (RELATIVE_TOL, VALIDATE_LIMIT, ValuationOracle, bad_value,
                         marginal_witness, monotone_witness, subadditive_witness)

#: slack allowed on "never overestimates": one filter tolerance of dust
SOUND_TOL = 4.0 * RELATIVE_TOL

PROPERTIES = ("monotone", "subadditive", "submodular", "matroid-rank")


@dataclass
class RatioReport:
    """Outcome of comparing a sketch against the truth on every bundle."""

    max_over: float
    argmax_over: int
    max_under: float
    argmax_under: int
    bound: float
    sound: bool
    within_bound: bool


def exhaustive_ratio_report(truth: np.ndarray, sketch: Sketch) -> RatioReport:
    """Check the two-sided contract on all 2^n bundles of truth, the table
    brute_reference_table returns.

    Soundness: the estimate never exceeds the true value (beyond float
    dust). Coverage: the true value never exceeds the estimate times the
    certified bound, which uses the worst alpha and beta over the groups.
    """
    if truth.shape[0] != 1 << sketch.n:
        raise ValueError("sketch was built for a different ground set")
    est = evaluate_all(sketch)
    bound = sketch_bound(sketch)
    # ratio 1 where a side holds trivially (the empty bundle included);
    # argmax keeps the first worst bundle
    with np.errstate(divide="ignore", invalid="ignore"):
        over = np.where(est > truth, est / truth, 1.0)
        under = np.where(truth > 0, truth / est, 1.0)
    argmax_over, argmax_under = int(over.argmax()), int(under.argmax())
    max_over, max_under = float(over[argmax_over]), float(under[argmax_under])
    return RatioReport(
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


def validate_class(truth: np.ndarray, prop: str):
    """(ok, witness) of an exhaustive check of a class on truth, the table
    brute_reference_table returns. Every class is monotone, checked first:
    (s, s | 1 << j) is a marginal that falls by more than RELATIVE_TOL or, for
    matroid-rank, is neither 0 nor 1. Then submodular and matroid-rank need no
    marginal to grow, subadditive no split."""
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {prop!r}")
    if truth[0] != 0.0:
        return False, (0,)
    if prop == "matroid-rank":
        witness = marginal_witness(truth, lambda low, high: (high - low != 0) & (high - low != 1))
    else:
        witness = monotone_witness(truth)
    if witness is None and prop == "subadditive":
        witness = subadditive_witness(truth)
    elif witness is None and prop != "monotone":
        witness = _submodular_witness(truth)
    return witness is None, witness


def _submodular_witness(tab: np.ndarray):
    """The first (s, s | 1 << i, j), ascending, where j's marginal grows from
    s to s | 1 << i by more than RELATIVE_TOL * max(1, v(full)). j's marginal
    is NaN on bundles holding j, so no pair with i = j or j in s fails."""
    slack = RELATIVE_TOL * max(1.0, tab[-1])
    first = None
    for j in range(tab.shape[0].bit_length() - 1):
        gain = np.full_like(tab, np.nan)
        halves = tab.reshape(-1, 2, 1 << j)
        gain.reshape(-1, 2, 1 << j)[:, 0] = halves[:, 1] - halves[:, 0]
        witness = marginal_witness(gain, lambda low, high: high > low + slack)
        if witness is not None and (first is None or witness < first[:2]):
            first = (*witness, j)
    return first


def brute_reference_table(oracle: ValuationOracle) -> np.ndarray:
    """All 2^n true values via the uncounted hook, each checked as value() checks it."""
    if oracle.n > VALIDATE_LIMIT:
        raise ScaleError(f"exhaustive checks enumerate 2^n bundles and need n <= {VALIDATE_LIMIT}, "
                         f"got n={oracle.n}")
    table = np.array([oracle._value(s) for s in range(1 << oracle.n)], dtype=np.float64)
    bad = np.flatnonzero(~((table >= 0) & (table < np.inf)))
    if bad.size:
        raise bad_value(oracle, int(bad[0]), float(table[bad[0]]))
    return table
