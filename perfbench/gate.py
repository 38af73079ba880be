"""Correctness gate: every check runs outside the timed regions.

Checks are tallied in a `Gate`, whose failed / attempted ratio is the
benchmark's `fail_ratio`. Three kinds of check exist:

  * the two-sided contract on sampled bundles: the estimate is at most
    v(S) * (1 + SOUND_TOL), and v(S) is at most the estimate times the
    certified bound; v(S) comes from the uncounted `_value` hook
  * determinism within a run: every build of one instance gives the same
    sketch bytes (sha256) and the same query counts
  * determinism across runs: the same record, kept in a small JSON file
    under the output directory, keyed by recipe, instance and source
"""

import hashlib
import json
import math
import os
import random

import valsketch as vs
from valsketch.verify import SOUND_TOL


class Gate:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok


def certified_factor(sketch) -> float:
    """The bound the contract is checked against: worst alpha and beta over groups."""
    alpha = max((g.alpha for g in sketch.groups), default=1.0)
    beta = max((g.beta_certified for g in sketch.groups), default=1.0)
    return vs.certified_bound(sketch.n, alpha, beta)


def sketch_members(sketch) -> list:
    return [m for g in sketch.groups for f in g.families for m in f.members]


def sample_bundles(sketch, count: int, rng: random.Random) -> list:
    """Seeded bundle stream over the sketch's ground set.

    One third random bundles whose size is log-uniform in 1..n, one third
    stored members, and one third prefixes (in ascending item order) of
    stored members. Small bundles stress the member loop of `evaluate`,
    large ones its singleton loop.
    """
    n = sketch.n
    members = sketch_members(sketch) or [1 << j for j in range(n)]
    out = []
    for i in range(count):
        kind = i % 3
        if kind == 0:
            size = min(n, max(1, int(math.exp(rng.random() * math.log(n + 1)))))
            bundle = 0
            for j in rng.sample(range(n), size):
                bundle |= 1 << j
        else:
            bundle = rng.choice(members)
            if kind == 2:
                items = [j for j in range(n) if (bundle >> j) & 1]
                for j in items[rng.randint(1, len(items)):]:
                    bundle &= ~(1 << j)
        out.append(bundle)
    rng.shuffle(out)
    return out


def contract_ok(truth: float, estimate: float, bound: float) -> bool:
    sound = estimate <= truth * (1.0 + SOUND_TOL)
    covered = truth <= estimate * bound * (1.0 + vs.RELATIVE_TOL)
    return sound and covered and math.isfinite(estimate)


def under_ratio(truth: float, estimate: float) -> float:
    """v(S) / estimate; 1 where v(S) is 0, inf where only the estimate is 0."""
    if truth <= 0:
        return 1.0
    return truth / estimate if estimate > 0 else math.inf


def check_contract(gate: Gate, truths, bundles, estimates, bound: float, label: str) -> float:
    """Check each (truth, estimate) pair; return the worst under-ratio seen."""
    worst = 1.0
    for truth, bundle, est in zip(truths, bundles, estimates):
        ok = contract_ok(truth, est, bound)
        gate.check(ok, "" if ok else f"{label}: bundle {bundle:#x} v={truth} est={est}")
        worst = max(worst, under_ratio(truth, est))
    return worst


def sketch_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class BuildRecord:
    """First build of a run; later builds, and later runs, must match it."""

    def __init__(self, gate: Gate, record_path: str, key: str):
        self.gate = gate
        self.path = record_path
        self.key = key
        self.first = None

    def add(self, digest: str, totals: tuple) -> None:
        current = {"sha256": digest, "queries": list(totals)}
        if self.first is None:
            self.first = current
            self._against_file(current)
            return
        self.gate.check(current == self.first, f"build differs within the run: {current} vs {self.first}")

    def _against_file(self, current: dict) -> None:
        records = {}
        if os.path.exists(self.path):
            with open(self.path) as fh:
                records = json.load(fh)
        previous = records.get(self.key)
        if previous is not None:
            self.gate.check(previous == current, f"build differs from an earlier run: {current} vs {previous}")
            return
        records[self.key] = current
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(records, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)
