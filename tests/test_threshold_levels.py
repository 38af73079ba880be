"""Threshold greedy skips the levels no item can clear; here it meets the
full scan it replaced.

Before, every level w was scanned item by item. Now each pass records
top, the largest cached bound left outside the bundle, and the levels
w > top that follow are stepped over unscanned: there no item has a bound
of w, so a scan asks nothing and takes nothing. So on every input the two
must take the same steps and ask the same value questions in the same
order.
"""

import random

import pytest

import valsketch as vs
from valsketch import bitsets
from valsketch.cardinality import greedy_threshold_steps

EPSILONS = (0.05, 0.1, 0.2)


def full_scan_steps(oracle, ground, epsilon):
    """greedy_threshold_steps as it was before it skipped levels: every
    level from w_max down to the floor is scanned."""
    items = list(bitsets.iter_items(ground))
    if not items:
        return
    upper = {j: oracle.value(1 << j) for j in items}
    w_max = max(upper.values())
    if w_max <= 0:
        return
    bundle, total = 0, 0.0
    w = w_max
    floor = (epsilon / len(items)) * w_max
    while w >= floor:
        for j in items:
            if (bundle >> j) & 1 or upper[j] < w:
                continue
            if bundle:
                gain = oracle.value(bundle | (1 << j)) - total
                upper[j] = gain
            else:
                gain = upper[j]
            if gain >= w:
                bundle |= 1 << j
                total += gain
                yield bundle, total
        w *= 1.0 - epsilon


class Recorder:
    """Answers value questions uncounted (oracle._value) and keeps them;
    with `singles` it carries an item table as a build's group view does."""

    def __init__(self, oracle, singles=None):
        self.oracle, self.asked = oracle, []
        if singles is not None:
            self.singles = singles

    def value(self, bundle):
        self.asked.append(bundle)
        return self.oracle._value(bundle)


def check_pool(oracle, pool, epsilon):
    """Greedy meets the full scan on a bare oracle, through an item table
    for the whole pool and through one that lacks every other item: the
    same steps, and the same questions once the singletons the table
    holds are left out."""
    want = Recorder(oracle)
    want_steps = [repr(s) for s in full_scan_steps(want, pool, epsilon)]
    items = list(bitsets.iter_items(pool))
    assert want.asked[:len(items)] == [1 << j for j in items]
    singles = {j: oracle._value(1 << j) for j in items}
    for table in (None, singles, {j: singles[j] for j in items[::2]}):
        got = Recorder(oracle, table)
        got_steps = [repr(s) for s in greedy_threshold_steps(got, pool, epsilon)]
        assert got_steps == want_steps, (hex(pool), epsilon)
        missing = [1 << j for j in items if j not in (table or {})]
        assert got.asked == missing + want.asked[len(items):], (hex(pool), epsilon)
    return len(want_steps)


def sub_pools(n, seed, count=3):
    rng = random.Random(seed)
    return [rng.getrandbits(n) for _ in range(count)]


@pytest.fixture(scope="module")
def oracles(corpus):
    """The coverage corpus fixtures and the submodular bench instance at
    n = 64 and 256, each with its full pool and 3 seeded sub-pools."""
    specs = [entry.spec for entry in corpus if entry.pipeline == "submodular"]
    specs += [vs.bench_instance("submodular", 64), vs.bench_instance("submodular", 256)]
    return [(spec.build(), [bitsets.full_mask(spec.n)] + sub_pools(spec.n, spec.seed))
            for spec in specs]


@pytest.mark.parametrize("epsilon", EPSILONS)
def test_level_skipping_matches_the_full_scan(oracles, epsilon):
    steps = pools = 0
    for oracle, spec_pools in oracles:
        for pool in spec_pools:
            steps += check_pool(oracle, pool, epsilon)
            pools += 1
    # 50 coverage fixtures and 2 bench instances, 4 pools each
    assert pools == 4 * 52 and steps > 1000


def test_a_level_at_top_is_scanned():
    """With epsilon = 1/4 the levels 4, 3, 2.25, ... are exact floats, so
    the level after the first pass equals top, the bound 3 of item 2. It
    must be scanned: item 2 joins there, before item 0 (bound 2.5) is
    asked at 2.25. Skipping it would ask for items {0, 1} first."""
    oracle = vs.AdditiveValuation([2.5, 4.0, 3.0])
    got = Recorder(oracle)
    steps = list(greedy_threshold_steps(got, 0b111, 0.25))
    assert steps == [(0b010, 4.0), (0b110, 7.0), (0b111, 9.5)]
    assert got.asked == [0b001, 0b010, 0b100, 0b110, 0b111]
    assert check_pool(oracle, 0b111, 0.25) == 3
