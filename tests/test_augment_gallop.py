"""The matroid maximizer gallops to each augmenting item; here it meets
the bisection it replaced.

Before, each step bisected the whole remaining pool. Now each step tests
chunks of 1, 2, 4, ... items, bisects inside the first chunk that raises
the rank, and drops every item a failed probe proved spanned. Both find
the smallest-id item outside span(bundle), so on matroid rank functions
the two trajectories must agree step by step, while each galloping step
keeps to 2 floor(log2(s+1)) + 1 value queries, s the spanned items it
skips. On non-rank inputs each step must still add one new item.
"""

import math
import random

from hypothesis import given, settings, strategies as st

import valsketch as vs
from valsketch import bitsets
from valsketch.cardinality import matroid_augment_steps

from test_sketcher import PERFBENCH_RECIPES


def bisection_steps(oracle, ground):
    """matroid_augment_steps as it was before it galloped: every step
    bisects the whole remaining pool. Uncounted: it asks oracle._value."""
    bundle, total = 0, 0.0
    remaining = ground
    while remaining and oracle._value(bundle | remaining) > total:
        cand = remaining
        while cand.bit_count() > 1:
            left = bitsets.lower_half(cand)
            if oracle._value(bundle | left) > total:
                cand = left
            else:
                cand ^= left
        bundle |= cand
        total += 1.0
        remaining &= ~cand
        yield bundle, total


def gallop_bound(s):
    return 2 * int(math.log2(s + 1)) + 1


def check_pool(oracle, pool):
    """Run the galloping maximizer on pool, one step at a time, and check
    it against the reference step by step, and each step's cost against
    its bound. The items a step skips are the pool items below the one it
    adds that no earlier step added or skipped."""
    want = list(bisection_steps(oracle, pool))
    led = oracle.ledger
    steps = matroid_augment_steps(oracle, pool)
    got, seen = [], 0
    while True:
        before = led.value_queries
        step = next(steps, None)
        spent = led.value_queries - before
        if step is None:
            rest = (pool & ~seen).bit_count()
            assert spent <= int(math.log2(rest + 1)) + 1, (hex(pool), rest, spent)
            break
        bundle, _ = step
        item = bundle & ~(got[-1][0] if got else 0)
        skipped = pool & ~seen & (item - 1)
        assert spent <= gallop_bound(skipped.bit_count()), (hex(pool), len(got), spent)
        seen |= skipped | item
        got.append(step)
    assert [repr(s) for s in got] == [repr(s) for s in want], hex(pool)
    return len(got)


def sub_pools(n, seed, count=3):
    rng = random.Random(seed)
    return [rng.getrandbits(n) for _ in range(count)]


def _instances():
    for name, spec in vs.standard_fixture_corpus():
        if name == "matroid":
            yield spec
    yield vs.bench_instance("matroid", 64)
    yield vs.bench_instance("matroid", 256)
    name, family, n, params = PERFBENCH_RECIPES[0]
    assert name == "matroid"
    yield vs.generate_instance(family, n, 0, **params)


def test_gallop_matches_bisection_within_its_bound():
    steps = pools = 0
    for spec in _instances():
        oracle = spec.build(vs.QueryLedger())
        for pool in [bitsets.full_mask(spec.n)] + sub_pools(spec.n, spec.seed):
            steps += check_pool(oracle, pool)
            pools += 1
    # 50 + 1 corpus fixtures, 2 bench instances and the recipe, 4 pools each
    assert pools == 4 * 54 and steps > 1000


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2_000),
       pool=st.integers(min_value=0, max_value=(1 << 10) - 1))
def test_each_step_adds_one_item_on_coverage(seed, pool):
    """Coverage is no rank function: the bundles carry no guarantee, but
    each step still adds exactly one pool item and the run ends."""
    oracle = vs.generate_instance("coverage", 10, seed).build()
    bundle = 0
    for count, (nxt, total) in enumerate(matroid_augment_steps(oracle, pool), 1):
        added = nxt & ~bundle
        assert nxt & bundle == bundle and added.bit_count() == 1 and added & pool
        assert total == count
        bundle = nxt
        assert count <= pool.bit_count()
