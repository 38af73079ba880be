"""Acceptance gate: one test per contract, one PASS/FAIL line each.

Run as `pytest tests/test_acceptance.py -v -s`. Every test prints
`[acceptance] NN name: PASS|FAIL (detail)` before asserting, so the
checklist is readable even from a failing run. The desk-scale corpus
(four fixture blocks at n in {6, 8, 10, 12}, 50 seeds each) and the
exhaustive net (the same blocks at n in {14, 16}, 4 seeds each) come
from conftest and are shared across criteria.
"""

import json
import math
import random

import numpy as np
import pytest

import valsketch as vs
from valsketch import bitsets
from valsketch.cli import main as cli_main
from valsketch.valuations import RELATIVE_TOL

from reference import (brute_best_uniform_clause, brute_force, check_core_claim,
                       demand_pipeline_budgets)

SLACK = 1.0 - RELATIVE_TOL


def _line(num: int, name: str, ok: bool, detail: str = "") -> bool:
    tail = f" ({detail})" if detail else ""
    print(f"[acceptance] {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def test_criterion_01_soundness(corpus):
    """Estimates never exceed the truth on any bundle of any fixture."""
    worst = 1.0
    bad = 0
    for entry in corpus:
        pos = entry.truth > 0
        over = entry.estimate[pos] / entry.truth[pos]
        if over.size:
            worst = max(worst, float(over.max()))
        bad += int(np.count_nonzero(over > 1.0 + 1e-9))
        bad += int(np.count_nonzero(entry.estimate[~pos] > 0))
    ok = bad == 0
    assert _line(1, "soundness", ok, f"{len(corpus)} fixtures, max over-ratio {worst:.12f}")
    assert worst <= 1.0 + 1e-9


def test_criterion_02_approximation(corpus):
    """Estimates stay within the certified factor of the truth."""
    worst = 1.0
    worst_tag = ""
    violations = 0
    informal = 0
    for entry in corpus:
        n = entry.spec.n
        alpha = max((g.alpha for g in entry.sketch.groups), default=1.0)
        beta = max((g.beta_certified for g in entry.sketch.groups), default=1.0)
        bound = vs.certified_bound(n, alpha, beta)
        pos = entry.truth > 0
        est = entry.estimate[pos]
        with np.errstate(divide="ignore"):
            under = np.where(est > 0, entry.truth[pos] / est, np.inf)
        peak = float(under.max()) if under.size else 1.0
        if peak > worst:
            worst = peak
            worst_tag = f"{entry.spec.family} n={n} seed={entry.spec.seed}"
        if peak > bound * (1.0 + RELATIVE_TOL):
            violations += 1
        if peak <= 8.0 * math.sqrt(n):
            informal += 1
    ok = violations == 0
    assert _line(
        2, "approximation", ok,
        f"worst ratio {worst:.3f} at {worst_tag}; "
        f"{informal}/{len(corpus)} within the informal 8*sqrt(n)"
    )


def test_criterion_03_singleton_exactness(corpus):
    """evaluate({j}) equals v({j}) for every item of every fixture."""
    worst = 0.0
    for entry in corpus:
        for j in range(entry.spec.n):
            v = entry.truth[1 << j]
            e = entry.estimate[1 << j]
            gap = abs(e - v) / v if v > 0 else abs(e)
            worst = max(worst, gap)
    ok = worst <= RELATIVE_TOL
    assert _line(3, "singleton-exactness", ok, f"max relative gap {worst:.2e}")


def _opt_by_size(truth: np.ndarray, n: int, k: int) -> float:
    pc = np.bitwise_count(np.arange(1 << n))
    return float(truth[pc <= k].max())


def test_criterion_04_card_oracles_vs_brute(corpus):
    """Maximization oracles meet their ratios against enumeration.

    Threshold greedy is certified for submodular inputs and the galloping
    augmenter for matroid ranks, so each runs on the fixture blocks of
    its class; the price-grid search carries its factor 8 on everything
    subadditive, which covers the whole corpus.
    """
    checked = 0
    failures = []
    for entry in corpus:
        n = entry.spec.n
        submodular = entry.pipeline in ("matroid", "submodular")
        matroid = entry.pipeline == "matroid"
        for k in (1, 3, 5):
            if k > n:
                continue
            opt = _opt_by_size(entry.truth, n, k)
            runs = [("demand-grid", vs.demand_price_grid(), opt / 8.0, False)]
            if submodular:
                runs.append(("threshold", vs.greedy_threshold(0.1),
                             (1 - 1 / math.e - 0.1) * opt, False))
            if matroid:
                runs.append(("augment", vs.matroid_augment(), opt, True))
            for name, spec, floor, exact in runs:
                bundle, value = spec.run(entry.oracle, bitsets.full_mask(n), k)
                checked += 1
                if bundle.bit_count() > k or bundle & ~bitsets.full_mask(n):
                    failures.append(f"{name} k={k} oversized bundle")
                if exact:
                    if value != opt:
                        failures.append(f"{name} k={k}: {value} != opt {opt}")
                elif value < floor * SLACK:
                    failures.append(
                        f"{name} k={k} on {entry.spec.family} seed {entry.spec.seed}: "
                        f"{value} < {floor}"
                    )
    ok = not failures
    assert _line(4, "card-oracles", ok, f"{checked} runs" if ok else failures[0])


def _assert_supporting(oracle, clause) -> int:
    bad = 0
    for sub in bitsets.submasks(clause.support):
        if oracle._value(sub) < clause.value(sub) * SLACK:
            bad += 1
    return bad


def _probe_bundles(entry, count=2):
    n = entry.spec.n
    rnd = random.Random(f"acceptance:{entry.spec.family}:{n}:{entry.spec.seed}")
    probes = [bitsets.full_mask(n)]
    probes.extend(rnd.randrange(1, 1 << n) for _ in range(count))
    return probes


def test_criterion_05_clause_contracts(corpus):
    """Both clause oracles are supporting on the classes they certify;
    the marginal clause is tight and the demand clause's certificate
    stays within the analytic log factor of the exhaustive optimum.

    The marginal construction carries its supporting guarantee only
    under decreasing marginals, so it is swept over the submodular-class
    blocks, while the demand clause covers every subadditive fixture,
    which here means the whole corpus.
    """
    marginal = vs.clause_marginal()
    demand = vs.clause_demand_uniform()
    support_bad = 0
    tight_bad = 0
    overshoot_bad = 0
    beta_bad = 0
    beta_checked = 0
    for entry in corpus:
        submodular = entry.pipeline in ("matroid", "submodular")
        for bundle in _probe_bundles(entry):
            v = float(entry.truth[bundle])
            if submodular:
                clause, _ = marginal.clause(entry.oracle, bundle)
                support_bad += _assert_supporting(entry.oracle, clause)
                if not math.isclose(clause.value(bundle), v, rel_tol=1e-9, abs_tol=1e-12):
                    tight_bad += 1
            dclause, dbeta = demand.clause(entry.oracle, bundle)
            support_bad += _assert_supporting(entry.oracle, dclause)
            if dclause.value(bundle) > v * (1.0 + RELATIVE_TOL):
                overshoot_bad += 1
            if entry.spec.family == "subadditive-table":
                _, beta_exact = brute_best_uniform_clause(entry.oracle, bundle)
                size = bundle.bit_count()
                beta_checked += 1
                if dbeta > 4.0 * math.log2(2 * size) * beta_exact * (1 + RELATIVE_TOL):
                    beta_bad += 1
    ok = support_bad == 0 and tight_bad == 0 and overshoot_bad == 0 and beta_bad == 0
    assert _line(
        5, "clause-contracts", ok,
        f"supporting violations {support_bad}, tightness {tight_bad}, "
        f"overshoot {overshoot_bad}, beta gap {beta_bad}/{beta_checked}"
    )


def test_criterion_06_core_claim(corpus):
    """The heaviest weight bucket of the pipeline's clause carries its
    share of the bundle value, for every nonempty bundle."""
    bad = 0
    total = 0
    worst_margin = math.inf
    for entry in corpus:
        xos = vs.get_pipeline(entry.pipeline).xos
        n = entry.spec.n
        for bundle in range(1, 1 << n):
            v = float(entry.truth[bundle])
            if v <= 0:
                continue
            clause, beta = xos.clause(entry.oracle, bundle)
            ok, info = check_core_claim(entry.oracle, clause, beta)
            total += 1
            if not ok:
                bad += 1
            elif info["required"] > 0:
                worst_margin = min(worst_margin, info["mass"] / info["required"])
    ok = bad == 0
    assert _line(6, "core-claim", ok, f"{total} bundles, tightest margin {worst_margin:.3f}")


def test_criterion_07_family_shape(corpus):
    """Family sizes, disjointness, and per-cell reference budgets hold
    on every sketch the suite builds."""
    checked = 0
    problems = []
    for entry in corpus:
        n = entry.spec.n
        violations = vs.family_invariant_check(entry.sketch)
        if violations:
            problems.append(f"{entry.spec.family} seed {entry.spec.seed}: {violations[0]}")
        for g in entry.sketch.groups:
            limit = math.ceil(4 * g.alpha * g.beta_certified * math.sqrt(n)) + 1
            for fam in g.families:
                checked += 1
                if len(fam.members) > limit:
                    problems.append("family over size limit")
                refs = sum(m.bit_count() for m in fam.members)
                if refs > n:
                    problems.append(f"cell references {refs} items with n={n}")
    ok = not problems
    assert _line(7, "family-shape", ok,
                 f"{checked} cells across {len(corpus)} sketches" if ok else problems[0])


@pytest.fixture(scope="module")
def bench_counts():
    """Ledger totals for the three large-scale pipelines at n = 256, 1024."""
    out = {}
    for pipeline, sizes in (
        ("matroid", (256, 1024)),
        ("submodular", (256, 1024)),
        ("subadditive", (1024,)),
    ):
        spec = vs.get_pipeline(pipeline)
        for n in sizes:
            oracle = vs.bench_instance(pipeline, n, 0).build(vs.QueryLedger())
            vs.build_sketch(oracle, spec.card, spec.xos)
            out[pipeline, n] = oracle.ledger.totals()
    return out


def test_criterion_08_query_scaling(bench_counts):
    """Query growth from n = 256 to n = 1024 stays inside the envelopes
    and the demand pipeline meets its absolute near-linear budget."""
    matroid = bench_counts["matroid", 1024][0] / bench_counts["matroid", 256][0]
    submodular = bench_counts["submodular", 1024][0] / bench_counts["submodular", 256][0]
    value_q, demand_q = bench_counts["subadditive", 1024]
    value_cap, demand_cap = demand_pipeline_budgets(1024)
    matroid_cap = 4.0 * (11.0 / 9.0) ** 2 * 1.5
    submodular_cap = 8.0 * (11.0 / 9.0) ** 3 * 1.5
    ok = (
        matroid <= matroid_cap
        and submodular <= submodular_cap
        and value_q <= value_cap
        and demand_q <= demand_cap
    )
    assert _line(
        8, "query-scaling", ok,
        f"matroid x{matroid:.2f}<={matroid_cap:.2f} "
        f"submodular x{submodular:.2f}<={submodular_cap:.2f} "
        f"subadditive {value_q}v<={value_cap:.0f} {demand_q}d<={demand_cap:.0f}"
    )


def test_matroid_count_at_n_1024(bench_counts):
    # exact ledger totals of the bench instance at seed 0, like the n = 256
    # pins of tests/test_cli.py; a change that moves them must say why
    assert bench_counts["matroid", 1024] == (6097, 0)


def _drop_wall(csv_text: str) -> list:
    # wall time is reported, never asserted; strip it before comparing
    rows = [line.split(",") for line in csv_text.strip().splitlines()]
    return [row[:3] for row in rows]


def test_criterion_09_determinism(tmp_path, capsys):
    """Same seed, same bytes: instance and sketch files are identical
    across runs, reports match, and serialization round-trips."""
    sides = []
    for side in ("a", "b"):
        root = tmp_path / side
        root.mkdir()
        inst, sk, csv_path = root / "inst.json", root / "sk.json", root / "bench.csv"
        assert cli_main(["gen", "--family", "xos-explicit", "--n", "10",
                         "--seed", "5", "--out", str(inst)]) == 0
        assert cli_main(["sketch", "--instance", str(inst),
                         "--pipeline", "subadditive", "--out", str(sk)]) == 0
        capsys.readouterr()
        assert cli_main(["eval", "--sketch", str(sk),
                         "--bundle", "3ff", "--bundle", "2a"]) == 0
        eval_out = capsys.readouterr().out
        assert cli_main(["bench", "--pipeline", "submodular", "--n", "8",
                         "--csv", str(csv_path)]) == 0
        capsys.readouterr()
        sides.append({
            "instance": inst.read_bytes(),
            "sketch": sk.read_bytes(),
            "eval": eval_out,
            "bench": _drop_wall(csv_path.read_text()),
        })
    identical = sides[0] == sides[1]
    # saved files end with a newline; the canonical payload does not
    text = sides[0]["sketch"].decode().rstrip("\n")
    roundtrip = vs.serialize(vs.deserialize(text)) == text
    ok = identical and roundtrip
    assert _line(9, "determinism", ok,
                 f"files identical={identical} roundtrip={roundtrip}")


def test_criterion_10_golden_trace():
    """The n = 4 free matroid, sketched with exact maximization and
    marginal clauses, reproduces the hand-derived sketch."""
    oracle = vs.UniformMatroidRank(4, 4)
    sketch = vs.build_sketch(oracle, brute_force(), vs.clause_marginal())
    cells = {
        (g.leader, f.k, f.r): f.members
        for g in sketch.groups
        for f in g.families
    }
    expected = {
        (0, 2, 2.0): [0b0011, 0b1100],
        (0, 4, 1.0): [0xF],
        (0, 4, 2.0): [0xF],
    }
    full_estimate = vs.evaluate(sketch, 0xF)
    queries = oracle.ledger.totals()
    ok = (
        cells == expected
        and full_estimate == 2.0
        and sketch.singletons == [1.0, 1.0, 1.0, 1.0]
        # 4 singletons; the group view holds them, so at (2, 2) 0b0011 and
        # 0b1100 cost 1 each, and at (4, 1) 0b0111 and 0xF cost 2
        and queries == (8, 0)
    )
    assert _line(10, "golden-trace", ok,
                 f"families {len(cells)}, full estimate {full_estimate}, queries {queries}")


def _singletons_only(sketch: vs.Sketch) -> np.ndarray:
    """max of v({j}) over j in S, for every bundle S: the estimate of a
    sketch without groups."""
    single = np.zeros(1 << sketch.n)
    for j, v in enumerate(sketch.singletons):
        halves = single.reshape(-1, 2, 1 << j)  # [:, 1] holds the bundles with j
        np.maximum(halves[:, 1], v, out=halves[:, 1])
    return single


def test_criterion_11_exhaustive_net(net):
    """At n = 14 and 16 every fixture is in its pipeline's class, keeps its
    invariants, never overestimates and stays within its certified bound.
    Per block, the member share is the share of nonzero bundles whose
    estimate beats the singletons-only one."""
    problems = []
    beats, nonzero, worst = {}, {}, {}
    for entry in net:
        tag = f"{entry.spec.family} n={entry.spec.n} seed={entry.spec.seed}"
        prop = vs.get_pipeline(entry.pipeline).property
        passed, witness = vs.validate_class(entry.truth, prop)
        report = vs.exhaustive_ratio_report(entry.truth, entry.sketch)
        violations = vs.family_invariant_check(entry.sketch)
        if not passed:
            problems.append(f"{tag}: class {prop} violated at {witness}")
        if violations:
            problems.append(f"{tag}: {violations[0]}")
        if not (report.sound and report.within_bound):
            problems.append(f"{tag}: max_over {report.max_over}, max_under {report.max_under} "
                            f"against bound {report.bound}")
        block = "matroid" if entry.pipeline == "matroid" else entry.spec.family
        pos = entry.truth > 0
        better = entry.estimate > _singletons_only(entry.sketch) * (1.0 + RELATIVE_TOL)
        beats[block] = beats.get(block, 0) + int(np.count_nonzero(better & pos))
        nonzero[block] = nonzero.get(block, 0) + int(np.count_nonzero(pos))
        worst[block] = max(worst.get(block, 1.0), report.max_under)
    shares = ", ".join(f"{b} {100.0 * beats[b] / nonzero[b]:.1f}% (max_under {worst[b]:.3f})"
                       for b in beats)
    ok = not problems
    assert _line(11, "exhaustive-net", ok,
                 f"{len(net)} fixtures; member share {shares}" if ok else problems[0])
