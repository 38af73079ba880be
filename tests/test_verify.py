"""Verification: the reference projections and core claim, ratio reports, invariants."""

import dataclasses
import inspect
import math
import os
import re
import subprocess
import sys

import pytest

import valsketch as vs
from valsketch import bitsets, cli
from valsketch.sketch import Sketch, SketchFamily, SketchGroup
from valsketch.verify import family_invariant_check

from reference import brute_force, check_core_claim, demand_pipeline_budgets, r_projection


class TestProjection:
    def test_bucket_placement(self):
        clause = vs.AdditiveClause(
            {0: 1.0, 1: 1.5, 2: 2.0, 3: 4.0, 4: 0.5, 5: 0.0}
        )
        proj = r_projection(clause)
        assert proj.buckets == {0: 0b00011, 1: 0b00100, 2: 0b01000, None: 0b10000}
        assert proj.mass == {0: 2.5, 1: 2.0, 2: 4.0, None: 0.5}
        assert proj.core() == (2, 0b01000)

    def test_core_tie_prefers_lower_level(self):
        proj = r_projection(vs.AdditiveClause({0: 1.0, 1: 1.0, 2: 2.0}))
        assert proj.mass == {0: 2.0, 1: 2.0}
        assert proj.core() == (0, 0b011)

    def test_underflow_never_forms_core(self):
        proj = r_projection(vs.AdditiveClause({0: 0.5, 1: 0.25}))
        assert proj.core() == (None, 0)

    def test_empty_clause(self):
        assert r_projection(vs.AdditiveClause({})).core() == (None, 0)


class TestCoreClaim:
    def test_small_uniform_weights_pass_after_rescaling(self):
        # raw weights of 0.25 would all underflow; normalization pins
        # them at level 0 and the whole support becomes the core
        oracle = vs.AdditiveValuation([0.25] * 4)
        clause = vs.AdditiveClause.uniform(0.25, 0b1111)
        ok, info = check_core_claim(oracle, clause, 1.0)
        assert ok
        assert info["core"] == 0b1111
        assert info["mass"] == 1.0

    def test_flags_inflated_weights(self):
        oracle = vs.AdditiveValuation([1.0, 1.0])
        ok, _ = check_core_claim(oracle, vs.AdditiveClause({0: 8.0}), 1.0)
        assert not ok

    def test_flags_clause_far_below_its_beta(self):
        # claims beta = 1 but retains 1% of the value: no bucket can
        # carry its required share
        oracle = vs.AdditiveValuation([1.0] * 4)
        clause = vs.AdditiveClause.uniform(0.01, 0b1111)
        ok, info = check_core_claim(oracle, clause, 1.0)
        assert not ok
        assert info["mass"] < info["required"]

    def test_large_beta_relaxes_requirement(self):
        oracle = vs.AdditiveValuation([1.0] * 4)
        clause = vs.AdditiveClause.uniform(0.01, 0b1111)
        ok, _ = check_core_claim(oracle, clause, 200.0)
        assert ok

    def test_empty_clause_passes(self):
        ok, info = check_core_claim(vs.AdditiveValuation([1.0]), vs.AdditiveClause({}), 1.0)
        assert ok and info["core"] == 0

    def test_holds_for_pipeline_clauses(self):
        oracle = vs.generate_instance("coverage", 8, 11).build(vs.QueryLedger())
        spec = vs.clause_marginal()
        for bundle in (0b11, 0b10110101, 0xFF):
            clause, beta = spec.clause(oracle, bundle)
            ok, info = check_core_claim(oracle, clause, beta)
            assert ok, info


def _loop_ratios(truth, est):
    """(max over, its bundle, max under, its bundle), one bundle at a time;
    a ratio must beat the best so far, so the first worst bundle wins."""
    max_over, argmax_over = 1.0, 0
    max_under, argmax_under = 1.0, 0
    for s in range(1, len(truth)):
        v, e = truth[s], est[s]
        if e > v:
            ratio = e / v if v > 0 else math.inf
            if ratio > max_over:
                max_over, argmax_over = ratio, s
        if v > 0:
            ratio = v / e if e > 0 else math.inf
            if ratio > max_under:
                max_under, argmax_under = ratio, s
    return max_over, argmax_over, max_under, argmax_under


class TestRatioReport:
    def test_honest_sketch_passes(self):
        oracle = vs.AdditiveValuation([1.0, 2.0, 4.0])
        sketch = vs.build_sketch(oracle, brute_force(), vs.clause_marginal())
        report = vs.exhaustive_ratio_report(vs.brute_reference_table(oracle), sketch)
        assert report.sound and report.within_bound
        assert report.max_over <= 1.0

    def test_inflated_singletons_break_soundness(self):
        oracle = vs.AdditiveValuation([1.0, 2.0, 4.0])
        fake = Sketch(n=3, singletons=[10.0, 20.0, 40.0], groups=[])
        report = vs.exhaustive_ratio_report(vs.brute_reference_table(oracle), fake)
        assert not report.sound
        assert report.max_over == 10.0

    def test_vacuous_sketch_misses_coverage(self):
        oracle = vs.AdditiveValuation([1.0, 2.0, 4.0])
        empty = Sketch(n=3, singletons=[0.0, 0.0, 0.0], groups=[])
        report = vs.exhaustive_ratio_report(vs.brute_reference_table(oracle), empty)
        assert report.sound and not report.within_bound
        assert report.max_under == float("inf")

    def test_matches_per_bundle_loop(self, corpus):
        """The worst ratios and the first bundles attaining them, as the
        per-bundle loop finds them, on corpus sketches and on unsound
        (tripled singletons) and empty variants of some."""
        for i, entry in enumerate(corpus):
            sketches = [entry.sketch]
            if i % 10 == 0:
                tripled = [3 * v for v in entry.sketch.singletons]
                sketches += [dataclasses.replace(entry.sketch, singletons=tripled),
                             Sketch(entry.oracle.n, [0.0] * entry.oracle.n, [])]
            for sketch in sketches:
                report = vs.exhaustive_ratio_report(entry.truth, sketch)
                got = (report.max_over, report.argmax_over, report.max_under, report.argmax_under)
                assert got == _loop_ratios(entry.truth.tolist(), vs.evaluate_all(sketch).tolist())

    def test_ground_set_mismatch(self):
        truth = vs.brute_reference_table(vs.AdditiveValuation([1.0, 2.0]))
        with pytest.raises(ValueError):
            vs.exhaustive_ratio_report(truth, Sketch(n=3, singletons=[0.0] * 3, groups=[]))

    def test_refuses_large_ground_sets(self):
        # the report reads a checked table, which stops at VALIDATE_LIMIT = 16
        with pytest.raises(vs.ScaleError):
            vs.brute_reference_table(vs.AdditiveValuation([1.0] * 17))


def one_group_sketch(n=4, singletons=None, **overrides):
    fields = dict(
        leader=0,
        items=bitsets.full_mask(n),
        scale=1.0,
        alpha=1.0,
        beta_certified=1.0,
        families=[SketchFamily(k=2, r=1.0, members=[0b0011, 0b1100])],
    )
    fields.update(overrides)
    return Sketch(
        n=n,
        singletons=list(singletons) if singletons is not None else [1.0] * n,
        groups=[SketchGroup(**fields)],
    )


class TestFamilyInvariants:
    def test_clean_sketch_has_no_violations(self):
        assert family_invariant_check(one_group_sketch()) == []

    @pytest.mark.parametrize(
        "overrides, needle",
        [
            ({"leader": 1, "items": 0b1101}, "leader outside"),
            ({"scale": 0.0}, "scale"),
            ({"alpha": 0.5}, "at least 1"),
            ({"families": [SketchFamily(2, 1.0, []), SketchFamily(2, 1.0, [0b11])]},
             "duplicate"),
            ({"families": [SketchFamily(2, 1.0, [])]}, "empty family"),
            ({"families": [SketchFamily(2, 1.0, [0b10000])]}, "leaves the group"),
            ({"families": [SketchFamily(1, 1.0, [0b0011])]}, "larger than k"),
            ({"families": [SketchFamily(2, 1.0, [0b0011, 0b0010])]}, "overlapping"),
            ({"alpha": 1e308}, "infinite certified bound"),
            ({"beta_certified": 1e200}, "infinite certified bound"),  # beta ** 3 overflows
        ],
    )
    def test_single_group_violations(self, overrides, needle):
        bad = family_invariant_check(one_group_sketch(**overrides))
        assert any(needle in b for b in bad), bad

    def test_certified_bound_takes_the_worst_alpha_and_beta_together(self):
        # each group alone has a finite bound; verify combines the worst
        # alpha of one with the worst beta of the other
        def sketch(*groups):
            return Sketch(n=4, singletons=[1.0] * 4, groups=list(groups))

        steep = SketchGroup(0, 0b0011, 1.0, 1e150, 1.0, [])
        loose = SketchGroup(2, 0b1100, 1.0, 1.0, 1e100, [])
        assert vs.sketch.sketch_errors(sketch(steep)) == []
        assert vs.sketch.sketch_errors(sketch(loose)) == []
        assert vs.sketch.sketch_errors(sketch(steep, loose)) == [
            "the groups' alpha and beta give an infinite certified bound"]

    def test_singleton_spread_violation(self):
        bad = family_invariant_check(one_group_sketch(singletons=[100.0, 1.0, 1.0, 1.0]))
        assert any("spread" in b for b in bad)

    def test_family_size_limit(self):
        n = 100
        members = [1 << j for j in range(50)]
        sketch = Sketch(
            n=n,
            singletons=[1.0] * n,
            groups=[SketchGroup(0, bitsets.full_mask(n), 1.0, 1.0, 1.0,
                                [SketchFamily(1, 1.0, members)])],
        )
        bad = family_invariant_check(sketch)
        assert any("limit 41" in b for b in bad), bad

    def test_membership_limit(self):
        # base 2, spread 16: the cap works out to 6 groups per item
        group = SketchGroup(0, 0b1, 1.0, 1.0, 1.0, [])
        sketch = Sketch(n=4, singletons=[1.0, 0.0, 0.0, 0.0], groups=[group] * 7)
        bad = family_invariant_check(sketch)
        assert any("belongs to 7 groups" in b for b in bad), bad
        ok = Sketch(n=4, singletons=[1.0, 0.0, 0.0, 0.0], groups=[group] * 6)
        assert family_invariant_check(ok) == []

    def test_uncovered_positive_item(self):
        sketch = Sketch(n=2, singletons=[1.0, 1.0], groups=[])
        bad = family_invariant_check(sketch)
        assert any("no group" in b for b in bad)

    def test_singleton_length_mismatch(self):
        sketch = Sketch(n=2, singletons=[1.0], groups=[])
        assert any("length" in b for b in family_invariant_check(sketch))


class TestBudgets:
    def test_frozen_demand_pipeline_budgets(self):
        assert demand_pipeline_budgets(1024) == (720896.0, 2725888.0)
        assert demand_pipeline_budgets(256) == (147456.0, 746496.0)


class TestBruteHelpers:
    def test_reference_table_scale_guard(self):
        with pytest.raises(vs.ScaleError):
            vs.brute_reference_table(vs.AdditiveValuation([1.0] * 21))

    @pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
    def test_reference_table_refuses_a_bad_value_as_value_does(self, bad):
        oracle = vs.AdditiveValuation([1.0, 2.0])
        oracle._value = lambda bundle: bad if bundle == 0b10 else 1.0
        with pytest.raises(ValueError) as counted:
            oracle.value(0b10)
        with pytest.raises(ValueError) as table:
            vs.brute_reference_table(oracle)
        assert str(table.value) == str(counted.value)
        assert str(table.value).startswith(f"AdditiveValuation valued bundle 2 at {bad!r};")


@pytest.mark.parametrize("n", [1, 2, 8, 12, 16])
@pytest.mark.parametrize("name", sorted(vs.PIPELINES))
def test_bench_instances_lie_in_their_pipelines_class(name, n):
    """Each pipeline's bench instance is in the class it is certified for,
    so a bench row measures the pipeline where its factor holds."""
    truth = vs.brute_reference_table(vs.bench_instance(name, n).build())
    passed, witness = vs.validate_class(truth, vs.get_pipeline(name).property)
    assert passed, (name, n, witness)


def test_package_holds_only_what_the_system_runs():
    """Test-only routines live in tests/reference.py; src/ never reaches for them."""
    for name in ("greedy_classic", "clause_brute_uniform", "check_core_claim", "r_projection",
                 "demand_pipeline_budgets", "query_budget_check", "max_value_bundles"):
        assert not hasattr(vs, name), name
    # demand has one form, a uniform price on a bundle; views are made as OracleView
    assert not hasattr(vs, "EXCLUDED") and not hasattr(vs.valuations, "EXCLUDED")
    assert not hasattr(vs.valuations, "_demand_brute")
    assert not hasattr(vs.ValuationOracle, "restrict")
    # a cardinality spec is one callable and its alpha; the group view remembers answers
    assert not hasattr(vs.cardinality, "take_step")
    # the view only remembers and converts; the root oracle counts, checks and names
    oracle = vs.AdditiveValuation([1.0, 2.0])
    view = vs.valuations.OracleView(oracle, 2.0)
    assert not isinstance(view, vs.ValuationOracle)
    assert list(inspect.signature(vs.valuations.OracleView).parameters) == ["parent", "scale"]
    for name in ("_answerer", "_reach"):
        assert not hasattr(oracle, name), name
    for name in ("_demand_uniform", "has_demand", "ledger", "mask", "n"):
        assert not hasattr(view, name), name
    # bit counts come from numpy; each subparser carries its handler
    assert not hasattr(vs.valuations, "popcount_table")
    assert not hasattr(cli, "_COMMANDS")
    for name in ("weight", "total"):  # a clause's weights dict and value() serve tests too
        assert not hasattr(vs.AdditiveClause, name), name
    # coverage remembers its recent answers in one memo; floats are written exactly
    for name in ("_CoverUnions", "_WordUnions"):
        assert not hasattr(vs.valuations, name), name
    coverage = vs.CoverageValuation([1.0], [[0]])
    for name in ("_unions", "_words", "_read_words", "_word_bytes"):
        assert not hasattr(coverage, name), name
    assert not hasattr(vs.sketch, "_canon")
    assert "xos-consistent" not in vs.verify.PROPERTIES  # tests/reference.py checks it
    # the class check is verification: it reads the checked reference table
    for name in ("validate_class", "PROPERTIES", "VALIDATE_LIMIT"):
        assert not hasattr(vs.instances, name), name
    # a table is checked in full at every size it may have, VALIDATE_LIMIT
    assert not hasattr(vs.SubadditiveTableValuation, "FULL_CHECK_LIMIT")
    assert [f.name for f in dataclasses.fields(vs.CardOracleSpec)] == ["run", "alpha",
                                                                       "needs_demand"]
    for name in ("brute_reference_table", "exhaustive_ratio_report",
                 "family_invariant_check", "validate_class"):
        assert callable(getattr(vs, name)), name
    # the exact maximizer counts no query, so it is a test reference, not a pipeline
    assert "brute" not in vs.PIPELINES
    for name in ("brute_force", "brute_opt_k"):
        assert not hasattr(vs, name) and not hasattr(vs.cardinality, name), name
    src = os.path.dirname(os.path.abspath(vs.__file__))
    pattern = re.compile(r"^\s*(from|import)\s+(reference|tests|conftest)\b", re.M)
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py"):
            with open(os.path.join(src, fname)) as fh:
                assert not pattern.search(fh.read()), fname


def test_verify_corpus_script_smoke():
    """scripts/verify_corpus.py runs the invariant and ratio checks end to end."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "verify_corpus.py"),
         "--limit", "8", "--quiet"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "checked 8 fixtures: 0 failures" in proc.stdout
    assert re.search(r", queries \d+ value, \d+ demand\n\Z", proc.stdout), proc.stdout


def test_verify_corpus_script_checks_the_net_sizes():
    """--sizes checks the corpus's four blocks at each size, seeds 0-3, as the net fixture does."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "verify_corpus.py"),
         "--sizes", "14", "--quiet"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == ("checked 16 fixtures: 0 failures, worst ratio 6.000, at most 2 groups, "
                           "queries 780 value, 577 demand\n")
