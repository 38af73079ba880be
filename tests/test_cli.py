"""End-to-end command line coverage: gen, sketch, eval, verify, bench."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import pytest

import valsketch as vs
from valsketch import cli
from valsketch.cli import main
from valsketch.instances import FAMILIES

HUGE_ID = 10 ** 8


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_writes_loadable_instance(self, capsys, tmp_path):
        out = tmp_path / "inst.json"
        code, text, _ = run(capsys, "gen", "--family", "coverage", "--n", "8",
                            "--seed", "3", "--out", str(out))
        assert code == 0 and "wrote" in text
        spec = vs.load_instance(str(out))
        assert (spec.family, spec.n, spec.seed) == ("coverage", 8, 3)

    def test_param_override(self, capsys, tmp_path):
        out = tmp_path / "inst.json"
        code, _, _ = run(capsys, "gen", "--family", "coverage", "--n", "6",
                         "--out", str(out), "--param", "universe=10")
        assert code == 0
        assert vs.load_instance(str(out)).params["universe"] == 10

    def test_param_without_equals(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "--family", "coverage", "--n", "6",
                           "--out", str(tmp_path / "x.json"), "--param", "universe")
        assert code == 2 and "error:" in err

    def test_unknown_family_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--family", "nope", "--n", "4", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_unknown_param_key(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "--family", "coverage", "--n", "6",
                           "--out", str(tmp_path / "x.json"), "--param", "bogus=1")
        assert code == 2 and "bogus" in err

    @pytest.mark.parametrize("family, param", [
        ("xos-explicit", "clauses=1.5"),
        ("coverage", 'universe="a"'),
        ("xos-explicit", "clauses=0"),  # an instance that sketch would refuse
        ("xos-explicit", "support=0"),
        ("coverage", "universe=0"),
        ("partition-matroid", "block_size=0"),
        ("xos-explicit", "clauses=true"),
    ])
    def test_bad_int_param_is_named(self, capsys, tmp_path, family, param):
        out = tmp_path / "x.json"
        code, _, err = run(capsys, "gen", "--family", family, "--n", "5",
                           "--out", str(out), "--param", param)
        name = param.partition("=")[0]
        assert code == 2 and f"error: {family} parameter {name} must be an int" in err
        assert not out.exists()

    def test_huge_clause_count_is_refused_before_generating(self, capsys, tmp_path):
        # about 270 B per generated clause: 10^8 clauses would ask for about 27 GB
        out = tmp_path / "x.json"
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "gen", "--family", "xos-explicit", "--n", "4",
                               "--out", str(out), "--param", "clauses=100000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and "error: xos-explicit parameter clauses must be an int in 1..10000" in err
        assert peak < 1_000_000 and not out.exists()

    def test_xos_clause_entries_are_bounded_before_generating(self, capsys, tmp_path):
        # the defaults grow as n^2 / 4 entries: at n = 4,096 that is 2,048 clauses
        # of up to 2,048 items, about 170 MB drawn
        out = tmp_path / "x.json"
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "gen", "--family", "xos-explicit", "--n", "4096",
                               "--out", str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and "error: xos-explicit would draw up to 2048 clauses" in err
        assert peak < 1_000_000 and not out.exists()
        # the benchmark recipe stays well inside the bound
        spec = vs.generate_instance("xos-explicit", 2048, 0, clauses=24, support=256,
                                    uniform=True)
        assert len(spec.params["clauses"]) == 24

    def test_huge_n_is_refused_before_generating(self, capsys, tmp_path):
        # about 208 B per coverage item: n = 10^8 would ask for about 20 GB
        out = tmp_path / "x.json"
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "gen", "--family", "coverage", "--n", "100000000",
                               "--out", str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and "error: n must lie in 1..65536, got 100000000" in err
        assert peak < 1_000_000 and not out.exists()


class TestPipelineChain:
    def test_gen_sketch_eval_verify(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        sk = tmp_path / "sketch.json"
        assert run(capsys, "gen", "--family", "coverage", "--n", "8",
                   "--seed", "3", "--out", str(inst))[0] == 0

        code, text, _ = run(capsys, "sketch", "--instance", str(inst),
                            "--pipeline", "submodular", "--out", str(sk))
        assert code == 0
        assert "n=8" in text and "value_queries=" in text

        code, text, _ = run(capsys, "eval", "--sketch", str(sk),
                            "--bundle", "ff", "--bundle", "1")
        assert code == 0
        lines = text.strip().splitlines()
        assert len(lines) == 2
        mask, value = lines[0].split()
        # echoed masks use the bare hex of the file format
        assert mask == "ff" and float(value) > 0

        code, text, _ = run(capsys, "verify", "--instance", str(inst),
                            "--pipeline", "submodular", "--sketch", str(sk))
        assert code == 0
        assert "class submodular: ok" in text
        assert "invariants: ok" in text
        assert text.strip().endswith("PASS")

    def test_verify_rebuilds_when_no_sketch_given(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        run(capsys, "gen", "--family", "partition-matroid", "--n", "8", "--out", str(inst))
        code, text, _ = run(capsys, "verify", "--instance", str(inst),
                            "--pipeline", "matroid")
        assert code == 0 and "class matroid-rank: ok" in text and "PASS" in text

    def test_verify_certifies_the_matroid_pipeline_only_on_matroid_ranks(self, capsys,
                                                                         tmp_path):
        # the matroid maximizer's alpha = 1 holds on matroid rank functions only:
        # coverage is submodular, but a marginal can exceed 1
        inst = tmp_path / "inst.json"
        run(capsys, "gen", "--family", "coverage", "--n", "10", "--seed", "3", "--out", str(inst))
        code, text, _ = run(capsys, "verify", "--instance", str(inst), "--pipeline", "matroid")
        assert code == 1
        assert re.search(r"^class matroid-rank: violated at \(\d+, \d+\)$", text, re.M)
        assert text.strip().endswith("FAIL")

    def test_verify_flags_tampered_sketch(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        sk = tmp_path / "sketch.json"
        run(capsys, "gen", "--family", "coverage", "--n", "6", "--out", str(inst))
        run(capsys, "sketch", "--instance", str(inst),
            "--pipeline", "submodular", "--out", str(sk))
        payload = json.loads(sk.read_text())
        payload["singletons"] = [w * 10 for w in payload["singletons"]]
        sk.write_text(json.dumps(payload))
        code, text, _ = run(capsys, "verify", "--instance", str(inst),
                            "--pipeline", "submodular", "--sketch", str(sk))
        assert code == 1
        assert "soundness" in text and "VIOLATED" in text
        assert text.strip().endswith("FAIL")
        truth = vs.brute_reference_table(vs.load_instance(str(inst)).build())
        report = vs.exhaustive_ratio_report(truth, vs.load_sketch(str(sk)))
        assert report.argmax_over > 0
        over = re.search(r"soundness: max_over=\S+ at ([0-9a-f]+) VIOLATED", text)
        under = re.search(r"coverage: max_under=\S+ at ([0-9a-f]+) bound=", text)
        assert int(over.group(1), 16) == report.argmax_over
        assert int(under.group(1), 16) == report.argmax_under

    @pytest.mark.parametrize("family, pipeline, prop", [("coverage", "submodular", "submodular"),
                                                        ("partition-matroid", "matroid",
                                                         "matroid-rank")])
    def test_verify_checks_at_the_size_limit_and_refuses_beyond(self, capsys, tmp_path,
                                                                monkeypatch, family, pipeline,
                                                                prop):
        """Beyond the limit verify exits 2 before it builds or loads a sketch."""
        def refuse(*args):
            raise AssertionError("verify built or loaded a sketch")

        inst = tmp_path / "inst.json"
        sk = tmp_path / "sketch.json"
        limit = vs.verify.VALIDATE_LIMIT
        run(capsys, "gen", "--family", family, "--n", str(limit), "--out", str(inst))
        run(capsys, "sketch", "--instance", str(inst), "--pipeline", pipeline, "--out", str(sk))
        code, text, _ = run(capsys, "verify", "--instance", str(inst), "--pipeline", pipeline)
        assert code == 0 and f"class {prop}: ok" in text and text.strip().endswith("PASS")
        run(capsys, "gen", "--family", family, "--n", str(limit + 1), "--out", str(inst))
        monkeypatch.setattr(cli, "build_sketch", refuse)
        monkeypatch.setattr(cli, "load_sketch", refuse)
        for extra in ((), ("--sketch", str(sk))):
            code, text, err = run(capsys, "verify", "--instance", str(inst),
                                  "--pipeline", pipeline, *extra)
            assert code == 2 and text == "", extra
            assert f"need n <= {limit}, got n={limit + 1}" in err, extra

    def test_table_family_stops_at_the_size_limit(self, capsys, tmp_path):
        """Tables are generated, checked and verified at exactly the sizes
        verify enumerates: gen at the limit passes verify, one more exits 2."""
        inst = tmp_path / "inst.json"
        limit = vs.verify.VALIDATE_LIMIT
        assert run(capsys, "gen", "--family", "subadditive-table", "--n", str(limit),
                   "--out", str(inst))[0] == 0
        code, text, _ = run(capsys, "verify", "--instance", str(inst), "--pipeline", "subadditive")
        assert code == 0 and "class subadditive: ok" in text and text.strip().endswith("PASS")
        code, _, err = run(capsys, "gen", "--family", "subadditive-table", "--n", str(limit + 1),
                           "--out", str(tmp_path / "big.json"))
        assert code == 2 and f"generated only up to n = {limit}" in err
        assert not (tmp_path / "big.json").exists()

    def test_sketch_refuses_a_table_that_is_not_subadditive(self, capsys, tmp_path):
        """v(S) = |S|^2 on 14 items is monotone but not subadditive: the
        sketch command exits 2 naming the first failing split, and writes
        no sketch."""
        inst = tmp_path / "inst.json"
        sk = tmp_path / "sketch.json"
        table = [float(s.bit_count() ** 2) for s in range(1 << 14)]
        vs.save_instance(vs.InstanceSpec("subadditive-table", 14, {"table": table}, 0), str(inst))
        code, text, err = run(capsys, "sketch", "--instance", str(inst),
                              "--pipeline", "subadditive", "--out", str(sk))
        assert code == 2 and text == ""
        assert "not subadditive: v(0x1) + v(0x2) < v(0x3)" in err
        assert not sk.exists()

    def test_verify_refuses_a_true_value_that_overflows(self, capsys, tmp_path):
        """Each weight is finite, their sum is not: the true table holds inf,
        which is bad input (exit 2), not a failed check (exit 1)."""
        inst = tmp_path / "inst.json"
        sk = tmp_path / "sketch.json"
        vs.save_instance(vs.InstanceSpec("additive", 2, {"weights": [1.0, 1.0]}), str(inst))
        run(capsys, "sketch", "--instance", str(inst), "--pipeline", "submodular",
            "--out", str(sk))
        vs.save_instance(vs.InstanceSpec("additive", 2, {"weights": [1e308, 1e308]}), str(inst))
        for extra in ((), ("--sketch", str(sk))):
            code, text, err = run(capsys, "verify", "--instance", str(inst),
                                  "--pipeline", "submodular", *extra)
            assert code == 2 and text == "", extra
            assert "AdditiveValuation valued bundle 3 at inf; values must be finite" in err

    def test_incompatible_pipeline(self, capsys, tmp_path):
        """Every oracle answers demand by enumeration up to ENUM_LIMIT = 22
        items, so only a larger n shows the refusal; verify refuses such an n
        before it builds."""
        inst = tmp_path / "inst.json"
        run(capsys, "gen", "--family", "uniform-matroid", "--n", "30", "--out", str(inst))
        code, _, err = run(capsys, "sketch", "--instance", str(inst),
                           "--pipeline", "subadditive", "--out", str(tmp_path / "s.json"))
        assert code == 2 and "demand" in err
        code, _, err = run(capsys, "verify", "--instance", str(inst),
                           "--pipeline", "subadditive")
        assert code == 2 and f"need n <= {vs.verify.VALIDATE_LIMIT}" in err

    @pytest.mark.parametrize("extra", [False, True])
    def test_verify_builds_the_true_table_once(self, capsys, tmp_path, monkeypatch, extra):
        inst = tmp_path / "inst.json"
        sk = tmp_path / "sketch.json"
        run(capsys, "gen", "--family", "coverage", "--n", "8", "--out", str(inst))
        run(capsys, "sketch", "--instance", str(inst), "--pipeline", "submodular",
            "--out", str(sk))
        calls = []

        def counted(oracle):
            calls.append(oracle.n)
            return vs.brute_reference_table(oracle)

        monkeypatch.setattr(cli, "brute_reference_table", counted)
        code, text, _ = run(capsys, "verify", "--instance", str(inst), "--pipeline",
                            "submodular", *(("--sketch", str(sk)) if extra else ()))
        assert code == 0 and text.strip().endswith("PASS") and calls == [8]

    def test_verify_prints_nothing_for_a_sketch_of_another_n(self, capsys, tmp_path):
        small = tmp_path / "small.json"
        inst = tmp_path / "inst.json"
        sk = tmp_path / "sketch.json"
        run(capsys, "gen", "--family", "coverage", "--n", "8", "--out", str(small))
        run(capsys, "sketch", "--instance", str(small), "--pipeline", "submodular",
            "--out", str(sk))
        run(capsys, "gen", "--family", "coverage", "--n", "9", "--out", str(inst))
        code, text, err = run(capsys, "verify", "--instance", str(inst),
                              "--pipeline", "submodular", "--sketch", str(sk))
        assert code == 2 and text == ""
        assert "sketch was built for a different ground set" in err

    def test_missing_instance_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "sketch", "--instance", str(tmp_path / "absent.json"),
                           "--pipeline", "brute", "--out", str(tmp_path / "s.json"))
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize(
        "body",
        [
            {"schema_version": 1, "family": "additive", "n": 2, "seed": 0},  # no params
            {"schema_version": 1, "family": "partition-matroid", "n": 2, "seed": 0,
             "params": {"blocks": [[0], [1]], "caps": [1, "x"]}},
            {"schema_version": 1, "family": "additive", "n": 2, "seed": 0, "params": [1, 2, 3]},
            {"schema_version": 1, "family": "xos-explicit", "n": 2, "seed": 0,
             "params": {"clauses": [[1]]}},
            5,
            {"schema_version": 1, "family": "additive", "n": 3, "seed": 0,
             "params": {"weights": [1, 2]}},
            {"schema_version": 1, "family": "additive", "n": 2.9, "seed": 0,
             "params": {"weights": [1, 2]}},
            {"schema_version": 1, "family": "additive", "n": "2", "seed": 0,
             "params": {"weights": [1, 2]}},
            {"schema_version": 1, "family": "additive", "n": True, "seed": 0,
             "params": {"weights": [1]}},
            {"schema_version": 1, "family": "additive", "n": 0, "seed": 0,
             "params": {"weights": []}},
            {"schema_version": 1, "family": "uniform-matroid", "n": 65_537, "seed": 0,
             "params": {"cap": 1}},  # a few bytes that would build over 65,537 items
            {"schema_version": 1, "family": "additive", "n": 2, "seed": 1.5,
             "params": {"weights": [1, 2]}},
            {"schema_version": 1, "family": "additive", "n": 2, "seed": False,
             "params": {"weights": [1, 2]}},
            {"schema_version": 1, "family": "additive", "n": 2,
             "params": {"weights": [1, 2]}},  # no seed
            {"schema_version": 99, "family": "additive", "n": 2, "seed": 0,
             "params": {"weights": [1, 2]}},
            {"schema_version": True, "family": "additive", "n": 2, "seed": 0,
             "params": {"weights": [1, 2]}},
            {"family": "additive", "n": 2, "seed": 0, "params": {"weights": [1, 2]}},
            {"schema_version": 1, "family": "coverage", "n": 2, "seed": 0,
             "params": {"universe": 2, "covers": [[0, -1], [1]]}},
            {"schema_version": 1, "family": "partition-matroid", "n": 2, "seed": 0,
             "params": {"blocks": [[0, -1], [1]], "caps": [1, 1]}},
            {"schema_version": 1, "family": "xos-explicit", "n": 2, "seed": 0,
             "params": {"clauses": [{"0": 1, "1": 1}, {"-1": 2}]}},
            {"schema_version": 1, "family": "coverage", "n": 3, "seed": 0,
             "params": {"universe": 2, "covers": [[0], [1], [True]]}},
            {"schema_version": 1, "family": "subadditive-table", "n": 2, "seed": 0,
             "params": {"table": 1}},
            {"schema_version": 1, "family": "subadditive-table", "n": 2, "seed": 0,
             "params": {"table": [[0, 1], [1, 2]]}},
            {"schema_version": 1, "family": "graphic-matroid", "n": 2, "seed": 0,
             "params": {"vertices": 1e308, "edges": [[0, 1], [1, 2]]}},
            {"schema_version": 1, "family": "graphic-matroid", "n": 2, "seed": 0,
             "params": {"vertices": True, "edges": [[0, 0], [0, 0]]}},
            # int() would truncate these to edges (0, 1), (1, 2), cap 2 and caps [1, 1]
            {"schema_version": 1, "family": "graphic-matroid", "n": 2, "seed": 0,
             "params": {"vertices": 3, "edges": [[0.5, 1], [True, 2.9]]}},
            {"schema_version": 1, "family": "uniform-matroid", "n": 3, "seed": 0,
             "params": {"cap": 2.7}},
            {"schema_version": 1, "family": "partition-matroid", "n": 2, "seed": 0,
             "params": {"blocks": [[0], [1]], "caps": [1.5, True]}},
            # float() and numpy would read these strings and bools as numbers
            {"schema_version": 1, "family": "xos-explicit", "n": 2, "seed": 0,
             "params": {"clauses": [{"0": 1, "1": "7"}]}},
            {"schema_version": 1, "family": "xos-explicit", "n": 2, "seed": 0,
             "params": {"clauses": [{"0": 1, "1": True}]}},
            # int() would read these keys as items 10 and 1, and merge "01" into "1"
            {"schema_version": 1, "family": "xos-explicit", "n": 11, "seed": 0,
             "params": {"clauses": [{"0": 1}, {"1_0": 2}]}},
            {"schema_version": 1, "family": "xos-explicit", "n": 2, "seed": 0,
             "params": {"clauses": [{"0": 1}, {" 1": 2}]}},
            {"schema_version": 1, "family": "xos-explicit", "n": 2, "seed": 0,
             "params": {"clauses": [{"0": 1}, {"1": 2, "01": 5}]}},
            {"schema_version": 1, "family": "additive", "n": 3, "seed": 0,
             "params": {"weights": ["1", 2, 3]}},
            {"schema_version": 1, "family": "additive", "n": 3, "seed": 0,
             "params": {"weights": [True, 2, 3]}},
            {"schema_version": 1, "family": "subadditive-table", "n": 1, "seed": 0,
             "params": {"table": [0, "1"]}},
            {"schema_version": 1, "family": "subadditive-table", "n": 1, "seed": 0,
             "params": {"table": [0, True]}},
            {"schema_version": 1, "family": "coverage", "n": 2, "seed": 0,
             "params": {"universe": True, "covers": [[0], [0]]}},
            # a key the family does not take is refused, not ignored
            {"schema_version": 1, "family": "coverage", "n": 2, "seed": 0,
             "params": {"universe": 2, "covers": [[0], [1]], "weights": [1]}},
            {"schema_version": 1, "family": "additive", "n": 2, "seed": 0,
             "params": {"weights": [1, 2], "low": 1}},
            {"schema_version": 1, "family": "uniform-matroid", "n": 2, "seed": 0,
             "params": {"cap": 1, "caps": [1]}},
            {"schema_version": 1, "family": "partition-matroid", "n": 2, "seed": 0,
             "params": {"blocks": [[0], [1]], "caps": [1, 1], "block_size": 1}},
            {"schema_version": 1, "family": "graphic-matroid", "n": 1, "seed": 0,
             "params": {"vertices": 2, "edges": [[0, 1]], "weights": [1]}},
            {"schema_version": 1, "family": "xos-explicit", "n": 2, "seed": 0,
             "params": {"clauses": [{"0": 1}], "uniform": True}},
            {"schema_version": 1, "family": "subadditive-table", "n": 1, "seed": 0,
             "params": {"table": [0, 1], "high": 8}},
        ],
        ids=["no-params", "cap-str", "params-list", "clause-list", "top-level-int",
             "n-differs", "n-float", "n-str", "n-bool", "n-zero", "n-past-max", "seed-float",
             "seed-bool", "no-seed", "schema-99", "schema-bool", "no-schema",
             "cover-negative", "block-negative", "clause-key-negative", "cover-bool",
             "table-scalar", "table-2d", "vertices-float", "vertices-bool",
             "edge-ends-float-bool", "cap-float", "caps-float-bool", "clause-weight-str",
             "clause-weight-bool", "clause-key-underscore", "clause-key-space",
             "clause-keys-merge", "weights-str", "weights-bool", "table-str", "table-bool",
             "universe-bool", "coverage-extra", "additive-extra", "uniform-extra",
             "partition-extra", "graphic-extra", "xos-extra", "table-extra"],
    )
    def test_sketch_rejects_malformed_instance(self, capsys, tmp_path, body):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(body))
        code, _, err = run(capsys, "sketch", "--instance", str(inst), "--pipeline", "brute",
                           "--out", str(tmp_path / "s.json"))
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize(
        "family, params, what",
        [
            ("coverage", {"universe": 2, "covers": [[0], [HUGE_ID]]}, "cover element"),
            ("partition-matroid", {"blocks": [[0], [HUGE_ID]], "caps": [1, 1]}, "block item"),
            ("xos-explicit", {"clauses": [{"0": 1}, {str(HUGE_ID): 2}]}, "clause item"),
        ],
        ids=["cover", "block", "clause-key"],
    )
    def test_sketch_refuses_huge_item_id_before_shifting(self, capsys, tmp_path,
                                                         family, params, what):
        # 1 << HUGE_ID alone is a 12.5 MB int; the id is refused before it is built
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"schema_version": 1, "family": family, "n": 2,
                                    "seed": 0, "params": params}))
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "sketch", "--instance", str(inst),
                               "--pipeline", "brute", "--out", str(tmp_path / "s.json"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and f"error: {what} {HUGE_ID} is outside 0..1" in err
        assert peak < 1_000_000

    def test_sketch_with_huge_coverage_universe_allocates_only_the_covers(self, capsys,
                                                                         tmp_path):
        # one weight per universe element would be 16 MB per million elements;
        # elements outside every cover never count, so none is allocated
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"schema_version": 1, "family": "coverage", "n": 4,
                                    "seed": 0, "params": {"universe": 2_000_000,
                                                          "covers": [[0, 1], [1], [2, 5], []]}}))
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, "sketch", "--instance", str(inst),
                             "--pipeline", "brute", "--out", str(tmp_path / "s.json"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 1_000_000

    def test_graphic_matroid_with_huge_vertex_count_builds_like_a_small_one(self, capsys,
                                                                           tmp_path):
        # one union-find slot per named vertex would be about 36 MB per query
        # at 10^6 vertices; only the 4 vertices the edges use get one
        edges = [[0, 1], [1, 2], [2, 3], [0, 3], [0, 2], [1, 3]]
        texts = []
        for vertices in (4, 10 ** 6):
            inst = tmp_path / f"inst-{vertices}.json"
            inst.write_text(json.dumps({"schema_version": 1, "family": "graphic-matroid",
                                        "n": 6, "seed": 0,
                                        "params": {"vertices": vertices, "edges": edges}}))
            out = tmp_path / f"s-{vertices}.json"
            tracemalloc.start()
            try:
                code, _, _ = run(capsys, "sketch", "--instance", str(inst),
                                 "--pipeline", "matroid", "--out", str(out))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0 and peak < 1_000_000
            texts.append(out.read_text())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("field, value", [("alpha", 1e308), ("beta", 1e200)])
    def test_eval_and_verify_refuse_an_infinite_certified_bound(self, capsys, tmp_path,
                                                                field, value):
        inst = tmp_path / "inst.json"
        sk = tmp_path / "sketch.json"
        run(capsys, "gen", "--family", "additive", "--n", "4", "--out", str(inst))
        run(capsys, "sketch", "--instance", str(inst), "--pipeline", "brute",
            "--out", str(sk))
        payload = json.loads(sk.read_text())
        payload["groups"][0][field] = value
        sk.write_text(json.dumps(payload))
        message = "infinite certified bound"
        code, _, err = run(capsys, "eval", "--sketch", str(sk), "--bundle", "1")
        assert code == 2 and message in err
        code, _, err = run(capsys, "verify", "--instance", str(inst),
                           "--pipeline", "brute", "--sketch", str(sk))
        assert code == 2 and message in err

    @pytest.mark.parametrize("family", FAMILIES)
    def test_gen_output_loads_and_builds(self, capsys, tmp_path, family):
        inst = tmp_path / "inst.json"
        assert run(capsys, "gen", "--family", family, "--n", "6", "--out", str(inst))[0] == 0
        assert vs.load_instance(str(inst)).build().n == 6

    def test_eval_rejects_foreign_bundle(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        sk = tmp_path / "sketch.json"
        run(capsys, "gen", "--family", "additive", "--n", "4", "--out", str(inst))
        run(capsys, "sketch", "--instance", str(inst), "--pipeline", "brute",
            "--out", str(sk))
        code, _, err = run(capsys, "eval", "--sketch", str(sk), "--bundle", "0xffff")
        assert code == 2 and "error:" in err
        # no hex at all, or in range but not the bare hex of the file format
        for text in ("zz", "", "0x", "0x3"):
            code, out, err = run(capsys, "eval", "--sketch", str(sk), "--bundle", text)
            assert code == 2 and out == ""
            assert err == f"error: bundle {text!r} is not bare lowercase hex\n"

    @pytest.mark.parametrize("bad", ["0x3", "2"])  # a bad hex; a bundle past item 0
    def test_eval_prints_nothing_before_a_bad_bundle(self, capsys, tmp_path, bad):
        """Every bundle is checked before the first estimate is printed."""
        inst = tmp_path / "inst.json"
        sk = tmp_path / "sketch.json"
        run(capsys, "gen", "--family", "additive", "--n", "1", "--out", str(inst))
        run(capsys, "sketch", "--instance", str(inst), "--pipeline", "brute", "--out", str(sk))
        code, out, _ = run(capsys, "eval", "--sketch", str(sk), "--bundle", "1")
        assert code == 0 and out.startswith("1 ")
        code, out, err = run(capsys, "eval", "--sketch", str(sk), "--bundle", "1", "--bundle", bad)
        assert code == 2 and out == "" and err.startswith("error:")

    def test_sketch_rejects_bad_oracle_output(self, capsys, tmp_path, monkeypatch):
        inst = tmp_path / "inst.json"
        run(capsys, "gen", "--family", "additive", "--n", "4", "--out", str(inst))
        monkeypatch.setattr(vs.AdditiveValuation, "_value", lambda self, bundle: float("nan"))
        code, _, err = run(capsys, "sketch", "--instance", str(inst), "--pipeline", "brute",
                           "--out", str(tmp_path / "s.json"))
        assert code == 2 and "AdditiveValuation valued bundle" in err

    def test_verify_rejects_contract_breaking_sketch(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        sk = tmp_path / "sketch.json"
        run(capsys, "gen", "--family", "additive", "--n", "4", "--out", str(inst))
        run(capsys, "sketch", "--instance", str(inst), "--pipeline", "brute",
            "--out", str(sk))
        payload = json.loads(sk.read_text())
        payload["groups"][0]["leader"] = 4  # outside the ground set, so outside the group
        sk.write_text(json.dumps(payload))
        code, _, err = run(capsys, "verify", "--instance", str(inst),
                           "--pipeline", "brute", "--sketch", str(sk))
        assert code == 2 and "leader outside the group" in err

    def test_a_sketch_whose_unit_overflows_is_refused_at_load(self, capsys, tmp_path):
        """scale 1e10 and r = 1e300 are each finite, but the member unit
        r / 4 * scale is not: eval and verify refuse the file as they load
        it, naming the cell, not when the kernel compiles it."""
        inst = tmp_path / "inst.json"
        sk = tmp_path / "sketch.json"
        run(capsys, "gen", "--family", "additive", "--n", "2", "--out", str(inst))
        group = {"leader": 0, "items": "3", "scale": 1e10, "alpha": 1.0, "beta": 1.0,
                 "families": [{"k": 1, "r": 1e300, "members": ["1"]}]}
        sk.write_text(json.dumps({
            "schema_version": 1, "kind": "valuation-sketch", "n": 2,
            "singletons": [1.0, 1.0], "groups": [group], "build_queries": None,
        }))
        needle = "member unit r / (4 alpha beta) * scale overflows at k=1 r=1e+300"
        for argv in (("eval", "--sketch", str(sk), "--bundle", "1"),
                     ("verify", "--instance", str(inst), "--pipeline", "brute",
                      "--sketch", str(sk))):
            code, out, err = run(capsys, *argv)
            assert code == 2 and needle in err and out == "", argv

    def test_eval_rejects_corrupt_sketch_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"

        def sketch_file(singletons=(1.0, 1.0), scale=1.0, r=1.0, build_queries=None):
            group = {"leader": 0, "items": "3", "scale": scale, "alpha": 1.0, "beta": 1.0,
                     "families": [{"k": 2, "r": r, "members": ["3"]}]}
            return json.dumps({
                "schema_version": 1, "kind": "valuation-sketch", "n": 2,
                "singletons": list(singletons), "groups": [group], "build_queries": build_queries,
            })

        for text in ('{"kind": "something-else"}', sketch_file(singletons=(None, 1.0)),
                     sketch_file(r=float("inf")), sketch_file(scale=float("nan")),
                     sketch_file(build_queries=math.nan), sketch_file(build_queries="junk")):
            bad.write_text(text)
            code, _, err = run(capsys, "eval", "--sketch", str(bad), "--bundle", "1")
            assert code == 2 and "error:" in err


class TestBench:
    def test_stdout_table_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "rows.csv"
        code, text, _ = run(capsys, "bench", "--pipeline", "brute",
                            "--n", "6", "--n", "8", "--csv", str(csv_path))
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "n,value_queries,demand_queries,wall_ms"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "6" and int(first[1]) > 0 and first[2] == "0"
        saved = csv_path.read_text().strip().splitlines()
        assert saved[0] == "n,value_queries,demand_queries,wall_ms"
        assert len(saved) == 3

    @pytest.mark.parametrize(
        "pipeline, counts",
        [("matroid", "1234,0"), ("submodular", "3862,0"), ("subadditive", "308,357")],
        ids=["matroid", "submodular", "subadditive"],  # fixed, so re-recording keeps the names
    )
    def test_query_counts_at_n_256(self, capsys, pipeline, counts):
        # exact ledger totals of the bench instance at seed 0; they do not
        # depend on the machine, so a change that moves them must say why
        code, text, _ = run(capsys, "bench", "--pipeline", pipeline, "--n", "256")
        assert code == 0
        n, value_q, demand_q, _ = text.strip().splitlines()[1].split(",")
        assert (n, f"{value_q},{demand_q}") == ("256", counts)

    @pytest.mark.parametrize("pipeline", ["matroid", "submodular", "subadditive", "brute"])
    def test_smallest_ground_sets(self, capsys, pipeline):
        code, text, err = run(capsys, "bench", "--pipeline", pipeline, "--n", "1", "--n", "2")
        assert code == 0 and err == ""
        assert [line.split(",")[0] for line in text.strip().splitlines()] == ["n", "1", "2"]

    def test_oversized_brute_bench(self, capsys):
        code, _, err = run(capsys, "bench", "--pipeline", "brute", "--n", "17")
        assert code == 2 and "error:" in err


def test_module_entry_point(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = tmp_path / "inst.json"
    proc = subprocess.run(
        [sys.executable, "-m", "valsketch", "gen", "--family", "additive",
         "--n", "4", "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0 and out.exists()
