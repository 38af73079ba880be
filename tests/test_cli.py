"""End-to-end command line coverage: gen, sketch, eval, verify, bench."""

import json
import subprocess
import sys

import pytest

import valsketch as vs
from valsketch.cli import main


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
                            "--bundle", "0xff", "--bundle", "1")
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
        assert code == 0 and "PASS" in text

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

    def test_incompatible_pipeline(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        run(capsys, "gen", "--family", "uniform-matroid", "--n", "30", "--out", str(inst))
        code, _, err = run(capsys, "verify", "--instance", str(inst),
                           "--pipeline", "subadditive")
        assert code == 2 and "demand" in err

    def test_missing_instance_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "sketch", "--instance", str(tmp_path / "absent.json"),
                           "--pipeline", "brute", "--out", str(tmp_path / "s.json"))
        assert code == 2 and "error:" in err

    def test_eval_rejects_foreign_bundle(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        sk = tmp_path / "sketch.json"
        run(capsys, "gen", "--family", "additive", "--n", "4", "--out", str(inst))
        run(capsys, "sketch", "--instance", str(inst), "--pipeline", "brute",
            "--out", str(sk))
        code, _, err = run(capsys, "eval", "--sketch", str(sk), "--bundle", "0xffff")
        assert code == 2 and "error:" in err
        code, _, err = run(capsys, "eval", "--sketch", str(sk), "--bundle", "zz")
        assert code == 2

    def test_eval_rejects_corrupt_sketch_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        null_singleton = json.dumps({
            "schema_version": 1, "kind": "valuation-sketch", "n": 2,
            "singletons": [None, 1.0], "groups": [], "build_queries": None,
        })
        for text in ('{"kind": "something-else"}', null_singleton):
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

    def test_oversized_brute_bench(self, capsys):
        code, _, err = run(capsys, "bench", "--pipeline", "brute", "--n", "16")
        assert code == 2 and "error:" in err


def test_module_entry_point(tmp_path):
    out = tmp_path / "inst.json"
    proc = subprocess.run(
        [sys.executable, "-m", "valsketch", "gen", "--family", "additive",
         "--n", "4", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and out.exists()
