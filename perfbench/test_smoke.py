"""Smoke test of the benchmark at tiny n; takes well under a minute.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload untraced and traced, checks that the printed metric
names and units match BENCHMARK.json, that every check passed, and that
a traced build is fully accounted for by its layers.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import valsketch as vs  # noqa: E402

import metrics  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)

TINY = ["--seed", "3", "--seconds", "0.2", "--n", "24"]


def run_bench(*args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300, check=False)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.rstrip("\n").split("\n")[-1])


def test_definitions_match_benchmark_json():
    for kind, defined in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK[kind]]
        assert listed == list(defined)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [w.why for w in WORKLOADS.values()]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_prints_benchmark_metrics(workload, trace, tmp_path):
    proc = run_bench("--workload", workload, "--trace", str(trace), "--out", str(tmp_path), *TINY)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    for name, entry in result["metrics"].items():
        assert math.isfinite(entry["value"]), name
    if trace:
        assert "unmeasured layers: none" in proc.stdout
        accounted = result["metrics"]["trace.accounted_frac"]["value"]
        assert 0.95 <= accounted <= 1.0 + 1e-9
        spans_file = tmp_path / f"trace-{workload}-seed3.jsonl"
        lines = [json.loads(line) for line in spans_file.read_text().splitlines()]
        assert lines[0]["unmeasured"] == []
        assert {"build", "partition", "group", "cardinality", "clauses"} <= {s["name"] for s in lines[1:]}
    else:
        assert all(result["metrics"][m[0]]["value"] != 0 for m in metrics.END_TO_END)


def test_all_prints_every_workload(tmp_path):
    proc = run_bench("--workload", "all", "--trace", "0", "--out", str(tmp_path), *TINY)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"]
    names = {f"{w}/{m[0]}" for w in WORKLOADS for m in metrics.END_TO_END}
    assert set(result["metrics"]) == names


def test_refuses_without_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "eval-mix", "--trace", "0", *TINY,
                     cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_hook_is_reported_unmeasured():
    class OpaqueCard:
        alpha = 1.0

    tracer = Tracer()
    pipeline = vs.get_pipeline("matroid")
    card = OpaqueCard()
    assert tracer.card(card) is card
    assert tracer.xos(pipeline.xos) is not pipeline.xos
    assert tracer.unmeasured == {"cardinality"}


def test_tracing_restores_the_library():
    spec = vs.generate_instance("partition-matroid", 16, 0, block_size=4, cap=1)
    pipeline = vs.get_pipeline("matroid")
    plain = spec.build(vs.QueryLedger())
    expected = vs.serialize(vs.build_sketch(plain, pipeline.card, pipeline.xos))
    value, demand = vs.ValuationOracle.value, vs.ValuationOracle.demand
    tracer = Tracer()
    oracle = spec.build(vs.QueryLedger())
    with tracer.attached(oracle), tracer.build():
        sketch = vs.build_sketch(oracle, tracer.card(pipeline.card), tracer.xos(pipeline.xos))
    assert vs.serialize(sketch) == expected
    assert oracle.ledger.totals() == plain.ledger.totals()
    assert vs.ValuationOracle.value is value and vs.ValuationOracle.demand is demand
    assert "_value" not in vars(oracle)
    assert tracer.builds[0]["valuations.value_calls"] == plain.ledger.totals()[0]
