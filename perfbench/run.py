#!/usr/bin/env python3
"""valsketch benchmark: one workload per run, or all four in sequence.

    python3 perfbench/run.py --workload matroid-value --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

Imports `valsketch` from this checkout's `src/` and nothing else. Prints
a table of every metric with its unit, an `# env` line (commit, source
digest, Python, numpy, nproc), and as the last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones and writes the spans
as JSONL. See perfbench/README.md for what each metric means.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("matroid-value", "coverage-greedy", "xos-demand", "eval-mix")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    package = os.path.join(SRC, "valsketch")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        fail(f"no valsketch sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import valsketch

    if os.path.dirname(os.path.abspath(valsketch.__file__)) != package:
        fail(f"imported valsketch from {valsketch.__file__}, not from this checkout")
    return valsketch


def source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "valsketch")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'none' outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True,
                        help="draws the bundle samples and the evaluation stream")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured budget: builds, or the eval-mix stream")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instance-seed", type=int, default=0,
                        help="seed of the generated instance (default 0)")
    parser.add_argument("--n", type=int, default=None,
                        help="override the ground-set size (tiny n for smoke tests)")
    parser.add_argument("--out", default=os.path.join(HERE, "out"),
                        help="directory for traces, results and scratch sketch files")
    return parser.parse_args(argv)


def format_value(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:34s} {format_value(value):>14s} {unit}")


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--instance-seed", str(args.instance_seed),
               "--out", args.out]
        if args.n is not None:
            cmd += ["--n", str(args.n)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    os.makedirs(args.out, exist_ok=True)
    if args.workload == "all":
        return run_all(args)

    import numpy
    from metrics import END_TO_END, PER_LAYER, TABLE_ONLY, UNITS
    from workloads import WORKLOADS, Runner

    digest = source_digest()
    runner = Runner(WORKLOADS[args.workload], seed=args.seed, seconds=args.seconds,
                    trace=bool(args.trace), n=args.n, instance_seed=args.instance_seed,
                    out_dir=args.out, src_digest=digest)
    result = runner.run()
    names = [m[0] for m in (PER_LAYER if args.trace else END_TO_END)]
    metrics = {name: {"value": result.metrics[name], "unit": UNITS[name]} for name in names}
    gate = result.gate
    env = {
        "workload": args.workload, "seed": args.seed, "instance_seed": args.instance_seed,
        "n": runner.n, "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(), "src_sha256": digest, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
    }

    rows = [(name, entry["value"], entry["unit"]) for name, entry in metrics.items()]
    rows += [(m[0], result.table_only[m[0]], m[1]) for m in TABLE_ONLY]
    print_table(f"workload {args.workload} (seed {args.seed}, trace {args.trace})", rows)
    if result.tracer is not None:
        unmeasured = sorted(result.tracer.unmeasured)
        print(f"  unmeasured layers: {', '.join(unmeasured) or 'none'}")
        trace_path = os.path.join(args.out, f"trace-{args.workload}-seed{args.seed}.jsonl")
        result.tracer.write_jsonl(trace_path, env)
        env["trace_file"] = os.path.relpath(trace_path, ROOT)
        env["unmeasured"] = unmeasured
    for message in gate.messages:
        print(f"  check failed: {message}")
    print("# env " + json.dumps(env))

    with open(os.path.join(args.out, "results.jsonl"), "a") as fh:
        fh.write(json.dumps({"env": env, "metrics": result.metrics, "raw": result.raw,
                             "table_only": result.table_only,
                             "attempted": gate.attempted, "failed": gate.failed}) + "\n")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
