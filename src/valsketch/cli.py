"""Command line front end.

Subcommands: gen (write an instance file), sketch (build and save a
sketch), eval (estimate bundle values from a sketch file), verify
(exhaustive desk-scale checks), bench (query counts, sketch file size
and wall time as n grows). Exit codes: 0 success, 1 verification
failure, 2 bad input.
"""

import argparse
import contextlib
import csv
import json
import sys
import time

from . import bitsets
from .errors import CapabilityError
from .instances import FAMILIES, generate_instance, load_instance, save_instance
from .ledger import QueryLedger
from .pipelines import PIPELINES, bench_instance, get_pipeline
from .sketch import build_sketch, evaluate, load_sketch, save_sketch, serialize
from .verify import brute_reference_table, verdict

# MalformedBundleError, ScaleError and SerializationError are ValueErrors
USER_ERRORS = (CapabilityError, ValueError, OSError)


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="valsketch", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.set_defaults(handler=cmd_gen)
    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="family-specific parameter, VALUE parsed as JSON when possible",
    )

    sk = sub.add_parser("sketch", help="build a sketch from an instance file")
    sk.set_defaults(handler=cmd_sketch)
    sk.add_argument("--instance", required=True)
    sk.add_argument("--pipeline", required=True, choices=sorted(PIPELINES))
    sk.add_argument("--out", required=True)

    ev = sub.add_parser("eval", help="estimate bundle values from a sketch file")
    ev.set_defaults(handler=cmd_eval)
    ev.add_argument("--sketch", required=True)
    ev.add_argument(
        "--bundle",
        action="append",
        required=True,
        metavar="HEX",
        help="bundle as a hex bitmask (bit j = item j); repeatable",
    )

    ver = sub.add_parser("verify", help="exhaustive checks at small n")
    ver.set_defaults(handler=cmd_verify)
    ver.add_argument("--instance", required=True)
    ver.add_argument("--pipeline", required=True, choices=sorted(PIPELINES))
    ver.add_argument("--sketch", help="check this sketch file instead of rebuilding")

    be = sub.add_parser("bench", help="query counts across ground set sizes")
    be.set_defaults(handler=cmd_bench)
    be.add_argument("--pipeline", required=True, choices=sorted(PIPELINES))
    be.add_argument("--n", type=int, action="append", required=True)
    be.add_argument("--seed", type=int, default=0)
    be.add_argument("--csv", help="also write rows to this CSV file")
    return top


def _parse_params(pairs):
    params = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"--param needs KEY=VALUE, got {pair!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def cmd_gen(args) -> int:
    spec = generate_instance(args.family, args.n, args.seed, **_parse_params(args.param))
    save_instance(spec, args.out)
    print(f"wrote {args.out}")
    return 0


def _build(instance_path: str, pipeline_name: str):
    spec = load_instance(instance_path)
    return spec, get_pipeline(pipeline_name), spec.build(QueryLedger())


def cmd_sketch(args) -> int:
    _, pipeline, oracle = _build(args.instance, args.pipeline)
    sketch = build_sketch(oracle, pipeline.card, pipeline.xos)
    save_sketch(sketch, args.out)
    value_q, demand_q = oracle.ledger.totals()
    print(f"sketch: n={sketch.n} groups={len(sketch.groups)} "
          f"value_queries={value_q} demand_queries={demand_q}")
    return 0


def cmd_eval(args) -> int:
    sketch = load_sketch(args.sketch)
    # every bundle is parsed and estimated before the first line is printed
    bundles = [bitsets.from_hex(raw) for raw in args.bundle]
    print("\n".join(f"{bitsets.to_hex(b)} {format(evaluate(sketch, b), '.12g')}" for b in bundles))
    return 0


def cmd_verify(args) -> int:
    spec, pipeline, oracle = _build(args.instance, args.pipeline)
    truth = brute_reference_table(oracle)
    if args.sketch:
        sketch = load_sketch(args.sketch)
    else:
        sketch = build_sketch(oracle, pipeline.card, pipeline.xos)
    ok, lines, _ = verdict(truth, sketch, pipeline.property)
    print("\n".join(lines))
    print(f"verify {spec.family} n={spec.n} seed={spec.seed}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _bench_row(name: str, n: int, seed: int) -> dict:
    spec = bench_instance(name, n, seed)
    pipeline = get_pipeline(name)
    oracle = spec.build(QueryLedger())
    start = time.perf_counter()
    sketch = build_sketch(oracle, pipeline.card, pipeline.xos)
    wall_ms = (time.perf_counter() - start) * 1000.0
    value_q, demand_q = oracle.ledger.totals()
    return {"n": n, "value_queries": value_q, "demand_queries": demand_q,
            "sketch_bytes": len(serialize(sketch)), "wall_ms": round(wall_ms, 3)}


def cmd_bench(args) -> int:
    header = ["n", "value_queries", "demand_queries", "sketch_bytes", "wall_ms"]
    # the file is opened before the first build and the table printed after
    # the last, so a path that cannot be written costs no build and prints
    # nothing; it is opened to append and emptied only once every row is
    # built, so a failed build leaves an existing file as it was
    with open(args.csv, "a", newline="") if args.csv else contextlib.nullcontext() as fh:
        rows = [_bench_row(args.pipeline, n, args.seed) for n in args.n]
        if fh:
            fh.truncate(0)
            writer = csv.DictWriter(fh, fieldnames=header)
            writer.writeheader()
            writer.writerows(rows)
    print(",".join(header))
    for row in rows:
        print(",".join(str(row[h]) for h in header))
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
