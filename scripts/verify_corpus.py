#!/usr/bin/env python3
"""Exhaustive desk-scale verification over the standard fixture corpus.

For every corpus instance: validates the advertised valuation class,
builds the pipeline's sketch, checks the structural invariants,
compares the estimate against the truth on all 2^n bundles, and checks
that the sketch loaded back from its file saves to the same text and
estimates every bundle bit for bit like the built one. Prints one
line per fixture, under a failing one the lines `valsketch verify`
prints, and a summary that gives the most groups any sketch has and
ends with the value and demand queries the builds spent; exits 1 if
anything is violated.

    python3 scripts/verify_corpus.py
    python3 scripts/verify_corpus.py --limit 20 --quiet
    python3 scripts/verify_corpus.py --sizes 14,16 --quiet   # the exhaustive net

With --sizes the fixtures are the corpus's four blocks at each size given
and seeds 0-3, as the tests' exhaustive net builds them, instead of the
standard corpus.
"""

import argparse
import sys

import valsketch as vs


def check_entry(pipeline_name: str, spec) -> tuple:
    pipeline = vs.get_pipeline(pipeline_name)
    oracle = spec.build(vs.QueryLedger())

    truth = vs.brute_reference_table(oracle)
    sketch = vs.build_sketch(oracle, pipeline.card, pipeline.xos)
    ok, lines, report = vs.verdict(truth, sketch, pipeline.property)
    text = vs.serialize(sketch)
    loaded = vs.deserialize(text)
    if not (vs.serialize(loaded) == text
            and vs.evaluate_all(loaded).tobytes() == vs.evaluate_all(sketch).tobytes()):
        ok = False
        lines.append("round trip: the sketch loaded from its file saves to other text "
                     "or estimates some bundle differently")
    return ok, sketch, report, lines, oracle.ledger.totals()


def sizes(text: str) -> list:
    """Comma-separated ground-set sizes, each from 1 to VALIDATE_LIMIT."""
    out = [int(n) for n in text.split(",")]
    limit = vs.valuations.VALIDATE_LIMIT
    if not all(1 <= n <= limit for n in out):
        raise argparse.ArgumentTypeError(f"sizes must lie in 1..{limit}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--limit", type=int, help="check only the first N fixtures")
    parser.add_argument("--quiet", action="store_true", help="print failures and summary only")
    parser.add_argument("--sizes", type=sizes,
                        help="comma-separated ground-set sizes, each at seeds 0-3, "
                             "instead of the standard corpus")
    args = parser.parse_args(argv)
    if args.limit is not None and args.limit < 1:
        parser.error(f"argument --limit: N must be at least 1, got {args.limit}")

    if args.sizes:
        corpus = [fixture for n in args.sizes for seed in range(vs.pipelines.NET_SEEDS)
                  for fixture in vs.pipelines.corpus_blocks(n, seed)]
    else:
        corpus = vs.standard_fixture_corpus()
    if args.limit:
        corpus = corpus[: args.limit]

    failures = 0
    worst = 1.0
    most_groups = 0
    value_queries = demand_queries = 0
    for pipeline_name, spec in corpus:
        ok, sketch, report, lines, (value_q, demand_q) = check_entry(pipeline_name, spec)
        worst = max(worst, report.max_under)
        most_groups = max(most_groups, len(sketch.groups))
        value_queries += value_q
        demand_queries += demand_q
        if not ok:
            failures += 1
        if not ok or not args.quiet:
            status = "ok" if ok else "FAIL"
            print(
                f"{status} {pipeline_name:<11} {spec.family:<17} "
                f"n={spec.n:<3} seed={spec.seed:<3} "
                f"under={report.max_under:7.3f} bound={report.bound:9.1f}"
            )
            if not ok:
                for line in lines:
                    print(f"     {line}")

    print(f"checked {len(corpus)} fixtures: {failures} failures, worst ratio {worst:.3f}, "
          f"at most {most_groups} groups, queries {value_queries} value, {demand_queries} demand")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
