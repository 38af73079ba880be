"""Every metric the benchmark prints: (name, unit, better).

END_TO_END is printed by an untraced run (`--trace 0`), PER_LAYER by a
traced run (`--trace 1`), each on every workload. TABLE_ONLY metrics are
printed in the human-readable table but kept out of the result line,
because they are 0 on some or all workloads at this commit. Meanings are
in README.md, bounds in BENCHMARK.json; the smoke test checks that the
names, units and directions here match BENCHMARK.json.
"""

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("build_s", "s", "lower"),
    ("value_queries", "count", "lower"),
    ("oracle_queries", "count", "lower"),
    ("sketch_bytes", "B", "lower"),
    ("certified_factor", "x", "lower"),
    ("max_under", "x", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("eval_bundles_per_s", "1/s", "higher"),
    ("eval_us.p50", "us", "lower"),
    ("eval_us.p99", "us", "lower"),
    ("load_s", "s", "lower"),
    ("save_s", "s", "lower"),
)

TABLE_ONLY = (
    ("demand_queries", "count", "lower"),
    ("fail_ratio", "ratio", "lower"),
    ("speed_factor", "ratio", "higher"),
)

PER_LAYER = (
    ("instances.generate_s", "s", "lower"),
    ("instances.oracle_s", "s", "lower"),
    ("valuations.value_calls", "count", "lower"),
    ("valuations.value_busy_s", "s", "lower"),
    ("valuations.value_distinct_ratio", "ratio", "higher"),
    ("valuations.demand_calls", "count", "lower"),
    ("valuations.demand_busy_s", "s", "lower"),
    ("ledger.self_s", "s", "lower"),
    ("cardinality.calls", "count", "lower"),
    ("cardinality.distinct_ratio", "ratio", "higher"),
    ("cardinality.self_s", "s", "lower"),
    ("clauses.calls", "count", "lower"),
    ("clauses.distinct_ratio", "ratio", "higher"),
    ("clauses.self_s", "s", "lower"),
    ("sketch.grid_self_s", "s", "lower"),
    ("sketch.partition_s", "s", "lower"),
    ("sketch.members_per_card_call", "ratio", "higher"),
    ("sketch.evaluate_busy_s", "s", "lower"),
    ("sketch.evaluate_calls", "count", "higher"),
    ("sketch.deserialize_s", "s", "lower"),
    ("sketch.serialize_s", "s", "lower"),
    ("sketch.file_bytes", "B", "lower"),
    ("trace.build_s", "s", "lower"),
    ("trace.accounted_frac", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + TABLE_ONLY + PER_LAYER}
