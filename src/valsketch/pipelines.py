"""Named pairings of a cardinality maximizer with a clause oracle, the
valuation class each is certified for, and ready-made instance sets.
"""

from dataclasses import dataclass

from . import cardinality, clauses
from .cardinality import CardOracleSpec
from .clauses import XosOracleSpec
from .instances import InstanceSpec, generate_instance


@dataclass(frozen=True)
class PipelineSpec:
    name: str
    card: CardOracleSpec
    xos: XosOracleSpec
    property: str


PIPELINES = {
    p.name: p
    for p in (
        PipelineSpec(
            "matroid",
            cardinality.matroid_augment(),
            clauses.clause_marginal(),
            "matroid-rank",
        ),
        PipelineSpec(
            "submodular",
            cardinality.greedy_threshold(0.1),
            clauses.clause_marginal(),
            "submodular",
        ),
        PipelineSpec(
            "subadditive",
            cardinality.demand_price_grid(),
            clauses.clause_demand_uniform(),
            "subadditive",
        ),
        PipelineSpec(
            "brute",
            cardinality.brute_force(),
            clauses.clause_marginal(),
            "submodular",
        ),
    )
}


def get_pipeline(name: str) -> PipelineSpec:
    try:
        return PIPELINES[name]
    except KeyError:
        raise ValueError(
            f"unknown pipeline {name!r}; choose from {sorted(PIPELINES)}"
        ) from None


#: per pipeline, the instance family of its bench instance and the
#: generator parameters at n; queries on these stay cheap to answer
_BENCH_RECIPES = {
    "matroid": lambda n: ("partition-matroid", {"block_size": 4, "cap": 1}),
    "submodular": lambda n: ("coverage", {"universe": 2 * n}),
    "subadditive": lambda n: (
        "xos-explicit", {"clauses": 24, "support": max(2, n // 8), "uniform": True}
    ),
    "brute": lambda n: ("subadditive-table", {}),  # the generator stops at n = 16
}


def bench_instance(pipeline: str, n: int, seed: int = 0) -> InstanceSpec:
    """A large-n instance whose demand/value queries stay cheap to answer."""
    family, params = _BENCH_RECIPES[get_pipeline(pipeline).name](n)
    return generate_instance(family, n, seed, **params)


CORPUS_SIZES = (6, 8, 10, 12)
CORPUS_SEEDS = 50
#: seeds per size of the exhaustive net past the corpus's sizes
NET_SEEDS = 4

_MATROID_ROTATION = ("uniform-matroid", "partition-matroid", "graphic-matroid")


def corpus_blocks(n: int, seed: int):
    """The corpus's four blocks at one (n, seed), as (pipeline name, InstanceSpec)
    pairs: the matroid rotation, coverage, xos-explicit, subadditive-table."""
    return [("matroid", generate_instance(_MATROID_ROTATION[seed % 3], n, seed)),
            ("submodular", generate_instance("coverage", n, seed)),
            ("subadditive", generate_instance("xos-explicit", n, seed)),
            ("subadditive", generate_instance("subadditive-table", n, seed))]


def standard_fixture_corpus():
    """Desk-scale corpus: (pipeline name, InstanceSpec) pairs.

    Fifty seeds per pipeline-family block, spread across the sizes, plus
    one pinned complete-graph matroid whose rank structure is known by
    heart. Everything is small enough for exhaustive comparison.
    """
    out = [fixture for seed in range(CORPUS_SEEDS)
           for fixture in corpus_blocks(CORPUS_SIZES[seed % len(CORPUS_SIZES)], seed)]
    k4_edges = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
    out.append(
        ("matroid", InstanceSpec("graphic-matroid", 6, {"vertices": 4, "edges": k4_edges}, 0))
    )
    return out
