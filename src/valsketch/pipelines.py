"""Named pairings of a cardinality maximizer with a clause oracle, the
valuation class each is certified for, and ready-made instance sets.
"""

from dataclasses import dataclass

from . import cardinality, clauses
from .cardinality import CardOracleSpec
from .clauses import XosOracleSpec
from .errors import CapabilityError, ScaleError
from .instances import InstanceSpec, generate_instance
from .valuations import ValuationOracle


@dataclass(frozen=True)
class PipelineSpec:
    name: str
    card: CardOracleSpec
    xos: XosOracleSpec
    property: str

    def check_compatible(self, oracle: ValuationOracle) -> None:
        """Refuse, before any query, an oracle lacking a capability the pair needs."""
        if (self.card.needs_demand or self.xos.needs_demand) and not oracle.has_demand:
            raise CapabilityError(
                f"pipeline {self.name!r} needs demand queries, which this valuation lacks"
            )


PIPELINES = {
    p.name: p
    for p in (
        PipelineSpec(
            "matroid",
            cardinality.matroid_augment(),
            clauses.clause_marginal(),
            "submodular",
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


def bench_instance(pipeline: str, n: int, seed: int = 0) -> InstanceSpec:
    """A large-n instance whose demand/value queries stay cheap to answer."""
    p = get_pipeline(pipeline)
    if p.name == "matroid":
        return generate_instance("partition-matroid", n, seed, block_size=4, cap=1)
    if p.name == "submodular":
        return generate_instance("coverage", n, seed, universe=2 * n, max_cover=6)
    if p.name == "subadditive":
        return generate_instance(
            "xos-explicit", n, seed, clauses=24, support=max(2, n // 8), uniform=True
        )
    if p.name == "brute":
        if n > 12:
            raise ScaleError("the brute pipeline benches only up to n = 12")
        return generate_instance("subadditive-table", n, seed)
    raise ValueError(f"no bench instance recipe for pipeline {pipeline!r}")


CORPUS_SIZES = (6, 8, 10, 12)
CORPUS_SEEDS = 50

_MATROID_ROTATION = ("uniform-matroid", "partition-matroid", "graphic-matroid")


def standard_fixture_corpus():
    """Desk-scale corpus: (pipeline name, InstanceSpec) pairs.

    Fifty seeds per pipeline-family block, spread across the sizes, plus
    one pinned complete-graph matroid whose rank structure is known by
    heart. Everything is small enough for exhaustive comparison.
    """
    out = []
    for seed in range(CORPUS_SEEDS):
        n = CORPUS_SIZES[seed % len(CORPUS_SIZES)]
        out.append(("matroid", generate_instance(_MATROID_ROTATION[seed % 3], n, seed)))
        out.append(("submodular", generate_instance("coverage", n, seed)))
        out.append(("subadditive", generate_instance("xos-explicit", n, seed)))
        out.append(("subadditive", generate_instance("subadditive-table", n, seed)))
    k4_edges = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
    out.append(
        ("matroid", InstanceSpec("graphic-matroid", 6, {"vertices": 4, "edges": k4_edges}, 0))
    )
    return out
