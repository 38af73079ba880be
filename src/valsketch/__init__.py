"""Query-efficient sketches of monotone set valuations.

Build a compact summary of a valuation from value or demand queries,
then answer value estimates for arbitrary bundles without touching the
original oracle again. The estimate never exceeds the truth and is
certified to undershoot by at most a factor depending only on the
maximizer and clause oracles used.
"""

from .cardinality import (
    CardOracleSpec,
    demand_price_grid,
    greedy_threshold,
    matroid_augment,
)
from .clauses import XosOracleSpec, clause_demand_uniform, clause_marginal
from .errors import CapabilityError, MalformedBundleError, ScaleError, SerializationError
from .instances import InstanceSpec, generate_instance, load_instance, save_instance
from .ledger import QueryLedger
from .pipelines import PIPELINES, PipelineSpec, bench_instance, get_pipeline, standard_fixture_corpus
from .sketch import (
    GridParams,
    Sketch,
    SketchFamily,
    SketchGroup,
    build_sketch,
    certified_bound,
    deserialize,
    evaluate,
    evaluate_all,
    load_sketch,
    save_sketch,
    serialize,
    well_bounded_partition,
)
from .valuations import (
    RELATIVE_TOL,
    AdditiveClause,
    AdditiveValuation,
    CoverageValuation,
    GraphicMatroidRank,
    PartitionMatroidRank,
    SubadditiveTableValuation,
    UniformMatroidRank,
    ValuationOracle,
    XOSExplicitValuation,
)
from .verify import (RatioReport, brute_reference_table, exhaustive_ratio_report,
                     family_invariant_check, validate_class, verdict)

__version__ = "0.1.0"
