"""Closed-loop design-space exploration (ROADMAP item 2).

The explorer turns the repo's measurement machinery — sweep engine,
result cache, campaign store, fault campaigns, observability — into a
search loop: a DoE-seeded genetic algorithm over (graph parameters,
heuristic + knobs, tuning weights), selecting by Pareto dominance and
reporting fronts, weighted-sum rankings, and per-generation
convergence telemetry.  Every piece is deterministic by construction:
same spec ⇒ byte-identical front JSON at any worker count, cold or
warm, under any PYTHONHASHSEED.
"""

from repro.explore.doe import doe_population, fractional_factorial
from repro.explore.driver import (
    FRONT_VERSION,
    ExploreResult,
    ExploreSpec,
    ExploreStats,
    explore,
    random_search,
)
from repro.explore.evaluate import (
    OBJECTIVES_2D,
    OBJECTIVES_3D,
    DependabilityModel,
    ProblemSpec,
    genome_config,
    measure_dependability,
    objective_names,
    objectives_from_record,
    reference_cost,
    run_genome,
)
from repro.explore.genome import (
    EXPLORE_VERSION,
    Gene,
    Genome,
    SearchSpace,
    design_space,
    split_genome,
)
from repro.explore.pareto import (
    crowding_distance,
    dominates,
    hypervolume,
    non_dominated_sort,
    normalize,
    normalized_hypervolume,
    objective_bounds,
    pareto_front,
    weighted_sum_rank,
)

__all__ = [
    "FRONT_VERSION",
    "EXPLORE_VERSION",
    "OBJECTIVES_2D",
    "OBJECTIVES_3D",
    "DependabilityModel",
    "ExploreResult",
    "ExploreSpec",
    "ExploreStats",
    "Gene",
    "Genome",
    "ProblemSpec",
    "SearchSpace",
    "crowding_distance",
    "design_space",
    "doe_population",
    "dominates",
    "explore",
    "fractional_factorial",
    "genome_config",
    "hypervolume",
    "measure_dependability",
    "non_dominated_sort",
    "normalize",
    "normalized_hypervolume",
    "objective_bounds",
    "objective_names",
    "objectives_from_record",
    "pareto_front",
    "random_search",
    "reference_cost",
    "run_genome",
    "split_genome",
    "weighted_sum_rank",
]
