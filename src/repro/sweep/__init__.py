"""Parallel experiment sweeps over the partitioning framework.

The throughput layer the ROADMAP's north star asks for: apply the
paper's Section 3.3/Section 5 comparison machinery to *many*
methodology instances at once, instead of one figure-benchmark at a
time.

* :mod:`repro.sweep.config` — sweep cells (generator × cost model ×
  heuristic × seed), stable fingerprints, deterministic seed
  derivation, grid expansion;
* :mod:`repro.sweep.engine` — :func:`run_sweep`: cache-hit lookup,
  dedup and row assembly around the shared
  :func:`repro.campaign.service.run_jobs` fan-out, with metrics
  instrumentation;
* :mod:`repro.sweep.table` — the canonical result table and the
  Section 5-style comparison report;
* :mod:`repro.sweep.differential` — the cross-heuristic invariant
  harness that makes the parallel numbers trustworthy.

Quick tour::

    from repro.campaign import CampaignStore
    from repro.sweep import expand_grid, run_sweep

    grid = expand_grid(
        generators=("layered", "forkjoin"),
        heuristics=("greedy", "kl", "vulcan", "cosyma"),
        seeds=range(8),
    )
    table = run_sweep(grid, workers=4,
                      cache=CampaignStore("sweep.sqlite"))
    print(table.comparison_report())
"""

from repro.sweep.config import (
    COMM_MODELS,
    CONFIG_VERSION,
    SweepConfig,
    SweepConfigError,
    expand_grid,
    parse_seed_spec,
)
from repro.sweep.table import SweepResult
from repro.sweep.engine import (
    SweepCellError,
    SweepStats,
    run_cell,
    run_cell_observed,
    run_sweep,
)
from repro.sweep.differential import (
    DifferentialReport,
    check_result,
    graph_signature,
    random_problem_config,
    run_differential,
)

__all__ = [
    "COMM_MODELS",
    "CONFIG_VERSION",
    "SweepConfig",
    "SweepConfigError",
    "expand_grid",
    "parse_seed_spec",
    "SweepResult",
    "SweepCellError",
    "SweepStats",
    "run_cell",
    "run_cell_observed",
    "run_sweep",
    "DifferentialReport",
    "check_result",
    "graph_signature",
    "random_problem_config",
    "run_differential",
]
