"""The parallel experiment-sweep engine.

``run_sweep`` books a grid of :class:`repro.sweep.config.SweepConfig`
cells in a :class:`repro.campaign.service.CellLedger`, which serves
cached cells from the store and hands the rest to
:func:`repro.campaign.service.run_jobs` — a process pool, or the
durable campaign service when a store is attached — and assembles a
:class:`repro.sweep.table.SweepResult`.  Three properties make the
numbers trustworthy at scale:

* **Determinism** — every cell's RNG seeds are derived from its config
  fingerprint (stable hashes), never from worker identity, submission
  order, or wall-clock; and the result table is ordered by the input
  grid, not by completion order.  Identical grid + seeds ⇒
  byte-identical tables at any worker count.
* **Caching** — an optional :class:`repro.campaign.store.CampaignStore`
  (fingerprint-keyed results in one SQLite file) lets re-runs and
  incremental grid extensions skip completed cells entirely, and makes
  an interrupted sweep resumable.
* **Observability** — progress and cache behaviour are counted in a
  :class:`repro.cosim.metrics.MetricsRegistry` (PR 1's layer), so tests
  can assert "this run recomputed nothing" instead of trusting timing;
  and an attached :class:`repro.obs.spans.SpanTracer` /
  :class:`repro.partition.seeding.ProgressProbe` turn the run into one
  merged wall-clock timeline — per-cell spans are recorded *inside* the
  pool workers, serialized back alongside each result, and folded into
  the parent trace on per-worker pid lanes, while worker-side metric
  deltas merge into the parent registry so counters are truthful at
  any worker count.

Wall-clock timings live in :class:`SweepStats`, deliberately *outside*
the result table, which must stay byte-identical across runs — the
observability payload travels next to the rows, never inside them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.campaign.runners import WorkerObservation
from repro.campaign.service import (
    CampaignCellError,
    CellLedger,
    PoolJobError,
)
from repro.campaign.store import CampaignStore
from repro.cosim.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.obs import convergence_sink
from repro.partition import CostWeights, HEURISTICS, ProgressProbe
from repro.sweep.config import SweepConfig
from repro.sweep.table import SweepResult


def _cell_record(
    config: SweepConfig, problem, result
) -> Dict[str, Any]:
    """The table row for one computed cell (pure function of config)."""
    evaluation = result.evaluation
    return {
        "fingerprint": config.fingerprint,
        "problem_key": config.problem_key(),
        "config": config.to_dict(),
        "algorithm": result.algorithm,
        "n_tasks": len(problem.graph),
        "deadline_ns": problem.deadline_ns,
        "hw_area_budget": problem.hw_area_budget,
        "hw_tasks": sorted(result.hw_tasks),
        "n_hw": len(result.hw_tasks),
        "n_sw": len(result.sw_tasks),
        "cost": result.cost,
        "breakdown": dict(sorted(result.breakdown.items())),
        "latency_ns": evaluation.latency_ns,
        "hw_area": evaluation.hw_area,
        "sw_size": evaluation.sw_size,
        "comm_ns": evaluation.comm_ns,
        "overlap_fraction": evaluation.overlap_fraction,
        "deadline_met": evaluation.deadline_met,
        "area_feasible": result.area_feasible,
        "feasible": result.feasible,
        "moves_evaluated": result.moves_evaluated,
    }


def run_cell(
    config: SweepConfig,
    weights: Optional[CostWeights] = None,
    obs: Optional[WorkerObservation] = None,
) -> Dict[str, Any]:
    """Execute one sweep cell: generate, partition, evaluate, record.

    Returns a plain JSON-serializable dict (the table row).  Everything
    in it is a pure function of the config — no timestamps, no host
    identity — so rows are comparable and cacheable across machines.

    With ``obs`` the cell also records, in this process, the ``cell``
    span with its ``build_problem``/``partition`` phases, the
    heuristic's convergence records (``obs.extra["probe"]``) and the
    worker counters — the form the ``sweep_observed`` runner ships
    back for the parent to merge.  The row is the same either way.
    """
    weights = weights if weights is not None else CostWeights()
    heuristic = HEURISTICS[config.heuristic]
    if obs is None:
        problem = config.build_problem()
        result = heuristic(
            problem, weights=weights, seed=config.heuristic_seed()
        )
        return _cell_record(config, problem, result)
    spans = obs.spans
    probe = ProgressProbe(sink=convergence_sink(spans))
    with spans.span(
        "cell", fingerprint=config.fingerprint,
        heuristic=config.heuristic, seed=config.seed,
    ):
        with spans.span("build_problem", generator=config.generator,
                        n_tasks=config.n_tasks):
            problem = config.build_problem()
        with spans.span("partition", heuristic=config.heuristic):
            result = heuristic(
                problem, weights=weights, seed=config.heuristic_seed(),
                probe=probe,
            )
    name = config.heuristic
    metrics = obs.metrics
    metrics.counter("sweep.worker.cells").inc()
    metrics.counter(f"heuristic.{name}.cells").inc()
    metrics.counter(f"heuristic.{name}.moves_evaluated").inc(
        result.moves_evaluated
    )
    metrics.counter(f"heuristic.{name}.probe_records").inc(len(probe))
    metrics.histogram(f"heuristic.{name}.hw_tasks").observe(
        len(result.hw_tasks)
    )
    for rec in probe.records:  # make merged multi-cell streams separable
        rec.detail.setdefault("cell", config.fingerprint[:12])
    obs.extra["probe"] = probe.to_dicts()
    return _cell_record(config, problem, result)


def run_cell_observed(
    config: SweepConfig, weights: Optional[CostWeights] = None
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """``(row, worker observability payload)`` for one cell, exactly
    as the ``sweep_observed`` runner returns them."""
    obs = WorkerObservation("sweep")
    return run_cell(config, weights, obs=obs), obs.payload()


class SweepCellError(RuntimeError):
    """One sweep cell failed; names the cell and keeps what finished.

    ``fingerprint``/``heuristic`` identify the failing cell (the first
    thing a bug report needs); ``completed`` maps fingerprint → record
    for every cell that finished before the failure — those were also
    committed to the store when one was attached, so a re-run
    recomputes only the failed cell onward.
    """

    def __init__(
        self,
        fingerprint: str,
        heuristic: str,
        completed: Dict[str, Dict[str, Any]],
        cause: BaseException,
    ) -> None:
        super().__init__(
            f"sweep cell {fingerprint} (heuristic={heuristic!r}) "
            f"failed: {type(cause).__name__}: {cause}; "
            f"{len(completed)} completed row(s) preserved"
        )
        self.fingerprint = fingerprint
        self.heuristic = heuristic
        self.completed = completed


@dataclass
class SweepStats:
    """Volatile facts about one engine run (never serialized into the
    result table, which must stay byte-identical across runs)."""

    cells: int = 0
    computed: int = 0
    cache_hits: int = 0
    duplicates: int = 0
    workers: int = 1
    elapsed_s: float = 0.0

    def summary(self) -> str:
        return (
            f"{self.cells} cells: {self.cache_hits} cached, "
            f"{self.computed} computed ({self.duplicates} duplicate), "
            f"workers={self.workers}, {self.elapsed_s:.2f}s"
        )


def run_sweep(
    configs: Iterable[SweepConfig],
    workers: int = 1,
    cache: Optional[CampaignStore] = None,
    weights: Optional[CostWeights] = None,
    metrics: Optional[MetricsRegistry] = None,
    span_tracer: Optional[SpanTracer] = None,
    probe: Optional[ProgressProbe] = None,
    recorder=None,
) -> SweepResult:
    """Run every cell of the grid; return the ordered result table.

    Cells already in the ``cache`` store are served from it; the rest
    go through :func:`~repro.campaign.service.run_jobs` — with no
    store, ``workers=1`` runs in-process and ``workers>1`` fans over a
    process pool; with one, the durable campaign service commits every
    cell to it.  Duplicate configs in the grid are computed once and
    the row repeated.  The returned table carries a
    :class:`SweepStats` as ``.stats``.

    Attaching a ``span_tracer`` and/or ``probe`` observes each cell
    (:func:`run_cell` with a worker observation): per-cell spans
    recorded inside the workers are merged into the parent tracer on
    per-worker pid lanes, convergence records land in the probe, and
    worker-side metric deltas fold into ``metrics`` — counters read
    identically at any worker count.  The row/cache content is
    unchanged either way.

    ``recorder`` arms the flight recorder (:mod:`repro.obs.live`):
    run marks and progress heartbeats stream to it while the sweep is
    in flight — from this process in pool mode, and from the
    coordinator plus every shard in store mode.  Samples never enter
    rows, fingerprints, or the cache; the table is byte-identical
    with or without a recorder.
    """
    configs = list(configs)
    ledger = CellLedger("sweep", workers, store=cache, metrics=metrics,
                        span_tracer=span_tracer, recorder=recorder,
                        probe=probe, cells=len(configs))
    ledger.metrics.counter("sweep.cells.total").inc(len(configs))
    weights_dict = (dataclasses.asdict(weights)
                    if weights is not None else None)
    with ledger:
        for config in configs:
            ledger.want(config.fingerprint,
                        {"config": config.to_dict(),
                         "weights": weights_dict},
                        heuristic=config.heuristic)
        try:
            ledger.run()
        except (PoolJobError, CampaignCellError) as exc:
            fingerprint = (exc.job[0] if isinstance(exc, PoolJobError)
                           else min(exc.failures))
            heuristic = next(c.heuristic for c in configs
                             if c.fingerprint == fingerprint)
            cause = exc.__cause__ or exc
            raise SweepCellError(
                fingerprint, heuristic,
                {fp: r for fp, r in ledger.records.items()
                 if r is not None},
                cause,
            ) from cause

    table = SweepResult([ledger.records[c.fingerprint] for c in configs])
    table.stats = SweepStats(
        cells=len(configs), computed=ledger.computed,
        cache_hits=ledger.cache_hits, duplicates=ledger.duplicates,
        workers=workers, elapsed_s=ledger.elapsed_s,
    )
    if span_tracer is not None or probe is not None:
        table.obs = {"span_tracer": span_tracer, "probe": probe,
                     "metrics": ledger.metrics}
    return table
