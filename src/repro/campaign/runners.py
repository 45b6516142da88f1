"""Payload runners: how a campaign worker turns a queued job into a
record.

A job payload must be plain JSON (it lives in the ``jobs`` table and
survives process death), so runners rebuild the typed objects from
dicts — the same dict forms the engines already fingerprint.  Every
runner returns ``(record, obs)`` where ``obs`` is the worker-side
observability payload (or None on the unobserved path); records are
pure functions of the payload, so a resumed, re-sharded, or
work-stolen cell produces byte-identical output wherever it runs.

Each kind registers twice, as ``<kind>`` and ``<kind>_observed``: the
same cell function, called without or with a
:class:`WorkerObservation`.  The registry is keyed by name because
worker *processes* receive the runner by name over ``multiprocessing``
— a string round-trips through spawn/fork and the jobs table; a
closure does not.
"""

from __future__ import annotations

import functools
import os
from typing import Any, Callable, Dict, Optional, Tuple

from repro.cosim.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer

RunnerResult = Tuple[Dict[str, Any], Optional[Dict[str, Any]]]
Runner = Callable[[Dict[str, Any]], RunnerResult]

#: name → runner; extended via :func:`register_runner`.
RUNNERS: Dict[str, Runner] = {}


def register_runner(name: str, fn: Runner) -> None:
    """Register a runner under ``name`` (last registration wins)."""
    RUNNERS[name] = fn


def get_runner(name: str) -> Runner:
    """Look up a runner, with a helpful error on typos."""
    try:
        return RUNNERS[name]
    except KeyError:
        raise KeyError(
            f"unknown campaign runner {name!r}; have {sorted(RUNNERS)}"
        ) from None


class WorkerObservation:
    """What one observed cell records inside its worker process.

    ``spans`` sits on a ``"<kind> worker <pid>"`` lane, ``metrics``
    collects the cell's counter deltas and ``extra`` any further
    payload keys (a sweep cell adds ``"probe"``).  :meth:`payload` is
    the JSON the parent merges onto its timeline and registry; it
    never enters the record.
    """

    def __init__(self, kind: str) -> None:
        self.spans = SpanTracer()
        self.spans.name_lane(self.spans.pid, f"{kind} worker {os.getpid()}")
        self.metrics = MetricsRegistry()
        self.extra: Dict[str, Any] = {}

    def payload(self) -> Dict[str, Any]:
        return {
            "pid": os.getpid(),
            "spans": self.spans.snapshot(),
            "metrics": self.metrics.snapshot(),
            **self.extra,
        }


def _observed(kind: str, cell: Callable[..., Dict[str, Any]],
              observed: bool, *args, **kwargs) -> RunnerResult:
    """``cell(*args, obs=...)`` and its payload, observed or not."""
    obs = WorkerObservation(kind) if observed else None
    record = cell(*args, obs=obs, **kwargs)
    return record, (obs.payload() if obs is not None else None)


def run_sweep_payload(payload: Dict[str, Any],
                      observed: bool = False) -> RunnerResult:
    """One sweep cell from its JSON payload."""
    from repro.partition import CostWeights
    from repro.sweep.config import SweepConfig
    from repro.sweep.engine import run_cell

    weights = payload.get("weights")
    return _observed(
        "sweep", run_cell, observed,
        SweepConfig.from_dict(payload["config"]),
        weights=CostWeights(**weights) if weights is not None else None,
    )


def run_fault_payload(payload: Dict[str, Any],
                      observed: bool = False) -> RunnerResult:
    """One fault-campaign cell from its JSON payload."""
    from repro.fault.campaign import run_fault_cell

    return _observed("fault", run_fault_cell, observed,
                     (payload["scenario"], payload["fault"]))


def run_explore_payload(payload: Dict[str, Any],
                        observed: bool = False) -> RunnerResult:
    """One explorer genome evaluation from its JSON payload."""
    from repro.explore.evaluate import run_genome

    return _observed("explore", run_genome, observed, payload)


for _kind, _runner in (("sweep", run_sweep_payload),
                       ("fault", run_fault_payload),
                       ("explore", run_explore_payload)):
    register_runner(_kind, _runner)
    register_runner(f"{_kind}_observed",
                    functools.partial(_runner, observed=True))
