"""Fault campaigns: golden-vs-faulty runs, classified and tabulated.

A campaign takes one scenario and a list of :class:`FaultSpec`, runs
the golden (fault-free) reference plus one run per fault — through the
shared :func:`~repro.campaign.service.run_jobs` fan-out, with results
served from and committed to an optional
:class:`~repro.campaign.store.CampaignStore` — and classifies every
outcome record against the golden one:

``crash``
    the run raised (CPU fault, kernel error) — anything but a watchdog
    :class:`~repro.cosim.kernel.HangDetected`;
``hang``
    the watchdog fired, or the run ended without the workload
    completing (deadlock, starvation, lost message);
``detected``
    the workload completed and its *own* redundancy flagged the fault;
``sdc``
    completed, undetected, but the output stream differs from golden —
    silent data corruption, the outcome dependability work cares most
    about;
``masked``
    completed with output identical to golden.

The precedence above is total, so every fault lands in exactly one
class, and classification happens in the parent from JSON-stable
records — the histogram is identical at any worker count.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.campaign.runners import WorkerObservation
from repro.campaign.service import CellLedger, CellTiming
from repro.campaign.store import CampaignStore
from repro.fault.scenarios import lookup_scenario, run_scenario
from repro.fault.spec import CPU_KINDS, FAULT_VERSION, OUTCOMES, FaultSpec
from repro.cosim.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer

#: A campaign job: (scenario name, fault dict or None for golden).
Job = Tuple[str, Optional[Dict[str, Any]]]


class CampaignError(RuntimeError):
    """The golden run is unusable as a classification reference."""


def cell_fingerprint(scenario: str, fault: Optional[FaultSpec]) -> str:
    """Cache key for one (scenario, fault) cell.

    Versioned alongside :data:`~repro.fault.spec.FAULT_VERSION` so a
    schema change invalidates old entries instead of misclassifying
    against them.
    """
    return _cell_job(scenario, fault)[0]


def _cell_job(scenario: str,
              fault: Optional[FaultSpec]) -> Tuple[str, Dict[str, Any]]:
    """``(fingerprint, runner payload)``: the key hashes the payload."""
    payload = {
        "scenario": scenario,
        "fault": fault.to_dict() if fault is not None else None,
    }
    doc = {"version": FAULT_VERSION, **payload}
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":"))
        .encode("utf-8")
    ).hexdigest(), payload


def run_fault_cell(job: Job,
                   obs: Optional[WorkerObservation] = None
                   ) -> Dict[str, Any]:
    """Run one campaign cell (the body of the ``fault`` runner).

    With ``obs`` the run also records its ``fault_cell`` span and the
    worker counters for the parent to merge onto its timeline; the
    record is the same either way.
    """
    scenario, fault_dict = job
    fault = FaultSpec.from_dict(fault_dict) if fault_dict else None
    if obs is None:
        return run_scenario(scenario, fault)
    label = fault.describe() if fault is not None else "golden"
    with obs.spans.span("fault_cell", scenario=scenario, fault=label,
                        kind=(fault.kind if fault is not None
                              else "none")):
        record = run_scenario(scenario, fault)
    obs.metrics.counter("fault.cells").inc()
    if fault is not None:
        obs.metrics.counter(f"fault.kind.{fault.kind}.cells").inc()
    return record


def classify(golden: Dict[str, Any], faulty: Dict[str, Any]) -> str:
    """Place one faulty record into exactly one outcome class."""
    error = faulty.get("error")
    if error is not None:
        return "hang" if error["type"] == "HangDetected" else "crash"
    if not faulty["completed"]:
        return "hang"
    if faulty["detected"]:
        return "detected"
    if faulty["data"] != golden["data"]:
        return "sdc"
    return "masked"


@dataclass
class CampaignStats:
    """Volatile facts about one campaign run — never serialized into
    the result (which must be reproducible across runs and hosts)."""

    faults: int = 0
    computed: int = 0
    cache_hits: int = 0
    duplicates: int = 0
    workers: int = 1
    elapsed_s: float = 0.0

    def summary(self) -> str:
        return (
            f"{self.faults} faults: {self.cache_hits} cached, "
            f"{self.computed} computed ({self.duplicates} duplicate), "
            f"workers={self.workers}, {self.elapsed_s:.2f}s"
        )


@dataclass
class CampaignResult:
    """One campaign's classified outcomes, in input-fault order."""

    scenario: str
    golden: Dict[str, Any]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    stats: CampaignStats = field(default_factory=CampaignStats)

    def histogram(self) -> Dict[str, int]:
        """Outcome counts, every class present (zero-filled)."""
        hist = {outcome: 0 for outcome in OUTCOMES}
        for row in self.rows:
            hist[row["outcome"]] += 1
        return hist

    def by_kind(self) -> Dict[str, Dict[str, int]]:
        """Per-fault-kind outcome counts (kinds in first-seen order)."""
        table: Dict[str, Dict[str, int]] = {}
        for row in self.rows:
            kind = row["fault"]["kind"]
            hist = table.setdefault(
                kind, {outcome: 0 for outcome in OUTCOMES}
            )
            hist[row["outcome"]] += 1
        return table

    # ------------------------------------------------------------------
    # dependability figures of merit
    # ------------------------------------------------------------------
    def detection_coverage(self) -> float:
        """detected / (detected + sdc): how often the system's own
        redundancy catches a fault that corrupted the output."""
        hist = self.histogram()
        exposed = hist["detected"] + hist["sdc"]
        return hist["detected"] / exposed if exposed else 1.0

    def safe_ratio(self) -> float:
        """(masked + detected) / total: runs with no silent bad outcome."""
        if not self.rows:
            return 1.0
        hist = self.histogram()
        return (hist["masked"] + hist["detected"]) / len(self.rows)

    def dependability_table(self) -> str:
        """The human-readable kind × outcome report."""
        kinds = self.by_kind()
        width = max([len(k) for k in kinds] + [len("kind")])
        header = ["kind".ljust(width)] + [
            outcome.rjust(9) for outcome in OUTCOMES
        ] + ["total".rjust(7)]
        lines = [
            f"fault campaign: scenario={self.scenario} "
            f"faults={len(self.rows)}",
            "  ".join(header),
        ]
        for kind, hist in kinds.items():
            cells = [kind.ljust(width)] + [
                str(hist[outcome]).rjust(9) for outcome in OUTCOMES
            ] + [str(sum(hist.values())).rjust(7)]
            lines.append("  ".join(cells))
        total = self.histogram()
        cells = ["TOTAL".ljust(width)] + [
            str(total[outcome]).rjust(9) for outcome in OUTCOMES
        ] + [str(len(self.rows)).rjust(7)]
        lines.append("  ".join(cells))
        lines.append(
            f"detection coverage (detected/exposed): "
            f"{self.detection_coverage():.3f}   "
            f"safe ratio (masked+detected)/total: "
            f"{self.safe_ratio():.3f}"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        """The full, reproducible campaign result as JSON."""
        return json.dumps(
            {
                "version": FAULT_VERSION,
                "scenario": self.scenario,
                "golden": self.golden,
                "histogram": self.histogram(),
                "by_kind": self.by_kind(),
                "detection_coverage": self.detection_coverage(),
                "safe_ratio": self.safe_ratio(),
                "rows": self.rows,
            },
            sort_keys=True, indent=2,
        )


def run_campaign(
    scenario: str,
    faults: Iterable[FaultSpec],
    workers: int = 1,
    cache: Optional[CampaignStore] = None,
    span_tracer: Optional[SpanTracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    recorder=None,
    batch: bool = False,
) -> CampaignResult:
    """Run the golden reference plus one cell per fault; classify all.

    Identical execution discipline to :func:`repro.sweep.engine.run_sweep`:
    duplicate faults are computed once, cells in the ``cache`` store
    are served from it, and the rest go through
    :func:`~repro.campaign.service.run_jobs` — in-process for
    ``workers=1``, a process pool for more, the durable campaign
    service when a store is attached.  Attaching a ``span_tracer``
    puts per-fault spans (recorded inside the workers) onto the
    parent's Perfetto timeline without perturbing the records.
    ``recorder`` arms the flight recorder exactly as in ``run_sweep``
    — live run marks and heartbeats, never a byte in the records.

    ``batch=True`` routes the uncached cells of a software-only
    scenario (golden + every CPU fault) through one
    :class:`~repro.isa.BatchCpu` — one lane per cell, executed in the
    parent (DESIGN §14) and committed to the store, when there is one,
    before the remaining cells fan out.  Records, classification, and
    the stored content are byte-identical to the scalar path; only
    wall clock and the volatile stats change.  The flag is a no-op
    for scenarios that need the simulation kernel.
    """
    scenario_obj = lookup_scenario(scenario)
    faults = list(faults)
    ledger = CellLedger("fault", workers, store=cache, metrics=metrics,
                        span_tracer=span_tracer, recorder=recorder,
                        span_name="campaign", scenario=scenario,
                        faults=len(faults))
    metrics = ledger.metrics
    metrics.counter("fault.campaign.faults").inc(len(faults))

    def want(fault: Optional[FaultSpec]) -> str:
        """Request one cell; returns its fingerprint."""
        fingerprint, payload = _cell_job(scenario, fault)
        ledger.want(fingerprint, payload)
        return fingerprint

    with ledger:
        golden_fp = want(None)
        fault_fps = [want(fault) for fault in faults]
        if batch and scenario_obj.software is not None:
            _run_batch(ledger, scenario_obj, {
                golden_fp: None, **dict(zip(fault_fps, faults))})
        ledger.run()

        golden = ledger.records[golden_fp]
        if golden.get("error") or not golden.get("completed") \
                or golden.get("detected"):
            raise CampaignError(
                f"golden run of {scenario!r} is not a valid reference: "
                f"{golden!r}"
            )

        result = CampaignResult(scenario=scenario, golden=golden)
        for fault, fingerprint in zip(faults, fault_fps):
            record = ledger.records[fingerprint]
            result.rows.append({
                "fault": fault.to_dict(),
                "label": fault.describe(),
                "fingerprint": fingerprint,
                "outcome": classify(golden, record),
                "record": record,
            })

    result.stats = CampaignStats(
        faults=len(faults), computed=ledger.computed,
        cache_hits=ledger.cache_hits, duplicates=ledger.duplicates,
        workers=workers, elapsed_s=ledger.elapsed_s,
    )
    for outcome, count in result.histogram().items():
        metrics.counter(f"fault.outcome.{outcome}").inc(count)
    return result


def _run_batch(ledger: CellLedger, scenario_obj,
               spec_of: Dict[str, Optional[FaultSpec]]) -> None:
    """Take the golden and CPU-fault cells out of ``ledger.pending``
    and run them as lanes of one batch machine in this process,
    committing their records to the store when there is one."""
    lanes = [fp for fp, _payload in ledger.pending
             if spec_of[fp] is None or spec_of[fp].kind in CPU_KINDS]
    if not lanes:
        return
    taken = set(lanes)
    ledger.pending = [job for job in ledger.pending if job[0] not in taken]
    from repro.fault.scenarios import run_sw_batch

    t_batch = time.perf_counter()
    lane_records, batch_stats = run_sw_batch(
        scenario_obj, [spec_of[fp] for fp in lanes]
    )
    per_cell = (time.perf_counter() - t_batch) / len(lanes)
    metrics = ledger.metrics
    metrics.counter("fault.batch.lanes").inc(batch_stats.lanes)
    metrics.counter("fault.batch.dispatches").inc(batch_stats.dispatches)
    metrics.counter("fault.batch.drained").inc(batch_stats.drained())
    metrics.histogram("fault.batch.occupancy").observe(
        batch_stats.occupancy())
    if ledger.emitter is not None:
        ledger.emitter.emit(
            "batch", scenario=scenario_obj.name,
            lanes=batch_stats.lanes,
            dispatches=batch_stats.dispatches,
            drained=batch_stats.drained(),
            occupancy=round(batch_stats.occupancy(), 4),
            reasons=dict(batch_stats.reasons),
        )
    for fp, record in zip(lanes, lane_records):
        ledger.finish(fp, record, CellTiming(per_cell))
    if ledger.store is not None:
        ledger.store.put_many((fp, ledger.records[fp]) for fp in lanes)
