"""Per-layer timing for the pipeline benchmark, from the outside.

The program itself carries no per-layer tracing yet, so this module
wraps the public functions of each layer (and a few public methods)
and accumulates, per layer, the call count, the inclusive time and the
*self* time: a call's duration minus the part of it that nested
wrapped calls cover.  Summed self times therefore never count one
interval twice.

Layer names follow the package's modules:

``kernel``     ``Simulator.run``
``isa``        ``assemble``, ``Isa.decode_uncached`` (memo misses, the
               decodes that do work), ``Cpu.run_block``, ``Cpu.step``,
               ``BatchCpu.run``
``fault``      the campaign's ``run_scenario`` calls, ``run_sw_batch``,
               ``FaultInjector.arm``
``partition``  ``SweepConfig.build_problem`` and ``HEURISTICS[...]``
``store``      ``CampaignStore.get/enqueue/claim/commit``
``pool``       ``run_store_jobs`` (its self time is the coordinator
               waiting on, and polling, its shards)

The wrappers are installed in the parent before any worker forks, so
forked campaign shards inherit them.  A shard's totals are written to
a spool file when it exits and merged by :meth:`LayerTracer.collect`.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.campaign import service
from repro.campaign.store import CampaignStore
from repro.cosim.kernel import Simulator
from repro.fault import campaign, scenarios
from repro.fault.inject import FaultInjector
from repro.isa import assembler
from repro.isa.batch import BatchCpu
from repro.isa.cpu import Cpu
from repro.isa.instructions import Isa
from repro.partition import HEURISTICS
from repro.sweep.config import SweepConfig

#: The heuristics the sweep workload runs, one ``partition.<h>_s`` each.
SWEEP_HEURISTICS = ("greedy", "vulcan", "cosyma", "gclp", "kl")

#: (owner, attribute, layer name).  Owners are modules, classes or
#: the ``HEURISTICS`` registry; every callee resolves the attribute at
#: call time, which is what lets a patched attribute see every call.
_TARGETS: List[Tuple[Any, str, str]] = [
    (Simulator, "run", "kernel.run"),
    (assembler, "assemble", "isa.assemble"),
    (Isa, "decode_uncached", "isa.decode"),
    (Cpu, "run_block", "isa.run_block"),
    (Cpu, "step", "isa.step"),
    (BatchCpu, "run", "isa.batch.run"),
    (campaign, "run_scenario", "fault.cell"),
    (scenarios, "run_sw_batch", "fault.batch"),
    (FaultInjector, "arm", "fault.arm"),
    (SweepConfig, "build_problem", "sweep.build_problem"),
    (CampaignStore, "get", "store.get"),
    (CampaignStore, "enqueue", "store.enqueue"),
    (CampaignStore, "claim", "store.claim"),
    (CampaignStore, "commit", "store.commit"),
    (service, "run_store_jobs", "pool.coordinator"),
] + [(HEURISTICS, h, f"partition.{h}") for h in SWEEP_HEURISTICS]


def _get(owner: Any, attr: str) -> Any:
    if isinstance(owner, dict):
        return owner[attr]
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def _set(owner: Any, attr: str, value: Any) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class LayerTracer:
    """Accumulates per-layer calls and times while installed.

    ``spool`` is the directory forked workers write their totals to.
    """

    def __init__(self, spool: Path) -> None:
        self.spool = spool
        self.calls: Dict[str, int] = defaultdict(int)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: (fault dict or None, inclusive seconds) per run_scenario call
        self.cells: List[Tuple[Optional[Dict[str, Any]], float]] = []
        #: instances built while installed, for their exact counters
        self.cpus: List[Cpu] = []
        self.sims: List[Simulator] = []
        self._stack: List[float] = []
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        for owner, attr, name in _TARGETS:
            original = _get(owner, attr)
            self._patches.append(
                (owner, attr, original, self._timed(original, name)))
        for cls, bucket in ((Cpu, self.cpus), (Simulator, self.sims)):
            original = cls.__dict__["__init__"]
            self._patches.append(
                (cls, "__init__", original,
                 self._tracked(original, bucket)))
        mp_util.register_after_fork(self, LayerTracer._after_fork)

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _timed(self, fn: Callable, name: str) -> Callable:
        stack = self._stack
        calls, incl_s, self_s = self.calls, self.incl_s, self.self_s
        cells = self.cells
        clock = time.perf_counter
        record_cell = name == "fault.cell"

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[name] += 1
                incl_s[name] += elapsed
                self_s[name] += elapsed - children
                if record_cell:
                    fault = (args[1] if len(args) > 1
                             else kwargs.get("fault"))
                    cells.append(
                        (fault.to_dict() if fault is not None else None,
                         elapsed))

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _tracked(init: Callable, bucket: List[Any]) -> Callable:
        def wrapper(self, *args, **kwargs):
            init(self, *args, **kwargs)
            bucket.append(self)

        wrapper.__wrapped__ = init
        return wrapper

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            _set(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            _set(owner, attr, original)

    def reset(self) -> None:
        for table in (self.calls, self.incl_s, self.self_s):
            table.clear()
        self.cells.clear()
        self.cpus.clear()
        self.sims.clear()
        self._stack.clear()

    # ------------------------------------------------------------------
    # forked workers
    # ------------------------------------------------------------------
    def _after_fork(self) -> None:
        # runs in the child: start from zero and spool the totals at
        # exit (multiprocessing runs exit-priority finalizers even
        # though the child leaves through os._exit)
        self.reset()
        mp_util.Finalize(self, self._spool_totals, exitpriority=10)

    def _spool_totals(self) -> None:
        if not self.calls:
            return
        doc = {"calls": self.calls, "incl_s": self.incl_s,
               "self_s": self.self_s}
        path = self.spool / f"layers-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc))
        tmp.replace(path)

    def collect(self) -> None:
        """Merge and delete the spooled totals of exited workers."""
        for path in sorted(self.spool.glob("layers-*.json")):
            doc = json.loads(path.read_text())
            for key, table in (("calls", self.calls),
                               ("incl_s", self.incl_s),
                               ("self_s", self.self_s)):
                for name, value in doc[key].items():
                    table[name] += value
            path.unlink()


def _quantile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(
    tracer: LayerTracer,
    wall_s: float,
    workers: int,
    outcomes: Dict[str, str],
    registry: Any,
    spans: Any,
    moves_evaluated: int,
    outcome_names: Tuple[str, ...],
) -> Dict[str, float]:
    """The per-layer metrics of one traced iteration.

    ``outcomes`` maps a fault's canonical JSON to its outcome class;
    ``registry``/``spans`` are the ``metrics=``/``span_tracer=``
    objects the driver filled; ``wall_s`` is the traced wall time.
    """
    calls, self_s = tracer.calls, tracer.self_s
    m: Dict[str, float] = {}

    def count(name: str) -> int:
        counter = registry.counters.get(name)
        return counter.value if counter is not None else 0

    kernel_s = self_s["kernel.run"]
    activations = sum(sim.activations for sim in tracer.sims)
    m["kernel.run_s"] = kernel_s
    m["kernel.activations"] = activations
    m["kernel.activations_per_s"] = (
        activations / kernel_s if kernel_s > 0 else 0.0)

    durations = [elapsed for _fault, elapsed in tracer.cells]
    m["fault.cell_s.p50"] = _quantile(durations, 0.50)
    m["fault.cell_s.p99"] = _quantile(durations, 0.99)
    by_outcome = {outcome: 0.0 for outcome in outcome_names}
    for fault, elapsed in tracer.cells:
        if fault is not None:
            by_outcome[outcomes[json.dumps(fault, sort_keys=True)]] += elapsed
    for outcome in outcome_names:
        m[f"fault.cell_s.{outcome}"] = by_outcome[outcome]
    for outcome in outcome_names:
        m[f"fault.outcome.{outcome}"] = count(f"fault.outcome.{outcome}")
    m["fault.arm_s"] = self_s["fault.arm"]
    m["fault.self_s"] = self_s["fault.cell"] + self_s["fault.batch"]

    for short, name in (("assemble", "isa.assemble"),
                        ("decode", "isa.decode"),
                        ("run_block", "isa.run_block"),
                        ("step", "isa.step")):
        m[f"isa.{short}.calls"] = calls[name]
        m[f"isa.{short}_s"] = self_s[name]
    m["isa.instr_retired"] = sum(cpu.instr_count for cpu in tracer.cpus)
    m["isa.translate.compiles"] = sum(
        cpu.translator.translations for cpu in tracer.cpus
        if cpu.translator is not None)

    m["isa.batch.run_s"] = self_s["isa.batch.run"]
    m["isa.batch.dispatches"] = count("fault.batch.dispatches")
    m["isa.batch.lanes"] = count("fault.batch.lanes")
    m["isa.batch.drained"] = count("fault.batch.drained")
    occupancy = registry.histograms.get("fault.batch.occupancy")
    m["isa.batch.occupancy"] = (
        occupancy.mean if occupancy is not None and occupancy.count
        else 0.0)

    for h in SWEEP_HEURISTICS:
        m[f"partition.{h}_s"] = self_s[f"partition.{h}"]
    m["partition.moves_evaluated"] = moves_evaluated
    m["sweep.build_problem_s"] = self_s["sweep.build_problem"]

    for op in ("get", "enqueue", "claim", "commit"):
        m[f"store.{op}_s"] = self_s[f"store.{op}"]
        m[f"store.{op}.calls"] = calls[f"store.{op}"]

    queue_wait = 0.0
    for name in ("sweep.cell.wait_s", "fault.cell.wait_s"):
        hist = registry.histograms.get(name)
        if hist is not None:
            queue_wait += hist.total
    m["pool.wait_s"] = self_s["pool.coordinator"] + queue_wait
    m["sweep.cache.hits"] = count("sweep.cache.hits")
    m["sweep.cache.misses"] = count("sweep.cache.misses")

    # a cell is one fault run (a span per cell) or, on the batch path,
    # the whole batch call; cell time is what the workers spend inside
    cell_s = sum(s.duration for s in spans.finished
                 if s.name in ("cell", "fault_cell"))
    cell_s += tracer.incl_s["fault.batch"]
    overhead = wall_s - cell_s / workers
    m["driver.overhead_s"] = overhead
    in_cell = sum(
        self_s[name] for name in (
            "kernel.run", "isa.assemble", "isa.decode", "isa.run_block",
            "isa.step", "isa.batch.run", "fault.cell", "fault.batch",
            "fault.arm", "sweep.build_problem",
        ) + tuple(f"partition.{h}" for h in SWEEP_HEURISTICS)
    )
    m["trace.attributed_frac"] = (
        (in_cell / workers + overhead) / wall_s if wall_s > 0 else 0.0)
    return m
