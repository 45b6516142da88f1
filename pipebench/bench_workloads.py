"""The three pipeline workloads, their inputs and their output checks.

Each workload is a closed loop driven from one process: the benchmark
calls the public entry point, waits for the result, checks it, and
calls again.  The seed feeds ``sample_faults`` for the campaigns and
sets the seed range of the sweep grid; the program sees only the
generated inputs.

Iteration ``i`` of a run uses input set ``i`` of the seed, drawn with
``set_seed(seed, i)``; set 0 is drawn from the seed itself.  A fault
sample's cost is heavy-tailed (a CPU fault that hangs the coproc
system costs ~20 typical cells), so one fixed set per seed makes the
figure depend on the seed by up to ~30%; fresh sets per iteration
average that out over a run.

``coproc_campaign``
    ``run_campaign("coproc", ...)``, in-process, no cache: the E18
    shape, bound by the DES kernel, with every cell rebuilding its
    program.
``swmac_campaign``
    ``run_campaign("swmac", ..., batch=True)``: no kernel; lanes run
    on the vector tier and drained lanes finish on the scalar tiers.
``store_sweep``
    ``run_sweep`` over a 2 generators x 2 cost models x 5 heuristics x
    seeds grid on a fresh ``CampaignStore`` with 2 shards, then the
    same grid again, warm, on that store.  ``annealing`` is left out:
    at ~0.5 s a cell it would be >90% of the run and hide the store.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.campaign.store import CampaignStore
from repro.fault.campaign import run_campaign
from repro.fault.scenarios import SCENARIOS, run_scenario
from repro.fault.spec import sample_faults
from repro.sweep import expand_grid, run_sweep

#: Inputs per iteration, by size.  ``tiny`` is the self-check size.
SIZES: Dict[str, Dict[str, int]] = {
    "default": {"coproc_faults": 600, "swmac_faults": 3000,
                "sweep_seeds": 8},
    "tiny": {"coproc_faults": 20, "swmac_faults": 60, "sweep_seeds": 1},
}

#: Lanes of the swmac campaign re-run on the scalar path, untimed.
SCALAR_SAMPLE = 16


#: Distance between the seeds of consecutive input sets.
SET_STRIDE = 1_000_000


def set_seed(seed: int, index: int) -> int:
    """The seed of input set ``index`` of a run on ``seed``."""
    return seed + SET_STRIDE * index


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True)


class Campaign:
    """A fault campaign over one scenario's sampled faults."""

    workers = 1

    def __init__(self, scenario: str, n_faults: int, seed: int,
                 batch: bool) -> None:
        self.scenario = scenario
        self.batch = batch
        self.n_faults = n_faults
        self.seed = seed
        self.select(0)

    def select(self, index: int) -> None:
        """Draw input set ``index`` (outside the timing)."""
        self.faults = sample_faults(
            SCENARIOS[self.scenario].targets, self.n_faults,
            seed=set_seed(self.seed, index))

    def cells(self) -> int:
        """The golden run plus one cell per fault."""
        return len(self.faults) + 1

    def run(self, **observe: Any) -> Any:
        kwargs = {"batch": True} if self.batch else {}
        return run_campaign(self.scenario, self.faults, **kwargs,
                            **observe)

    def fresh(self) -> None:
        """Nothing to reset between iterations: no cache is used."""

    def close(self) -> None:
        pass

    def digest(self, result: Any) -> str:
        return digest(result.to_json())

    def check(self, result: Any) -> List[str]:
        failures = []
        hist = result.histogram()
        if sum(hist.values()) != len(self.faults):
            failures.append(
                f"histogram sums to {sum(hist.values())}, "
                f"not {len(self.faults)} faults")
        if len(result.rows) != len(self.faults):
            failures.append(f"{len(result.rows)} rows for "
                            f"{len(self.faults)} faults")
        golden = result.golden
        if golden.get("error") or not golden.get("completed") \
                or golden.get("detected"):
            failures.append(f"golden record is not valid: {golden!r}")
        return failures

    def check_once(self, result: Any) -> List[str]:
        """Checks too slow for every iteration; run on one result."""
        if not self.batch:
            return []
        # the batch path promises records byte-identical to the scalar
        # path: re-run a fixed sample of lanes there and compare
        failures = []
        rows = result.rows
        stride = max(1, len(rows) // SCALAR_SAMPLE)
        for i in range(0, len(rows), stride)[:SCALAR_SAMPLE]:
            row = rows[i]
            scalar = run_scenario(self.scenario, self.faults[i])
            if canonical(scalar) != canonical(row["record"]):
                failures.append(
                    f"lane {row['label']}: batch record differs from "
                    f"the scalar run")
        if canonical(run_scenario(self.scenario)) \
                != canonical(result.golden):
            failures.append("golden: batch record differs from the "
                            "scalar run")
        return failures

    def outcomes(self, result: Any) -> Dict[str, str]:
        """Canonical fault JSON -> outcome class."""
        return {canonical(row["fault"]): row["outcome"]
                for row in result.rows}

    def moves_evaluated(self, result: Any) -> int:
        return 0

    def counters(self, result: Any) -> Dict[str, Any]:
        """Exact simulated statistics read off the output."""
        records = [result.golden] + [row["record"] for row in result.rows]
        return {
            "histogram": result.histogram(),
            "record_activations": sum(r["activations"] for r in records),
        }


class StoreSweep:
    """A cold sweep on a fresh store, then the same grid warm."""

    workers = 2

    def __init__(self, n_seeds: int, seed: int, workdir: Path) -> None:
        self.n_seeds = n_seeds
        self.seed = seed
        self.select(0)
        self.workdir = workdir
        self.generation = 0
        self.store: Optional[CampaignStore] = None
        self.fresh()

    def select(self, index: int) -> None:
        """Build the grid of input set ``index`` (outside the timing)."""
        first = set_seed(self.seed, index) * self.n_seeds
        self.grid = expand_grid(
            generators=("layered", "forkjoin"),
            cost_models=("default", "comm_heavy"),
            heuristics=("greedy", "vulcan", "cosyma", "gclp", "kl"),
            seeds=range(first, first + self.n_seeds),
        )

    def cells(self) -> int:
        """Every grid cell, once per pass."""
        return 2 * len(self.grid)

    def fresh(self) -> None:
        """Replace the store with an empty one (outside the timing)."""
        self.close()
        self.generation += 1
        path = self.workdir / f"store-{self.generation}" / "campaign.db"
        self.store = CampaignStore(path)

    def close(self) -> None:
        if self.store is not None:
            self.store.close()
            shutil.rmtree(self.store.path.parent, ignore_errors=True)
            self.store = None

    def run(self, **observe: Any) -> Any:
        cold = run_sweep(self.grid, workers=self.workers,
                         cache=self.store, **observe)
        warm = run_sweep(self.grid, workers=self.workers,
                         cache=self.store, **observe)
        return cold, warm

    def digest(self, result: Any) -> str:
        return digest(result[0].to_json())

    def check(self, result: Any) -> List[str]:
        cold, warm = result
        failures = []
        n = len(self.grid)
        if len(cold.records) != n:
            failures.append(f"cold table has {len(cold.records)} rows, "
                            f"grid has {n}")
        if cold.stats.computed != n:
            failures.append(f"cold pass computed {cold.stats.computed} "
                            f"of {n} cells")
        if warm.stats.computed != 0 or warm.stats.cache_hits != n:
            failures.append(
                f"warm pass computed {warm.stats.computed} cells and "
                f"hit {warm.stats.cache_hits} of {n}")
        if warm.to_json() != cold.to_json():
            failures.append("warm table differs from the cold table")
        return failures

    def check_once(self, result: Any) -> List[str]:
        return []

    def outcomes(self, result: Any) -> Dict[str, str]:
        return {}

    def moves_evaluated(self, result: Any) -> int:
        return sum(row["moves_evaluated"] for row in result[0].records)

    def counters(self, result: Any) -> Dict[str, Any]:
        return {"moves_evaluated": self.moves_evaluated(result)}


def build(name: str, seed: int, size: str, workdir: Path) -> Any:
    """Build one workload's inputs (and, for the sweep, open its store)."""
    sizes = SIZES[size]
    if name == "coproc_campaign":
        return Campaign("coproc", sizes["coproc_faults"], seed, batch=False)
    if name == "swmac_campaign":
        return Campaign("swmac", sizes["swmac_faults"], seed, batch=True)
    if name == "store_sweep":
        return StoreSweep(sizes["sweep_seeds"], seed, workdir)
    raise KeyError(f"unknown workload {name!r}")

