"""Campaign-as-a-service: durable, sharded, resumable experiment runs.

The execution substrate under the sweep, fault-campaign and explorer
engines:

* :mod:`repro.campaign.store` — :class:`CampaignStore`, the one result
  store: a SQLite file holding fingerprint-keyed results (versioned by
  ``CACHE_VERSION``, with a read-only importer for legacy JSON cache
  directories) and a lease-stamped persistent job queue;
* :mod:`repro.campaign.service` — :class:`CellLedger`, the engines'
  one per-run cell bookkeeping (dedupe, store lookup, counters, driver
  span, run marks, request-order results), and :func:`run_jobs`, their
  one fan-out: a process pool (:func:`pool_map`) without a store, or
  :func:`run_store_jobs` with one — the coordinator + N work-stealing
  shard processes that drain the queue with batched claim/commit
  transactions, reclaim dead leases, and make any interrupted campaign
  resumable with byte-identical final tables;
* :mod:`repro.campaign.runners` — the named payload→record runner
  registry shards execute from.

Quick tour::

    from repro.campaign import CampaignStore
    from repro.sweep import expand_grid, run_sweep

    store = CampaignStore("campaign.sqlite")
    grid = expand_grid(heuristics=("greedy", "kl"), seeds=range(32))
    table = run_sweep(grid, workers=4, cache=store)   # kill it anytime;
    table = run_sweep(grid, workers=4, cache=store)   # resumes, 0 recompute
"""

from repro.campaign.store import (
    CACHE_VERSION,
    CacheVersionError,
    CampaignStore,
    CampaignStoreError,
    JOB_STATES,
)
from repro.campaign.service import (
    CampaignCellError,
    CampaignInterrupted,
    CellLedger,
    CellTiming,
    PoolJobError,
    pool_map,
    run_jobs,
    run_store_jobs,
)
from repro.campaign.runners import (
    RUNNERS,
    get_runner,
    register_runner,
)

__all__ = [
    "CACHE_VERSION",
    "CacheVersionError",
    "CampaignStore",
    "CampaignStoreError",
    "JOB_STATES",
    "CampaignCellError",
    "CampaignInterrupted",
    "CellLedger",
    "CellTiming",
    "PoolJobError",
    "pool_map",
    "run_jobs",
    "run_store_jobs",
    "RUNNERS",
    "get_runner",
    "register_runner",
]
