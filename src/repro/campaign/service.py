"""The one cell ledger and the one fan-out every experiment engine
runs its cells through.

:class:`CellLedger` is the per-run bookkeeping
:func:`repro.sweep.engine.run_sweep`,
:func:`repro.fault.campaign.run_campaign` and
:func:`repro.explore.driver.explore` share: dedupe, store lookup,
counters, the driver span, flight-recorder run marks, and records
handed back in request order.  Its :meth:`CellLedger.run` hands the
cache misses to :func:`run_jobs`: a list of ``(fingerprint, payload)``
jobs, each executed by a named runner from
:mod:`repro.campaign.runners`.  Without a store it fans them over
:func:`pool_map` (in-process for one worker, a process pool for more);
with a :class:`~repro.campaign.store.CampaignStore` it runs them through
:func:`run_store_jobs`, the durable, resumable mode:

* the coordinator reclaims stale leases (instant resume after a
  SIGKILL'd run), enqueues the still-missing cells, and spawns shard
  processes;
* each shard loops *claim batch → compute → commit batch* against the
  store, so any interruption loses at most one uncommitted batch and a
  restarted campaign recomputes only uncommitted cells;
* shards steal work: a claim considers expired or dead-owner leases
  runnable, so one slow or dead shard never strands its cells;
* the coordinator streams completions back through ``on_done`` in
  deterministic (fingerprint) batches — callers key results by
  fingerprint, so table order never depends on completion order.

Shards talk to the coordinator *only through the store*.  That is the
point: the same protocol runs N processes on one box today and N boxes
against one database file (or a socket-served store) later, and a
coordinator crash is no worse than a worker crash — the queue is the
one source of truth.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.campaign.runners import get_runner
from repro.campaign.store import CampaignStore, CampaignStoreError
from repro.cosim.metrics import MetricsRegistry
from repro.obs.live import (
    DEFAULT_HEARTBEAT_S,
    StoreRecorder,
    TelemetryEmitter,
)

#: ``on_done(fingerprint, record, obs_or_none, in_worker_elapsed_s)``.
OnDone = Callable[[str, Dict[str, Any], Optional[Dict[str, Any]], float],
                  None]

#: One job: ``(fingerprint, JSON payload for the runner)``.
Job = Tuple[str, Dict[str, Any]]


@dataclass(frozen=True)
class CellTiming:
    """Where one job's wall-clock went.

    ``elapsed_s`` is measured *inside* the worker, around ``fn(job)``
    alone; ``wait_s`` is the queue wait between submission and the
    worker picking the job up.  The old single number started the
    clock at submission, so "cell time" silently inflated with worker
    count — a 4-worker sweep looked like it had 4x slower cells.
    ``wait_s`` is ``None`` when the execution path has no submission
    queue to measure (the campaign store's durable queue, for one).
    """

    elapsed_s: float
    wait_s: Optional[float] = None


class PoolJobError(RuntimeError):
    """``fn(job)`` raised; carries which job so callers can name it.

    Completions that arrived before the failure were already delivered
    through ``on_done`` — nothing finished is lost.
    """

    def __init__(self, job: Any, cause: BaseException) -> None:
        super().__init__(
            f"pool job {job!r} failed: {type(cause).__name__}: {cause}"
        )
        self.job = job


def _timed_call(fn: Callable[[Any], Any], submit_pc: float, job: Any):
    """Worker-side wrapper: run the job and clock it *here*.

    Returns ``(result, wait_s, elapsed_s)``.  ``perf_counter`` is
    system-wide on Linux (CLOCK_MONOTONIC), the same property the span
    tracer already relies on, so ``start - submit_pc`` measured across
    the process boundary is a real queue wait.
    """
    start = time.perf_counter()
    result = fn(job)
    return result, start - submit_pc, time.perf_counter() - start


def pool_map(
    fn: Callable[[Any], Any],
    jobs: List[Any],
    workers: int,
    on_done: Callable[[Any, Any, CellTiming], None],
) -> None:
    """Run ``fn(job)`` for every job and report each completion.

    The store-less execution mode of :func:`run_jobs`: ``workers == 1``
    (or a single job) runs in-process with no pool; more workers fan
    jobs over a ``ProcessPoolExecutor``.  ``on_done(job, result,
    timing)`` fires in *completion* order — callers that need
    deterministic output must key results by job identity, never by
    arrival order.  ``fn`` must be picklable (a top-level function or
    a ``functools.partial`` of one).

    A failing job raises :class:`PoolJobError` naming the job — after
    every completion that beat it to the finish line has been
    delivered, and with the remaining submissions cancelled.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1 or len(jobs) <= 1:
        for job in jobs:
            t0 = time.perf_counter()
            try:
                result = fn(job)
            except Exception as exc:
                raise PoolJobError(job, exc) from exc
            on_done(job, result,
                    CellTiming(time.perf_counter() - t0, 0.0))
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        submitted = {
            pool.submit(_timed_call, fn, time.perf_counter(), job): job
            for job in jobs
        }
        outstanding = set(submitted)
        try:
            while outstanding:
                done, outstanding = wait(
                    outstanding, return_when=FIRST_COMPLETED
                )
                failed = None
                for future in done:
                    job = submitted[future]
                    exc = future.exception()
                    if exc is not None:
                        # deliver this round's successes first; then
                        # fail on one deterministic representative
                        if failed is None:
                            failed = (job, exc)
                        continue
                    result, wait_s, elapsed_s = future.result()
                    on_done(job, result, CellTiming(elapsed_s, wait_s))
                if failed is not None:
                    job, exc = failed
                    raise PoolJobError(job, exc) from exc
        except PoolJobError:
            for future in outstanding:
                future.cancel()
            raise


class CampaignInterrupted(RuntimeError):
    """Every shard died while runnable jobs remained.

    The committed cells are safe in the store — re-running the same
    campaign against it resumes where this one stopped.
    """


class CampaignCellError(RuntimeError):
    """One or more cells failed on every attempt.

    ``failures`` maps fingerprint → last error text; completed cells
    stay committed, so a fixed build re-runs only the failures.
    """

    def __init__(self, failures: Dict[str, str]) -> None:
        first = next(iter(sorted(failures)))
        super().__init__(
            f"{len(failures)} campaign cell(s) failed on every "
            f"attempt; first: {first} ({failures[first]}); completed "
            f"cells remain committed in the store"
        )
        self.failures = dict(failures)


def _shard_main(path, lease_s: float, max_attempts: int,
                runner_name: str, batch: int, poll_s: float,
                heartbeat_s: Optional[float] = None) -> None:
    """One shard process: claim → compute → commit until drained.

    With ``heartbeat_s`` set, the shard also heartbeats into the
    store's ``telemetry`` table (cumulative ``done``/``failed`` gauges
    plus the in-flight batch size) so the coordinator, a live
    ``campaign_top``, and :meth:`CampaignStore.reclaim_stale` can all
    judge its liveness from the outside.  ``None`` constructs no
    telemetry object at all — the zero-cost-when-disabled contract.
    """
    store = CampaignStore(path, lease_s=lease_s,
                          max_attempts=max_attempts)
    runner = get_runner(runner_name)
    owner = f"pid:{os.getpid()}"
    emitter = None
    if heartbeat_s is not None:
        emitter = TelemetryEmitter(StoreRecorder(store), owner=owner,
                                   role="shard",
                                   interval_s=heartbeat_s)
    done = failed = 0
    while True:
        jobs = store.claim(owner, batch)
        if emitter is not None:
            emitter.heartbeat(done=done, failed=failed,
                              in_flight=len(jobs))
        if not jobs:
            if store.remaining_runnable() == 0:
                if emitter is not None:
                    emitter.heartbeat(force=True, done=done,
                                      failed=failed, in_flight=0,
                                      exiting=True)
                return
            # peers hold live leases; wait for expiry/reclaim to steal
            time.sleep(poll_s)
            continue
        completed = []
        for fingerprint, payload in jobs:
            t0 = time.perf_counter()
            try:
                record, obs = runner(payload)
            except Exception as exc:  # noqa: BLE001 — cell isolation
                store.fail(owner, fingerprint,
                           f"{type(exc).__name__}: {exc}")
                failed += 1
                continue
            completed.append(
                (fingerprint, record, obs, time.perf_counter() - t0)
            )
            if emitter is not None:
                emitter.heartbeat(
                    done=done + len(completed), failed=failed,
                    in_flight=len(jobs) - len(completed))
        store.commit(owner, completed)
        done += len(completed)


def run_store_jobs(
    store: CampaignStore,
    runner_name: str,
    jobs: Iterable[Tuple[str, Dict[str, Any]]],
    workers: int,
    on_done: OnDone,
    batch: int = 2,
    poll_s: float = 0.02,
    metrics=None,
    span_tracer=None,
    recorder=None,
    heartbeat_s: Optional[float] = None,
) -> None:
    """Run ``jobs`` through the store's queue on ``workers`` shards.

    ``workers == 1`` runs the shard loop in-process (still durable and
    resumable — every batch commits); more workers spawn shard
    processes and the coordinator streams completions, reclaims stale
    leases, and emits queue-depth telemetry.  Raises
    :class:`CampaignCellError` when cells exhausted their attempts and
    :class:`CampaignInterrupted` when all shards died early, and
    :class:`CampaignStoreError` for an in-memory store: every shard,
    the in-process one too, reopens the store by path.

    ``recorder``/``heartbeat_s`` arm the flight recorder: shards
    heartbeat into the store's ``telemetry`` table every
    ``heartbeat_s`` seconds and the coordinator records its own
    heartbeats plus ``queue`` gauge samples to ``recorder`` (default:
    the store itself).  Both ``None`` — the default — constructs no
    telemetry object anywhere on the path.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if str(store.path) == ":memory:":
        raise CampaignStoreError(
            f"store {str(store.path)!r} is in memory, but campaign "
            f"shards reopen the store by path; use a file")
    if heartbeat_s is None and recorder is not None:
        heartbeat_s = DEFAULT_HEARTBEAT_S
    emitter = None
    if heartbeat_s is not None:
        # owner "coord:<pid>" keeps the coordinator's stream distinct
        # from an in-process shard's "pid:<pid>" lease owner
        emitter = TelemetryEmitter(
            recorder if recorder is not None else StoreRecorder(store),
            owner=f"coord:{os.getpid()}",
            role="coordinator", interval_s=heartbeat_s,
        )
    reclaimed = store.reclaim_stale()
    if reclaimed and metrics is not None:
        metrics.counter("campaign.leases.reclaimed").inc(reclaimed)
    jobs = list(jobs)
    remaining = store.enqueue(jobs)
    if metrics is not None:
        metrics.counter("campaign.jobs.enqueued").inc(len(jobs))

    #: only this run's jobs flow back through on_done — a resumed
    #: store also holds done-but-never-drained rows from an earlier,
    #: interrupted coordinator, and those are the caller's cache hits,
    #: not completions it asked this run to compute
    wanted = {fingerprint for fingerprint, _ in jobs}
    delivered = set()

    def deliver(fingerprint, record, obs, elapsed) -> None:
        if fingerprint not in wanted or fingerprint in delivered:
            return
        delivered.add(fingerprint)
        if metrics is not None:
            metrics.counter("campaign.jobs.committed").inc()
        on_done(fingerprint, record, obs, elapsed)

    def drain() -> None:
        for completion in store.drain_completed():
            deliver(*completion)

    def depth_event() -> None:
        if span_tracer is not None:
            counts = store.queue_counts()
            span_tracer.event("queue.depth", **counts)

    def pulse(force: bool = False, exiting: bool = False) -> None:
        # coordinator-side flight-recorder sample: heartbeat + the
        # queue gauges a live status view renders its footer from
        if emitter is None:
            return
        data = {"done": len(delivered), "workers": workers}
        if exiting:
            data["exiting"] = True
        if emitter.heartbeat(force=force, **data):
            emitter.emit("queue", **store.queue_counts())

    depth_event()
    pulse(force=True)
    if workers == 1 or remaining <= 1:
        args = (store.path, store.lease_s, store.max_attempts,
                runner_name, batch, poll_s, heartbeat_s)
        _shard_main(*args)
    else:
        ctx = multiprocessing.get_context()
        shards = [
            ctx.Process(
                target=_shard_main,
                args=(store.path, store.lease_s, store.max_attempts,
                      runner_name, batch, poll_s, heartbeat_s),
                name=f"campaign-shard-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for shard in shards:
            shard.start()
        try:
            while True:
                drain()
                depth_event()
                pulse()
                counts = store.queue_counts()
                undone = sum(
                    n for state, n in counts.items() if state != "done"
                )
                if undone == 0:
                    break
                stale = store.reclaim_stale()
                if stale and metrics is not None:
                    metrics.counter(
                        "campaign.leases.reclaimed").inc(stale)
                if not any(s.is_alive() for s in shards):
                    if store.remaining_runnable() > 0:
                        raise CampaignInterrupted(
                            f"all {workers} shards exited with "
                            f"{store.remaining_runnable()} runnable "
                            f"job(s) left in {store.path}; re-run to "
                            f"resume from the committed cells"
                        )
                    break  # only permanently-failed jobs remain
                time.sleep(poll_s)
        finally:
            for shard in shards:
                shard.join(timeout=5.0)
                if shard.is_alive():
                    shard.terminate()
    drain()
    # belt-and-braces: anything committed but missed by the drain
    # cursor (e.g. drained by a concurrent coordinator) is read back
    # from the results table so every wanted job is delivered
    for fingerprint in sorted(wanted - delivered):
        record = store.get(fingerprint)
        if record is not None:
            deliver(fingerprint, record, None, 0.0)
    depth_event()
    pulse(force=True, exiting=True)

    failures = dict(store.failed_jobs())
    if failures:
        if metrics is not None:
            metrics.counter("campaign.cells.failed").inc(len(failures))
        raise CampaignCellError(failures)


def _run_job(runner_name: str, job: Job):
    """Pool-side body of :func:`run_jobs`: the named runner on one job.

    The runner travels by name, as it does to store shards, so a
    worker process resolves it from its own registry.
    """
    return get_runner(runner_name)(job[1])


def run_jobs(
    runner: str,
    jobs: Iterable[Job],
    workers: int,
    on_done: Callable[[str, Dict[str, Any], CellTiming,
                       Optional[Dict[str, Any]]], None],
    store: Optional[CampaignStore] = None,
    metrics=None,
    span_tracer=None,
    recorder=None,
    observed: bool = False,
) -> None:
    """Run ``(fingerprint, payload)`` jobs; the engines' one fan-out.

    Every job runs through the runner registered as ``runner`` — or
    ``<runner>_observed`` when a ``span_tracer`` is attached or
    ``observed`` is set (a sweep observed by a probe alone needs the
    worker payload without a tracer).  Without a ``store`` the jobs go to
    :func:`pool_map`; with one they go to :func:`run_store_jobs`,
    which commits every result to the store (``recorder`` is handed
    to it for the flight recorder).  Each completion's worker
    observability is merged here — metric deltas into ``metrics``,
    spans onto a ``"<runner> worker <pid>"`` (pool) or ``"campaign
    shard <pid>"`` (store) lane of ``span_tracer`` — before
    ``on_done(fingerprint, record, timing, obs)`` fires.

    Failures surface as :class:`PoolJobError` (pool, ``job`` is the
    failing ``(fingerprint, payload)``) or :class:`CampaignCellError`
    (store).
    """
    observed = observed or span_tracer is not None
    name = f"{runner}_observed" if observed else runner
    lane = "campaign shard" if store is not None else f"{runner} worker"

    def deliver(fingerprint: str, record: Dict[str, Any],
                obs: Optional[Dict[str, Any]], timing: CellTiming) -> None:
        if obs is not None:
            if metrics is not None:
                metrics.merge(obs["metrics"])
            if span_tracer is not None:
                span_tracer.merge_snapshot(
                    obs["spans"], lane=f"{lane} {obs['pid']}")
        on_done(fingerprint, record, timing, obs)

    if store is None:
        pool_map(functools.partial(_run_job, name), list(jobs), workers,
                 lambda job, out, timing: deliver(job[0], *out, timing))
    else:
        run_store_jobs(
            store, name, jobs, workers,
            lambda fp, record, obs, elapsed: deliver(
                fp, record, obs, CellTiming(elapsed)),
            metrics=metrics, span_tracer=span_tracer, recorder=recorder,
        )


#: :meth:`CellLedger.want` verdicts: the fingerprint is new (pending
#: until :meth:`CellLedger.run`), was served from the store, or was
#: already requested through this ledger.
NEW, CACHED, KNOWN = "new", "cached", "known"


class CellLedger:
    """One driver run's cells: named inputs in, records out, in order.

    The ledger maps fingerprint → payload for the cells still to
    compute (:attr:`pending`) and fingerprint → record for the results
    (:attr:`records`, ``None`` while pending).  :meth:`want` registers
    one requested cell — deduplicated, and served from the store when
    it is there; :meth:`run` fans the pending cells out through
    :func:`run_jobs`; :meth:`finish` books one computed record.
    :attr:`order` lists every distinct fingerprint in *request* order,
    so a driver that reads results through it gets the same order
    whether a record came from the store or from the fan-out, at any
    worker count and any store warmth.

    Entered as a context manager it also owns the run's telemetry:
    the driver span (``span_name``, default ``kind``) on a ``"<kind>
    driver"`` lane, closed however the run ends; and, with a
    ``recorder``, the flight-recorder ``run`` start/finish marks and
    progress heartbeats.  Without an ``owner`` the driver records only
    when no store is attached, because a store's coordinator and
    shards stream for it; a driver with samples of its own (the
    explorer's generations) names an ``owner`` distinct from theirs
    and always records.  ``about`` labels the span and the start mark.

    Counters: ``<kind>.cache.hits``/``misses``,
    ``<kind>.<unit>s.computed`` and the ``<kind>.<unit>.elapsed_s``/
    ``wait_s`` histograms.  A ``probe`` collects the convergence
    records observed workers ship back.
    """

    def __init__(self, kind: str, workers: int,
                 store: Optional[CampaignStore] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 span_tracer=None, recorder=None, probe=None,
                 owner: Optional[str] = None,
                 span_name: Optional[str] = None, unit: str = "cell",
                 **about: Any) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.kind = kind
        self.workers = workers
        self.store = store
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        self.span_tracer = span_tracer
        self.recorder = recorder
        self.probe = probe
        self.owner = owner
        self.about = {**about, "workers": workers}
        self._span_name = span_name if span_name is not None else kind
        self._computed_name = f"{kind}.{unit}s.computed"
        self._elapsed_name = f"{kind}.{unit}.elapsed_s"
        self._wait_name = f"{kind}.{unit}.wait_s"
        self.order: List[str] = []
        self.records: Dict[str, Optional[Dict[str, Any]]] = {}
        self.pending: List[Job] = []
        self.requested = self.computed = 0
        self.cache_hits = self.duplicates = 0
        self.elapsed_s = 0.0
        self.emitter: Optional[TelemetryEmitter] = None
        self._span = None

    # ------------------------------------------------------------------
    def __enter__(self) -> "CellLedger":
        self._t0 = time.perf_counter()
        if self.span_tracer is not None:
            self.span_tracer.name_lane(self.span_tracer.pid,
                                       f"{self.kind} driver")
            self._span = self.span_tracer.span(self._span_name,
                                               **self.about)
            self._span.__enter__()
        if self.recorder is not None \
                and (self.store is None or self.owner is not None):
            self.emitter = TelemetryEmitter(self.recorder,
                                            owner=self.owner,
                                            role=self.kind)
            self.emitter.emit("run", event="start", **self.about)
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed_s = time.perf_counter() - self._t0
        if self._span is not None:
            self._span.__exit__(*exc_info)
        if self.emitter is not None and exc_info[0] is None:
            # the final beat carries ``exiting`` so post-mortems read
            # a completed run as exited, not dead (rate limiting would
            # otherwise swallow it on short runs)
            self._beat(force=True, exiting=True)
            self.emitter.emit("run", event="finish",
                              done=self.computed + self.cache_hits,
                              computed=self.computed,
                              cache_hits=self.cache_hits,
                              elapsed_s=self.elapsed_s)

    def span(self, name: str, **attrs: Any):
        """A span under the driver span; a no-op without a tracer."""
        if self.span_tracer is None:
            return contextlib.nullcontext()
        return self.span_tracer.span(name, **attrs)

    def _beat(self, **flags: Any) -> None:
        self.emitter.heartbeat(**flags,
                               done=self.computed + self.cache_hits,
                               cache_hits=self.cache_hits,
                               total=self.requested)

    # ------------------------------------------------------------------
    def want(self, fingerprint: str, payload: Dict[str, Any],
             **event: Any) -> str:
        """Request one cell; returns :data:`NEW`, :data:`CACHED` or
        :data:`KNOWN`.  ``event`` labels its ``cache.hit`` span event."""
        self.requested += 1
        if fingerprint in self.records:
            self.duplicates += 1
            return KNOWN
        self.order.append(fingerprint)
        cached = (self.store.get(fingerprint)
                  if self.store is not None else None)
        self.records[fingerprint] = cached
        if cached is None:
            self.pending.append((fingerprint, payload))
            self.metrics.counter(f"{self.kind}.cache.misses").inc()
            return NEW
        self.cache_hits += 1
        self.metrics.counter(f"{self.kind}.cache.hits").inc()
        if self.span_tracer is not None:
            self.span_tracer.event("cache.hit", fingerprint=fingerprint,
                                   **event)
        return CACHED

    def finish(self, fingerprint: str, record: Dict[str, Any],
               timing: CellTiming,
               obs: Optional[Dict[str, Any]] = None) -> None:
        """Book one computed record (the ``on_done`` of :meth:`run`)."""
        self.records[fingerprint] = record
        self.computed += 1
        if self.emitter is not None:
            self._beat()
        self.metrics.counter(self._computed_name).inc()
        self.metrics.histogram(self._elapsed_name).observe(
            timing.elapsed_s)
        if timing.wait_s is not None:
            self.metrics.histogram(self._wait_name).observe(
                timing.wait_s)
        if obs is not None and self.probe is not None:
            self.probe.extend_from_dicts(obs["probe"])

    def run(self) -> None:
        """Compute every pending cell through :func:`run_jobs` — with
        the ``<kind>`` runner, or ``<kind>_observed`` under a tracer
        or probe."""
        jobs, self.pending = self.pending, []
        run_jobs(self.kind, jobs, self.workers, self.finish,
                 store=self.store, metrics=self.metrics,
                 span_tracer=self.span_tracer, recorder=self.recorder,
                 observed=self.probe is not None)
