"""Tests for the coordinator + shard service and engine integration."""

import pytest

from repro.campaign import (
    CampaignCellError,
    CampaignStore,
    CampaignStoreError,
    PoolJobError,
    register_runner,
    run_jobs,
    run_store_jobs,
)
from repro.campaign.runners import RUNNERS, run_sweep_payload
from repro.cosim.metrics import MetricsRegistry
from repro.sweep import SweepCellError, expand_grid, run_cell, run_sweep


def small_grid(heuristics=("greedy", "vulcan"), seeds=range(2)):
    return expand_grid(
        generators=("layered", "pipeline"),
        n_tasks=(6,),
        heuristics=heuristics,
        seeds=seeds,
    )


@pytest.fixture
def store(tmp_path):
    return CampaignStore(tmp_path / "store.sqlite")


class TestInMemoryStore:
    """Shards reopen the store by path, so an in-memory store would
    hand each of them a fresh, empty database and lose the campaign;
    it is rejected up front instead."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_campaign_on_memory_store_is_rejected(self, workers):
        from repro.fault.campaign import run_campaign
        from repro.fault.scenarios import SCENARIOS
        from repro.fault.spec import sample_faults

        faults = sample_faults(SCENARIOS["coproc"].targets, 4, seed=0)
        with pytest.raises(CampaignStoreError, match=":memory:"):
            run_campaign("coproc", faults, workers=workers,
                         cache=CampaignStore(":memory:"))

    def test_run_store_jobs_rejects_memory_store(self):
        grid = small_grid(seeds=range(1))
        with pytest.raises(CampaignStoreError, match=":memory:"):
            run_store_jobs(
                CampaignStore(":memory:"), "sweep",
                [(c.fingerprint, {"config": c.to_dict(), "weights": None})
                 for c in grid],
                workers=1, on_done=lambda *args: None)


class TestRunStoreJobs:
    def test_inline_end_to_end(self, store):
        grid = small_grid()
        done = {}
        run_store_jobs(
            store, "sweep",
            [(c.fingerprint, {"config": c.to_dict(), "weights": None})
             for c in grid],
            workers=1,
            on_done=lambda fp, record, obs, el: done.update({fp: record}),
        )
        assert set(done) == {c.fingerprint for c in grid}
        for config in grid:
            assert done[config.fingerprint] == run_cell(config)
            assert store.get(config.fingerprint) == done[config.fingerprint]

    def test_sharded_matches_inline(self, tmp_path):
        grid = small_grid()
        jobs = [
            (c.fingerprint, {"config": c.to_dict(), "weights": None})
            for c in grid
        ]
        inline, sharded = {}, {}
        run_store_jobs(CampaignStore(tmp_path / "a.sqlite"), "sweep",
                       jobs, workers=1,
                       on_done=lambda fp, r, o, e: inline.update({fp: r}))
        run_store_jobs(CampaignStore(tmp_path / "b.sqlite"), "sweep",
                       jobs, workers=3,
                       on_done=lambda fp, r, o, e: sharded.update({fp: r}))
        assert inline == sharded

    def test_elapsed_is_in_worker_time(self, store):
        grid = small_grid(heuristics=("greedy",), seeds=range(1))
        timings = []
        run_store_jobs(
            store, "sweep",
            [(c.fingerprint, {"config": c.to_dict(), "weights": None})
             for c in grid],
            workers=1,
            on_done=lambda fp, r, o, elapsed: timings.append(elapsed),
        )
        assert all(0.0 < t < 60.0 for t in timings)

    def test_failed_cell_raises_with_fingerprint(self, store):
        register_runner("test_boom", _boom_runner)
        try:
            jobs = [("a" * 64, {"ok": True}), ("b" * 64, {"boom": True})]
            done = {}
            with pytest.raises(CampaignCellError) as exc:
                run_store_jobs(store, "test_boom", jobs, workers=1,
                               on_done=lambda fp, r, o, e:
                               done.update({fp: r}))
            assert "b" * 64 in str(exc.value)
            assert set(exc.value.failures) == {"b" * 64}
            # the good cell was committed and delivered before the raise
            assert done == {"a" * 64: {"ok": True}}
            assert store.get("a" * 64) == {"ok": True}
            # the failure burned every attempt
            assert store.queue_counts()["failed"] == 1
        finally:
            del RUNNERS["test_boom"]

    def test_unknown_runner_name(self, store):
        with pytest.raises(KeyError, match="no_such_runner"):
            run_store_jobs(store, "no_such_runner",
                           [("a" * 64, {})], workers=1,
                           on_done=lambda *a: None)

    def test_rejects_bad_worker_count(self, store):
        with pytest.raises(ValueError):
            run_store_jobs(store, "sweep", [], workers=0,
                           on_done=lambda *a: None)


def _boom_runner(payload):
    if payload.get("boom"):
        raise RuntimeError("cell exploded")
    return dict(payload), None


class TestRunSweepOnStore:
    def test_tables_byte_identical_across_modes(self, tmp_path):
        grid = small_grid()
        plain = run_sweep(grid, workers=1)
        inline = run_sweep(grid, workers=1,
                           cache=CampaignStore(tmp_path / "a.sqlite"))
        sharded = run_sweep(grid, workers=2,
                            cache=CampaignStore(tmp_path / "b.sqlite"))
        assert inline.to_json() == plain.to_json()
        assert sharded.to_json() == plain.to_json()

    def test_warm_store_recomputes_nothing(self, tmp_path):
        grid = small_grid()
        store = CampaignStore(tmp_path / "s.sqlite")
        run_sweep(grid, workers=2, cache=store)
        metrics = MetricsRegistry()
        warm = run_sweep(grid, workers=2, cache=store, metrics=metrics)
        assert metrics.counter("sweep.cells.computed").value == 0
        assert metrics.counter("sweep.cache.hits").value == len(grid)
        assert warm.to_json() == run_sweep(grid, workers=1).to_json()

    def test_failed_cell_surfaces_as_sweep_cell_error(self, store):
        register_runner("sweep", _sweep_boom, )
        try:
            grid = small_grid(heuristics=("greedy",), seeds=range(2))
            with pytest.raises(SweepCellError) as exc:
                run_sweep(grid, workers=1, cache=store)
            assert exc.value.fingerprint in {c.fingerprint for c in grid}
        finally:
            from repro.campaign.runners import run_sweep_payload

            register_runner("sweep", run_sweep_payload)

    def test_campaign_metrics_counters(self, store):
        grid = small_grid(heuristics=("greedy",))
        metrics = MetricsRegistry()
        run_sweep(grid, workers=1, cache=store, metrics=metrics)
        snap = metrics.snapshot()["counters"]
        assert snap["campaign.jobs.enqueued"] == len(grid)
        assert snap["campaign.jobs.committed"] == len(grid)


def _sweep_boom(payload):
    raise RuntimeError("sweep cell exploded")


def _tagged_sweep(payload):
    record, obs = run_sweep_payload(payload)
    return dict(record, runner="tagged"), obs


class TestRunJobs:
    def test_pool_and_store_run_the_same_registered_runner(self, store):
        """Both execution modes resolve the runner by name from the
        registry — overriding ``sweep`` changes the rows of each."""
        grid = small_grid(heuristics=("greedy",))
        register_runner("sweep", _tagged_sweep)
        try:
            pooled = run_sweep(grid, workers=1)
            stored = run_sweep(grid, workers=1, cache=store)
        finally:
            register_runner("sweep", run_sweep_payload)
        assert [r["runner"] for r in pooled] == ["tagged"] * len(grid)
        assert [r["runner"] for r in stored] == ["tagged"] * len(grid)
        assert pooled.to_json() == stored.to_json()
        assert store.get(grid[0].fingerprint)["runner"] == "tagged"

    def test_pool_failure_names_the_job(self):
        register_runner("test_boom", _boom_runner)
        try:
            jobs = [("a" * 64, {"ok": True}), ("b" * 64, {"boom": True})]
            done = {}
            with pytest.raises(PoolJobError) as exc:
                run_jobs("test_boom", jobs, workers=1,
                         on_done=lambda fp, r, t, o: done.update({fp: r}))
            assert exc.value.job[0] == "b" * 64
            assert done == {"a" * 64: {"ok": True}}
        finally:
            del RUNNERS["test_boom"]
