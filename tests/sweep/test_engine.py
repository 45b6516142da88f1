"""Tests for the sweep engine: determinism, caching, parallelism.

The two load-bearing guarantees (ISSUE 2's determinism satellite):

* identical grid + seeds produce *byte-identical* result tables at
  ``workers=1`` and ``workers=4``;
* a second run against a warm cache recomputes nothing, asserted
  through the PR 1 metrics layer rather than by timing.
"""

import time

import pytest

from repro.campaign import CampaignStore, PoolJobError, pool_map
from repro.cosim.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.partition import HEURISTICS
from repro.sweep import (
    SweepCellError,
    SweepConfig,
    SweepResult,
    expand_grid,
    run_cell,
    run_sweep,
)


def small_grid(heuristics=("greedy", "vulcan"), seeds=range(2)):
    return expand_grid(
        generators=("layered", "pipeline"),
        n_tasks=(6,),
        heuristics=heuristics,
        seeds=seeds,
    )


class TestRunCell:
    def test_record_shape(self):
        config = SweepConfig(n_tasks=6, heuristic="greedy", seed=1)
        record = run_cell(config)
        assert record["fingerprint"] == config.fingerprint
        assert record["problem_key"] == config.problem_key()
        assert record["config"] == config.to_dict()
        assert record["algorithm"] == "greedy"
        assert record["n_hw"] + record["n_sw"] == record["n_tasks"]
        assert sorted(record["hw_tasks"]) == record["hw_tasks"]
        assert set(record["breakdown"]) == {
            "performance", "implementation_cost", "modifiability",
            "nature", "concurrency", "communication",
        }

    def test_record_is_deterministic(self):
        config = SweepConfig(n_tasks=7, heuristic="annealing", seed=3)
        assert run_cell(config) == run_cell(config)

    def test_stochastic_heuristic_seeded_per_cell(self):
        """Two cells differing only in seed see different problems AND
        different annealing trajectories."""
        a = run_cell(SweepConfig(n_tasks=8, heuristic="annealing", seed=0))
        b = run_cell(SweepConfig(n_tasks=8, heuristic="annealing", seed=1))
        assert a["fingerprint"] != b["fingerprint"]
        assert a != b


class TestDeterminism:
    def test_serial_vs_parallel_byte_identical(self):
        grid = small_grid()
        serial = run_sweep(grid, workers=1)
        parallel = run_sweep(grid, workers=4)
        assert serial.to_json() == parallel.to_json()

    def test_table_order_follows_grid_order(self):
        grid = small_grid()
        table = run_sweep(grid, workers=1)
        assert [r["fingerprint"] for r in table] == \
            [c.fingerprint for c in grid]

    def test_roundtrip_through_json(self, tmp_path):
        table = run_sweep(small_grid(), workers=1)
        path = tmp_path / "table.json"
        table.write_json(path)
        loaded = SweepResult.load(path)
        assert loaded == table
        assert loaded.to_json() == table.to_json()


class TestCaching:
    def test_second_run_is_fully_cached(self, tmp_path):
        grid = small_grid()
        cache = CampaignStore(tmp_path / "cache.sqlite")

        cold_metrics = MetricsRegistry()
        cold = run_sweep(grid, workers=1, cache=cache,
                         metrics=cold_metrics)
        assert cold_metrics.counter("sweep.cells.computed").value \
            == len(grid)
        assert cold_metrics.counter("sweep.cache.hits").value == 0

        warm_metrics = MetricsRegistry()
        warm = run_sweep(grid, workers=1, cache=cache,
                         metrics=warm_metrics)
        # zero recomputation, asserted via the metrics layer
        assert warm_metrics.counter("sweep.cells.computed").value == 0
        assert warm_metrics.counter("sweep.cache.hits").value == len(grid)
        assert warm.to_json() == cold.to_json()

    def test_incremental_grid_extension(self, tmp_path):
        cache = CampaignStore(tmp_path / "cache.sqlite")
        base = small_grid(heuristics=("greedy",))
        run_sweep(base, workers=1, cache=cache)

        extended = small_grid(heuristics=("greedy", "cosyma"))
        metrics = MetricsRegistry()
        table = run_sweep(extended, workers=1, cache=cache,
                          metrics=metrics)
        new_cells = len(extended) - len(base)
        assert metrics.counter("sweep.cells.computed").value == new_cells
        assert metrics.counter("sweep.cache.hits").value == len(base)
        assert len(table) == len(extended)

    def test_parallel_run_populates_cache(self, tmp_path):
        grid = small_grid()
        cache = CampaignStore(tmp_path / "cache.sqlite")
        run_sweep(grid, workers=2, cache=cache)
        assert len(cache) == len(grid)
        metrics = MetricsRegistry()
        run_sweep(grid, workers=1, cache=cache, metrics=metrics)
        assert metrics.counter("sweep.cells.computed").value == 0

    def test_duplicate_cells_computed_once(self):
        grid = expand_grid(generators=("layered",), n_tasks=(6,),
                           heuristics=("greedy",), seeds=[0, 0, 0])
        metrics = MetricsRegistry()
        table = run_sweep(grid, workers=1, metrics=metrics)
        assert len(table) == 3
        assert metrics.counter("sweep.cells.computed").value == 1
        assert table.stats.duplicates == 2
        assert len({r["fingerprint"] for r in table}) == 1


class TestObservability:
    def test_tracer_records_cells(self, tmp_path):
        grid = small_grid(heuristics=("greedy",))
        tracer = SpanTracer()
        cache = CampaignStore(tmp_path / "cache.sqlite")
        run_sweep(grid, workers=1, cache=cache, span_tracer=tracer)
        cells = tracer.spans_named("cell")
        assert len(cells) == len(grid)
        assert not [e for e in tracer.events if e.name == "cache.hit"]

        warm_tracer = SpanTracer()
        run_sweep(grid, workers=1, cache=cache, span_tracer=warm_tracer)
        hits = [e for e in warm_tracer.events if e.name == "cache.hit"]
        assert len(hits) == len(grid)
        assert not warm_tracer.spans_named("cell")

    def test_stats_summary_text(self):
        table = run_sweep(small_grid(heuristics=("greedy",)), workers=1)
        text = table.stats.summary()
        assert "cells" in text and "computed" in text

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            run_sweep(small_grid(), workers=0)


class TestTable:
    def test_comparison_report_lists_heuristics(self):
        table = run_sweep(small_grid(), workers=1)
        report = table.comparison_report()
        assert "greedy" in report and "vulcan" in report
        assert len(report.splitlines()) == 2 + len(table.heuristics())

    def test_wins_sum_over_compared_problems(self):
        table = run_sweep(small_grid(), workers=1)
        contested = [
            records for records in table.by_problem().values()
            if len(records) >= 2
        ]
        assert sum(table.wins().values()) == len(contested)

    def test_by_problem_groups_heuristics_together(self):
        table = run_sweep(small_grid(), workers=1)
        for records in table.by_problem().values():
            keys = {r["problem_key"] for r in records}
            assert len(keys) == 1

    def test_empty_table(self):
        table = SweepResult([])
        assert table.comparison_report() == "(empty sweep)"
        assert table.wins() == {}


def _explode_on_boom(job):
    if job == "boom":
        raise ValueError("cell exploded")
    return job.upper()


def _sleep_job(seconds):
    time.sleep(seconds)
    return seconds


def _boom_heuristic(problem, weights=None, seed=None, probe=None):
    raise RuntimeError("heuristic exploded")


class TestPoolMapCrashPath:
    def test_serial_failure_names_job_and_keeps_completions(self):
        done = {}
        with pytest.raises(PoolJobError) as exc:
            pool_map(_explode_on_boom, ["a", "boom", "c"], workers=1,
                     on_done=lambda job, r, t: done.update({job: r}))
        assert exc.value.job == "boom"
        assert "boom" in str(exc.value)
        assert done == {"a": "A"}

    def test_pooled_failure_delivers_finished_successes(self):
        done = {}
        with pytest.raises(PoolJobError) as exc:
            pool_map(_explode_on_boom, ["a", "b", "boom", "d"], workers=2,
                     on_done=lambda job, r, t: done.update({job: r}))
        assert exc.value.job == "boom"
        assert "boom" not in done
        for job, result in done.items():
            assert result == job.upper()


class TestPoolMapTiming:
    def test_serial_timing_has_no_queue_wait(self):
        timings = []
        pool_map(_sleep_job, [0.01, 0.01], workers=1,
                 on_done=lambda job, r, t: timings.append(t))
        assert all(t.wait_s == 0.0 for t in timings)
        assert all(t.elapsed_s >= 0.01 for t in timings)

    def test_pool_elapsed_excludes_queue_wait(self):
        """Four 0.25s jobs on two workers: the second round queues for
        a full job length, but per-job elapsed must stay one job long.
        The pre-fix clock started at submission, so the second round
        reported ~2x the real cell time."""
        timings = {}
        pool_map(_sleep_job, [0.25] * 4, workers=2,
                 on_done=lambda job, r, t: timings.setdefault(
                     len(timings), t))
        assert len(timings) == 4
        for t in timings.values():
            assert 0.25 <= t.elapsed_s < 0.45
            assert t.wait_s >= 0.0
        # somebody actually queued behind the first round
        assert max(t.wait_s for t in timings.values()) > 0.15


class TestSweepCrashPath:
    def grid(self):
        return expand_grid(generators=("layered",), n_tasks=(6,),
                           heuristics=("greedy", "vulcan"), seeds=range(1))

    def test_failure_names_cell_and_preserves_rows(self, monkeypatch,
                                                   tmp_path):
        grid = self.grid()
        monkeypatch.setitem(HEURISTICS, "vulcan", _boom_heuristic)
        cache = CampaignStore(tmp_path / "cache.sqlite")
        with pytest.raises(SweepCellError) as exc:
            run_sweep(grid, workers=1, cache=cache)
        err = exc.value
        vulcan = {c.fingerprint for c in grid if c.heuristic == "vulcan"}
        greedy = {c.fingerprint for c in grid if c.heuristic == "greedy"}
        assert err.fingerprint in vulcan
        assert err.heuristic == "vulcan"
        # completed rows are real records, never the {} placeholder
        assert set(err.completed) == greedy
        assert all(r["cost"] is not None for r in err.completed.values())
        # ... and they reached the cache, so a re-run skips them
        for fingerprint in greedy:
            assert cache.get(fingerprint) is not None

    def test_failure_exits_the_sweep_span(self, monkeypatch):
        grid = self.grid()
        monkeypatch.setitem(HEURISTICS, "vulcan", _boom_heuristic)
        tracer = SpanTracer()
        with pytest.raises(SweepCellError):
            run_sweep(grid, workers=1, span_tracer=tracer)
        assert tracer.current is None, "sweep span left open on failure"
        (sweep_span,) = tracer.spans_named("sweep")
        assert sweep_span.end > sweep_span.start
