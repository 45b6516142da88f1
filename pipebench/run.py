"""Pipeline benchmark: fault campaigns and a store-backed sweep, timed
end to end and, in a separate traced run, per layer.

Run from the root of a checkout::

    python3 pipebench/run.py --workload coproc_campaign --seed 0 \\
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``
(``cells_per_s``, ``setup_s``, ``peak_rss_mb``; the two timings scaled
to the reference host by ``host_probe``); ``--trace 1`` prints the
per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller record -- host facts, exact counters, every
iteration, every check -- goes to ``.pipebench/results/``.

Every run checks the program's outputs (see ``bench_workloads``) and,
for the pinned seeds ``DEFAULT_SEED`` and ``HELDOUT_SEED``, compares
output digests with ``pinned.json``.  ``--pin`` rewrites one workload's
pinned entry for the given seed.  ``selfcheck.py`` runs every workload
at the ``tiny`` size.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".pipebench"
PINNED = HERE / "pinned.json"

WORKLOADS = ("coproc_campaign", "swmac_campaign", "store_sweep")

#: The seed benchmark claims are made on, and one held out from them.
DEFAULT_SEED = 0
HELDOUT_SEED = 1

#: Fresh processes timed per run for ``setup_s`` (the median is kept).
SETUP_PROBES = 5

#: ``host_probe()`` seconds on the reference host (a 2-CPU container,
#: Python 3.11).  Timings are scaled by probe / PROBE_REF_S, which
#: reports them as if on that host at its typical speed.
PROBE_REF_S = 0.036

#: Per-layer metrics that are pure functions of the program and its
#: inputs: they must repeat exactly across iterations and runs.
EXACT = (
    "kernel.activations", "isa.assemble.calls", "isa.decode.calls",
    "isa.run_block.calls", "isa.step.calls", "isa.instr_retired",
    "isa.translate.compiles", "isa.batch.dispatches", "isa.batch.lanes",
    "isa.batch.drained", "partition.moves_evaluated",
    "sweep.cache.hits", "sweep.cache.misses",
) + tuple(f"fault.outcome.{o}" for o in
          ("masked", "detected", "sdc", "hang", "crash"))


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "tiny"),
                        default="default")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite this workload's pinned.json entry")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fail(message: str) -> None:
    print(f"pipebench: {message}", file=sys.stderr)
    sys.exit(2)


def host_probe() -> float:
    """Seconds for a fixed pure-Python job: the host's current speed.

    The benchmark shares its host with other tenants, whose load moves
    the whole machine's speed by 10-40% over minutes -- more than any
    change worth measuring.  The probe runs between iterations, in
    this process, with none of the program's code on its path, so
    dividing a timing by it removes the host's drift and keeps the
    program's own cost.
    """
    t0 = time.perf_counter()
    table: Dict[int, int] = {}
    kept = []
    acc = 0
    for i in range(60_000):
        key = (i * 2654435761) & 0xFFF
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + (i ^ key)) & 0xFFFFFFFF
        if acc & 7 == 0:
            kept.append(acc)
    kept.sort()
    return time.perf_counter() - t0


def metric_specs() -> Tuple[Dict[str, str], Dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


# ----------------------------------------------------------------------
# set-up time, in fresh processes
# ----------------------------------------------------------------------
def setup_probe(args: argparse.Namespace) -> None:
    """Time a fresh process from ``import repro`` to built inputs."""
    t0 = time.perf_counter()
    import bench_workloads

    workload = bench_workloads.build(args.workload, args.seed, args.size,
                                     WORK / f"probe-{os.getpid()}")
    elapsed = time.perf_counter() - t0
    workload.close()
    shutil.rmtree(WORK / f"probe-{os.getpid()}", ignore_errors=True)
    speed = statistics.median(host_probe() for _ in range(3))
    print(json.dumps({"setup_s": elapsed, "probe_s": speed}))


def measure_setup(args: argparse.Namespace) -> List[Dict[str, float]]:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--setup-probe", "--workload", args.workload,
               "--seed", str(args.seed), "--size", args.size]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1]))
    return samples


def host_facts() -> Dict[str, Any]:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_context().get_start_method(),
        "repro_translate": os.environ.get("REPRO_TRANSLATE"),
    }


# ----------------------------------------------------------------------
# iterations
# ----------------------------------------------------------------------
class Runner:
    """Runs and checks iterations of one workload."""

    def __init__(self, workload: Any, pinned: Optional[Dict[str, Any]]):
        self.workload = workload
        self.pinned = pinned
        #: input set -> digest of its first output
        self.digests: Dict[int, str] = {}
        #: the first result on input set 0, whose counters are reported
        self.first: Any = None
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def iterate(self, index: int, observe: bool = False,
                tracer: Any = None):
        """One timed call on input set ``index``.

        Returns (result, or None if it failed, wall_s, observers).
        """
        from repro.cosim.metrics import MetricsRegistry
        from repro.obs.spans import SpanTracer

        self.workload.select(index)
        observers = ({"span_tracer": SpanTracer(),
                      "metrics": MetricsRegistry()} if observe else {})
        if tracer is not None:
            tracer.reset()
            tracer.install()
        error = None
        t0 = time.perf_counter()
        try:
            result = self.workload.run(**observers)
        except Exception as exc:  # a raised cell counts as failed
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            tracer.collect()
        failures = [error] if error else self.check(index, result)
        cells = self.workload.cells()
        self.attempted += cells
        if failures:
            self.failed += cells
            self.failures.extend(f"input set {index}: {f}"
                                 for f in failures)
        self.workload.fresh()
        return (None if failures else result), wall, observers

    def check(self, index: int, result: Any) -> List[str]:
        failures = self.workload.check(result)
        found = self.workload.digest(result)
        known = self.digests.setdefault(index, found)
        if found != known:
            failures.append("output differs from this run's first "
                            "output on the same inputs")
        if index == 0 and self.first is None:
            self.first = result
            failures += self.workload.check_once(result)
            if self.pinned is not None \
                    and found != self.pinned["digest"]:
                failures.append(
                    f"output digest {found[:16]} differs from the "
                    f"pinned {self.pinned['digest'][:16]}")
        return failures


def run_e2e(runner: Runner, seconds: float) -> Dict[str, Any]:
    # warm-up on set 0: lazy imports and memos fill here; the first
    # timed iteration repeats set 0, so its output is checked twice
    runner.iterate(0)
    rates: List[float] = []
    probes = [host_probe()]
    deadline = time.perf_counter() + seconds
    while not rates or time.perf_counter() < deadline:
        _result, wall, _obs = runner.iterate(len(rates))
        rates.append(runner.workload.cells() / wall)
        probes.append(host_probe())
    # each iteration is scaled by the mean of the probes either side
    scaled = [rate * (before + after) / 2 / PROBE_REF_S
              for rate, before, after in zip(rates, probes, probes[1:])]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "iterations": len(rates),
        "cells_per_s_raw": rates,
        "probe_s": probes,
        "cells_per_s": statistics.median(scaled),
        "peak_rss_mb": peak_kib * 1024 / 1e6,
    }


def run_traced(runner: Runner, seconds: float) -> Dict[str, Any]:
    """Untraced and traced iterations in pairs, each pair on one set.

    Times are medians over the traced iterations; the ``EXACT``
    counters are those of input set 0.
    """
    import bench_layers
    from repro.fault.spec import OUTCOMES

    spool = WORK / f"spool-{os.getpid()}"
    spool.mkdir(parents=True, exist_ok=True)
    tracer = bench_layers.LayerTracer(spool)
    workload = runner.workload
    runner.iterate(0)  # warm-up, as in the untraced run
    samples: List[Dict[str, float]] = []
    pairs = 0
    deadline = time.perf_counter() + seconds
    while not pairs or time.perf_counter() < deadline:
        _result, untraced, _obs = runner.iterate(pairs)
        result, traced, obs = runner.iterate(pairs, observe=True,
                                             tracer=tracer)
        pairs += 1
        if result is None:
            continue
        layer = bench_layers.layer_metrics(
            tracer, traced, workload.workers, workload.outcomes(result),
            obs["metrics"], obs["span_tracer"],
            workload.moves_evaluated(result), OUTCOMES)
        layer["trace.overhead"] = traced / untraced - 1.0
        samples.append(layer)
    spool.rmdir()
    if not samples:
        return {"iterations": pairs, "metrics": {}}
    metrics = {name: statistics.median(s[name] for s in samples)
               for name in samples[0]}
    exact = {name: samples[0][name] for name in EXACT}
    metrics.update(exact)
    return {"iterations": pairs, "metrics": metrics, "exact": exact,
            "samples": samples}


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no repro sources under {SRC}; run from a full checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail(f"no BENCHMARK.json in {ROOT}")
    if args.pin and not args.trace:
        fail("--pin records the traced counters; add --trace 1")
    sys.path.insert(0, str(SRC))
    # keep SQLite and every child's scratch files inside the checkout
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    if args.setup_probe:
        setup_probe(args)
        return 0

    e2e_units, layer_units = metric_specs()
    pins = json.loads(PINNED.read_text()) if PINNED.is_file() else {}
    pinned = None
    if args.size == "default" and not args.pin:
        pinned = pins.get(args.workload, {}).get(str(args.seed))
        if pinned is None and args.seed in (DEFAULT_SEED, HELDOUT_SEED):
            fail(f"pinned.json has no entry for {args.workload} "
                 f"seed {args.seed}")

    setup_samples = [] if args.trace else measure_setup(args)
    import bench_workloads

    workload = bench_workloads.build(args.workload, args.seed, args.size,
                                     WORK / f"work-{os.getpid()}")
    runner = Runner(workload, pinned)
    try:
        if args.trace:
            measured = run_traced(runner, args.seconds)
            metrics = measured["metrics"]
            units = layer_units
        else:
            measured = run_e2e(runner, args.seconds)
            metrics = {
                "cells_per_s": measured["cells_per_s"],
                "setup_s": statistics.median(
                    p["setup_s"] * PROBE_REF_S / p["probe_s"]
                    for p in setup_samples),
                "peak_rss_mb": measured["peak_rss_mb"],
            }
            units = e2e_units
    finally:
        workload.close()
        shutil.rmtree(WORK / f"work-{os.getpid()}", ignore_errors=True)

    missing = sorted(set(units) - set(metrics))
    if missing:
        runner.failures.append(f"metrics not measured: {missing}")
    counters = (workload.counters(runner.first)
                if runner.first is not None else {})
    if args.trace:
        counters.update(measured.get("exact", {}))
    correct = not runner.failures and runner.failed == 0
    pinned_counters = (pinned or {}).get("counters", {})
    drift = {name: [pinned_counters[name], value]
             for name, value in counters.items()
             if name in pinned_counters and pinned_counters[name] != value}

    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "host": host_facts(),
        "setup_s_samples": setup_samples,
        "counters": counters,
        "counters_vs_pinned": drift,
        "digest": runner.digests.get(0),
        "checks": runner.failures,
        "failed_frac": runner.failed / runner.attempted,
        **{k: v for k, v in measured.items() if k != "metrics"},
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}"
    (results / f"{name}.json").write_text(json.dumps(record, indent=1))
    if args.pin:
        entry = {"digest": runner.digests[0], "counters": counters}
        pins.setdefault(args.workload, {})[str(args.seed)] = entry
        PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")

    print(f"pipebench {args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} host={json.dumps(record['host'])}")
    for check in runner.failures:
        print(f"  CHECK FAILED: {check}")
    for counter, (want, got) in sorted(drift.items()):
        print(f"  counter {counter} = {got} (pinned {want})")
    print(f"  failed_frac = {record['failed_frac']:.6g}")
    for metric in units:
        value = metrics.get(metric, float("nan"))
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {metric} = {shown} {units[metric]}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]}
                    for m in units if m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
