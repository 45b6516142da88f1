"""Shared runner for the example suites.

Both ``tests/examples/test_examples_smoke.py`` and
``tests/integration/test_examples_run.py`` read an example's ``--smoke``
run through the session fixture ``example_smoke_run`` (see
``tests/conftest.py``), so each example runs once per session however
many tests assert on its output.
"""

import json
import os
import subprocess
import sys

REPO = os.path.normpath(
    os.path.join(os.path.dirname(__file__), "..", ".."))
EXAMPLES_DIR = os.path.join(REPO, "examples")
SRC = os.path.join(REPO, "src")

EXAMPLES = sorted(
    name for name in os.listdir(EXAMPLES_DIR)
    if name.endswith(".py")
)

EXPECTED_MARKERS = {
    "quickstart.py": ["speedup over all-software", "cost breakdown"],
    "coprocessor_codesign.py": ["PASS", "vulcan"],
    "multiprocessor_synthesis.py": ["deadline", "binpack"],
    "asip_exploration.py": ["speedup", "reconfigurable"],
    "cosim_abstraction_ladder.py": ["PASS", "pin"],
    "cosim_trace_ladder.py": [
        "JSON trace written", "VCD waveform written", "per-process metrics",
    ],
    "embedded_interface.py": ["UART transmitted", "timer interrupts:  3"],
    "executable_spec_refinement.py": ["step 1", "hardware: yes"],
    "fault_campaign.py": [
        "detection coverage", "outcome classes reached",
    ],
    "campaign_top.py": ["campaign post-mortem", "queue: done="],
    "mixed_system.py": ["Mixed Type I / Type II", "matches"],
    "partition_sweep.py": ["cells", "heuristic", "wins"],
    "obs_report.py": ["flamegraph", "convergence", "schema valid"],
    "design_explore.py": [
        "pareto front", "weighted-sum pick",
        "front identical at 1 and",
    ],
}

#: extra argv for an example's smoke run, given its output directory
EXTRA_ARGS = {
    "design_explore.py": lambda out: ["--store", str(out / "dse.sqlite")],
    "obs_report.py": lambda out: ["--out", str(out)],
    "cosim_trace_ladder.py": lambda out: [str(out)],
}


def run_example(name, *argv, timeout=240):
    """Run one example in a subprocess with src/ explicitly on the path,
    so examples are exercised against the working tree even when the
    package is not installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name), *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
        cwd=EXAMPLES_DIR,
    )


def run_smoke(name, outdir):
    """The example's ``--smoke`` run, writing any artifacts to ``outdir``."""
    extra = EXTRA_ARGS.get(name, lambda out: [])(outdir)
    return run_example(name, "--smoke", *extra)


def check_obs_exports(outdir):
    """A schema-valid Perfetto trace and a mergeable metrics snapshot."""
    from repro.obs import validate_trace_events

    doc = json.loads((outdir / "obs_trace.json").read_text())
    assert validate_trace_events(doc) == []
    assert doc["traceEvents"], "trace has no events"
    metrics = json.loads((outdir / "obs_metrics.json").read_text())
    assert metrics["counters"], "metrics snapshot has no counters"


def check_trace_ladder_exports(outdir):
    """A parseable JSON trace and a structurally valid VCD."""
    doc = json.loads((outdir / "pin_trace.json").read_text())
    assert doc["records"], "JSON trace has no records"
    assert doc["metrics"]["counters"], "JSON trace has no metrics"
    vcd = (outdir / "pin_wave.vcd").read_text()
    assert "$enddefinitions $end" in vcd
    assert "$var wire" in vcd
    assert any(line.startswith("#") for line in vcd.splitlines())
