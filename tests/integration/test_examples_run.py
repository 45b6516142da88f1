"""Every shipped example must run to completion, cleanly.

Examples are the public face of the library; this test keeps them from
rotting as the API evolves.  Each example's ``--smoke`` run must exit 0
with the output markers its narrative promises.  The run itself is the
session's one run of that example (the ``example_smoke_run`` fixture),
shared with ``tests/examples/test_examples_smoke.py``.
"""

import pytest

from tests.examples.runner import (
    EXAMPLES,
    EXPECTED_MARKERS,
    check_trace_ladder_exports,
)


def test_every_example_is_listed():
    assert set(EXAMPLES) == set(EXPECTED_MARKERS), (
        "examples on disk and the marker table disagree"
    )


@pytest.mark.slow  # subprocess per example: the smoke lane skips
@pytest.mark.parametrize("name", sorted(EXPECTED_MARKERS))
def test_example_runs(name, example_smoke_run):
    proc, _outdir = example_smoke_run(name)
    assert proc.returncode == 0, proc.stderr[-2000:]
    for marker in EXPECTED_MARKERS[name]:
        assert marker in proc.stdout, (
            f"{name}: expected {marker!r} in output"
        )


def test_trace_ladder_exports_are_well_formed(example_smoke_run):
    """The tracing example must leave behind a parseable JSON trace and
    a structurally valid VCD in the requested output directory."""
    proc, outdir = example_smoke_run("cosim_trace_ladder.py")
    assert proc.returncode == 0, proc.stderr[-2000:]
    check_trace_ladder_exports(outdir)
