"""Every example CLI must run clean under ``--smoke`` and fail loudly
on unknown flags.

Until this suite existed, nine examples had no argument parsing at
all: ``python examples/quickstart.py --bogus-flag`` silently ignored
the flag and exited 0, so a typo'd CI invocation "passed" while
running something other than what was asked.  Now every example parses
argv strictly (unknown flags exit with argparse's status 2) and
exposes ``--smoke``, and this suite pins both properties for the whole
directory — including examples added later, via the filesystem glob.

Each example's ``--smoke`` run happens once per session (the
``example_smoke_run`` fixture); ``tests/integration/test_examples_run.py``
checks the narrative markers of that same run.

Marked ``examples``: deselect with ``-m 'not examples'`` for a faster
inner loop; CI runs them.
"""

import pytest

from tests.examples.runner import EXAMPLES, check_obs_exports, run_example

pytestmark = pytest.mark.examples


def test_every_example_is_covered():
    # the glob feeds the parametrized tests; this guards against an
    # empty directory silently passing the suite
    assert len(EXAMPLES) >= 12
    assert "design_explore.py" in EXAMPLES


@pytest.mark.slow  # subprocess per example: the smoke lane skips
@pytest.mark.parametrize("name", EXAMPLES)
def test_smoke_runs_clean(name, example_smoke_run):
    proc, _outdir = example_smoke_run(name)
    assert proc.returncode == 0, (
        f"{name} --smoke exited {proc.returncode}\n"
        f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    )


def test_obs_report_exports_are_well_formed(example_smoke_run, tmp_path):
    """The observability report must leave behind a schema-valid
    Perfetto trace and a mergeable metrics snapshot, in both modes."""
    proc, outdir = example_smoke_run("obs_report.py")
    assert proc.returncode == 0, proc.stderr[-2000:]
    check_obs_exports(outdir)

    proc = run_example("obs_report.py", "--mode", "cosim",
                       "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr[-2000:]
    check_obs_exports(tmp_path)


@pytest.mark.parametrize("name", EXAMPLES)
def test_unknown_flag_fails_loudly(name):
    proc = run_example(name, "--definitely-not-a-real-flag")
    assert proc.returncode != 0, (
        f"{name} accepted an unknown flag and exited 0 — argv is "
        f"being ignored\nstdout:\n{proc.stdout}"
    )
    assert "--definitely-not-a-real-flag" in proc.stderr


@pytest.mark.parametrize("name", EXAMPLES)
def test_help_exits_zero(name):
    proc = run_example(name, "--help")
    assert proc.returncode == 0, proc.stderr
    assert "--smoke" in proc.stdout
