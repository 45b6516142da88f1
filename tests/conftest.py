"""Fixtures shared across test packages."""

import pytest


@pytest.fixture(scope="session")
def example_smoke_run(tmp_path_factory):
    """``example_smoke_run(name) -> (proc, outdir)``: the example's one
    ``--smoke`` run of the session, made on first request."""
    from tests.examples.runner import run_smoke

    runs = {}

    def get(name):
        if name not in runs:
            outdir = tmp_path_factory.mktemp(name[:-len(".py")])
            runs[name] = (run_smoke(name, outdir), outdir)
        return runs[name]

    return get
