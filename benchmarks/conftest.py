"""Benchmark configuration.

Each benchmark regenerates one of the paper's tables or figures end to end
(workload generation, pretraining, unlearning, metric collection) and
prints the resulting rows/series. Because a single run is an entire
experiment (tens of seconds), benchmarks execute exactly once
(``rounds=1, iterations=1``) via the :func:`run_once` helper.

Scale selection: set ``REPRO_BENCH_SCALE`` to ``smoke`` (default, fast
wiring check) or ``small`` (minutes per experiment; large enough for the
paper-shape comparisons; records land in ``benchmarks/results/``, see
the README's "Benchmarks" section).
"""

import os

import pytest

from repro.experiments import get_scale

BENCH_SCALE_NAME = os.environ.get("REPRO_BENCH_SCALE", "smoke")


@pytest.fixture(scope="session")
def scale():
    """The ExperimentScale every benchmark runs at."""
    return get_scale(BENCH_SCALE_NAME)


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def pytest_collection_modifyitems(items):
    """Tag every benchmark with the ``bench`` marker (registered in
    pyproject.toml) so `pytest -m bench benchmarks/` and marker-based
    filtering work. Sub-directory conftest hooks receive the whole
    session's items, so guard by path — mixed invocations like
    `pytest tests/ benchmarks/` must not tag the unit tests."""
    bench_root = os.path.dirname(os.path.abspath(__file__))
    for item in items:
        if str(item.path).startswith(bench_root + os.sep):
            item.add_marker(pytest.mark.bench)
