"""Shared fixtures/utilities for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures (or one of
the ablations the ``paper-figures`` sweep also runs, see docs/sweeps.md) and
prints the corresponding rows next to the paper's published values, so
running

    pytest benchmarks/ --benchmark-only -s

produces a paper-vs-measured report.  The same comparison for a sweep is the
report ``repro report`` renders (the smoke sweep's is committed under
docs/reports/smoke/); docs/architecture.md maps the modules to the paper.

The machine-driving benchmarks execute their scenarios through the shared
workload factories (:mod:`repro.workloads.factories`) and ``Experiment.run``
— the same code path ``repro sweep paper-figures`` uses — so sweep results
and pytest results report identical cycle counts.  Set ``REPRO_RECORD_DIR``
to a directory to additionally emit one schema-valid JSON record per
benchmark run, mergeable with sweep output.
"""

from __future__ import annotations

import os

import pytest

from repro.api.experiment import run_workload
from repro.report.trajectory import append_session
from repro.sweep.runner import store_record

#: Machine-readable benchmark trajectory, appended to ``BENCH_kernel.json``
#: (or ``$REPRO_BENCH_JSON``) at session end.  Benchmarks record named
#: entries via :func:`record_trajectory`; every benchmark session — locally
#: and in CI — appends one session record
#: (:mod:`repro.report.trajectory`), and CI uploads the file as an artifact
#: so kernel throughput and snapshot overhead are tracked per commit.
BENCH_TRAJECTORY: dict = {}

#: Set once any benchmark test from this directory actually ran; a session
#: that collected no benchmarks (e.g. ``pytest tests/``) must not append.
_RAN_BENCHMARKS = False


def record_trajectory(name: str, **metrics) -> None:
    """Record one named benchmark result for the trajectory file."""
    BENCH_TRAJECTORY[name] = metrics


def pytest_runtest_setup(item):
    global _RAN_BENCHMARKS
    _RAN_BENCHMARKS = True


def pytest_sessionfinish(session, exitstatus):
    if not _RAN_BENCHMARKS:
        return
    path = os.environ.get("REPRO_BENCH_JSON", "BENCH_kernel.json")
    append_session(path, BENCH_TRAJECTORY)


def report(title: str, lines) -> None:
    """Print a small report block that survives pytest's capture when -s is
    not given (it is shown for failed tests and in --capture=no runs)."""
    banner = "=" * len(title)
    print(f"\n{title}\n{banner}")
    for line in lines:
        print(line)


def run_and_record(workload: str, **params):
    """Run a workload factory; emit a sweep-schema record when recording.

    This is the entry point the benchmark files use, so a pytest run and a
    ``repro sweep`` run of the same (workload, params) execute the same code
    (both run an ``Experiment``, and the emitted record is the serialised
    ``RunResult`` form).
    """
    result = run_workload(workload, params, tags={"harness": "pytest-benchmarks"})
    record_dir = os.environ.get("REPRO_RECORD_DIR")
    if record_dir:
        store_record(result.to_record(), record_dir)
    return result.metrics


@pytest.fixture
def single_run_benchmark(benchmark):
    """A pytest-benchmark wrapper for heavyweight whole-machine simulations:
    one warm-up-free round, one iteration."""

    def run(function, *args, **kwargs):
        return benchmark.pedantic(function, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return run
