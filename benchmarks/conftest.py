"""Shared hooks of the host-performance benchmarks.

``benchmarks/`` measures the simulator's host-side cost (kernel and
issue-stage throughput, mesh scaling, the trace sinks, snapshots, SDRAM
words/second, trace memory; see ``test_perf_kernel.py``), and each session
appends what it measured to the benchmark trajectory.  The paper's own
claims are checked elsewhere: ``repro sweep paper-figures`` followed by
``repro report --check`` (docs/sweeps.md).

    PYTHONPATH=src python -m pytest benchmarks -q -s
"""

from __future__ import annotations

import os

from repro.report.trajectory import append_session

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

