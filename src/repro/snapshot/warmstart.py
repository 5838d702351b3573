"""Warm-start fan-out: one checkpointed post-warm-up state, many runs.

The standard sampling methodology for long simulations: pay the cold-start /
warm-up cost once, snapshot the warmed machine, then fan the snapshot out to
any number of measurement runs (locally or across worker processes -- the
snapshot file is self-contained, so any machine that can read it can run a
measurement leg).

The simulator is deterministic, so every leg restored from the same
snapshot produces the same result: :func:`fan_out` runs each one to user
completion with :func:`default_drive`.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Dict, List, Optional

from repro.api.result import RunResult
from repro.core.machine import MMachine
from repro.snapshot.format import read_snapshot

#: Workload name stamped on warm-start measurement-leg results.
WARM_START_WORKLOAD = "warm-start"


def drive_result(
    machine,
    max_cycles: int = 1_000_000,
    workload: str = WARM_START_WORKLOAD,
    tags: Optional[Dict[str, str]] = None,
) -> RunResult:
    """Run the restored machine to user completion and wrap the measurement
    leg as a typed :class:`~repro.api.result.RunResult` whose provenance
    records the cycle it resumed from."""
    start_cycle = machine.cycle
    start_wall = time.perf_counter()
    machine.run_until_user_done(max_cycles=max_cycles)
    metrics: Dict[str, object] = dict(machine.stats().summary())
    metrics["cycles"] = machine.cycle
    metrics["measured_cycles"] = machine.cycle - start_cycle
    return RunResult.from_metrics(
        workload=workload,
        params={},
        metrics=metrics,
        wall_seconds=time.perf_counter() - start_wall,
        tags=tags,
        resumed_from_cycle=start_cycle,
    )


def default_drive(machine, max_cycles: int = 1_000_000) -> Dict[str, object]:
    """Run the restored machine to user completion and report the headline
    numbers (the measurement leg used by ``repro resume``).

    The legacy dict shape of :func:`drive_result` — the run itself goes
    through the typed path; the metrics carry the full ``MachineStats``
    summary plus ``measured_cycles``, so the summary block is rebuilt from
    them without touching the machine again.
    """
    result = drive_result(machine, max_cycles=max_cycles)
    summary = {
        key: value
        for key, value in result.metrics.items()
        if key != "measured_cycles"
    }
    return {
        "resumed_from_cycle": result.provenance.resumed_from_cycle,
        "cycles": result.metrics["cycles"],
        "measured_cycles": result.metrics["measured_cycles"],
        "summary": summary,
    }


def fan_out(source, runs: int, max_cycles: int = 1_000_000) -> List[Dict[str, object]]:
    """Restore the snapshot *source* (path or document) *runs* times and
    apply :func:`default_drive` to each restored machine.

    Every leg restores from the same document, so legs are independent: this
    is the in-process form of handing the snapshot file to *runs* workers.
    """
    if runs < 1:
        raise ValueError("fan-out needs at least one run")
    document = read_snapshot(source) if isinstance(source, str) else source
    return [
        default_drive(MMachine.from_snapshot(document), max_cycles=max_cycles)
        for _ in range(runs)
    ]


def _fan_out_worker(payload) -> Dict[str, object]:
    """Top-level (picklable) pool entry point: one measurement leg."""
    path, max_cycles = payload
    machine = MMachine.from_snapshot(read_snapshot(path))
    return default_drive(machine, max_cycles=max_cycles)


def fan_out_parallel(
    path: str, runs: int, jobs: int = 1, max_cycles: int = 1_000_000
) -> List[Dict[str, object]]:
    """Like :func:`fan_out` but over a worker-process pool (``jobs=1`` runs
    inline)."""
    if jobs <= 1:
        return fan_out(path, runs, max_cycles=max_cycles)
    payloads = [(path, max_cycles)] * runs
    with multiprocessing.Pool(processes=min(jobs, runs)) as pool:
        return pool.map(_fan_out_worker, payloads)
