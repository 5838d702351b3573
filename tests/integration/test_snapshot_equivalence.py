"""Bit-exact snapshot/restore equivalence (the tentpole guarantee).

For every workload class of the ``scenario-matrix`` sweep spec (stencil,
ping-pong, flood, remote-memory, coherence) on a 4x4 mesh, under both the
``event`` and ``naive`` kernels:

    run to cycle C -> snapshot -> restore in a FRESH PROCESS -> run to end

must not differ from the uninterrupted run: neither in
:func:`repro.fuzz.harness.observe` (final cycle, statistics, per-context
state, the trace event for event, including message and request ids,
which is why the snapshot carries the id allocators) nor in the machine's
snapshot state (:func:`repro.fuzz.harness.machine_view`).  The workloads
come from the registry, and the snapshot is taken as ``repro snapshot``
takes it, with ``checkpoint_context(snapshot_at=C)``.

All snapshots are written first, then a single helper process restores and
finishes every one of them (one interpreter start instead of ten).
"""

import json
import os
import subprocess
import sys

import pytest

from repro import MMachine
from repro.api import get_workload
from repro.core.machine import construction_hooks
from repro.fuzz.harness import machine_view, view_difference
from repro.snapshot.checkpoint import SnapshotTaken, checkpoint_context

MAX_CYCLES = 400_000

SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "src")

KERNELS = ["event", "naive"]
#: Small parameters of each workload, on a 4x4 mesh.
WORKLOADS = {
    "stencil": {"kind": "7pt", "n_hthreads": 2},
    "ping-pong": {"rounds": 4},
    "flood": {"messages": 8},
    "remote-memory": {"repeats": 6},
    "coherence": {"repeats": 6},
}


def _params(workload: str, kernel: str) -> dict:
    return {**WORKLOADS[workload], "mesh": [4, 4, 1], "kernel": kernel}


def _run(workload: str, kernel: str) -> MMachine:
    """Run *workload* to the end; the machine it built."""
    machines = []
    with construction_hooks(machine_hook=machines.append):
        get_workload(workload).call(_params(workload, kernel))
    (machine,) = machines
    return machine


def _snapshot(directory, workload: str, kernel: str, cycle: int):
    """Run *workload* until *cycle* and snapshot it there, as ``repro
    snapshot`` does; the stopped machine and the snapshot's path."""
    machines = []
    with checkpoint_context(str(directory), snapshot_at=cycle), \
            construction_hooks(machine_hook=machines.append):
        with pytest.raises(SnapshotTaken) as taken:
            get_workload(workload).call(_params(workload, kernel))
    (machine,) = machines
    return machine, taken.value.path


_RESUME_SCRIPT = """\
import json, sys
from repro.core.machine import MMachine
from repro.fuzz.harness import machine_view

for line in sys.stdin:
    job = json.loads(line)
    machine = MMachine.from_snapshot(job["path"])
    machine.run_until_user_done(max_cycles=job["max_cycles"])
    print(json.dumps({"key": job["key"], "view": machine_view(machine)}))
"""


@pytest.fixture(scope="module")
def equivalence_results(tmp_path_factory):
    """References, snapshots, and one fresh process that finishes them all."""
    references = {}
    jobs = []
    for workload in WORKLOADS:
        for kernel in KERNELS:
            key = f"{workload}/{kernel}"
            reference = _run(workload, kernel)
            references[key] = machine_view(reference)
            directory = tmp_path_factory.mktemp(f"{workload}-{kernel}")
            _, path = _snapshot(directory, workload, kernel, max(50, reference.cycle // 3))
            jobs.append({"key": key, "path": path, "max_cycles": MAX_CYCLES})

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", _RESUME_SCRIPT],
        input="\n".join(json.dumps(job) for job in jobs),
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    resumed = {}
    for line in completed.stdout.splitlines():
        result = json.loads(line)
        resumed[result["key"]] = result["view"]
    return references, resumed


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_fresh_process_resume_is_bit_exact(equivalence_results, workload, kernel):
    references, resumed = equivalence_results
    key = f"{workload}/{kernel}"
    assert view_difference(references[key], resumed[key]) is None


def test_event_and_naive_snapshots_agree(tmp_path):
    """Cross-check: the snapshotted state itself (not just the continuation)
    is kernel-independent -- both clock drivers freeze identical machines."""
    docs = {}
    for kernel in KERNELS:
        _, path = _snapshot(tmp_path / kernel, "ping-pong", kernel, 200)
        with open(path, encoding="utf-8") as handle:
            # The embedded config legitimately differs (sim.kernel); state must not.
            docs[kernel] = json.load(handle)["machine"]
    assert docs["event"] == docs["naive"]


def test_in_process_round_trip_matches_continued_run(tmp_path):
    """Snapshot + restore in the same process equals simply continuing the
    original machine (the original is not perturbed by being snapshotted)."""
    machine, path = _snapshot(tmp_path, "remote-memory", "event", 150)
    restored = MMachine.from_snapshot(path)
    # Id allocators are machine-owned, so restoring must not perturb the
    # original: run both machines and compare at the end.
    machine.run_until_user_done(max_cycles=MAX_CYCLES)
    restored.run_until_user_done(max_cycles=MAX_CYCLES)
    assert view_difference(machine_view(machine), machine_view(restored)) is None
