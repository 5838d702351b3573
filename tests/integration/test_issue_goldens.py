"""Golden digests of whole-machine behaviour, pinned across issue-stage changes.

Every case runs a set of machines to completion on the event kernel and
hashes each finished machine: the :func:`repro.fuzz.harness.observe` view
(final cycle, statistics, per-context stall strings, SECDED counters, the
full trace) together with the snapshot's machine state.  The digests in
``issue_goldens.json`` were recorded from the interpreted issue stage before
it was removed (see the file's ``provenance`` note), so any change to
instruction semantics, stall strings, statistics or snapshot layout shows
up here as a digest mismatch.  Each cluster's by-unit/by-slot counter pairs
are hashed as the snapshot emits them, in ascending key order.

Cases:

* ``fuzz-N`` -- generated program N with the default generator knobs;
* ``fault-heavy-N`` -- generated program N with the fault-heavy knobs of
  ``tests/integration/test_fuzz_harness.py``;
* ``scenario-<run id>`` -- every event-kernel run of the ``scenario-matrix``
  sweep spec, one digest per machine the workload constructs;
* ``policy-<policy>-<workload>`` -- workloads with several runnable slots
  per cluster run under the ``round-robin`` and ``hep`` issue policies,
  which the scenario matrix (all ``event-priority``) never selects;
* ``fuzz-rr-N`` -- generated program N with the default generator knobs
  under the ``round-robin`` issue policy.

The digest computation is plain Python with no pytest dependency, so it can
be checked on interpreters without pytest::

    PYTHONPATH=src python tests/integration/test_issue_goldens.py
"""

import hashlib
import json
import os
import sys
from typing import Callable, Dict, List

from repro.api import get_workload
from repro.core.machine import MMachine, construction_hooks
from repro.fuzz import GeneratorKnobs, generate_program
from repro.fuzz.harness import observe
from repro.sweep import get_spec

GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "issue_goldens.json")

FUZZ_SEEDS = range(25)
ROUND_ROBIN_SEEDS = range(10)
FAULT_HEAVY_SEEDS = range(3)
FAULT_HEAVY_KNOBS = GeneratorKnobs(
    mesh=(2, 2, 1), max_threads=8, fault_density=0.6, nack_storm=True
)
POLICIES = ("round-robin", "hep")
#: Workloads that keep several slots of one cluster runnable at once and run
#: to ``run_until_user_done``: four stencil H-Threads, four pointer-chasing
#: V-Threads, and message handlers beside user threads.
POLICY_WORKLOADS = (
    ("stencil", {"kind": "7pt", "n_hthreads": 4}),
    ("vthread-interleave", {"num_threads": 4}),
    ("ping-pong", {"rounds": 8}),
)


def machine_digest(machine: MMachine) -> str:
    """sha256 of the machine's observable outcome plus its snapshot state."""
    document = {
        "observe": observe(machine),
        "machine": machine.snapshot_document()["machine"],
    }
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _fuzz_case(seed: int, knobs=None, policy=None) -> Callable[[], List[MMachine]]:
    def run() -> List[MMachine]:
        program = generate_program(seed, knobs)
        if policy is not None:
            program.config_overrides["cluster.issue_policy"] = policy
        machine = program.build_machine("event")
        program.run(machine)
        return [machine]

    return run


def _scenario_case(workload: str, params: Dict[str, object],
                   policy=None) -> Callable[[], List[MMachine]]:
    def set_policy(config) -> None:
        config.cluster.issue_policy = policy

    def run() -> List[MMachine]:
        machines: List[MMachine] = []
        with construction_hooks(config_hook=set_policy if policy else None,
                                machine_hook=machines.append):
            get_workload(workload).call(dict(params))
        return machines

    return run


def cases() -> Dict[str, Callable[[], List[MMachine]]]:
    """Case id -> callable returning the case's finished machines."""
    table: Dict[str, Callable[[], List[MMachine]]] = {}
    for seed in FUZZ_SEEDS:
        table[f"fuzz-{seed}"] = _fuzz_case(seed)
    for seed in FAULT_HEAVY_SEEDS:
        table[f"fault-heavy-{seed}"] = _fuzz_case(seed, FAULT_HEAVY_KNOBS)
    for run in get_spec("scenario-matrix").expand():
        if run.params.get("kernel") == "event":
            table[f"scenario-{run.run_id}"] = _scenario_case(run.workload, run.params)
    for policy in POLICIES:
        for workload, params in POLICY_WORKLOADS:
            table[f"policy-{policy}-{workload}"] = _scenario_case(workload, params, policy)
    for seed in ROUND_ROBIN_SEEDS:
        table[f"fuzz-rr-{seed}"] = _fuzz_case(seed, policy="round-robin")
    return table


def case_digests(case_id: str) -> List[str]:
    return [machine_digest(machine) for machine in cases()[case_id]()]


def load_goldens() -> Dict[str, List[str]]:
    with open(GOLDENS_PATH, encoding="utf-8") as handle:
        return json.load(handle)["cases"]


def check_all() -> List[str]:
    """Ids of the cases whose digests differ from the goldens."""
    goldens = load_goldens()
    table = cases()
    if sorted(table) != sorted(goldens):
        return ["<case list>"]
    return [
        case_id
        for case_id, run in table.items()
        if [machine_digest(machine) for machine in run()] != goldens[case_id]
    ]


def test_case_list_matches_goldens():
    assert sorted(cases()) == sorted(load_goldens())


def pytest_generate_tests(metafunc):
    if "case_id" in metafunc.fixturenames:
        metafunc.parametrize("case_id", sorted(load_goldens()))


def test_issue_golden(case_id):
    assert case_digests(case_id) == load_goldens()[case_id]


if __name__ == "__main__":
    mismatched = check_all()
    for case_id in mismatched:
        print(f"MISMATCH {case_id}")
    print(f"{len(load_goldens()) - len(mismatched)}/{len(load_goldens())} cases match "
          f"on Python {sys.version.split()[0]}")
    sys.exit(1 if mismatched else 0)
