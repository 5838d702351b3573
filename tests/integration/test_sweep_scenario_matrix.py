"""The fault/multiprogramming family is sweepable with deterministic run ids.

Mirrors ``test_sweep_paper_figures.py`` for the new workloads: they appear
in the ``scenario-matrix`` builtin spec with stable run ids, and a sweep run
over the family (worker processes, via the CLI) reports byte-identical
metrics to fresh in-process factory calls — sweep-vs-pytest cycle identity.
The full scenario matrix (8x8 naive-kernel points) is minutes of host time,
so the executed sweep here covers the family on its smallest meshes via
``--spec-file`` while the expansion checks run on the real builtin spec.
"""

import json

import pytest

from repro.api import get_workload
from repro.cli import main
from repro.report import Manifest
from repro.sweep import get_spec, validate_results
from repro.sweep.runner import RESULTS_FILENAME
from repro.sweep.spec import RunSpec

NEW_WORKLOADS = ("multitenant-timeshare", "protection-storm", "secded-soak", "nack-flood")

#: The family at its smallest sweep operating points, both kernels.
MINI_SPEC = {
    "name": "fault-family-mini",
    "description": "scenario-matrix fault family, smallest meshes",
    "groups": [
        {
            "workload": "multitenant-timeshare",
            "params": {"seed": 0, "jobs": 8},
            "axes": {"mesh": [[2, 2, 1]], "kernel": ["event", "naive"]},
        },
        {
            "workload": "protection-storm",
            "params": {"violators": 9},
            "axes": {"mesh": [[2, 2, 1]], "kernel": ["event", "naive"]},
        },
        {
            "workload": "secded-soak",
            "params": {"words": 32, "single_flips": 8, "double_flips": 4},
            "axes": {"kernel": ["event", "naive"]},
        },
        {
            "workload": "nack-flood",
            "params": {"senders": 3, "messages_each": 12},
            "axes": {"mesh": [[2, 2, 1]], "kernel": ["event", "naive"]},
        },
    ],
}


class TestScenarioMatrixSpec:
    def test_family_is_in_the_builtin_spec(self):
        runs = get_spec("scenario-matrix").expand()
        by_workload = {}
        for run in runs:
            by_workload.setdefault(run.workload, []).append(run)
        for name in NEW_WORKLOADS:
            assert by_workload.get(name), f"scenario-matrix is missing {name}"
        # Both kernels are swept for every family member.
        for name in NEW_WORKLOADS:
            kernels = {run.params["kernel"] for run in by_workload[name]}
            assert kernels == {"event", "naive"}

    def test_run_ids_are_deterministic(self):
        first = [run.run_id for run in get_spec("scenario-matrix").expand()]
        second = [run.run_id for run in get_spec("scenario-matrix").expand()]
        assert first == second
        assert len(first) == len(set(first)), "duplicate run ids"

    def test_expansion_matches_runspec_identity(self):
        for run in get_spec("scenario-matrix").expand():
            if run.workload in NEW_WORKLOADS:
                rebuilt = RunSpec(workload=run.workload, params=dict(run.params))
                assert rebuilt.run_id == run.run_id


@pytest.fixture(scope="module")
def sweep_results(tmp_path_factory):
    results_dir = tmp_path_factory.mktemp("fault-family")
    spec_path = results_dir / "mini-spec.json"
    spec_path.write_text(json.dumps(MINI_SPEC))
    exit_code = main(
        ["sweep", "--spec-file", str(spec_path), "--jobs", "4",
         "--results-dir", str(results_dir)]
    )
    document = json.loads((results_dir / RESULTS_FILENAME).read_text())
    return {"exit_code": exit_code, "document": document}


def test_family_sweep_completes(sweep_results):
    assert sweep_results["exit_code"] == 0
    document = sweep_results["document"]
    assert validate_results(document) == []
    assert document["counts"]["failed"] == 0
    assert document["counts"]["total"] == 8
    assert Manifest.from_document(document).problems == []


def test_family_sweep_matches_in_process_runs(sweep_results):
    by_id = {record["run_id"]: record for record in sweep_results["document"]["runs"]}
    for group in MINI_SPEC["groups"]:
        for kernel in group["axes"]["kernel"]:
            params = dict(group["params"])
            params["kernel"] = kernel
            for mesh in group["axes"].get("mesh", [None]):
                if mesh is not None:
                    params["mesh"] = mesh
                run_id = RunSpec(workload=group["workload"], params=params).run_id
                assert run_id in by_id, (group["workload"], params)
                sweep_metrics = by_id[run_id]["metrics"]
                bench_metrics = get_workload(group["workload"]).call(params)
                assert sweep_metrics["cycles"] == bench_metrics["cycles"]
                assert sweep_metrics == bench_metrics, (group["workload"], params)
                assert sweep_metrics["verified"] is True
