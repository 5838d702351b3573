"""``repro.api``: the typed public facade for defining and running experiments.

One import surface for the whole pipeline the paper's evaluation follows —
configure a machine, bind a workload, run, measure::

    from repro.api import Experiment, RunResult, run_workload, workload

    result = run_workload("ping-pong", rounds=8)        # one-shot
    assert result.verified and result.cycles is not None

    with (                                              # full builder
        Experiment.builder()
        .workload("flood", messages=16)
        .override("network.send_credits", 2)
        .build()
    ) as experiment:
        result = experiment.run()

Everything here is re-exported from the top-level ``repro`` package; see
``docs/api.md`` for the walkthrough.
"""

from repro.api.experiment import Experiment, ExperimentBuilder, Probe, run_workload
from repro.api.result import (
    VERIFICATION_FAILED,
    Provenance,
    RunResult,
    roundtrip_problems,
)
from repro.api.workload import (
    Metrics,
    Workload,
    WorkloadSpec,
    get_workload,
    register_spec,
    unregister,
    workload,
    workload_defaults,
    workload_names,
    workload_specs,
)
from repro.core.config import apply_overrides, override_keys, validate_override_key

__all__ = [
    "Experiment",
    "ExperimentBuilder",
    "Probe",
    "run_workload",
    "RunResult",
    "Provenance",
    "VERIFICATION_FAILED",
    "roundtrip_problems",
    "Workload",
    "WorkloadSpec",
    "Metrics",
    "workload",
    "register_spec",
    "unregister",
    "get_workload",
    "workload_defaults",
    "workload_names",
    "workload_specs",
    "apply_overrides",
    "override_keys",
    "validate_override_key",
]
