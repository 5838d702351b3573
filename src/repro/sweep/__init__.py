"""Parallel experiment sweeps over the simulator.

A sweep is a declarative cross-product of machine configurations, workloads
and kernel backends (:mod:`repro.sweep.spec`), executed in parallel with
resume support (:mod:`repro.sweep.runner`), producing schema-validated JSON
records (:mod:`repro.api.schema`, whose record functions are re-exported
here).  Built-in specs, including the one that
regenerates every paper figure, live in :mod:`repro.sweep.specs`.
"""

from repro.api.schema import (
    SCHEMA_VERSION,
    make_record,
    validate_record,
    validate_results,
)
from repro.sweep.runner import SweepResult, SweepRunner, execute_run
from repro.sweep.spec import AxesGroup, RunSpec, SweepSpec
from repro.sweep.specs import builtin_spec_names, builtin_specs, get_spec

__all__ = [
    "AxesGroup",
    "RunSpec",
    "SweepSpec",
    "SweepResult",
    "SweepRunner",
    "execute_run",
    "SCHEMA_VERSION",
    "make_record",
    "validate_record",
    "validate_results",
    "builtin_spec_names",
    "builtin_specs",
    "get_spec",
]
