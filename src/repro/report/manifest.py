"""Loading and indexing sweep results for the report renderer.

A report is rendered from a *manifest*: the merged ``sweep-results.json``
written by :class:`~repro.sweep.runner.SweepRunner` (or any file of
schema-valid records).  :class:`Manifest` loads one from a file path or a
results directory (falling back to merging ``<dir>/runs/*.json``), parses
each schema-valid record into a :class:`repro.api.result.RunResult`, and
lets section builders select runs by workload and parameter values.  The
builders read ``metrics``, ``effective_params`` and the parsed Figure 9
``timeline`` straight off each ``RunResult``.

Parameter matching is on *effective* parameters: the record's explicit
params overlaid on the workload factory's keyword defaults, so a record that
omitted ``kernel`` still matches ``kernel="event"``.

The section builders trust what they read: :func:`_report_problems` checks
each record once, on load, and a record they could not read is listed in
:attr:`Manifest.problems` and left out, as a schema-invalid one is.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api.result import RunResult
from repro.api.schema import validate_record
from repro.api.workload import get_workload, workload_names
from repro.sweep.runner import RESULTS_FILENAME, RUNS_DIRNAME


class ManifestError(ValueError):
    """The manifest path cannot be loaded as sweep results."""


def _normalise(value: object) -> object:
    """Normalise a parameter value for comparison (lists become tuples)."""
    if isinstance(value, (list, tuple)):
        return tuple(_normalise(item) for item in value)
    return value


def _json_kind(value: object) -> str:
    """The JSON type of *value*, with ints and floats both ``number``."""
    kinds = ((bool, "boolean"), ((int, float), "number"), (str, "string"),
             ((list, tuple), "array"), (dict, "object"))
    return next((kind for types, kind in kinds if isinstance(value, types)), "null")


#: The metrics that are not numbers: the verdict, the Figure 9 timeline
#: (JSON text) and two echoed labels.
_LABEL_METRICS = {"verified": "boolean", "timeline": "string", "mode": "string", "policy": "string"}


def _report_problems(run: RunResult) -> List[str]:
    """What the report cannot read in the ok record *run* of a registered
    workload (it reads no other): a param of another JSON type than its
    default, a metric that is not a number but for the labels above, no
    ``cycles`` from a workload that takes a ``kernel``, or a malformed
    ``timeline``."""
    if not run.ok or run.workload not in workload_names():
        return []
    spec = get_workload(run.workload)
    problems = [f"param {name!r} is {value!r}, not a {_json_kind(spec.defaults[name])}"
                for name, value in run.params.items()
                if name in spec.defaults and _json_kind(value) != _json_kind(spec.defaults[name])]
    problems += [f"metric {name!r} is {value!r}, not a {_LABEL_METRICS.get(name, 'number')}"
                 for name, value in run.metrics.items()
                 if _json_kind(value) != _LABEL_METRICS.get(name, "number")]
    if "kernel" in spec.defaults and "cycles" not in run.metrics:
        problems.append("metric 'cycles' is missing")
    try:
        rows = run.timeline or []
    except ValueError:
        rows = [None]
    if any(not isinstance(row, list) or list(map(_json_kind, row)) != ["number", "number", "string"]
           for row in rows):
        problems.append("metric 'timeline' is not a JSON list of [cycle, node, label] rows")
    return problems


def matches(result: RunResult, params: Dict[str, object]) -> bool:
    """Whether every given key/value equals *result*'s effective value."""
    effective = result.effective_params
    return all(
        key in effective and _normalise(effective[key]) == _normalise(value)
        for key, value in params.items()
    )


@dataclass
class Manifest:
    """An indexed collection of sweep result records."""

    source: str
    spec_name: str = ""
    records: List[RunResult] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    @classmethod
    def from_document(cls, document: Dict[str, object], source: str = "") -> "Manifest":
        """Build a manifest from a loaded ``sweep-results.json`` document."""
        runs = document.get("runs")
        if not isinstance(runs, list):
            raise ManifestError(f"{source or 'document'} has no 'runs' list")
        spec = document.get("spec")
        spec_name = str(spec.get("name", "")) if isinstance(spec, dict) else ""
        return cls._from_raw_records(runs, source=source, spec_name=spec_name)

    @classmethod
    def _from_raw_records(
        cls, raw: List[object], source: str, spec_name: str = ""
    ) -> "Manifest":
        manifest = cls(source=source, spec_name=spec_name)
        for index, record in enumerate(raw):
            record_problems = validate_record(record)
            if not record_problems:
                run = RunResult.from_record(record)
                record_problems = _report_problems(run)
            if record_problems:
                manifest.problems.extend(
                    f"runs[{index}]: {problem}" for problem in record_problems
                )
                continue
            manifest.records.append(run)
        manifest.records.sort(key=lambda run: run.run_id)
        return manifest

    @classmethod
    def load(cls, path: str) -> "Manifest":
        """Load a manifest from a results file or a results directory.

        A directory is resolved to ``<dir>/sweep-results.json`` when present,
        otherwise to the merged per-run records under ``<dir>/runs/``.
        """
        if os.path.isdir(path):
            merged = os.path.join(path, RESULTS_FILENAME)
            if os.path.isfile(merged):
                return cls.load(merged)
            runs_dir = os.path.join(path, RUNS_DIRNAME)
            if not os.path.isdir(runs_dir):
                raise ManifestError(
                    f"{path} contains neither {RESULTS_FILENAME} nor {RUNS_DIRNAME}/"
                )
            raw: List[object] = []
            unreadable: List[str] = []
            for name in sorted(os.listdir(runs_dir)):
                if not name.endswith(".json"):
                    continue
                try:
                    with open(os.path.join(runs_dir, name), "r", encoding="utf-8") as handle:
                        raw.append(json.load(handle))
                except OSError as error:
                    unreadable.append(f"{name}: cannot read ({error})")
                except ValueError as error:
                    unreadable.append(f"{name}: not valid JSON ({error})")
            manifest = cls._from_raw_records(raw, source=path)
            manifest.problems.extend(unreadable)
            return manifest
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except OSError as error:
            raise ManifestError(f"cannot read {path}: {error}") from error
        except ValueError as error:
            raise ManifestError(f"{path} is not valid JSON: {error}") from error
        if not isinstance(document, dict):
            raise ManifestError(f"{path} does not contain a results object")
        return cls.from_document(document, source=path)

    # -- queries -----------------------------------------------------------------

    def find(self, workload: str, **params: object) -> List[RunResult]:
        """All ok records of *workload* whose effective params match."""
        return [
            run
            for run in self.records
            if run.workload == workload and run.ok and matches(run, params)
        ]

    def first(self, workload: str, **params: object) -> Optional[RunResult]:
        found = self.find(workload, **params)
        return found[0] if found else None

    def counts(self) -> Tuple[int, int]:
        """``(ok, failed)`` record counts."""
        ok = sum(1 for run in self.records if run.ok)
        return ok, len(self.records) - ok
