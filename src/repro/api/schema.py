"""The result-record schema and the run identity of one configuration.

Every run — whether executed by ``repro sweep``, by a benchmark under
pytest, or by hand — is recorded as one JSON object with the same shape, so
results from different harnesses can be merged and compared.  A record is
the serialised form of a :class:`repro.api.result.RunResult` (see
``RunResult.to_record``/``from_record`` for the typed view).  This module
imports nothing from ``repro``, so it sits below both the result type that
writes records and the sweep and report that read them; ``repro.sweep``
re-exports the record functions.  Validation is hand-rolled (the simulator
is pure stdlib); ``repro validate`` and the CI ``sweep-smoke`` job both go
through :func:`validate_results`, and ``repro validate --roundtrip``
additionally checks that every record survives the
``record -> RunResult -> record`` round-trip byte-identically.

A run's identity is a pure function of its workload, its explicit
parameters and the config overrides its machines were built with:
:func:`run_id_for` names its record file and :func:`config_fingerprint` is
the hash in that name.  A result records each override as a tag
(:data:`OVERRIDE_TAG_PREFIX`).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Mapping, Optional, Sequence

#: Bump when the record shape changes incompatibly.
SCHEMA_VERSION = 1

#: The ``error`` text of a record whose workload ran to completion but
#: failed its own correctness check.
VERIFICATION_FAILED = "workload verification failed"

#: Fields every record must carry, with their accepted types.
_REQUIRED_FIELDS = {
    "schema_version": (int,),
    "run_id": (str,),
    "workload": (str,),
    "params": (dict,),
    "status": (str,),
    "metrics": (dict,),
    "wall_seconds": (int, float),
}

_STATUSES = ("ok", "failed")

_SCALAR_TYPES = (str, int, float, bool, type(None))

#: Prefix of the result tags that record a config override, followed by the
#: dotted key: ``override.network.send_credits``.
OVERRIDE_TAG_PREFIX = "override."


def _slug(value: object) -> str:
    """A filesystem-safe fragment for one parameter value."""
    text = str(value)
    if isinstance(value, (list, tuple)):
        text = "x".join(str(item) for item in value)
    return "".join(ch if (ch.isalnum() or ch in "._-") else "-" for ch in text)


def _canonical(params: Dict[str, object]) -> str:
    return json.dumps(params, sort_keys=True, separators=(",", ":"), default=str)


def config_fingerprint(workload: str, params: Dict[str, object],
                       overrides: Optional[Mapping[str, object]] = None) -> str:
    """The 8-hex-digit digest of one ``(workload, params)`` configuration,
    and of the dotted config *overrides* its machines were built with, if
    any (each value as its string, the form its result tag holds).

    This is the hash suffix of :attr:`repro.sweep.RunSpec.run_id` and the
    ``fingerprint`` of a :class:`repro.api.RunResult`: equal fingerprints
    mean the same workload ran with the same explicit parameters and
    overrides.
    """
    text = workload + _canonical(params)
    if overrides:
        text += _canonical({key: str(value) for key, value in overrides.items()})
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def run_id_for(workload: str, params: Dict[str, object],
               overrides: Optional[Mapping[str, object]] = None) -> str:
    """The deterministic run id of one ``(workload, params)`` pair and its
    config *overrides*; without overrides, the id the pair always had."""
    parts = [workload]
    for key in sorted(params):
        parts.append(f"{key}-{_slug(params[key])}")
    for key, value in sorted((overrides or {}).items()):
        parts.append(f"{key}-{_slug(str(value))}")
    return "_".join(parts)[:96] + "_" + config_fingerprint(workload, params, overrides)


def make_record(
    run_id: str,
    workload: str,
    params: Dict[str, object],
    status: str,
    metrics: Optional[Dict[str, object]] = None,
    wall_seconds: float = 0.0,
    error: Optional[str] = None,
    tags: Optional[Dict[str, str]] = None,
) -> Dict[str, object]:
    """Build a schema-valid result record."""
    record: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "run_id": run_id,
        "workload": workload,
        "params": dict(params),
        "status": status,
        "metrics": dict(metrics or {}),
        "wall_seconds": round(float(wall_seconds), 6),
    }
    if error is not None:
        record["error"] = error
    if tags:
        record["tags"] = dict(tags)
    problems = validate_record(record)
    if problems:
        raise ValueError(f"constructed an invalid record: {problems}")
    return record


def validate_record(record: object) -> List[str]:
    """Problems with one result record (empty list when valid)."""
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, not an object"]
    problems = []
    for name, types in _REQUIRED_FIELDS.items():
        if name not in record:
            problems.append(f"missing field {name!r}")
        elif not isinstance(record[name], types) or isinstance(record[name], bool):
            problems.append(f"field {name!r} has type {type(record[name]).__name__}")
    if "tags" in record and not isinstance(record["tags"], dict):
        problems.append(f"field 'tags' has type {type(record['tags']).__name__}")
    if problems:
        return problems
    if record["schema_version"] != SCHEMA_VERSION:
        problems.append(f"schema_version {record['schema_version']} != {SCHEMA_VERSION}")
    if record["status"] not in _STATUSES:
        problems.append(f"status {record['status']!r} not in {_STATUSES}")
    if record["status"] == "failed" and "error" not in record:
        problems.append("failed record carries no 'error' field")
    if record["wall_seconds"] < 0:
        problems.append("wall_seconds is negative")
    for key, value in record["metrics"].items():
        if not isinstance(value, _SCALAR_TYPES):
            problems.append(f"metric {key!r} is not a JSON scalar ({type(value).__name__})")
    if record["status"] == "ok":
        metrics = record["metrics"]
        if "verified" in metrics and metrics["verified"] is not True:
            problems.append("ok record has verified != true")
    return problems


def validate_results(
    document: object,
    expected_run_ids: Optional[Sequence[str]] = None,
    allow_failed: bool = False,
) -> List[str]:
    """Problems with a merged ``sweep-results.json`` document.

    When *expected_run_ids* is given (or the document carries its own
    ``expected_run_ids``), missing and unexpected records are reported too.
    """
    if not isinstance(document, dict):
        return [f"document is {type(document).__name__}, not an object"]
    problems = []
    if document.get("schema_version") != SCHEMA_VERSION:
        problems.append("document schema_version missing or unsupported")
    runs = document.get("runs")
    if not isinstance(runs, list):
        return problems + ["document has no 'runs' list"]
    seen = []
    seen_set = set()
    for index, record in enumerate(runs):
        for problem in validate_record(record):
            problems.append(f"runs[{index}]: {problem}")
        if isinstance(record, dict):
            if record.get("run_id") in seen_set:
                problems.append(f"runs[{index}]: duplicate run_id {record['run_id']!r}")
            seen.append(record.get("run_id"))
            seen_set.add(record.get("run_id"))
            if not allow_failed and record.get("status") == "failed":
                problems.append(
                    f"runs[{index}]: run {record.get('run_id')!r} failed: "
                    f"{record.get('error', 'unknown error')!s:.200}"
                )
    if expected_run_ids is None:
        expected = document.get("expected_run_ids")
        expected_run_ids = expected if isinstance(expected, list) else None
    if expected_run_ids is not None:
        expected_set = set(expected_run_ids)
        missing = [run_id for run_id in expected_run_ids if run_id not in seen_set]
        unexpected = [run_id for run_id in seen if run_id not in expected_set]
        for run_id in missing:
            problems.append(f"missing record for run {run_id!r}")
        for run_id in unexpected:
            problems.append(f"unexpected record {run_id!r}")
    return problems
