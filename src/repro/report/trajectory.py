"""The benchmark-trajectory file (``BENCH_kernel.json``): schema + appender.

``benchmarks/conftest.py`` appends one *session record* per benchmark
session — kernel throughput, snapshot overhead, whatever the benchmarks
chose to track — so the file is a trajectory across runs/commits rather
than a single overwritten measurement:

.. code-block:: json

    {"schema_version": 2,
     "sessions": [{"repro_version": "0.5.0", "python": "3.11.7",
                   "host": {"cpu_model": "...", "nproc": 2,
                            "python": "CPython 3.11.7"},
                   "benchmarks": {"kernel_throughput": {"...": 1}}}]}

The ``host`` object names the machine a session was measured on, with the
fields ``python -m bench`` stamps on its results, so that sessions from
different hosts are not compared as if they were one.  Sessions written
before it existed have none and stay valid.

A file that does not hold a schema-2 document (missing, unreadable, or of
another schema) starts a fresh trajectory on the next append.  The module
is runnable for CI gating::

    python -m repro.report.trajectory BENCH_kernel.json --require-nonempty

exits nonzero when the file is missing, schema-invalid, or (with the flag)
records no benchmark at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from typing import Dict, List, Optional

SCHEMA_VERSION = 2

#: Keep the trajectory bounded: the newest sessions win.
MAX_SESSIONS = 20

_SCALARS = (str, int, float, bool, type(None))


def validate_session(session: object) -> List[str]:
    """Problems with one session record (empty list when valid)."""
    if not isinstance(session, dict):
        return [f"session is {type(session).__name__}, not an object"]
    problems = []
    for name in ("repro_version", "python"):
        if not isinstance(session.get(name), str):
            problems.append(f"session field {name!r} missing or not a string")
    if "host" in session:
        host = session["host"]
        if not isinstance(host, dict) or not all(
            isinstance(value, _SCALARS) for value in host.values()
        ):
            problems.append("session field 'host' is not an object of JSON scalars")
    benchmarks = session.get("benchmarks")
    if not isinstance(benchmarks, dict):
        return problems + ["session has no 'benchmarks' mapping"]
    for name, metrics in benchmarks.items():
        if not isinstance(metrics, dict):
            problems.append(f"benchmark {name!r} is not a metrics mapping")
            continue
        for key, value in metrics.items():
            if not isinstance(value, _SCALARS):
                problems.append(
                    f"benchmark {name!r} metric {key!r} is not a JSON scalar"
                )
    return problems


def validate_trajectory(document: object) -> List[str]:
    """Problems with a trajectory document (empty list when valid)."""
    if not isinstance(document, dict):
        return [f"document is {type(document).__name__}, not an object"]
    problems = []
    if document.get("schema_version") != SCHEMA_VERSION:
        problems.append(
            f"schema_version is {document.get('schema_version')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    sessions = document.get("sessions")
    if not isinstance(sessions, list):
        return problems + ["document has no 'sessions' list"]
    for index, session in enumerate(sessions):
        problems.extend(
            f"sessions[{index}]: {problem}" for problem in validate_session(session)
        )
    return problems


def host_fingerprint() -> Dict[str, object]:
    """The CPU model, processor count and Python implementation of this
    host, as ``python -m bench`` records them."""
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu_model,
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
    }


def make_session(benchmarks: Dict[str, Dict[str, object]]) -> Dict[str, object]:
    """A session record for *benchmarks* (stamped with version, python and
    host)."""
    from repro import __version__  # noqa: PLC0415

    session = {
        "repro_version": __version__,
        "python": platform.python_version(),
        "host": host_fingerprint(),
        "benchmarks": {name: dict(metrics) for name, metrics in benchmarks.items()},
    }
    problems = validate_session(session)
    if problems:
        raise ValueError(f"constructed an invalid session: {problems}")
    return session


def load_sessions(path: str) -> List[Dict[str, object]]:
    """The existing sessions of *path* (empty for missing/unusable files)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        return []
    if not isinstance(document, dict) or document.get("schema_version") != SCHEMA_VERSION:
        return []
    sessions = document.get("sessions")
    if not isinstance(sessions, list):
        return []
    return [s for s in sessions if not validate_session(s)]


def append_session(
    path: str,
    benchmarks: Dict[str, Dict[str, object]],
    max_sessions: int = MAX_SESSIONS,
) -> Dict[str, object]:
    """Append one session for *benchmarks* to *path*; returns the document.

    The file is created when missing or unusable; only the newest
    *max_sessions* sessions are kept.
    """
    sessions = load_sessions(path)
    sessions.append(make_session(benchmarks))
    document = {
        "schema_version": SCHEMA_VERSION,
        "sessions": sessions[-max_sessions:],
    }
    # Atomic replace: a crash mid-write must not truncate the accumulated
    # trajectory (load_sessions would silently restart it next session).
    staging = path + ".tmp"
    with open(staging, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(staging, path)
    return document


def check_file(path: str, require_nonempty: bool = False) -> List[str]:
    """Validate the trajectory file at *path*; problems as strings."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as error:
        return [f"cannot read {path}: {error}"]
    problems = validate_trajectory(document)
    if problems:
        return problems
    sessions = document["sessions"]
    if require_nonempty:
        if not sessions:
            problems.append(f"{path} records no benchmark sessions")
        elif not any(session.get("benchmarks") for session in sessions):
            problems.append(f"{path} sessions record no benchmarks")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: validate a trajectory file (used by CI)."""

    parser = argparse.ArgumentParser(
        prog="python -m repro.report.trajectory",
        description="Validate a benchmark-trajectory file (BENCH_kernel.json).",
    )
    parser.add_argument("path", help="trajectory file to validate")
    parser.add_argument(
        "--require-nonempty",
        action="store_true",
        help="also fail when the file records no benchmarks at all",
    )
    args = parser.parse_args(argv)
    problems = check_file(args.path, require_nonempty=args.require_nonempty)
    for problem in problems:
        print(f"trajectory: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"{args.path}: valid ({len(load_sessions(args.path))} sessions)")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess

    sys.exit(main())
