"""Worker process: measure one workload and print the result as one JSON line.

``python -m bench`` starts one worker per workload, so every workload runs
in a cold interpreter.  The worker imports the simulator from this
checkout's ``src/`` (refusing a ``repro`` installed anywhere else), times
cold imports of it in fresh interpreters, and hands over to
:func:`bench.measure.measure`.

Exit status: 0 when every operation passed its check, 1 when some failed
(the JSON line still reports them), 2 when the simulator cannot be
imported from this checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time
from typing import List, Optional, Tuple

from bench import ROOT, SRC, WORKLOAD_NAMES

#: Scratch space for the traces, checkpoints and sweep results units write;
#: removed again when the worker ends.
WORK_ROOT = os.path.join(ROOT, ".bench_work")

#: Cold imports timed per run, each in a fresh interpreter; ``setup_s`` and
#: ``api.import_s`` use their median.
IMPORT_SAMPLES = 7

#: Run with ``python -c`` from the checkout root: prints the import time and
#: the reference time measured right after it.
_IMPORT_PROBE = (
    "import importlib, sys, time; sys.path.insert(0, sys.argv[1]); "
    "start = time.perf_counter(); measure = importlib.import_module('bench.measure'); "
    "print(time.perf_counter() - start, measure.reference_seconds())"
)


def cold_import() -> Tuple[float, float]:
    """Time a cold import of the simulator in a fresh interpreter; returns
    the import seconds and the reference seconds read just after it."""
    completed = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, SRC], cwd=ROOT, capture_output=True,
        text=True, timeout=120, check=True,
    )
    seconds, reference = completed.stdout.split()
    return float(seconds), float(reference)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench.worker", description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--wrong-expectation", action="store_true")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        measure = importlib.import_module("bench.measure")
    except ImportError as error:
        print(f"bench: cannot import the simulator from {SRC}: {error}", file=sys.stderr)
        return 2
    imported = time.perf_counter()
    origin = os.path.realpath(sys.modules["repro"].__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        print(f"bench: repro was imported from {origin}, not from {SRC}", file=sys.stderr)
        return 2
    imports = [cold_import() for _ in range(IMPORT_SAMPLES)]
    result = measure.measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.size,
        1 if args.wrong_expectation else 0, (started, imported), imports, WORK_ROOT,
    )
    for message in result["failures"]:
        print(f"bench: {args.workload}: {message}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 1 if result["end_to_end"]["ops_failed"]["value"] else 0


if __name__ == "__main__":
    sys.exit(main())
