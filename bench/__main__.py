"""``python -m bench``: run the benchmark and print every metric.

Each workload runs in its own cold worker process (``bench.worker``), one at
a time, single-threaded.  The metrics are printed by name with their units,
then, as the last line of standard output, one JSON object::

    {"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}

whose metrics are the ``end_to_end`` metrics of ``BENCHMARK.json`` (or, with
``--trace 1``, its ``per_layer`` metrics).  With several workloads each
metric name gets an ``@workload`` suffix.  ``--out FILE`` also writes the
full result, stamped with a host fingerprint, for ``python -m bench.compare``.

Exit status: 0 when every operation passed its check, 1 when one failed,
2 when the benchmark could not run at all (nothing is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

from bench import ROOT, SRC, WORKLOAD_NAMES

#: Seconds a worker may take beyond its measuring budget (start-up, the
#: last unit, import) before it is stopped.
WORKER_GRACE_S = 150


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run only this workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the composed workloads' address streams (default 0)")
    parser.add_argument("--seconds", type=float,
                        help="measuring budget per workload, in seconds "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also trace every other unit and report per-layer metrics")
    parser.add_argument("--out", help="write the full result as JSON to this file")
    # Test seams: a test-sized unit, and a deliberately wrong expected value.
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--wrong-expectation", action="store_true", help=argparse.SUPPRESS)
    return parser


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git(*args: str) -> str:
    """Output of a read-only git command on this checkout.  Git does not
    look above the checkout for a repository."""
    environment = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    completed = subprocess.run(
        ["git", "--no-optional-locks", *args], cwd=ROOT, env=environment,
        capture_output=True, text=True, timeout=30, check=True,
    )
    return completed.stdout.strip()


def _git_commit() -> Tuple[str, Optional[bool]]:
    """The checked-out commit and whether the tree has uncommitted changes
    (\"unknown\" and None outside git)."""
    try:
        return _git("rev-parse", "HEAD"), bool(_git("status", "--porcelain"))
    except (OSError, subprocess.SubprocessError):
        return "unknown", None


def fingerprint(repro_version: str) -> Dict[str, object]:
    """The host and code a result was measured on."""
    commit, dirty = _git_commit()
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "repro_version": repro_version,
        "git_commit": commit,
        "git_dirty": dirty,
    }


def _run_worker(name: str, args: argparse.Namespace) -> Optional[dict]:
    command = [
        sys.executable, "-m", "bench.worker", "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
    ]
    if args.wrong_expectation:
        command.append("--wrong-expectation")
    try:
        completed = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=args.seconds + WORKER_GRACE_S,
        )
    except subprocess.TimeoutExpired:
        print(f"bench: {name}: worker stopped after {args.seconds + WORKER_GRACE_S:.0f} s",
              file=sys.stderr)
        return None
    sys.stderr.write(completed.stderr)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode not in (0, 1) or not lines:
        print(f"bench: {name}: worker exited with status {completed.returncode}",
              file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"bench: {name}: worker printed no result", file=sys.stderr)
        return None


def _format(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.6g}"


def _print_result(result: dict) -> None:
    print(f"{result['workload']}: {result['units']} units ({result['traced_units']} traced), "
          f"seed {result['seed']}, digest {result['digest']}")
    for section in ("end_to_end", "per_layer"):
        for metric, entry in result.get(section, {}).items():
            print(f"  {metric:<28} {_format(entry['value']):>16} {entry['unit']}")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"bench: no simulator source at {os.path.join(SRC, 'repro')}", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    try:
        spec = _benchmark_spec()
        reported = [metric["name"] for metric in spec[section]]
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
    except (OSError, ValueError, KeyError, TypeError) as error:
        print(f"bench: cannot read BENCHMARK.json: {error}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    results: Dict[str, dict] = {}
    for name in names:
        result = _run_worker(name, args)
        if result is None:
            return 2
        _print_result(result)
        results[name] = result

    suffix = len(names) > 1
    metrics = {}
    for name, result in results.items():
        for metric in reported:
            entry = result[section][metric]
            metrics[f"{metric}@{name}" if suffix else metric] = {
                "value": entry["value"], "unit": entry["unit"],
            }
    attempted = sum(result["end_to_end"]["ops"]["value"] for result in results.values())
    failed = sum(result["end_to_end"]["ops_failed"]["value"] for result in results.values())
    if args.out:
        document = {
            "schema": 1,
            "fingerprint": fingerprint(next(iter(results.values()))["repro_version"]),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "workloads": results,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
