"""``python -m bench.compare``: judge a change's results against its parent's.

Usage::

    python -m bench.compare PARENT/*.json CHANGE/*.json [--claim METRIC@WORKLOAD]

The result files (written by ``python -m bench --out FILE``) are split into
two sides by directory: the first directory named is the parent, the second
the change.  Runs are paired by seed: for each workload, each side must
hold one run per seed, for the same seeds.  Traced results are skipped.
One row is printed per workload and end-to-end metric, with each side's
median and quartiles, the metric's bound from ``BENCHMARK.json``, a verdict
and each side's share of failed operations.  The rules:

* **regressed** -- the change's median is worse than the parent's by more
  than the bound;
* **unresolved** -- a side's spread (interquartile range over median) is
  wider than the bound, unless every change run beats every parent run;
* **improved** -- the change wins at least 9 of every 10 pairs (ties count
  for neither) and the medians differ by more than the parent's
  interquartile range;
* **unchanged** -- otherwise.

The exact counts (``sim_cycles``, ``sim_ipc``, ``ops_failed``,
``paper_bands_failed``) have a bound of 0: for every seed both sides must
read the same, or the row is **regressed**.  ``--claim`` names a row that
must be improved.  The exit status is 1 when any row regressed or is
unresolved, or a claim is not met; 2 on bad input, including sides whose
seeds differ or a seed with two results on one side.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from bench import ROOT

#: Simulated or counted metrics that must repeat exactly.
EXACT = ("sim_cycles", "sim_ipc", "ops_failed", "paper_bands_failed")

#: Fingerprint fields that describe the host (commits differ on purpose).
HOST_FIELDS = ("cpu_model", "nproc", "python")

#: Share of pairs the change must win for an improvement.
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def paired(parent: Dict[int, float], change: Dict[int, float]) -> Tuple[List[float], List[float]]:
    """Both sides' values in seed order, so that equal positions are pairs.
    Raises ValueError unless both sides ran exactly the same seeds."""
    if set(parent) != set(change):
        raise ValueError(
            f"the sides ran different seeds: parent {sorted(parent)}, change {sorted(change)}"
        )
    seeds = sorted(parent)
    return [parent[seed] for seed in seeds], [change[seed] for seed in seeds]


def verdict(parent: Dict[int, float], change: Dict[int, float], bound: float,
            lower_is_better: bool) -> str:
    """Apply the comparison rules to one metric's runs, given per seed."""

    def better(a: float, b: float) -> bool:
        return a < b if lower_is_better else a > b

    p_values, c_values = paired(parent, change)
    p_q1, p_median, p_q3 = quartiles(p_values)
    _, c_median, _ = quartiles(c_values)
    all_better = all(better(c, p) for c in c_values for p in p_values)
    if not all_better and max(spread(p_values), spread(c_values)) > bound:
        return "unresolved"
    worse_by = (c_median - p_median) / abs(p_median) if p_median else 0.0
    if not lower_is_better:
        worse_by = -worse_by
    if worse_by > bound:
        return "regressed"
    wins = sum(1 for p, c in zip(p_values, c_values) if better(c, p))
    if wins >= WIN_SHARE * len(p_values) and abs(c_median - p_median) > p_q3 - p_q1 \
            and better(c_median, p_median):
        return "improved"
    return "unchanged"


class Side:
    """One side's untraced result files: at most one run per workload and
    seed."""

    def __init__(self, directory: str, documents: List[dict]) -> None:
        self.directory = directory
        self.documents = documents
        #: workload -> seed -> that run's result.
        self.workloads: Dict[str, Dict[int, dict]] = {}
        for document in documents:
            for workload, run in document["workloads"].items():
                seeds = self.workloads.setdefault(workload, {})
                if run["seed"] in seeds:
                    raise ValueError(
                        f"{directory} holds two results of {workload} for seed {run['seed']}"
                    )
                seeds[run["seed"]] = run

    def runs(self, workload: str) -> List[dict]:
        return list(self.workloads.get(workload, {}).values())

    def values(self, workload: str, metric: str) -> Dict[int, float]:
        """Seed -> value of *metric* on *workload*."""
        return {seed: run["end_to_end"][metric]["value"]
                for seed, run in self.workloads.get(workload, {}).items()
                if metric in run["end_to_end"]}

    def failed_share(self, workload: str) -> str:
        runs = self.runs(workload)
        failed = sum(run["end_to_end"]["ops_failed"]["value"] for run in runs)
        ops = sum(run["end_to_end"]["ops"]["value"] for run in runs)
        return f"{failed}/{ops}"


def _load_sides(paths: Sequence[str]) -> List[Side]:
    groups: Dict[str, List[dict]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        if not document.get("trace"):
            groups.setdefault(os.path.dirname(os.path.abspath(path)), []).append(document)
    if len(groups) != 2:
        raise ValueError(
            "expected untraced results from exactly two directories (parent, change), "
            f"got {len(groups)}"
        )
    return [Side(directory, documents) for directory, documents in groups.items()]


def fingerprint_warnings(sides: Sequence[Side]) -> List[str]:
    """Warnings for results measured on different hosts (or, within one
    side, on different commits)."""
    warnings = []
    hosts = {
        tuple(document["fingerprint"].get(key) for key in HOST_FIELDS)
        for side in sides for document in side.documents
    }
    if len(hosts) > 1:
        warnings.append(f"results come from different hosts: {sorted(map(str, hosts))}")
    for side in sides:
        commits = {document["fingerprint"].get("git_commit") for document in side.documents}
        if len(commits) > 1:
            warnings.append(f"{side.directory} mixes commits {sorted(map(str, commits))}")
    return warnings


def _format(value: float) -> str:
    return f"{value:.4g}"


def compare(sides: Sequence[Side], spec: dict) -> List[dict]:
    """One row per workload and end-to-end metric (gated and exact).
    Raises ValueError when the sides' runs cannot be paired by seed."""
    parent, change = sides
    workloads = sorted(set(parent.workloads) | set(change.workloads))
    gated = [(metric["name"], metric["bound"], metric["better"] == "lower")
             for metric in spec["end_to_end"]]
    rows = []
    for workload in workloads:
        for name, bound, lower_is_better in gated + [(name, 0, None) for name in EXACT]:
            p_values, c_values = parent.values(workload, name), change.values(workload, name)
            if not p_values and not c_values:
                continue
            p_list, c_list = paired(p_values, c_values)
            if lower_is_better is None:
                outcome = "unchanged" if p_list == c_list else "regressed"
            else:
                outcome = verdict(p_values, c_values, bound, lower_is_better)
            rows.append({
                "workload": workload, "metric": name, "bound": bound,
                "parent": quartiles(p_list), "change": quartiles(c_list), "verdict": outcome,
            })
        for row in rows:
            if row["workload"] == workload:
                row["failed"] = (parent.failed_share(workload), change.failed_share(workload))
    return rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m bench.compare", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("results", nargs="+", help="result files of the parent, then the change")
    parser.add_argument("--claim", action="append", default=[], metavar="METRIC@WORKLOAD",
                        help="a row that must come out improved (repeatable)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        sides = _load_sides(args.results)
        rows = compare(sides, spec)
    except (OSError, ValueError, KeyError) as error:
        print(f"bench.compare: {error}", file=sys.stderr)
        return 2
    for warning in fingerprint_warnings(sides):
        print(f"bench.compare: warning: {warning}", file=sys.stderr)
    print(f"parent: {sides[0].directory} ({len(sides[0].documents)} runs)")
    print(f"change: {sides[1].directory} ({len(sides[1].documents)} runs)")
    header = ("workload", "metric", "parent median [q1, q3]", "change median [q1, q3]",
              "bound", "verdict", "failed p/c")
    table = [header]
    for row in rows:
        p_q1, p_median, p_q3 = row["parent"]
        c_q1, c_median, c_q3 = row["change"]
        table.append((
            row["workload"], row["metric"],
            f"{_format(p_median)} [{_format(p_q1)}, {_format(p_q3)}]",
            f"{_format(c_median)} [{_format(c_q1)}, {_format(c_q3)}]",
            f"{row['bound']:g}", row["verdict"], "{} / {}".format(*row["failed"]),
        ))
    widths = [max(len(str(line[column])) for line in table) for column in range(len(header))]
    for line in table:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(line, widths)).rstrip())
    status = 0
    if any(row["verdict"] in ("regressed", "unresolved") for row in rows):
        status = 1
    verdicts = {f"{row['metric']}@{row['workload']}": row["verdict"] for row in rows}
    for claim in args.claim:
        outcome = verdicts.get(claim, "not measured")
        if outcome != "improved":
            print(f"bench.compare: claim {claim} not met ({outcome})")
            status = 1
        else:
            print(f"bench.compare: claim {claim} met")
    return status


if __name__ == "__main__":
    sys.exit(main())
