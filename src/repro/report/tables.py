"""Markdown tables for Table 1, the Section 1/5 area model and ablations.

Each ``build_*`` function consumes a :class:`~repro.report.manifest.Manifest`
and returns ``(markdown_lines, charts)`` where ``charts`` is a list of
``(filename, svg_text)`` pairs — or ``None`` when the manifest holds no
matching runs, in which case the renderer skips the section.  Output is
deterministic: rows are sorted, numbers formatted with a fixed rule, and no
host- or time-dependent values appear.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.latency import SCENARIOS
from repro.api.result import RunResult
from repro.report.expected import PAPER_TABLE1, paper_value
from repro.report.manifest import Manifest
from repro.report.svg import format_value, grouped_bar_chart

Charts = List[Tuple[str, str]]
Section = Tuple[List[str], Charts]


def markdown_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> List[str]:
    """A GitHub-flavored Markdown table (first column left, rest right)."""
    lines = ["| " + " | ".join(str(header) for header in headers) + " |"]
    alignments = ["---"] + ["---:"] * (len(headers) - 1)
    lines.append("| " + " | ".join(alignments) + " |")
    for row in rows:
        lines.append("| " + " | ".join(format_value(cell) for cell in row) + " |")
    return lines


def dedupe_by(records: Sequence[RunResult], *keys: str) -> Dict[tuple, RunResult]:
    """Index records by the given effective-param values, first run_id wins.

    Collapses axes the section does not display (e.g. the smoke sweep's
    ``kernel`` axis, which by kernel equivalence cannot change the metrics).
    """
    indexed: Dict[tuple, RunResult] = {}
    for record in records:  # records are sorted by run_id already
        key = tuple(record.effective_params.get(k) for k in keys)
        indexed.setdefault(key, record)
    return indexed


def ratio(measured: object, paper: object) -> str:
    if not isinstance(measured, (int, float)) or not isinstance(paper, (int, float)) \
            or not paper:
        return "-"
    return format_value(round(measured / paper, 2))


# ---------------------------------------------------------------------------
# Sections 1/5: the area model
# ---------------------------------------------------------------------------


def build_area_model(manifest: Manifest) -> Optional[Section]:
    """The silicon-area / peak-performance headline numbers."""
    record = manifest.first("area-model")
    if record is None:
        return None
    metrics = record.metrics
    rows = [
        ["processor fraction of 1993 chip", metrics.get("processor_fraction_1993"),
         paper_value("sec1/processor-fraction-1993")],
        ["processor fraction of 1996 chip", metrics.get("processor_fraction_1996"),
         paper_value("sec1/processor-fraction-1996")],
        ["32-node peak-performance ratio", metrics.get("peak_ratio"),
         paper_value("sec1/peak-ratio")],
        ["32-node area ratio", metrics.get("area_ratio"),
         paper_value("sec1/area-ratio")],
        ["peak-performance/area improvement",
         metrics.get("peak_per_area_improvement"),
         paper_value("sec1/peak-per-area")],
    ]
    lines = [
        "## Sections 1/5: silicon area and peak performance",
        "",
        "The paper's headline argument: integrating processors on the DRAM",
        "die multiplies peak performance per unit silicon.",
        "",
    ]
    lines.extend(markdown_table(["quantity", "model", "paper"], rows))
    return lines, []


# ---------------------------------------------------------------------------
# Table 1: access times
# ---------------------------------------------------------------------------


def build_table1(manifest: Manifest) -> Optional[Section]:
    """The twelve access-time measurements next to the paper's values."""
    record = manifest.first("table1-access-times")
    if record is None:
        return None
    metrics = record.metrics
    rows = []
    for scenario in SCENARIOS:
        read = metrics.get(f"{scenario}_read")
        write = metrics.get(f"{scenario}_write")
        paper = PAPER_TABLE1[scenario]
        rows.append([
            scenario.replace("_", " "),
            read, paper["read"], ratio(read, paper["read"]),
            write, paper["write"], ratio(write, paper["write"]),
        ])
    lines = [
        "## Table 1: local and remote access times (cycles)",
        "",
        "Absolute counts undercut the paper because this repository's",
        "handlers are shorter than the authors' unpublished ones; the",
        "relationships the paper draws from the table are asserted by the",
        "reproduction check below.",
        "",
    ]
    lines.extend(markdown_table(
        ["access type", "read", "paper read", "ratio", "write", "paper write", "ratio"],
        rows,
    ))
    categories = [scenario.replace("_", " ") for scenario in SCENARIOS]
    charts = [
        (
            "table1-read.svg",
            grouped_bar_chart(
                "Table 1: read latency, measured vs paper",
                categories,
                [
                    ("measured", [metrics.get(f"{s}_read") for s in SCENARIOS]),
                    ("paper", [PAPER_TABLE1[s]["read"] for s in SCENARIOS]),
                ],
                y_label="cycles",
                width=720,
            ),
        ),
        (
            "table1-write.svg",
            grouped_bar_chart(
                "Table 1: write latency, measured vs paper",
                categories,
                [
                    ("measured", [metrics.get(f"{s}_write") for s in SCENARIOS]),
                    ("paper", [PAPER_TABLE1[s]["write"] for s in SCENARIOS]),
                ],
                y_label="cycles",
                width=720,
            ),
        ),
    ]
    return lines, charts


# ---------------------------------------------------------------------------
# Ablations A1-A4
# ---------------------------------------------------------------------------


def _build_a1(manifest: Manifest) -> Optional[Section]:
    records = dedupe_by(manifest.find("vthread-interleave"), "num_threads")
    if not records:
        return None
    by_threads = {int(key[0]): record for key, record in records.items()}
    baseline = by_threads.get(1)
    rows = []
    for threads in sorted(by_threads):
        cycles = by_threads[threads].metrics["cycles"]
        speedup = "-"
        if baseline is not None:
            speedup = format_value(
                round(threads * baseline.metrics["cycles"] / cycles, 2)
            )
        rows.append([threads, cycles, speedup])
    lines = [
        "### A1: V-Thread interleaving as latency tolerance (Section 3.2)",
        "",
        "Pointer-chasing V-Threads sharing one cluster; work/time above 1.0",
        "means interleaving hid part of each thread's memory latency.",
        "",
    ]
    lines.extend(markdown_table(["V-Threads", "total cycles", "work/time vs 1 thread"], rows))
    charts: Charts = []
    if len(by_threads) >= 2:
        threads = sorted(by_threads)
        charts.append((
            "ablation-a1.svg",
            grouped_bar_chart(
                "A1: pointer-chasing V-Threads on one cluster",
                [f"{t} thread{'s' if t > 1 else ''}" for t in threads],
                [("total cycles", [by_threads[t].metrics["cycles"] for t in threads])],
                y_label="cycles",
            ),
        ))
    return lines, charts


def _build_a2(manifest: Manifest) -> Optional[Section]:
    records = dedupe_by(manifest.find("issue-policy"), "policy")
    if not records:
        return None
    by_policy = {str(key[0]): record for key, record in records.items()}
    policies = sorted(by_policy)
    rows = [[policy, by_policy[policy].metrics["cycles"]] for policy in policies]
    lines = [
        "### A2: thread-selection policy (Section 3.4)",
        "",
        "The MAP's zero-cost interleaving preserves single-thread",
        "performance; HEP/MASA-style barrel scheduling degrades it by the",
        "number of thread contexts.",
        "",
    ]
    lines.extend(markdown_table(["issue policy", "cycles"], rows))
    charts: Charts = []
    if len(policies) >= 2:
        charts.append((
            "ablation-a2.svg",
            grouped_bar_chart(
                "A2: one arithmetic loop under each issue policy",
                policies,
                [("cycles", [by_policy[policy].metrics["cycles"] for policy in policies])],
                y_label="cycles",
            ),
        ))
    return lines, charts


def _build_a3(manifest: Manifest) -> Optional[Section]:
    records = dedupe_by(manifest.find("remote-memory"), "mode", "repeats")
    if not records:
        return None
    rows = []
    for key in sorted(records, key=lambda k: (str(k[0]), k[1])):
        record = records[key]
        rows.append([
            str(key[0]),
            key[1],
            record.metrics["cycles"],
            record.metrics.get("messages", "-"),
        ])
    lines = [
        "### A3: caching remote data in local DRAM (Sections 4.2/4.3)",
        "",
        "Repeated reads of one remote word: the coherent runtime pays one",
        "block fetch then runs at local speed; the non-cached runtime pays",
        "the full remote latency every time.",
        "",
    ]
    lines.extend(markdown_table(["runtime mode", "repeats", "cycles", "messages"], rows))
    charts: Charts = []
    modes = sorted({str(key[0]) for key in records})
    repeats = sorted({key[1] for key in records})
    if len(modes) >= 2:
        series = []
        for mode in modes:
            series.append((
                mode,
                [
                    records[(mode, repeat)].metrics["cycles"]
                    if (mode, repeat) in records else None
                    for repeat in repeats
                ],
            ))
        charts.append((
            "ablation-a3.svg",
            grouped_bar_chart(
                "A3: repeated remote reads, non-cached vs DRAM caching",
                [f"{repeat} repeats" for repeat in repeats],
                series,
                y_label="cycles",
            ),
        ))
    return lines, charts


def _build_a4(manifest: Manifest) -> Optional[Section]:
    floods = dedupe_by(manifest.find("flood"), "send_credits", "queue_words", "messages")
    many = dedupe_by(manifest.find("many-to-one-flood"), "queue_words")
    if not floods and not many:
        return None
    lines = [
        "### A4: return-to-sender throttling (Section 4.1)",
        "",
        "Floods complete correctly whatever the consumer queue size; an",
        "overflowed queue shows up as NACKs and retransmissions, not loss.",
        "",
    ]
    if floods:
        rows = []
        for key in sorted(floods):
            record = floods[key]
            rows.append([
                f"1-to-1 flood, {key[2]} msgs, {key[0]} credits, {key[1]}-word queue",
                record.metrics["cycles"],
                record.metrics.get("nacks", "-"),
                record.metrics.get("retransmissions", "-"),
                record.metrics.get("max_queue_words", "-"),
            ])
        lines.extend(markdown_table(
            ["scenario", "cycles", "NACKs", "retransmits", "max queue words"], rows,
        ))
        lines.append("")
    if many:
        rows = []
        for key in sorted(many):
            record = many[key]
            rows.append([
                f"many-to-1 flood, {key[0]}-word consumer queue",
                record.metrics["cycles"],
                record.metrics.get("nacks", "-"),
                record.metrics.get("retransmissions", "-"),
                record.metrics.get("max_queue_words", "-"),
            ])
        lines.extend(markdown_table(
            ["scenario", "cycles", "NACKs", "retransmits", "max queue words"], rows,
        ))
    charts: Charts = []
    if len(many) >= 2:
        keys = sorted(many)
        charts.append((
            "ablation-a4.svg",
            grouped_bar_chart(
                "A4: many-to-one flood vs consumer queue size",
                [f"{key[0]}-word queue" for key in keys],
                [
                    ("NACKs", [many[key].metrics.get("nacks", 0) for key in keys]),
                    ("retransmits",
                     [many[key].metrics.get("retransmissions", 0) for key in keys]),
                ],
            ),
        ))
    return lines, charts


def build_ablations(manifest: Manifest) -> Optional[Section]:
    """All four ablations, concatenated under one heading."""
    parts = [
        part
        for part in (
            _build_a1(manifest),
            _build_a2(manifest),
            _build_a3(manifest),
            _build_a4(manifest),
        )
        if part is not None
    ]
    if not parts:
        return None
    lines: List[str] = ["## Ablations A1-A4", ""]
    charts: Charts = []
    for part_lines, part_charts in parts:
        lines.extend(part_lines)
        lines.append("")
        charts.extend(part_charts)
    while lines and lines[-1] == "":
        lines.pop()
    return lines, charts
