"""Evaluate the expectation catalog against a manifest.

:func:`evaluate` resolves every expectation of
:mod:`repro.report.expected` against the manifest's records and classifies
it as ``ok`` (all matching measurements inside the band), ``fail`` (at least
one outside), or ``skipped`` (the manifest holds no matching run — a smoke
manifest legitimately covers only part of the catalog).
:func:`delta_table` renders the result as the pass/fail Markdown table the
report embeds, and ``repro report --check`` exits nonzero iff
:func:`evaluate` produced any ``fail`` row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.api.result import RunResult
from repro.report.expected import (
    EXPECTATIONS,
    Expectation,
    PairRatioExpectation,
    RecordRatioExpectation,
)
from repro.report.manifest import Manifest
from repro.report.svg import format_value
from repro.report.tables import markdown_table

OK, FAIL, SKIPPED = "ok", "FAIL", "skipped"


@dataclass
class CheckRow:
    """Outcome of one expectation."""

    key: str
    section: str
    paper: Optional[float]
    lo: float
    hi: float
    measured: List[float] = field(default_factory=list)
    status: str = SKIPPED
    note: str = ""


def _as_number(value: object) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _measure_metric(manifest: Manifest, spec: Expectation) -> List[float]:
    values = []
    for record in manifest.find(spec.workload, **spec.params):
        value = _as_number(record.metrics.get(spec.metric))
        if value is not None:
            values.append(value)
    return values


def _pair_key(record: RunResult, vary_key: str) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted(
        (key, repr(value))
        for key, value in record.effective_params.items()
        if key != vary_key
    ))


def _measure_pair_ratio(manifest: Manifest, spec: PairRatioExpectation) -> List[float]:
    numerators = {}
    for record in manifest.find(
        spec.workload, **{**spec.params, spec.vary_key: spec.num_value}
    ):
        numerators.setdefault(_pair_key(record, spec.vary_key), record)
    ratios = []
    for record in manifest.find(
        spec.workload, **{**spec.params, spec.vary_key: spec.den_value}
    ):
        partner = numerators.get(_pair_key(record, spec.vary_key))
        if partner is None:
            continue
        numerator = _as_number(partner.metrics.get(spec.metric))
        denominator = _as_number(record.metrics.get(spec.metric))
        if numerator is None or denominator is None or denominator == 0:
            continue
        ratios.append(numerator / denominator)
    return ratios


def _measure_record_ratio(
    manifest: Manifest, spec: RecordRatioExpectation
) -> List[float]:
    ratios = []
    for record in manifest.find(spec.workload, **spec.params):
        numerator = _as_number(record.metrics.get(spec.num_metric))
        denominator = _as_number(record.metrics.get(spec.den_metric))
        if numerator is None or denominator is None or denominator == 0:
            continue
        ratios.append(numerator / denominator)
    return ratios


def evaluate(manifest: Manifest) -> List[CheckRow]:
    """One :class:`CheckRow` per expectation, in catalog order."""
    rows = []
    for spec in EXPECTATIONS:
        if isinstance(spec, Expectation):
            measured = _measure_metric(manifest, spec)
        elif isinstance(spec, PairRatioExpectation):
            measured = _measure_pair_ratio(manifest, spec)
        elif isinstance(spec, RecordRatioExpectation):
            measured = _measure_record_ratio(manifest, spec)
        else:  # pragma: no cover - catalog invariant
            raise TypeError(f"unknown expectation type {type(spec).__name__}")
        row = CheckRow(
            key=spec.key,
            section=spec.section,
            paper=spec.paper,
            lo=spec.lo,
            hi=spec.hi,
            measured=[round(value, 4) for value in measured],
            note=spec.note,
        )
        if measured:
            inside = all(spec.lo <= value <= spec.hi for value in measured)
            row.status = OK if inside else FAIL
        rows.append(row)
    return rows


def failures(rows: List[CheckRow]) -> List[CheckRow]:
    return [row for row in rows if row.status == FAIL]


def summary_line(rows: List[CheckRow]) -> str:
    counts = {OK: 0, FAIL: 0, SKIPPED: 0}
    for row in rows:
        counts[row.status] += 1
    return (
        f"{counts[OK]} ok, {counts[FAIL]} failed, {counts[SKIPPED]} skipped "
        f"(no matching runs in this manifest)"
    )


def delta_table(rows: List[CheckRow]) -> List[str]:
    """The pass/fail delta table (Markdown lines)."""
    table_rows = []
    for row in rows:
        measured = ", ".join(format_value(value) for value in row.measured) or "-"
        band = f"[{format_value(row.lo)}, {format_value(row.hi)}]"
        paper = format_value(row.paper) if row.paper is not None else "-"
        table_rows.append([row.key, paper, measured, band, row.status])
    return markdown_table(
        ["expectation", "paper", "measured", "accepted band", "status"], table_rows,
    )
