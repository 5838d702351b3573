"""``RunResult``: the one interchange type for experiment outcomes.

Every harness that runs a workload — ``repro run``, the sweep runner, the
pytest benchmarks, warm-started snapshot legs, the ``Experiment`` facade —
produces a :class:`RunResult`.  Its serialised form *is* the sweep record
schema (:mod:`repro.api.schema`): :meth:`RunResult.to_record` emits a
schema-valid record dict byte-compatible with what the sweep runner has
always written, and :meth:`RunResult.from_record` parses one back, so
manifests round-trip losslessly through the typed API
(:func:`roundtrip_problems` is the checker CI runs via
``repro validate --roundtrip``).

On top of the raw record fields the type exposes the structured views the
paper pipeline needs: the config :attr:`~RunResult.fingerprint`, headline
:attr:`~RunResult.cycles`, the :class:`~repro.core.stats.MachineStats`
summary counters, parsed Figure 9 :attr:`~RunResult.timeline` records,
:attr:`~RunResult.effective_params`, and :class:`Provenance` (simulation
kernel, seed, resumed-from cycle).  The report (:mod:`repro.report`) holds
one ``RunResult`` per sweep record and reads these views directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Mapping, Optional

from repro.api.schema import (
    SCHEMA_VERSION,
    VERIFICATION_FAILED,
    config_fingerprint,
    make_record,
    run_id_for,
    validate_record,
)
from repro.api.workload import get_workload

#: Summary counters lifted out of ``metrics`` by :attr:`RunResult.summary`
#: (the scalar projection of ``MachineStats.summary()`` every
#: machine-driving workload reports).
_SUMMARY_KEYS = ("instructions", "operations", "messages", "nodes")


@dataclass(frozen=True)
class Provenance:
    """Where a result came from: how it was simulated, not what it measured."""

    #: Simulation kernel (``"event"`` or ``"naive"``); None for analytic
    #: workloads that never build a machine.
    kernel: Optional[str] = None
    #: Workload RNG seed, when one was set (the simulator itself is
    #: deterministic; seeds only parameterise synthetic traffic workloads).
    seed: Optional[int] = None
    #: Simulated cycle a checkpointed run resumed from, or None for a
    #: cold-started run.
    resumed_from_cycle: Optional[int] = None
    #: Which harness produced the record (``tags["harness"]``), if tagged.
    harness: Optional[str] = None


@dataclass(frozen=True)
class RunResult:
    """The outcome of running one workload with one parameter set.

    Frozen: a result is a value.  ``params``, ``metrics`` and ``tags`` are
    stored as plain dicts for JSON-compatibility; treat them as read-only.
    """

    workload: str
    params: Dict[str, object]
    status: str
    metrics: Dict[str, object]
    wall_seconds: float
    run_id: str
    error: Optional[str] = None
    tags: Dict[str, str] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_metrics(
        cls,
        workload: str,
        params: Mapping[str, object],
        metrics: Mapping[str, object],
        wall_seconds: float = 0.0,
        tags: Optional[Mapping[str, str]] = None,
        resumed_from_cycle: Optional[int] = None,
    ) -> "RunResult":
        """Wrap a completed workload's metrics dict.

        ``status`` derives from the workload's own correctness check exactly
        the way the sweep runner always has: ``metrics["verified"]`` absent
        or true means ``"ok"``, anything else a ``"failed"`` result carrying
        :data:`VERIFICATION_FAILED`.
        """
        params = dict(params)
        status = "ok" if metrics.get("verified", True) else "failed"
        merged_tags = dict(tags or {})
        if resumed_from_cycle is not None:
            merged_tags["resumed_from_cycle"] = str(resumed_from_cycle)
        return cls(
            workload=workload,
            params=params,
            status=status,
            metrics=dict(metrics),
            wall_seconds=round(float(wall_seconds), 6),
            run_id=run_id_for(workload, params),
            error=None if status == "ok" else VERIFICATION_FAILED,
            tags=merged_tags,
        )

    @classmethod
    def from_error(
        cls,
        workload: str,
        params: Mapping[str, object],
        error: str,
        wall_seconds: float = 0.0,
        tags: Optional[Mapping[str, str]] = None,
        run_id: Optional[str] = None,
    ) -> "RunResult":
        """A ``"failed"`` result for a workload that raised."""
        params = dict(params)
        return cls(
            workload=workload,
            params=params,
            status="failed",
            metrics={},
            wall_seconds=round(float(wall_seconds), 6),
            run_id=run_id if run_id is not None else run_id_for(workload, params),
            error=error,
            tags=dict(tags or {}),
        )

    @classmethod
    def from_record(cls, record: Mapping[str, object]) -> "RunResult":
        """Parse a schema-valid record dict (raises ``ValueError`` otherwise)."""
        problems = validate_record(dict(record))
        if problems:
            raise ValueError(f"invalid result record: {'; '.join(problems)}")
        return cls(
            workload=str(record["workload"]),
            params=dict(record["params"]),  # type: ignore
            status=str(record["status"]),
            metrics=dict(record["metrics"]),  # type: ignore
            wall_seconds=float(record["wall_seconds"]),  # type: ignore
            run_id=str(record["run_id"]),
            error=str(record["error"]) if "error" in record else None,
            tags={str(k): str(v) for k, v in dict(record.get("tags") or {}).items()},  # type: ignore
            schema_version=int(record["schema_version"]),  # type: ignore
        )

    # -- serialisation -----------------------------------------------------------

    def to_record(self) -> Dict[str, object]:
        """The schema-valid record dict (validated on the way out)."""
        return make_record(
            run_id=self.run_id,
            workload=self.workload,
            params=dict(self.params),
            status=self.status,
            metrics=dict(self.metrics),
            wall_seconds=self.wall_seconds,
            error=self.error,
            tags=dict(self.tags) if self.tags else None,
        )

    # -- structured views --------------------------------------------------------

    @property
    def ok(self) -> bool:
        """Whether the run completed and passed its correctness check."""
        return self.status == "ok"

    @property
    def verified(self) -> bool:
        """The workload's own correctness check (true for analytic workloads
        that report no ``verified`` metric but still ran to completion)."""
        return self.ok and self.metrics.get("verified", True) is True

    @property
    def cycles(self) -> Optional[int]:
        """Simulated cycles, or None for analytic workloads."""
        value = self.metrics.get("cycles")
        return int(value) if isinstance(value, int) and not isinstance(value, bool) else None

    @property
    def fingerprint(self) -> str:
        """8-hex-digit digest of ``(workload, params)`` — equal fingerprints
        mean the same experiment configuration (it is also the hash suffix
        of :attr:`run_id`)."""
        return config_fingerprint(self.workload, self.params)

    @property
    def summary(self) -> Dict[str, object]:
        """The ``MachineStats`` summary counters present in ``metrics``
        (instructions, operations, messages, nodes); empty for analytic
        workloads."""
        return {key: self.metrics[key] for key in _SUMMARY_KEYS if key in self.metrics}

    @property
    def timeline(self) -> Optional[List[list]]:
        """Parsed milestone timeline rows, ``[cycle, node, label]`` each
        (Figure 9 workloads embed them in ``metrics["timeline"]`` as compact
        JSON), or None."""
        raw = self.metrics.get("timeline")
        if not isinstance(raw, str):
            return None
        parsed = json.loads(raw)
        return parsed if isinstance(parsed, list) else None

    @cached_property
    def effective_params(self) -> Dict[str, object]:
        """Explicit params overlaid on the workload's registered defaults
        (falls back to the explicit params for unregistered workloads).

        Computed once per result and kept in the instance ``__dict__``,
        which equality, ``dataclasses.replace`` and :meth:`to_record` do not
        read; treat it as read-only like ``params``."""
        try:
            spec = get_workload(self.workload)
        except KeyError:
            return dict(self.params)
        return spec.effective_params(self.params)

    @property
    def provenance(self) -> Provenance:
        """How this result was produced (kernel, seed, resume point)."""
        kernel = self.effective_params.get("kernel")
        seed = self.tags.get("seed")
        resumed = self.tags.get("resumed_from_cycle")
        return Provenance(
            kernel=str(kernel) if isinstance(kernel, str) else None,
            seed=int(seed) if seed is not None else None,
            resumed_from_cycle=int(resumed) if resumed is not None else None,
            harness=self.tags.get("harness"),
        )


def roundtrip_problems(document: Mapping[str, object]) -> List[str]:
    """Records in a merged results *document* that do not survive the
    ``record -> RunResult -> record`` round-trip byte-identically.

    Schema-invalid records are reported as such; a valid record that
    re-serialises differently indicates a drift between
    :class:`RunResult` and :mod:`repro.api.schema` and is a bug.
    """
    problems: List[str] = []
    runs = document.get("runs")
    if not isinstance(runs, list):
        return ["document has no 'runs' list"]
    for index, record in enumerate(runs):
        record_problems = validate_record(record)
        if record_problems:
            problems.extend(f"runs[{index}]: {problem}" for problem in record_problems)
            continue
        rebuilt = RunResult.from_record(record).to_record()
        if rebuilt != record:
            drifted = sorted(
                key
                for key in set(rebuilt) | set(record)
                if rebuilt.get(key) != record.get(key)
            )
            problems.append(
                f"runs[{index}]: record does not round-trip through RunResult "
                f"(drifting fields: {', '.join(drifted)})"
            )
    return problems
