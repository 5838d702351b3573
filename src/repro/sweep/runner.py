"""Parallel, resumable execution of sweep specs.

The runner expands a :class:`~repro.sweep.spec.SweepSpec` into run
descriptors, fans them out over a ``multiprocessing`` pool (``jobs=1`` runs
inline, which is also the path coverage measurement sees), writes one JSON
record per run under ``<results_dir>/runs/``, and merges everything into
``<results_dir>/sweep-results.json``.

Resume: a run whose per-run record already exists, validates against the
schema and has ``status == "ok"`` is *not* re-executed — its record is
loaded from disk, the way a cached download is skipped by a build pipeline.
Failed records are retried.  ``force=True`` re-runs everything.

A worker failure (the workload raises) produces a ``status="failed"`` record
with the traceback; the sweep keeps going, the merged manifest still lists
every run, and :meth:`SweepRunner.run` reports the failure count so the CLI
can exit nonzero while leaving a partial-results manifest behind.

Runs execute through the typed facade: each worker runs an
:class:`repro.api.experiment.Experiment` and serialises its
:class:`repro.api.result.RunResult` at the process boundary, so the on-disk
records are exactly the ``RunResult`` interchange form the report subsystem
parses back.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.api.experiment import Experiment
from repro.api.result import RunResult
from repro.api.schema import SCHEMA_VERSION, validate_record
from repro.api.workload import get_workload, workload_names
from repro.sweep.spec import RunSpec, SweepSpec

RESULTS_FILENAME = "sweep-results.json"
RUNS_DIRNAME = "runs"
CHECKPOINTS_DIRNAME = "checkpoints"


def store_record(record: Dict[str, object], directory: str) -> str:
    """Write one record to ``<directory>/<run_id>.json``; returns the path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, str(record["run_id"]) + ".json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def execute_run(
    spec: RunSpec,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
) -> Dict[str, object]:
    """Execute one run in-process and return its (schema-valid) record.

    The run is an :class:`~repro.api.experiment.Experiment`; record
    construction is inside the try as well, so a factory returning
    schema-invalid metrics (e.g. a non-scalar value) yields a failed record
    like any other workload error, not an aborted sweep.

    With ``checkpoint_every`` set, the workload's machines snapshot to
    ``checkpoint_dir`` every N simulated cycles and a re-execution after an
    interruption resumes from the latest checkpoint instead of from cycle 0
    (:mod:`repro.snapshot.checkpoint`).  Once the run produces a record the
    checkpoints are deleted -- they only serve killed runs.
    """
    start = time.perf_counter()
    result: Optional[RunResult] = None
    try:
        result = Experiment(
            get_workload(spec.workload),
            spec.params,
            tags=spec.tags,
            checkpoint_dir=checkpoint_dir if checkpoint_every is not None else None,
            checkpoint_every=checkpoint_every,
        ).run()
        record = result.to_record()
    except Exception:
        record = RunResult.from_error(
            workload=spec.workload,
            params=spec.params,
            error=traceback.format_exc(limit=20),
            wall_seconds=time.perf_counter() - start,
            # A resumed run whose metrics fail the schema keeps its resume tag.
            tags=result.tags if result is not None else spec.tags,
            run_id=spec.run_id,
        ).to_record()
    if checkpoint_dir is not None:
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    return record


def _pool_worker(payload: Dict[str, object]) -> Dict[str, object]:
    """Top-level (picklable) pool entry point."""
    return execute_run(
        RunSpec.from_dict(payload["spec"]),
        checkpoint_dir=payload.get("checkpoint_dir"),
        checkpoint_every=payload.get("checkpoint_every"),
    )


@dataclass
class SweepResult:
    """Outcome of one :meth:`SweepRunner.run` invocation."""

    spec_name: str
    results_path: str
    records: List[Dict[str, object]] = field(default_factory=list)
    skipped: int = 0
    executed: int = 0
    wall_seconds: float = 0.0

    @property
    def failed(self) -> List[Dict[str, object]]:
        return [record for record in self.records if record["status"] == "failed"]

    @property
    def ok(self) -> bool:
        return not self.failed


class SweepRunner:
    """Expand a spec, fan runs out over workers, merge the records."""

    def __init__(
        self,
        results_dir: str,
        jobs: int = 1,
        force: bool = False,
        log: Optional[Callable[[str], None]] = None,
        checkpoint_every: Optional[int] = None,
        report: bool = False,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ValueError("checkpoint interval must be a positive cycle count")
        self.results_dir = results_dir
        self.jobs = jobs
        self.force = force
        self.checkpoint_every = checkpoint_every
        self.report = report
        self._log = log if log is not None else self._default_log

    @staticmethod
    def _default_log(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    # -- per-run record files ----------------------------------------------------

    def _run_path(self, run_id: str) -> str:
        return os.path.join(self.results_dir, RUNS_DIRNAME, run_id + ".json")

    def _checkpoint_dir(self, run_id: str) -> Optional[str]:
        if self.checkpoint_every is None:
            return None
        return os.path.join(self.results_dir, CHECKPOINTS_DIRNAME, run_id)

    def _load_completed(self, run_id: str) -> Optional[Dict[str, object]]:
        """The existing record for *run_id*, if it is valid and ok."""
        path = self._run_path(run_id)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            return None
        if validate_record(record) or record.get("status") != "ok":
            return None
        if record.get("run_id") != run_id:
            return None
        return record

    def _store(self, record: Dict[str, object]) -> None:
        store_record(record, os.path.join(self.results_dir, RUNS_DIRNAME))

    # -- the sweep itself --------------------------------------------------------

    def run(self, spec: SweepSpec) -> SweepResult:
        started = time.perf_counter()
        problems = spec.validate(known_workloads=workload_names())
        if problems:
            raise ValueError("invalid sweep spec: " + "; ".join(problems))
        runs = spec.expand()
        os.makedirs(os.path.join(self.results_dir, RUNS_DIRNAME), exist_ok=True)

        completed: Dict[str, Dict[str, object]] = {}
        pending: List[RunSpec] = []
        if self.force:
            pending = list(runs)
        else:
            for run in runs:
                record = self._load_completed(run.run_id)
                if record is not None:
                    completed[run.run_id] = record
                else:
                    pending.append(run)
        total = len(runs)
        self._log(
            f"sweep {spec.name!r}: {total} runs "
            f"({len(completed)} cached, {len(pending)} to execute, "
            f"jobs={self.jobs})"
        )

        fresh = self._execute(pending, total_runs=total, already_done=len(completed))
        for record in fresh:
            completed[str(record["run_id"])] = record

        records = [completed[run.run_id] for run in runs]
        wall = time.perf_counter() - started
        result = SweepResult(
            spec_name=spec.name,
            results_path=os.path.join(self.results_dir, RESULTS_FILENAME),
            records=records,
            skipped=total - len(pending),
            executed=len(pending),
            wall_seconds=wall,
        )
        self._write_manifest(spec, result)
        simulated = sum(record["metrics"].get("cycles") or 0 for record in fresh)
        throughput = f", {simulated / wall:,.0f} simulated cycles/s" if fresh and wall > 0 else ""
        self._log(
            f"sweep {spec.name!r}: {len(records)} records "
            f"({len(result.failed)} failed, {result.skipped} reused) in {wall:.1f}s"
            + throughput
        )
        if self.report:
            self._render_report(result)
        return result

    def _render_report(self, result: SweepResult) -> None:
        """Render the paper-figure report next to the manifest (``--report``)."""
        from repro.report import Manifest, render_report  # noqa: PLC0415

        manifest = Manifest.load(result.results_path)
        rendered = render_report(manifest, os.path.join(self.results_dir, "report"))
        self._log(f"report: {rendered.markdown_path} (+{len(rendered.chart_paths)} charts)")

    def _execute(
        self,
        pending: List[RunSpec],
        total_runs: int,
        already_done: int,
    ) -> List[Dict[str, object]]:
        if not pending:
            return []
        records: List[Dict[str, object]] = []
        done = already_done

        def note(record: Dict[str, object]) -> None:
            # Persist immediately so an interrupted sweep resumes from the
            # last completed run, not from the start.
            self._store(record)
            nonlocal done
            done += 1
            status = record["status"]
            cycles = record["metrics"].get("cycles")
            detail = f"cycles={cycles}" if cycles is not None else "analytic"
            resumed = (record.get("tags") or {}).get("resumed_from_cycle")
            if resumed is not None:
                detail += f", resumed from cycle {resumed}"
            self._log(
                f"[{done}/{total_runs}] {record['run_id']}: {status} "
                f"({detail}, {record['wall_seconds']:.2f}s)"
            )

        if self.jobs == 1:
            for spec in pending:
                record = execute_run(
                    spec,
                    checkpoint_dir=self._checkpoint_dir(spec.run_id),
                    checkpoint_every=self.checkpoint_every,
                )
                note(record)
                records.append(record)
            return records

        payloads = [
            {
                "spec": spec.to_dict(),
                "checkpoint_dir": self._checkpoint_dir(spec.run_id),
                "checkpoint_every": self.checkpoint_every,
            }
            for spec in pending
        ]
        with multiprocessing.Pool(processes=self.jobs) as pool:
            for record in pool.imap_unordered(_pool_worker, payloads):
                note(record)
                records.append(record)
        return records

    def _write_manifest(self, spec: SweepSpec, result: SweepResult) -> None:
        document = {
            "schema_version": SCHEMA_VERSION,
            "spec": spec.to_dict(),
            "expected_run_ids": [run.run_id for run in spec.expand()],
            "jobs": self.jobs,
            "wall_seconds": round(result.wall_seconds, 3),
            "counts": {
                "total": len(result.records),
                "ok": len(result.records) - len(result.failed),
                "failed": len(result.failed),
                "reused": result.skipped,
                "executed": result.executed,
            },
            "runs": result.records,
        }
        with open(result.results_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
