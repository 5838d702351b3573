"""Integration tests for the sweep runner: execution, resume, parallel fan-out
and failure handling through the CLI."""

import json
import os

import pytest

from repro.api import VERIFICATION_FAILED, get_workload, unregister, workload
from repro.cli import main
from repro.sweep import SweepRunner, SweepSpec, AxesGroup, validate_results
from repro.sweep.runner import RESULTS_FILENAME, RUNS_DIRNAME, execute_run
from repro.api.schema import SCHEMA_VERSION
from repro.sweep.spec import RunSpec


def _tiny_spec():
    return SweepSpec(
        name="tiny",
        groups=[
            AxesGroup("stencil", axes={"kind": ["7pt"], "n_hthreads": [1, 2]}),
            AxesGroup("area-model"),
        ],
    )


def _quiet(message):
    del message


class TestRunnerCore:
    def test_inline_run_produces_records_and_manifest(self, tmp_path):
        runner = SweepRunner(results_dir=str(tmp_path), jobs=1, log=_quiet)
        result = runner.run(_tiny_spec())
        assert result.ok
        assert result.executed == 3 and result.skipped == 0
        assert sorted(os.listdir(tmp_path / RUNS_DIRNAME))
        document = json.loads((tmp_path / RESULTS_FILENAME).read_text())
        assert validate_results(document) == []
        assert document["counts"] == {"total": 3, "ok": 3, "failed": 0,
                                      "reused": 0, "executed": 3}

    def test_resume_skips_completed_runs(self, tmp_path):
        runner = SweepRunner(results_dir=str(tmp_path), jobs=1, log=_quiet)
        first = runner.run(_tiny_spec())
        second = runner.run(_tiny_spec())
        assert second.executed == 0 and second.skipped == 3
        assert ([r["metrics"] for r in first.records]
                == [r["metrics"] for r in second.records])

    def test_force_reruns_everything(self, tmp_path):
        runner = SweepRunner(results_dir=str(tmp_path), jobs=1, log=_quiet)
        runner.run(_tiny_spec())
        forced = SweepRunner(results_dir=str(tmp_path), jobs=1, force=True,
                             log=_quiet).run(_tiny_spec())
        assert forced.executed == 3 and forced.skipped == 0

    def test_corrupt_record_is_rerun(self, tmp_path):
        runner = SweepRunner(results_dir=str(tmp_path), jobs=1, log=_quiet)
        result = runner.run(_tiny_spec())
        victim = result.records[0]["run_id"]
        (tmp_path / RUNS_DIRNAME / (victim + ".json")).write_text("{not json")
        second = runner.run(_tiny_spec())
        assert second.executed == 1 and second.skipped == 2

    def test_parallel_matches_inline(self, tmp_path):
        inline = SweepRunner(results_dir=str(tmp_path / "a"), jobs=1,
                             log=_quiet).run(_tiny_spec())
        parallel = SweepRunner(results_dir=str(tmp_path / "b"), jobs=2,
                               log=_quiet).run(_tiny_spec())
        by_id = {r["run_id"]: r["metrics"] for r in parallel.records}
        for record in inline.records:
            assert by_id[record["run_id"]] == record["metrics"]

    def test_failed_run_is_recorded_and_retried(self, tmp_path):
        spec = SweepSpec(name="mixed", groups=[
            AxesGroup("area-model"),
            AxesGroup("stencil", params={"kind": "bogus"}),
        ])
        runner = SweepRunner(results_dir=str(tmp_path), jobs=1, log=_quiet)
        result = runner.run(spec)
        assert not result.ok
        assert len(result.failed) == 1
        assert "error" in result.failed[0]
        document = json.loads((tmp_path / RESULTS_FILENAME).read_text())
        assert document["counts"]["failed"] == 1
        # The failed run is retried on resume; the ok run is reused.
        second = runner.run(spec)
        assert second.executed == 1 and second.skipped == 1

    def test_records_persist_before_the_manifest_is_written(self, tmp_path, monkeypatch):
        """Per-run records are stored as each run completes, so an interrupted
        sweep (simulated here by failing the final manifest write) resumes
        from the completed runs instead of starting over."""
        runner = SweepRunner(results_dir=str(tmp_path), jobs=1, log=_quiet)

        def boom(spec, result):
            raise RuntimeError("interrupted before the manifest")

        monkeypatch.setattr(runner, "_write_manifest", boom)
        with pytest.raises(RuntimeError):
            runner.run(_tiny_spec())
        stored = list((tmp_path / RUNS_DIRNAME).glob("*.json"))
        assert len(stored) == 3
        resumed = SweepRunner(results_dir=str(tmp_path), jobs=1, log=_quiet)
        assert resumed.run(_tiny_spec()).executed == 0

    def test_schema_invalid_metrics_become_a_failed_record(self, tmp_path):
        """A factory returning non-scalar metrics yields a failed record and
        a partial manifest, not an aborted sweep."""

        @workload("tmp-non-scalar")
        def non_scalar():
            return {"counts": [1, 2, 3]}

        spec = SweepSpec(name="mixed", groups=[
            AxesGroup("area-model"),
            AxesGroup("tmp-non-scalar"),
        ])
        runner = SweepRunner(results_dir=str(tmp_path), jobs=1, log=_quiet)
        try:
            result = runner.run(spec)
        finally:
            unregister("tmp-non-scalar")
        assert len(result.failed) == 1
        assert "not a JSON scalar" in result.failed[0]["error"]
        assert (tmp_path / RESULTS_FILENAME).exists()

    def test_invalid_spec_raises(self, tmp_path):
        runner = SweepRunner(results_dir=str(tmp_path), jobs=1, log=_quiet)
        with pytest.raises(ValueError, match="unknown workload"):
            runner.run(SweepSpec(name="bad", groups=[AxesGroup("nope")]))

    def test_zero_jobs_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SweepRunner(results_dir=str(tmp_path), jobs=0)


def _unverified():
    return {"verified": False, "cycles": 3}


def _raises():
    raise RuntimeError("boom")


#: (workload, temporary factory or None, tags, status, metrics or None for
#: the registered workload's own, last line of ``error`` or None).
RECORD_CASES = [
    ("area-model", None, {"figure": "t"}, "ok", None, None),
    ("tmp-unverified", _unverified, {}, "failed",
     {"verified": False, "cycles": 3}, VERIFICATION_FAILED),
    ("tmp-raises", _raises, {}, "failed", {}, "RuntimeError: boom"),
]


@pytest.mark.parametrize("name,factory,tags,status,metrics,error", RECORD_CASES,
                         ids=["ok", "unverified", "raises"])
def test_execute_run_record(name, factory, tags, status, metrics, error):
    """The whole record ``execute_run`` returns, bar its wall time."""
    spec = RunSpec(name, {}, dict(tags))
    if factory is not None:
        workload(name)(factory)
    try:
        record = execute_run(spec)
    finally:
        if factory is not None:
            unregister(name)
    del record["wall_seconds"]
    if "error" in record:
        record["error"] = record["error"].rstrip().splitlines()[-1]
    expected = {
        "schema_version": SCHEMA_VERSION,
        "run_id": spec.run_id,
        "workload": name,
        "params": {},
        "status": status,
        "metrics": get_workload(name).call({}) if metrics is None else metrics,
    }
    if error is not None:
        expected["error"] = error
    if tags:
        expected["tags"] = tags
    assert record == expected


class TestCliSweep:
    def test_sweep_spec_file_end_to_end(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(_tiny_spec().to_dict()))
        results_dir = tmp_path / "out"
        assert main(["sweep", "--spec-file", str(spec_path),
                     "--results-dir", str(results_dir), "--jobs", "2"]) == 0
        manifest = results_dir / RESULTS_FILENAME
        assert capsys.readouterr().out.strip() == str(manifest)
        assert main(["validate", str(manifest)]) == 0

    def test_worker_failure_exits_nonzero_with_partial_manifest(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SweepSpec(name="mixed", groups=[
            AxesGroup("area-model"),
            AxesGroup("stencil", params={"kind": "bogus"}),
        ]).to_dict()))
        results_dir = tmp_path / "out"
        assert main(["sweep", "--spec-file", str(spec_path),
                     "--results-dir", str(results_dir)]) == 1
        err = capsys.readouterr().err
        assert "1 of 2 runs failed" in err
        assert "partial results" in err
        document = json.loads((results_dir / RESULTS_FILENAME).read_text())
        assert document["counts"] == {"total": 2, "ok": 1, "failed": 1,
                                      "reused": 0, "executed": 2}
        # The partial manifest is schema-valid once failures are allowed.
        assert main(["validate", str(results_dir / RESULTS_FILENAME),
                     "--allow-failed"]) == 0
