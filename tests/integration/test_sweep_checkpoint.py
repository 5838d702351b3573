"""Checkpointed sweeps: interrupted runs resume mid-run, not from cycle 0."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import Experiment, MMachine, MachineConfig
from repro.core.trace import Tracer
from repro.snapshot.checkpoint import SnapshotTaken, checkpoint_context
from repro.sweep.runner import SweepRunner
from repro.sweep.spec import AxesGroup, RunSpec, SweepSpec
from repro.api import get_workload

SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "src")

PARAMS = {"rounds": 12}
RUN = RunSpec(workload="ping-pong", params=PARAMS)
SPEC = SweepSpec(
    name="checkpointed",
    groups=[AxesGroup("ping-pong", params=dict(PARAMS))],
)


def _interrupt_run(checkpoint_dir: str, at_cycle: int) -> None:
    """Produce the on-disk state of a run killed at *at_cycle*: a checkpoint
    file, no result record."""
    with checkpoint_context(checkpoint_dir, snapshot_at=at_cycle):
        with pytest.raises(SnapshotTaken):
            get_workload(RUN.workload).call(RUN.params)


class TestRunnerResume:
    def test_resumes_from_checkpoint_not_cycle_zero(self, tmp_path):
        reference = get_workload(RUN.workload).call(RUN.params)

        results_dir = str(tmp_path / "results")
        checkpoint_dir = os.path.join(results_dir, "checkpoints", RUN.run_id)
        _interrupt_run(checkpoint_dir, at_cycle=200)
        assert os.listdir(checkpoint_dir), "interruption left no checkpoint"

        logs = []
        runner = SweepRunner(results_dir, checkpoint_every=100, log=logs.append)
        result = runner.run(SPEC)
        assert result.ok
        record = result.records[0]
        assert record["metrics"] == reference
        assert record["tags"]["resumed_from_cycle"] == "200"
        assert any("resumed from cycle 200" in line for line in logs)

    def test_checkpoints_are_removed_after_completion(self, tmp_path):
        results_dir = str(tmp_path / "results")
        runner = SweepRunner(results_dir, checkpoint_every=50, log=lambda _: None)
        result = runner.run(SPEC)
        assert result.ok
        checkpoint_dir = os.path.join(results_dir, "checkpoints", RUN.run_id)
        assert not os.path.exists(checkpoint_dir)

    def test_checkpointing_does_not_change_results(self, tmp_path):
        reference = get_workload(RUN.workload).call(RUN.params)
        runner = SweepRunner(str(tmp_path / "results"), checkpoint_every=40,
                             log=lambda _: None)
        result = runner.run(SPEC)
        assert result.ok
        assert result.records[0]["metrics"] == reference

    def test_rejects_non_positive_interval(self, tmp_path):
        with pytest.raises(ValueError):
            SweepRunner(str(tmp_path), checkpoint_every=0)


class TestAttachContract:
    """Which machines a checkpoint policy attaches to, and in what order."""

    #: Table 1 builds one machine per (scenario, read/write) cell.
    WORKLOAD = "table1-access-times"
    MACHINES = 12

    def _run(self, directory, machines, restored):
        def probe(machine):
            ordinal = len(machines)
            machines.append(machine)
            inner = machine.restore_snapshot

            def restore_snapshot(document):
                restored.append((ordinal, document["machine"]["cycle"]))
                return inner(document)

            machine.restore_snapshot = restore_snapshot

        with (
            Experiment.builder()
            .workload(self.WORKLOAD)
            .override("network.send_credits", 3)
            .probe(probe)
            .checkpoint(directory, every=1)
            .build()
        ) as experiment:
            return experiment.run()

    def test_every_machine_checkpoints_and_resumes_from_its_own_file(self, tmp_path):
        directory = str(tmp_path)
        machines, restored = [], []
        cold = self._run(directory, machines, restored)
        assert cold.ok and cold.provenance.resumed_from_cycle is None
        assert len(machines) == self.MACHINES, "the probe missed a machine"
        assert all(m.config.network.send_credits == 3 for m in machines)
        assert restored == []
        names = sorted(os.listdir(directory), key=lambda name: int(name[8:-5]))
        assert names == [f"machine-{n}.json" for n in range(self.MACHINES)]
        saved = []
        for name in names:
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                saved.append(json.load(handle)["machine"]["cycle"])

        machines, restored = [], []
        warm = self._run(directory, machines, restored)
        assert warm.ok and warm.provenance.resumed_from_cycle == saved[0]
        assert len(machines) == self.MACHINES
        assert restored == list(enumerate(saved))

    def test_trace_and_checkpoint_number_machines_alike(self, tmp_path):
        """Machine N of a run streams its trace to ``machine-N`` of the
        trace directory and saves ``machine-N.json`` of the checkpoint
        directory, and its checkpoints record that trace directory."""
        traces, checkpoints = tmp_path / "trace", tmp_path / "checkpoints"
        machines = []
        with (
            Experiment.builder()
            .workload(self.WORKLOAD)
            .probe(machines.append)
            .trace(str(traces))
            .checkpoint(str(checkpoints), every=1)
            .build()
        ) as experiment:
            assert experiment.run().ok
        assert len(machines) == self.MACHINES, "the probe missed a machine"
        for ordinal, machine in enumerate(machines):
            trace_dir = str(traces / f"machine-{ordinal}")
            checkpoint = checkpoints / f"machine-{ordinal}.json"
            assert machine.tracer.sink.directory == trace_dir
            assert machine._checkpoint.path == str(checkpoint)
            saved = json.loads(checkpoint.read_text())["machine"]["tracer"]
            assert saved["trace_dir"] == trace_dir
            assert len(Tracer.open(trace_dir)) == len(machine.tracer)

    def test_nested_policy_is_refused(self, tmp_path):
        with checkpoint_context(str(tmp_path / "outer")) as outer:
            with pytest.raises(RuntimeError, match="already active"):
                with checkpoint_context(str(tmp_path / "inner")):
                    pass
            machine = MMachine(MachineConfig.single_node())
        assert machine._checkpoint is not None
        assert machine._checkpoint.policy is outer

    def test_machine_built_after_the_block_saves_nothing(self, tmp_path):
        directory = tmp_path / "checkpoints"
        with checkpoint_context(str(directory), every=1):
            inside = MMachine(MachineConfig.single_node())
        after = MMachine(MachineConfig.single_node())
        assert inside._checkpoint is not None
        assert after._checkpoint is None
        after.load_hthread(0, 0, 0, "add i2, i2, #1\nhalt")
        after.run_until_user_done()
        assert not directory.exists() or not os.listdir(directory)


class TestKillAndResume:
    """The real thing: a sweep subprocess is SIGKILLed mid-run and a second
    invocation finishes from the latest mid-run checkpoint."""

    ROUNDS = 1200
    CHECKPOINT_EVERY = 4000
    SPEC_DOC = {
        "name": "kill-resume",
        "groups": [{"workload": "ping-pong", "params": {"rounds": ROUNDS}}],
    }

    def test_kill_and_resume(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.SPEC_DOC))
        results_dir = str(tmp_path / "results")
        checkpoints_root = os.path.join(results_dir, "checkpoints")

        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        argv = [
            sys.executable, "-m", "repro.cli", "sweep",
            "--spec-file", str(spec_path),
            "--results-dir", results_dir,
            "--checkpoint-every", str(self.CHECKPOINT_EVERY),
        ]

        process = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                   stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if any(
                    name.endswith(".json")
                    for _, _, names in os.walk(checkpoints_root)
                    for name in names
                ):
                    break
                if process.poll() is not None:
                    pytest.fail("sweep finished before a checkpoint appeared; "
                                "increase ROUNDS")
                time.sleep(0.02)
            else:
                pytest.fail("no checkpoint appeared within the deadline")
            process.send_signal(signal.SIGKILL)
        finally:
            process.wait(timeout=60)

        # No result record was produced by the killed run.
        runs_dir = os.path.join(results_dir, "runs")
        assert not os.path.exists(runs_dir) or not os.listdir(runs_dir)

        logs = []
        runner = SweepRunner(results_dir, checkpoint_every=self.CHECKPOINT_EVERY,
                             log=logs.append)
        spec = SweepSpec.from_dict(self.SPEC_DOC)
        result = runner.run(spec)
        assert result.ok

        record = result.records[0]
        resumed_from = int(record["tags"]["resumed_from_cycle"])
        assert resumed_from >= self.CHECKPOINT_EVERY, "resume started from cycle 0"

        reference = get_workload("ping-pong").call({"rounds": self.ROUNDS})
        assert record["metrics"] == reference
