"""Unit tests for the typed ``repro.api`` facade.

Covers the config-override validator, the ``Workload`` registry and
decorator, ``RunResult`` round-trips and structured views, and the
``Experiment`` builder lifecycle (validation, probes, overrides,
checkpointing).
"""

import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

from repro.api import (
    Experiment,
    Provenance,
    RunResult,
    WorkloadSpec,
    get_workload,
    roundtrip_problems,
    run_workload,
    unregister,
    workload,
    workload_defaults,
    workload_names,
    workload_specs,
)
from repro.core.config import (
    PARAM_KEYS,
    MachineConfig,
    apply_overrides,
    override_keys,
    validate_override_key,
)
from repro.api.schema import SCHEMA_VERSION
from repro.core import scheduler
from repro.sweep.spec import RunSpec

SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "src")


# ---------------------------------------------------------------------------
# Config-override validation (the satellite fix for factories._machine)
# ---------------------------------------------------------------------------


class TestOverrideValidation:
    def test_override_keys_cover_all_sections(self):
        keys = override_keys()
        assert "network.send_credits" in keys
        assert "cluster.issue_policy" in keys
        assert "sim.kernel" in keys
        assert "trace_enabled" in keys

    def test_valid_key_passes(self):
        validate_override_key("network.send_credits")
        validate_override_key("trace_enabled")

    def test_unknown_section_lists_sections(self):
        with pytest.raises(ValueError, match="no section 'netwrok'"):
            validate_override_key("netwrok.send_credits")

    def test_unknown_attribute_lists_section_keys(self):
        with pytest.raises(ValueError, match="network.send_credits"):
            validate_override_key("network.send_credit")

    def test_apply_overrides_mutates_config(self):
        config = MachineConfig.small(1, 1, 1)
        apply_overrides(config, {"network.send_credits": 3, "trace_enabled": False})
        assert config.network.send_credits == 3
        assert config.trace_enabled is False

    def test_apply_overrides_rejects_before_mutating(self):
        config = MachineConfig.small(1, 1, 1)
        before = config.network.send_credits
        with pytest.raises(ValueError, match="unknown config override"):
            apply_overrides(
                config, {"network.send_credits": 3, "network.bogus": 1}
            )
        assert config.network.send_credits == before

    def test_machine_helper_rejects_typoed_parameter(self):
        """The old silent-setattr hole: a typo'd parameter, which sets no
        config key, raises."""
        from repro.workloads.factories import _machine

        with pytest.raises(KeyError, match="send_credit"):
            _machine((1, 1, 1), "event", send_credit=2)


# ---------------------------------------------------------------------------
# Workload registry and decorator
# ---------------------------------------------------------------------------


class TestWorkloadRegistry:
    def test_builtin_workloads_registered(self):
        names = workload_names()
        assert "stencil" in names and "ping-pong" in names

    def test_specs_carry_paper_sections(self):
        assert get_workload("stencil").section == "Figure 5"
        assert get_workload("ping-pong").section == "Figure 7"
        assert all(spec.section for spec in workload_specs())

    def test_descriptions_come_from_docstrings(self):
        assert "Figure 5" in get_workload("stencil").description

    def test_defaults_match_signature_order(self):
        defaults = workload_defaults("stencil")
        assert list(defaults)[:2] == ["kind", "n_hthreads"]
        assert defaults["kind"] == "7pt"

    def test_unknown_name_raises_keyerror_with_known_names(self):
        with pytest.raises(KeyError, match="unknown workload 'nope'"):
            get_workload("nope")

    def test_decorator_registers_and_unregisters(self):
        @workload("tmp-trivial", section="Test")
        def trivial(x: int = 1):
            """A trivial workload."""
            return {"verified": True, "x": x}

        try:
            spec = get_workload("tmp-trivial")
            assert spec is trivial
            assert spec.defaults == {"x": 1}
            assert spec.call({"x": 5}) == {"verified": True, "x": 5}
        finally:
            unregister("tmp-trivial")
        assert "tmp-trivial" not in workload_names()

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate workload name"):

            @workload("stencil")
            def clash():
                """Clashes with the built-in stencil."""
                return {}

    def test_duplicate_of_unloaded_builtin_rejected(self):
        """In a fresh process the built-ins are not loaded yet; registering
        one of their names must still fail at the decorator, leaving the
        built-in intact."""
        script = (
            "from repro.api import get_workload, workload\n"
            "try:\n"
            "    workload('stencil')(lambda: {})\n"
            "except ValueError:\n"
            "    print(get_workload('stencil').section)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run([sys.executable, "-c", script], env=env,
                                   capture_output=True, text=True, timeout=120)
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "Figure 5"

    def test_unregistered_spec_stays_local(self):
        @workload("tmp-local", register=False)
        def local(n: int = 2):
            """Stays out of the global registry."""
            return {"n": n}

        assert isinstance(local, WorkloadSpec)
        assert "tmp-local" not in workload_names()
        assert local(n=3) == {"n": 3}

    def test_validate_params_lists_valid_names(self):
        spec = get_workload("stencil")
        with pytest.raises(ValueError, match="'bogus'; valid: kind, n_hthreads"):
            spec.validate_params({"bogus": 1})


# ---------------------------------------------------------------------------
# RunResult
# ---------------------------------------------------------------------------


class TestRunResult:
    def _result(self, **metrics):
        return RunResult.from_metrics(
            workload="stencil",
            params={"kind": "7pt"},
            metrics={"verified": True, "cycles": 123, **metrics},
            wall_seconds=0.5,
        )

    def test_from_metrics_derives_status(self):
        assert self._result().status == "ok"
        failed = RunResult.from_metrics("stencil", {}, {"verified": False})
        assert failed.status == "failed"
        assert failed.error == "workload verification failed"

    def test_run_id_matches_runspec(self):
        result = self._result()
        assert result.run_id == RunSpec("stencil", {"kind": "7pt"}).run_id

    def test_from_error_keeps_the_sweep_run_id(self):
        """The sweep runner names a failed run by its spec's run id."""
        failed = RunResult.from_error("stencil", {"kind": "7pt"}, "boom", run_id="r7")
        assert (failed.status, failed.run_id) == ("failed", "r7")
        default = RunResult.from_error("stencil", {"kind": "7pt"}, "boom")
        assert default.run_id == RunSpec("stencil", {"kind": "7pt"}).run_id

    def test_fingerprint_is_run_id_suffix(self):
        result = self._result()
        assert result.run_id.endswith("_" + result.fingerprint)

    def test_record_roundtrip_is_lossless(self):
        result = self._result(instructions=7, operations=9, messages=0, nodes=1)
        record = result.to_record()
        assert record["schema_version"] == SCHEMA_VERSION
        assert RunResult.from_record(record) == result

    def test_summary_projects_machine_stats_counters(self):
        result = self._result(instructions=7, operations=9, messages=0, nodes=1)
        assert result.summary == {
            "instructions": 7, "operations": 9, "messages": 0, "nodes": 1,
        }

    def test_timeline_parses_embedded_records(self):
        records = [{"label": "send", "cycle": 3}]
        result = self._result(timeline=json.dumps(records))
        assert result.timeline == records
        assert self._result().timeline is None

    def test_effective_params_is_computed_once_outside_the_fields(self):
        result, fresh = self._result(), self._result()
        assert result.effective_params is result.effective_params
        assert result.effective_params["kind"] == "7pt"
        assert result.effective_params["kernel"] == "event"
        # The cached value is not a field: equality, replace and records ignore it.
        assert result == fresh
        assert "effective_params" not in dataclasses.replace(result, wall_seconds=1.0).__dict__
        assert result.to_record() == fresh.to_record()

    def test_effective_params_falls_back_for_unregistered_workloads(self):
        result = RunResult.from_metrics("not-registered", {"n": 3}, {})
        assert result.effective_params == {"n": 3}

    def test_provenance_kernel_from_effective_params(self):
        # stencil defaults kernel="event"; the explicit params omit it.
        provenance = self._result().provenance
        assert provenance == Provenance(kernel="event")

    def test_provenance_resume_and_seed_from_tags(self):
        result = RunResult.from_metrics(
            "stencil", {}, {"verified": True},
            tags={"seed": "7"}, resumed_from_cycle=400,
        )
        assert result.provenance.resumed_from_cycle == 400
        assert result.provenance.seed == 7
        assert result.tags["resumed_from_cycle"] == "400"

    def test_from_record_rejects_invalid(self):
        with pytest.raises(ValueError, match="invalid result record"):
            RunResult.from_record({"run_id": "r1"})

    def test_cycles_none_for_analytic(self):
        result = RunResult.from_metrics("area-model", {}, {"peak_ratio": 128})
        assert result.cycles is None and result.verified

    def test_roundtrip_problems_flags_drift(self):
        good = self._result().to_record()
        assert roundtrip_problems({"runs": [good]}) == []
        assert roundtrip_problems({"runs": [{"run_id": "r1"}]})
        assert roundtrip_problems({}) == ["document has no 'runs' list"]


# ---------------------------------------------------------------------------
# Experiment builder and lifecycle
# ---------------------------------------------------------------------------


class TestExperimentBuilder:
    def test_requires_a_workload(self):
        with pytest.raises(ValueError, match="no workload bound"):
            Experiment.builder().build()

    def test_unknown_param_name_rejected_at_build(self):
        with pytest.raises(ValueError, match="no parameter"):
            Experiment.builder().workload("ping-pong", bogus=1).build()

    def test_mesh_on_analytic_workload_rejected(self):
        with pytest.raises(ValueError, match="does not accept a 'mesh'"):
            Experiment.builder().workload("area-model").mesh(2, 2, 1).build()

    def test_mesh_conflict_rejected(self):
        builder = Experiment.builder().workload("ping-pong", mesh=[2, 1, 1]).mesh(2, 1, 1)
        with pytest.raises(ValueError, match="pick one"):
            builder.build()

    def test_invalid_mesh_and_kernel_rejected_eagerly(self):
        with pytest.raises(ValueError, match="three positive ints"):
            Experiment.builder().mesh(0, 1, 1)
        with pytest.raises(ValueError, match="unknown simulation kernel"):
            Experiment.builder().kernel("quantum")

    def test_kernel_names_are_the_clock_drivers(self, monkeypatch):
        """``ExperimentBuilder.kernel`` and ``MachineConfig.validate`` accept
        exactly the keys of ``scheduler.DRIVERS``, one added there included."""
        monkeypatch.setitem(scheduler.DRIVERS, "stepped", scheduler.NaiveKernel)
        config = MachineConfig.single_node()
        for name in scheduler.DRIVERS:
            Experiment.builder().kernel(name)
            config.sim.kernel = name
            config.validate()
        with pytest.raises(ValueError) as refused:
            Experiment.builder().kernel("quantum")
        assert str(refused.value) == (
            "unknown simulation kernel 'quantum'; valid: event, naive, stepped")
        config.sim.kernel = "quantum"
        with pytest.raises(ValueError) as refused:
            config.validate()
        assert str(refused.value) == "unknown simulation kernel 'quantum'"

    @pytest.mark.parametrize("name, key", sorted(PARAM_KEYS.items()))
    def test_override_of_a_workload_parameter_rejected_at_build(self, name, key):
        """An override would run a machine that the recorded parameters and
        run id do not describe; the error names the parameter to set."""
        spec = next(spec for spec in workload_specs() if name in spec.defaults)
        builder = Experiment.builder().workload(spec).override(key, spec.defaults[name])
        method = f".{name}()" if name in ("mesh", "kernel") else f".params({name}=...)"
        with pytest.raises(ValueError, match=re.escape(f"use {method} instead of overriding")):
            builder.build()

    def test_override_of_a_fixed_parameter_rejected_at_build(self):
        """``coherence`` is ``remote-memory`` with its mode fixed: a mode
        override would run a remote machine under a coherent result."""
        builder = Experiment.builder().workload("coherence").override(
            "runtime.shared_memory_mode", "remote")
        with pytest.raises(ValueError, match="workload 'coherence' fixes its 'mode'"):
            builder.build()

    def test_kernel_override_allowed_where_no_parameter_sets_it(self):
        experiment = Experiment.builder().workload("area-model").override("sim.kernel", "naive")
        assert experiment.build().overrides == {"sim.kernel": "naive"}

    def test_unknown_override_key_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown config override"):
            Experiment.builder().override("network.bogus", 1)

    def test_probe_must_be_callable(self):
        with pytest.raises(TypeError, match="callable"):
            Experiment.builder().probe(42)

    def test_run_matches_direct_factory_call(self):
        direct = get_workload("cc-sync").call({"iterations": 5})
        with Experiment.builder().workload("cc-sync", iterations=5).build() as exp:
            result = exp.run()
        assert result.metrics == direct
        assert result.verified
        assert result.run_id == RunSpec("cc-sync", {"iterations": 5}).run_id

    def test_context_manager_closes(self):
        experiment = Experiment.builder().workload("area-model").build()
        with experiment as exp:
            assert not exp.closed
        assert experiment.closed
        with pytest.raises(RuntimeError, match="closed"):
            experiment.run()
        with pytest.raises(RuntimeError, match="closed"):
            with experiment:
                pass

    def test_results_accumulate(self):
        with Experiment.builder().workload("area-model").build() as exp:
            assert exp.results == []
            first = exp.run()
            second = exp.run()
        assert exp.results == [first, second]

    def test_overrides_and_probes_reach_the_machine(self):
        machines = []
        with (
            Experiment.builder()
            .workload("flood", messages=4)
            .override("cluster.issue_policy", "round-robin")
            .probe(machines.append)
            .build()
        ) as exp:
            result = exp.run()
        assert result.ok
        assert machines, "probe saw no machines"
        assert all(m.config.cluster.issue_policy == "round-robin" for m in machines)

    def test_tags_and_seed_flow_into_provenance(self):
        with (
            Experiment.builder()
            .workload("area-model")
            .tag(figure="sec1")
            .seed(11)
            .build()
        ) as exp:
            result = exp.run()
        assert result.tags["figure"] == "sec1"
        assert result.provenance.seed == 11

    def test_checkpointed_rerun_resumes(self, tmp_path):
        build = lambda: (  # noqa: E731 - two identical experiments
            Experiment.builder()
            .workload("cc-sync", iterations=200)  # ~1600 cycles
            .checkpoint(str(tmp_path), every=500)
            .build()
        )
        with build() as exp:
            cold = exp.run()
        assert cold.provenance.resumed_from_cycle is None
        assert list(tmp_path.glob("machine-*.json")), "no checkpoint written"
        with build() as exp:
            warm = exp.run()
        assert warm.provenance.resumed_from_cycle is not None
        assert warm.cycles == cold.cycles
        assert warm.metrics["verified"] and cold.metrics["verified"]

    def test_run_workload_one_shot(self):
        result = run_workload("gtlb-mapping", lookups=100)
        assert result.ok and result.workload == "gtlb-mapping"
        assert result.params == {"lookups": 100}

    def test_run_workload_accepts_spec_objects(self):
        @workload("tmp-oneshot", register=False)
        def oneshot(n: int = 1):
            """Local spec for the one-shot helper."""
            return {"verified": True, "n": n}

        result = run_workload(oneshot, n=4)
        assert result.metrics["n"] == 4

    def test_builder_kernel_flows_into_params(self):
        with (
            Experiment.builder().workload("cc-sync", iterations=5).kernel("naive").build()
        ) as exp:
            result = exp.run()
        assert result.params["kernel"] == "naive"
        assert result.provenance.kernel == "naive"
