"""Integration tests for the differential fuzzing harness (`repro.fuzz`).

Three contracts: (1) pinned seed ranges pass the full differential grid —
event vs naive kernel plus a mid-run snapshot round-trip; (2) a deliberately injected "kernel bug" (the mutation seam) is
*caught* — the harness is not vacuously green; (3) failing programs shrink
to a minimal reproducer and round-trip through the repro-file format, and
the ``repro fuzz`` CLI drives all of it.
"""

import json
import re

import pytest

from repro.cli import main
from repro.cluster.hthread import ThreadState
from repro.fuzz import (
    GeneratorKnobs,
    check_program,
    dump_repro,
    first_difference,
    fuzz_many,
    generate_program,
    load_repro,
    shrink_program,
)
from repro.fuzz.generator import POISON_BASE, SECDED_BASE


def _repro_with(**program_changes):
    program = generate_program(0).to_dict()
    program.update(program_changes)
    return {"fuzz_repro": 1, "program": program}


#: Repro files whose program does not decode into a ``GeneratedProgram``.
MALFORMED_REPROS = {
    "program-int": {"fuzz_repro": 1, "program": 5},
    "knobs-int": _repro_with(knobs=5),
    "mesh-int": _repro_with(mesh=5),
    "thread-int": _repro_with(threads=[5]),
    "shrunk-list": dict(_repro_with(), shrunk=[1, 2]),
    # SECDED flips must land inside the 72-bit codeword, and a double flip
    # must name two different bits (one bit flipped twice cancels out).
    "flip-bit-80": _repro_with(single_flips=[[0, SECDED_BASE, 80]]),
    "flip-bit-negative": _repro_with(single_flips=[[0, SECDED_BASE, -1]]),
    "double-flip-same-bit": _repro_with(double_flips=[[0, POISON_BASE, 7, 7]]),
    "single-flip-two-bits": _repro_with(single_flips=[[0, SECDED_BASE, 3, 4]]),
}


class TestDifferentialGrid:
    @pytest.mark.parametrize("seed", range(8))
    def test_pinned_seeds_pass(self, seed):
        outcome = check_program(generate_program(seed))
        assert outcome.ok, outcome.failures
        assert outcome.cycles > 0

    @pytest.mark.parametrize("seed", range(5))
    def test_hep_programs_run_every_user_thread_to_the_end(self, seed):
        # The 4-cycle settle window is shorter than the 6-slot barrel, so a
        # ready thread waiting for its turn must not read as quiescence.
        program = generate_program(seed)
        program.config_overrides["cluster.issue_policy"] = "hep"
        for kernel in ("event", "naive"):
            machine = program.build_machine(kernel)
            program.run(machine)
            states = {machine.node(thread.node).context(thread.slot, thread.cluster).state
                      for thread in program.threads}
            assert states <= {ThreadState.HALTED, ThreadState.FAULTED}, kernel
        outcome = check_program(program)
        assert outcome.ok, outcome.failures

    def test_fault_heavy_knobs_pass(self):
        knobs = GeneratorKnobs(
            mesh=(2, 2, 1), max_threads=8, fault_density=0.6, nack_storm=True
        )
        for seed in range(3):
            outcome = check_program(generate_program(seed, knobs))
            assert outcome.ok, outcome.failures


class TestMutationCheck:
    """A tampered observation on any grid point must be reported."""

    def test_stat_mutation_caught(self):
        def mutate(machine, kernel):
            if kernel == "naive":
                machine.nodes[0].clusters[0].contexts[0].instructions_issued += 1

        outcome = check_program(generate_program(0), _mutate=mutate)
        assert not outcome.ok
        stages = [failure["stage"] for failure in outcome.failures]
        assert stages == ["differential[naive]"]

    def test_trace_mutation_caught(self):
        def mutate(machine, kernel):
            if kernel == "naive":
                machine.tracer.events.pop()

        outcome = check_program(generate_program(2), _mutate=mutate)
        assert not outcome.ok
        assert outcome.failures[0]["stage"] == "differential[naive]"
        assert "trace" in outcome.failures[0]["detail"]

    def test_state_mutation_caught(self):
        """A difference that only the machine's snapshot state shows (a
        cache's LRU clock, which ``observe`` leaves out) is reported."""
        def mutate(machine, kernel):
            if kernel == "naive":
                machine.nodes[0].cache._access_counter += 1

        outcome = check_program(generate_program(0), _mutate=mutate)
        assert [failure["stage"] for failure in outcome.failures] == ["differential[naive]"]
        assert outcome.failures[0]["detail"].startswith("$.state.nodes[0].cache.access_counter:")

    def test_snapshot_mutation_caught(self):
        def mutate(machine, kernel):
            if kernel == "snapshot":
                machine.nodes[0].clusters[0].contexts[0].stall_cycles += 1

        outcome = check_program(generate_program(1), _mutate=mutate)
        assert not outcome.ok
        assert outcome.failures[0]["stage"].startswith("snapshot[")

    def test_every_grid_point_is_actually_run(self):
        seen = []

        def mutate(machine, kernel):
            seen.append(kernel)

        check_program(generate_program(0), _mutate=mutate)
        assert seen == ["event", "naive", "snapshot"]


class TestFirstDifference:
    def test_equal_is_none(self):
        assert first_difference({"a": [1, {"b": 2}]}, {"a": [1, {"b": 2}]}) is None

    def test_reports_deep_path(self):
        diff = first_difference({"a": [1, {"b": 2}]}, {"a": [1, {"b": 3}]})
        assert diff == "$.a[1].b: 2 != 3"

    def test_reports_missing_and_extra_keys(self):
        assert "missing" in first_difference({"a": 1}, {})
        assert "unexpected" in first_difference({}, {"a": 1})

    def test_reports_length_and_type(self):
        assert "length" in first_difference([1], [1, 2])
        assert "type" in first_difference(1, "1")


class TestShrinkAndRepro:
    def test_shrinker_minimises(self):
        program = generate_program(2)
        assert len(program.threads) > 1

        def fails(candidate):
            return any(thread.kind == "secded-read" for thread in candidate.threads)

        shrunk = shrink_program(program, is_failing=fails)
        assert len(shrunk.threads) == 1
        assert shrunk.threads[0].kind == "secded-read"
        assert not shrunk.single_flips

    def test_shrinker_keeps_non_failing_program(self):
        program = generate_program(0)
        shrunk = shrink_program(program, is_failing=lambda candidate: False)
        assert shrunk.to_dict() == program.to_dict()

    def test_shrinker_halves_iterations(self):
        program = generate_program(0)
        compute = [t for t in program.threads if t.kind in ("compute", "local-memory")]
        if not compute:
            pytest.skip("seed 0 drew no iterating threads")
        shrunk = shrink_program(program, is_failing=lambda candidate: True)
        for thread in shrunk.threads:
            if "iterations" in thread.params:
                assert thread.params["iterations"] == 1

    def test_repro_file_round_trip(self, tmp_path):
        program = generate_program(3)
        outcome = check_program(program)
        path = dump_repro(program, outcome, str(tmp_path / "repro.json"))
        loaded = load_repro(path)
        assert loaded.to_dict() == program.to_dict()
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["fuzz_repro"] == 1
        assert payload["failure"]["seed"] == 3

    def test_load_repro_prefers_shrunk(self, tmp_path):
        program = generate_program(2)
        shrunk = shrink_program(
            program,
            is_failing=lambda c: any(t.kind == "secded-read" for t in c.threads),
        )
        path = dump_repro(
            program, check_program(program), str(tmp_path / "repro.json"), shrunk=shrunk
        )
        assert load_repro(path).to_dict() == shrunk.to_dict()

    def test_load_repro_rejects_garbage(self, tmp_path):
        path = tmp_path / "nonsense.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_repro(str(path))

    @pytest.mark.parametrize("name", sorted(MALFORMED_REPROS))
    def test_load_repro_rejects_malformed_programs(self, tmp_path, name):
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(MALFORMED_REPROS[name]))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_repro(str(path))


class TestCampaign:
    def test_fuzz_many_summary(self):
        lines = []
        summary = fuzz_many(seed=0, runs=3, log=lines.append)
        assert summary["ok"] is True
        assert summary["passed"] == 3
        assert summary["failed"] == []
        assert len(lines) == 3

    def test_failures_are_dumped(self, tmp_path, monkeypatch):
        import repro.fuzz.harness as harness_module

        real_check = harness_module.check_program

        def sabotaged(program, _mutate=None):
            def mutate(machine, kernel):
                if kernel == "naive":
                    machine.nodes[0].clusters[0].contexts[0].instructions_issued += 1

            return real_check(program, _mutate=mutate)

        monkeypatch.setattr(harness_module, "check_program", sabotaged)
        summary = harness_module.fuzz_many(seed=0, runs=2, repro_dir=str(tmp_path))
        assert summary["ok"] is False
        assert len(summary["failed"]) == 2
        for entry in summary["failed"]:
            assert entry["repro_file"]
            loaded = load_repro(entry["repro_file"])
            # The real harness passes the dumped program: the bug was in the
            # sabotaged kernel, not the generated program.
            assert real_check(loaded).ok


class TestCli:
    def test_fuzz_cli_passes(self, capsys):
        assert main(["fuzz", "--seed", "0", "--runs", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["passed"] == 2

    def test_fuzz_cli_knobs(self, capsys):
        code = main(
            ["fuzz", "--runs", "1", "--knob", "mesh=[1,1,1]", "--knob", "max_threads=2"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["knobs"]["mesh"] == [1, 1, 1]
        assert payload["knobs"]["max_threads"] == 2

    def test_fuzz_cli_bad_knob(self, capsys):
        assert main(["fuzz", "--runs", "1", "--knob", "nonsense=1"]) == 2
        assert "bad --knob" in capsys.readouterr().err

    def test_fuzz_cli_bad_runs(self, capsys):
        assert main(["fuzz", "--runs", "0"]) == 2

    def test_fuzz_cli_replay(self, tmp_path, capsys):
        program = generate_program(1)
        path = dump_repro(program, check_program(program), str(tmp_path / "r.json"))
        assert main(["fuzz", "--replay", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["seed"] == 1

    def test_fuzz_cli_replay_malformed_program(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(MALFORMED_REPROS["program-int"]))
        assert main(["fuzz", "--replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cannot load" in err and "malformed fuzz program" in err

    def test_fuzz_cli_replay_flip_outside_the_codeword(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(MALFORMED_REPROS["flip-bit-80"]))
        assert main(["fuzz", "--replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cannot load" in err and "outside the 72-bit codeword" in err

    def test_fuzz_cli_replay_missing_file(self, capsys):
        assert main(["fuzz", "--replay", "/nonexistent/repro.json"]) == 2
        assert "cannot load" in capsys.readouterr().err
