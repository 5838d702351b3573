"""Snapshot documents: byte-stable across resumes, readable across versions.

Two contracts of the on-disk snapshot document beyond the state it restores:

* A run that is snapshotted, restored from JSON and run on to the same
  cycle ends with a ``snapshot_document()`` byte-identical to the
  uninterrupted run's -- including the order of every counter's pairs,
  which must not depend on when statistics were last read.
* Snapshots and checkpoints written by 0.9.0 carry the retired
  ``sim.compile_dispatch`` config key, those written by 1.0.1 the retired
  ``node.event_slot`` and ``node.exception_slot`` keys, and those written
  by 3.0.0 39 fields that are now constants or component defaults.  They
  still restore, and resume into an existing machine, with the keys
  dropped; a 3.0.0 field that holds another value than this build runs is
  refused, and setting a retired key as a config override is an
  unknown-key error.
* Every malformed value of a config field fails with ``SnapshotError``,
  and so does a program source that no longer assembles.
"""

import copy
import json

import pytest

from repro import MMachine, MachineConfig
from repro.api import ExperimentBuilder
from repro.cli import main
from repro.core.config import apply_overrides
from repro.fuzz import generate_program
from repro.snapshot import ConfigMismatchError, SnapshotError, config_to_dict
from repro.snapshot.checkpoint import checkpoint_context

#: Fuzz seeds whose by-unit/by-slot counter pairs once came out in a
#: different order after a mid-run resume.
SEEDS = (2, 4, 7, 12, 16, 23, 24)
FRACTIONS = (0.1, 0.3, 0.5)


def _document_bytes(machine: MMachine) -> str:
    return json.dumps(machine.snapshot_document())


def _finished(seed: int) -> MMachine:
    program = generate_program(seed)
    machine = program.build_machine("event")
    program.run(machine)
    return machine


def _resumed(seed: int, fraction: float, final_cycle: int) -> MMachine:
    program = generate_program(seed)
    machine = program.build_machine("event")
    machine.run(max(1, int(final_cycle * fraction)))
    restored = MMachine.from_snapshot(json.loads(json.dumps(machine.snapshot_document())))
    restored.run(final_cycle - restored.cycle)
    return restored


@pytest.mark.parametrize("seed", SEEDS)
def test_resumed_run_document_is_byte_equal(seed):
    reference = _finished(seed)
    expected = _document_bytes(reference)
    for fraction in FRACTIONS:
        resumed = _resumed(seed, fraction, reference.cycle)
        assert resumed.cycle == reference.cycle
        assert _document_bytes(resumed) == expected, f"fraction {fraction}"


# ---------------------------------------------------------------------------
# Retired config keys
# ---------------------------------------------------------------------------

SEED = 4

#: The config fields 3.0.0 wrote that are now constants or component
#: defaults, at the values 3.0.0 wrote.
RETIRED_3_0_0 = {
    "cluster": {"num_int_regs": 16, "num_fp_regs": 16, "num_cc_regs": 4, "num_gcc_regs": 8,
                "num_mc_regs": 8, "icache_words": 1024, "words_per_instruction": 4,
                "enforce_gcc_pairs": True},
    "memory": {"cache_banks": 4, "bank_size_words": 4096, "line_size_words": 8,
               "cache_associativity": 2, "ltlb_entries": 64, "lpt_entries": 1024,
               "sdram_size_words": 1 << 20, "sdram_row_activate": 5, "sdram_cas": 2,
               "sdram_cycles_per_word": 1, "sdram_row_size_words": 1024,
               "secded_enabled": True, "bank_latency": 1, "mif_latency": 1,
               "ltlb_latency": 1, "fill_latency": 1, "event_enqueue_latency": 2},
    "network": {"router_latency": 1, "channel_latency": 1, "inject_latency": 1,
                "eject_latency": 1, "max_body_words": 8},
    "node": {"num_vthread_slots": 6, "event_queue_records": 64,
             "exception_queue_records": 16, "switch_transfers_per_cycle": 4,
             "mswitch_latency": 1, "cswitch_latency": 1},
    "runtime": {"native_handler_dispatch_cycles": 6, "native_handler_cycles_per_word": 1,
                "sync_fault_retry_cycles": 24},
}

#: ``{section: retired fields}`` as older versions wrote them: 0.9.0 the
#: ``sim.compile_dispatch`` knob (ids ``True``/``False``, its two values),
#: 1.0.1 the node's event and exception slot numbers, 3.0.0 the machine's
#: fixed structure and timing.
OLD_CONFIGS = [
    pytest.param({"sim": {"compile_dispatch": True}}, id="True"),
    pytest.param({"sim": {"compile_dispatch": False}}, id="False"),
    pytest.param({"node": {"event_slot": 4, "exception_slot": 5}}, id="slots-1.0.1"),
    pytest.param(RETIRED_3_0_0, id="3.0.0"),
]

#: A 3.0.0 field at a value this build does not run.
OTHER_MACHINE = {"memory": {"sdram_cas": 3}}


def _old_document(machine: MMachine, retired: dict) -> dict:
    """*machine*'s snapshot as an older version wrote it: same layout, plus
    the *retired* fields of each config section."""
    document = json.loads(json.dumps(machine.snapshot_document()))
    for section, fields in retired.items():
        document["config"][section].update(fields)
    return document


@pytest.fixture(scope="module")
def reference():
    machine = _finished(SEED)
    return machine.cycle, _document_bytes(machine)


def _half_run(final_cycle: int) -> MMachine:
    machine = generate_program(SEED).build_machine("event")
    machine.run(final_cycle // 2)
    return machine


@pytest.mark.parametrize("retired", OLD_CONFIGS)
def test_old_snapshot_restores(reference, retired):
    final_cycle, expected = reference
    restored = MMachine.from_snapshot(_old_document(_half_run(final_cycle), retired))
    config = restored.snapshot_document()["config"]
    for section, fields in retired.items():
        assert set(fields).isdisjoint(config[section])
    restored.run(final_cycle - restored.cycle)
    assert _document_bytes(restored) == expected


@pytest.mark.parametrize("retired", OLD_CONFIGS)
def test_old_snapshot_resumes_into_existing_machine(reference, retired):
    final_cycle, expected = reference
    document = _old_document(_half_run(final_cycle), retired)
    target = generate_program(SEED).build_machine("event")
    target.restore_snapshot(document)
    target.run(final_cycle - target.cycle)
    assert _document_bytes(target) == expected


@pytest.mark.parametrize("retired", OLD_CONFIGS)
def test_old_checkpoint_resumes(reference, retired, tmp_path):
    final_cycle, expected = reference
    with open(tmp_path / "machine-0.json", "w", encoding="utf-8") as handle:
        json.dump(_old_document(_half_run(final_cycle), retired), handle)
    with checkpoint_context(str(tmp_path)) as policy:
        machine = generate_program(SEED).build_machine("event")
        machine.run(final_cycle - final_cycle // 2)
    assert policy.resumes == [(0, final_cycle // 2)]
    assert _document_bytes(machine) == expected


def test_snapshot_of_another_machine_is_refused(reference, tmp_path, capsys):
    """A 3.0.0 field at a value this build does not run is refused, naming
    the field, on every path that reads a snapshot."""
    final_cycle, _ = reference
    document = _old_document(_half_run(final_cycle), OTHER_MACHINE)
    named = r"memory\.sdram_cas must be 2, the value this build runs, got 3"
    with pytest.raises(SnapshotError, match=named):
        MMachine.from_snapshot(document)
    with pytest.raises(ConfigMismatchError, match=named):
        generate_program(SEED).build_machine("event").restore_snapshot(document)
    path = tmp_path / "machine-0.json"
    path.write_text(json.dumps(document))
    with checkpoint_context(str(tmp_path)):
        machine = generate_program(SEED).build_machine("event")
        with pytest.raises(ConfigMismatchError, match=named):
            machine.run(final_cycle)
    capsys.readouterr()
    assert main(["resume", str(path)]) == 2
    assert "memory.sdram_cas must be 2" in capsys.readouterr().err


#: Values each config leaf of a snapshot is set to in turn.
MUTANT_VALUES = (None, "x", [], {}, -1, 1.5, [1, 2])


def _config_leaves(config: dict):
    """Paths of every leaf of a snapshot config document, the items of a
    list field included."""
    for key, value in config.items():
        if not isinstance(value, dict):
            yield (key,)
            continue
        for name, item in value.items():
            yield (key, name)
            if isinstance(item, list):
                yield from ((key, name, index) for index in range(len(item)))


def test_config_mutants_load_or_raise_snapshot_error(tmp_path, monkeypatch):
    """Each leaf of a one-node 3.0.0 snapshot's config set to each
    malformed value either raises ``SnapshotError`` or loads a config that
    agrees with the mutated document; only a string or None ``trace_dir``
    loads."""
    monkeypatch.chdir(tmp_path)  # a string trace_dir creates that directory
    base = _old_document(MMachine(MachineConfig.single_node()), RETIRED_3_0_0)
    mutants, loaded = 0, []
    for path in _config_leaves(base["config"]):
        for value in MUTANT_VALUES:
            document = copy.deepcopy(base)
            target = document["config"]
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
            mutants += 1
            try:
                machine = MMachine.from_snapshot(document)
            except SnapshotError:
                continue
            loaded.append((path, value))
            for key, ours in config_to_dict(machine.config).items():
                theirs = document["config"][key]
                if isinstance(ours, dict):
                    theirs = {name: theirs[name] for name in ours}
                assert ours == theirs, (path, value)
    assert mutants == 385
    assert loaded == [(("trace_dir",), None), (("trace_dir",), "x")]


@pytest.mark.parametrize("source, error", [
    ("frobnicate i1", "unknown opcode 'frobnicate'"),
    ("br i1, nowhere", "undefined label 'nowhere'"),
], ids=["unknown-opcode", "undefined-label"])
def test_program_that_does_not_assemble_is_refused(source, error, tmp_path, capsys):
    """A snapshot whose program source no longer assembles raises
    ``SnapshotError`` naming the program, on both paths that decode one,
    and ``repro resume`` exits 2."""
    def build():
        machine = MMachine(MachineConfig.single_node())
        machine.load_hthread(0, 0, 0, "add i1, i1, #1\nhalt")
        return machine

    machine = build()
    machine.run(2)
    document = machine.snapshot_document()
    context = document["machine"]["nodes"][0]["clusters"][0]["contexts"][0]
    context["program"]["source"] = source
    named = f"program 'user' does not assemble: {error}"
    with pytest.raises(SnapshotError, match=named):
        MMachine.from_snapshot(document)
    with pytest.raises(SnapshotError, match=named):
        build().restore_snapshot(document)
    path = tmp_path / "snapshot.json"
    path.write_text(json.dumps(document))
    capsys.readouterr()
    assert main(["resume", str(path)]) == 2
    assert "does not assemble" in capsys.readouterr().err


def test_retired_key_is_an_unknown_override():
    program = generate_program(SEED)
    for key, valid in (
        ("sim.compile_dispatch", r"valid sim\.\* keys: sim\.kernel"),
        ("node.event_slot", r"valid node\.\* keys: node\.num_clusters"),
        ("node.exception_slot", r"valid node\.\* keys: node\.num_clusters"),
        ("memory.sdram_cas", r"valid memory\.\* keys: memory\.page_size_words"),
    ):
        with pytest.raises(ValueError, match=valid):
            ExperimentBuilder().override(key, False)
        with pytest.raises(ValueError, match=valid):
            apply_overrides(program.build_machine("event").config, {key: True})
