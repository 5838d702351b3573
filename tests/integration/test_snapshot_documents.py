"""Snapshot documents: byte-stable across resumes, readable across versions.

Two contracts of the on-disk snapshot document beyond the state it restores:

* A run that is snapshotted, restored from JSON and run on to the same
  cycle ends with a ``snapshot_document()`` byte-identical to the
  uninterrupted run's -- including the order of every counter's pairs,
  which must not depend on when statistics were last read.
* Snapshots and checkpoints written by 0.9.0 carry the retired
  ``sim.compile_dispatch`` config key.  They still restore, and resume into
  an existing machine, with the key dropped; setting the key as a config
  override is an unknown-key error.
"""

import json

import pytest

from repro import MMachine
from repro.api import ExperimentBuilder
from repro.core.config import apply_overrides
from repro.fuzz import generate_program
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
# The retired sim.compile_dispatch key
# ---------------------------------------------------------------------------

SEED = 4


def _old_document(machine: MMachine, value: bool) -> dict:
    """*machine*'s snapshot as 0.9.0 wrote it: same layout, plus the key."""
    document = json.loads(json.dumps(machine.snapshot_document()))
    document["config"]["sim"]["compile_dispatch"] = value
    return document


@pytest.fixture(scope="module")
def reference():
    machine = _finished(SEED)
    return machine.cycle, _document_bytes(machine)


@pytest.mark.parametrize("value", [True, False])
def test_old_snapshot_restores(reference, value):
    final_cycle, expected = reference
    machine = generate_program(SEED).build_machine("event")
    machine.run(final_cycle // 2)
    restored = MMachine.from_snapshot(_old_document(machine, value))
    assert "compile_dispatch" not in restored.snapshot_document()["config"]["sim"]
    restored.run(final_cycle - restored.cycle)
    assert _document_bytes(restored) == expected


@pytest.mark.parametrize("value", [True, False])
def test_old_snapshot_resumes_into_existing_machine(reference, value):
    final_cycle, expected = reference
    source = generate_program(SEED).build_machine("event")
    source.run(final_cycle // 2)
    target = generate_program(SEED).build_machine("event")
    target.restore_snapshot(_old_document(source, value))
    target.run(final_cycle - target.cycle)
    assert _document_bytes(target) == expected


@pytest.mark.parametrize("value", [True, False])
def test_old_checkpoint_resumes(reference, value, tmp_path):
    final_cycle, expected = reference
    source = generate_program(SEED).build_machine("event")
    source.run(final_cycle // 2)
    with open(tmp_path / "machine-0.json", "w", encoding="utf-8") as handle:
        json.dump(_old_document(source, value), handle)
    with checkpoint_context(str(tmp_path)) as policy:
        machine = generate_program(SEED).build_machine("event")
        machine.run(final_cycle - final_cycle // 2)
    assert policy.resumes == [(0, final_cycle // 2)]
    assert _document_bytes(machine) == expected


def test_retired_key_is_an_unknown_override():
    with pytest.raises(ValueError, match=r"valid sim\.\* keys: sim\.kernel"):
        ExperimentBuilder().override("sim.compile_dispatch", False)
    program = generate_program(SEED)
    with pytest.raises(ValueError, match=r"valid sim\.\* keys: sim\.kernel"):
        apply_overrides(program.build_machine("event").config, {"sim.compile_dispatch": True})
