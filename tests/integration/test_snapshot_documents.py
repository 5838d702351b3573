"""Snapshot documents: byte-stable across resumes, readable across versions.

Two contracts of the on-disk snapshot document beyond the state it restores:

* A run that is snapshotted, restored from JSON and run on to the same
  cycle ends with a ``snapshot_document()`` byte-identical to the
  uninterrupted run's -- including the order of every counter's pairs,
  which must not depend on when statistics were last read.
* Snapshots and checkpoints written by 0.9.0 carry the retired
  ``sim.compile_dispatch`` config key, and those written by 1.0.1 the
  retired ``node.event_slot`` and ``node.exception_slot`` keys.  They still
  restore, and resume into an existing machine, with the keys dropped;
  setting a retired key as a config override is an unknown-key error.
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
# Retired config keys
# ---------------------------------------------------------------------------

SEED = 4

#: ``(section, retired fields)`` as older versions wrote them: 0.9.0 the
#: ``sim.compile_dispatch`` knob (ids ``True``/``False``, its two values),
#: 1.0.1 the node's event and exception slot numbers.
OLD_CONFIGS = [
    pytest.param("sim", {"compile_dispatch": True}, id="True"),
    pytest.param("sim", {"compile_dispatch": False}, id="False"),
    pytest.param("node", {"event_slot": 4, "exception_slot": 5}, id="slots-1.0.1"),
]


def _old_document(machine: MMachine, section: str, fields: dict) -> dict:
    """*machine*'s snapshot as an older version wrote it: same layout, plus
    the retired *fields* in config *section*."""
    document = json.loads(json.dumps(machine.snapshot_document()))
    document["config"][section].update(fields)
    return document


@pytest.fixture(scope="module")
def reference():
    machine = _finished(SEED)
    return machine.cycle, _document_bytes(machine)


@pytest.mark.parametrize("section, fields", OLD_CONFIGS)
def test_old_snapshot_restores(reference, section, fields):
    final_cycle, expected = reference
    machine = generate_program(SEED).build_machine("event")
    machine.run(final_cycle // 2)
    restored = MMachine.from_snapshot(_old_document(machine, section, fields))
    assert set(fields).isdisjoint(restored.snapshot_document()["config"][section])
    restored.run(final_cycle - restored.cycle)
    assert _document_bytes(restored) == expected


@pytest.mark.parametrize("section, fields", OLD_CONFIGS)
def test_old_snapshot_resumes_into_existing_machine(reference, section, fields):
    final_cycle, expected = reference
    source = generate_program(SEED).build_machine("event")
    source.run(final_cycle // 2)
    target = generate_program(SEED).build_machine("event")
    target.restore_snapshot(_old_document(source, section, fields))
    target.run(final_cycle - target.cycle)
    assert _document_bytes(target) == expected


@pytest.mark.parametrize("section, fields", OLD_CONFIGS)
def test_old_checkpoint_resumes(reference, section, fields, tmp_path):
    final_cycle, expected = reference
    source = generate_program(SEED).build_machine("event")
    source.run(final_cycle // 2)
    with open(tmp_path / "machine-0.json", "w", encoding="utf-8") as handle:
        json.dump(_old_document(source, section, fields), handle)
    with checkpoint_context(str(tmp_path)) as policy:
        machine = generate_program(SEED).build_machine("event")
        machine.run(final_cycle - final_cycle // 2)
    assert policy.resumes == [(0, final_cycle // 2)]
    assert _document_bytes(machine) == expected


def test_retired_key_is_an_unknown_override():
    program = generate_program(SEED)
    for key, valid in (
        ("sim.compile_dispatch", r"valid sim\.\* keys: sim\.kernel"),
        ("node.event_slot", r"valid node\.\* keys: node\.num_clusters"),
        ("node.exception_slot", r"valid node\.\* keys: node\.num_clusters"),
    ):
        with pytest.raises(ValueError, match=valid):
            ExperimentBuilder().override(key, False)
        with pytest.raises(ValueError, match=valid):
            apply_overrides(program.build_machine("event").config, {key: True})
