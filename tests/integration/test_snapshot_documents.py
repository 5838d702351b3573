"""Snapshot documents: byte-stable across resumes, readable across versions.

Contracts of the on-disk snapshot document beyond the state it restores:

* A run that is snapshotted, restored from JSON and run on to the same
  cycle ends with a ``snapshot_document()`` byte-identical to the
  uninterrupted run's -- including the order of every counter's pairs,
  which must not depend on when statistics were last read.
* Snapshots and checkpoints written by 0.9.0 carry the retired
  ``sim.compile_dispatch`` config key, those written by 1.0.1 the retired
  ``node.event_slot`` and ``node.exception_slot`` keys, those written by
  3.0.0 39 fields that are now module constants, and those
  written up to 5.0.0 the top-level ``trace_dir`` and ``trace_chunk_events``.
  They still restore, and resume into an existing machine, with the keys
  dropped; a 3.0.0 field that holds another value than this build runs is
  refused, and setting a retired key as a config override is an
  unknown-key error.  Snapshots written by 0.8.0 lack the SDRAM's
  ``detected_errors`` counter and restore with it at 0.
* Every malformed value of a config field fails with ``SnapshotError``,
  and so does a program source that no longer assembles or an unknown
  top-level config key.
* Four mid-run snapshots that hold every tagged value kind keep their
  sha256 digests, and restoring then saving one reproduces its bytes.
  Every field of their tagged values set to each malformed value, or
  deleted, either loads or fails with ``SnapshotError``, and exactly the
  mutants pinned in ``snapshot_record_mutants.json`` load.
* Two more snapshots hold the untagged records those four lack (C-Switch
  broadcasts, a pending grant, pending fetches and a queued directory
  request) and keep their digests and bytes the same way.
* Three more hold the component containers none of those six does (an NI
  retransmit entry, MIF-queue requests, message-queue words, a half-read
  event record and a deferred synchronizing-fault retry) and keep their
  digests and bytes the same way.
"""

import copy
import hashlib
import itertools
import json
import os
from collections import Counter

import pytest

from repro import MMachine, MachineConfig
from repro.api import ExperimentBuilder, get_workload
from repro.cli import main
from repro.core.config import apply_overrides
from repro.core.values import TAG
from repro.fuzz import generate_program
from repro.snapshot import ConfigMismatchError, SnapshotError, config_to_dict
from repro.snapshot.checkpoint import SnapshotTaken, checkpoint_context

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

#: The config fields 3.0.0 wrote that are now module constants, at the
#: values 3.0.0 wrote.
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

#: The top-level trace keys that versions up to 5.0.0 wrote, as a run whose
#: traces stayed in memory wrote them.
RETIRED_TRACE_KEYS = {"trace_dir": None, "trace_chunk_events": 4096}

#: ``{section: retired fields}`` as older versions wrote them: 0.9.0 the
#: ``sim.compile_dispatch`` knob (ids ``True``/``False``, its two values),
#: 1.0.1 the node's event and exception slot numbers, 3.0.0 the machine's
#: fixed structure and timing, and up to 5.0.0 the top-level trace keys.
OLD_CONFIGS = [
    pytest.param({"sim": {"compile_dispatch": True}}, id="True"),
    pytest.param({"sim": {"compile_dispatch": False}}, id="False"),
    pytest.param({"node": {"event_slot": 4, "exception_slot": 5}}, id="slots-1.0.1"),
    pytest.param({**RETIRED_3_0_0, **RETIRED_TRACE_KEYS}, id="3.0.0"),
    pytest.param(RETIRED_TRACE_KEYS, id="5.0.0"),
]

#: A 3.0.0 field at a value this build does not run.
OTHER_MACHINE = {"memory": {"sdram_cas": 3}}


def _old_document(machine: MMachine, retired: dict) -> dict:
    """*machine*'s snapshot as an older version wrote it: same layout, plus
    the *retired* fields of each config section and top-level keys."""
    document = json.loads(json.dumps(machine.snapshot_document()))
    for key, value in retired.items():
        if isinstance(value, dict):
            document["config"][key].update(value)
        else:
            document["config"][key] = value
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
    for key, value in retired.items():
        assert set(value).isdisjoint(config[key]) if isinstance(value, dict) else key not in config
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


def test_snapshot_without_detected_errors_restores_it_at_zero(tmp_path):
    """Snapshots written by 0.8.0 lack the SDRAM's ``detected_errors``
    counter.  One restores with the counter at 0 and runs on to the cycle
    the same snapshot with the counter ends on (571 for this ``ping-pong``
    snapshot, as for one that 0.8.0 wrote)."""
    text = _workload_snapshot(tmp_path, "ping-pong", 50)
    document = json.loads(text)
    for node in document["machine"]["nodes"]:
        del node["sdram"]["detected_errors"]
    restored = MMachine.from_snapshot(document)
    assert [node.sdram.detected_errors for node in restored.nodes] == [0, 0]
    assert restored.run_until_user_done() == 571
    assert MMachine.from_snapshot(json.loads(text)).run_until_user_done() == 571


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


def test_config_mutants_load_or_raise_snapshot_error():
    """Each leaf of a one-node 3.0.0 snapshot's config set to each
    malformed value either raises ``SnapshotError`` or loads a config that
    agrees with the mutated document; only the retired trace keys load,
    whatever their value."""
    base = _old_document(MMachine(MachineConfig.single_node()),
                         {**RETIRED_3_0_0, **RETIRED_TRACE_KEYS})
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
    assert loaded == [((key,), value) for key in RETIRED_TRACE_KEYS for value in MUTANT_VALUES]


def test_unknown_top_level_config_key_is_refused_by_name(reference):
    """A top-level config key this build does not know is refused, and
    named, on both paths that read a snapshot's config."""
    final_cycle, _ = reference
    document = _old_document(_half_run(final_cycle), {"bogus": 1})
    with pytest.raises(SnapshotError, match=r"unknown keys: \['bogus'\]"):
        MMachine.from_snapshot(document)
    with pytest.raises(ConfigMismatchError, match=r"unknown keys: \['bogus'\]"):
        generate_program(SEED).build_machine("event").restore_snapshot(document)


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


# ---------------------------------------------------------------------------
# Tagged values: digest golden and record-field mutants
# ---------------------------------------------------------------------------

#: ``(workload, cycle)`` of each pinned snapshot, taken with
#: ``checkpoint_context(dir, snapshot_at=cycle)``, and the sha256 of the
#: file it writes.
RECORD_SNAPSHOTS = {
    ("coherence", 25): "eda02aa371f11cf707a5179da9046b82ae76a1755328249636bfcc03dff7f78a",
    ("coherence", 60): "b2ae66699695a4594ae637b0d2a7a1aab445e04c326ac32ea9cb67c3cbcddfc7",
    ("ping-pong", 50): "0747427702b8eb0343c538bc3ce490135630fe0fd215f28214b2dddecce65b7c",
    ("protection-storm", 40): "6596b32f6bd48a3a9d9ab5e36142706caf1dfd09c3df0459ade5df5d56c6d4af",
}

#: Every tag the codec writes for a value that is not plain JSON, apart
#: from ``label``, ``float``, ``tuple``, ``set`` and ``dict``.
RECORD_TAGS = ("blockstatus", "event", "gptr", "gtlb", "lpt", "memreq", "memresp", "msg",
               "program", "reg", "regwrite")

#: Mutants per tagged value field: each of ``MUTANT_VALUES``, then deletion.
MUTANT_COUNT = len(MUTANT_VALUES) + 1

RECORD_MUTANTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                   "snapshot_record_mutants.json")


@pytest.fixture(scope="module")
def record_snapshots(tmp_path_factory):
    """``{(workload, cycle): snapshot file text}``."""
    texts = {}
    for workload, cycle in RECORD_SNAPSHOTS:
        directory = tmp_path_factory.mktemp(f"{workload}-{cycle}")
        with checkpoint_context(str(directory), snapshot_at=cycle):
            with pytest.raises(SnapshotTaken) as taken:
                get_workload(workload).call({})
        with open(taken.value.path, encoding="utf-8") as handle:
            texts[workload, cycle] = handle.read()
    return texts


def _tagged(value):
    """Every tagged value in a snapshot document, in document order."""
    if isinstance(value, dict):
        if TAG in value:
            yield value
        for item in value.values():
            yield from _tagged(item)
    elif isinstance(value, list):
        for item in value:
            yield from _tagged(item)


def record_mutant_loads(texts) -> dict:
    """``{"<workload>@<cycle> <tag>#<occurrence> <field>": pattern}`` for
    the first two values of each tag in each snapshot: character *i* of
    the pattern is ``L`` when the document with the field set to
    ``MUTANT_VALUES[i]`` (the last: with the field deleted) loads, and
    ``-`` when it raises ``SnapshotError``.  Any other exception
    propagates."""
    loads = {}
    for (workload, cycle), text in texts.items():
        seen: Counter = Counter()
        for index, value in enumerate(_tagged(json.loads(text))):
            tag, occurrence = value[TAG], seen[value[TAG]]
            seen[tag] += 1
            if occurrence >= 2:
                continue
            for field in value:
                if field == TAG:
                    continue
                pattern = ""
                for mutant in range(MUTANT_COUNT):
                    document = json.loads(text)
                    record = next(itertools.islice(_tagged(document), index, None))
                    if mutant < len(MUTANT_VALUES):
                        record[field] = MUTANT_VALUES[mutant]
                    else:
                        del record[field]
                    try:
                        MMachine.from_snapshot(document)
                    except SnapshotError:
                        pattern += "-"
                    else:
                        pattern += "L"
                loads[f"{workload}@{cycle} {tag}#{occurrence} {field}"] = pattern
    return loads


def test_record_snapshot_digests_and_round_trip(record_snapshots):
    """The pinned snapshots keep their bytes, hold every record tag
    between them, and restoring then saving each one reproduces it."""
    tags = set()
    for key, text in record_snapshots.items():
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == RECORD_SNAPSHOTS[key], key
        tags.update(value[TAG] for value in _tagged(json.loads(text)))
        restored = MMachine.from_snapshot(json.loads(text))
        assert json.dumps(restored.snapshot_document(), separators=(",", ":"),
                          allow_nan=False) == text, key
    assert sorted(tags) == list(RECORD_TAGS)


def _compact(document) -> str:
    """A snapshot document as ``write_snapshot`` writes it."""
    return json.dumps(document, separators=(",", ":"), allow_nan=False)


def coherent_contention_machine() -> MMachine:
    """A 2x2x1 coherent machine whose nodes 1 and 2 load, and node 3
    stores to, one block homed on node 0."""
    config = MachineConfig.small(2, 2, 1)
    config.runtime.shared_memory_mode = "coherent"
    machine = MMachine(config)
    machine.map_on_node(0, 0x40000)
    for node in (1, 2):
        machine.load_hthread(node, 0, 0, "nop\nnop\nnop\nld i4, i1\nhalt",
                             registers={"i1": 0x40000})
    machine.load_hthread(3, 0, 0, "st i1, i1, #3\nhalt", registers={"i1": 0x40000})
    return machine


#: sha256 of the two snapshots that hold the untagged records the pinned
#: four lack: C-Switch broadcasts (``cc-barrier`` at cycle 7, taken with
#: ``checkpoint_context(dir, snapshot_at=7)``), and a pending grant, pending
#: fetches and a queued directory request (``coherent_contention_machine``
#: run to cycle 62).
BROADCAST_SNAPSHOT = "0ef9eeb35b23aae66586717aea0166f944cf7acf9c8eb8a0c5318d3605948c70"
COHERENCE_SNAPSHOT = "e8c719ae62e79e6e071c247fe2c5a4f86b50dca3ccb86e8c4d9f1a1946e59568"


def _assert_pinned_round_trip(text: str, digest: str) -> MMachine:
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
    restored = MMachine.from_snapshot(json.loads(text))
    assert _compact(restored.snapshot_document()) == text
    return restored


def _workload_snapshot(directory, workload: str, cycle: int) -> str:
    """The text of *workload*'s snapshot at *cycle*, taken with
    ``checkpoint_context(directory, snapshot_at=cycle)``."""
    with checkpoint_context(str(directory), snapshot_at=cycle):
        with pytest.raises(SnapshotTaken) as taken:
            get_workload(workload).call({})
    with open(taken.value.path, encoding="utf-8") as handle:
        return handle.read()


def test_untagged_record_snapshot_digests_and_round_trip(tmp_path):
    """Snapshots holding C-Switch broadcast transfers, a pending grant,
    pending fetches and a queued directory request keep their bytes,
    restoring then saving each reproduces it, and the coherent one resumes
    to the cycle the uninterrupted run ends on."""
    text = _workload_snapshot(tmp_path, "cc-barrier", 7)
    _assert_pinned_round_trip(text, BROADCAST_SNAPSHOT)
    (node,) = json.loads(text)["machine"]["nodes"]
    assert len(node["cswitch"]["broadcast"]) == 3

    machine = coherent_contention_machine()
    machine.run(62)
    text = _compact(machine.snapshot_document())
    restored = _assert_pinned_round_trip(text, COHERENCE_SNAPSHOT)
    coherence = json.loads(text)["machine"]["coherence"]

    def records(section):
        return [record for _, blocks in coherence[section] for _, record in blocks]

    assert len(records("pending_grants")) == 1
    assert len(records("pending_fetches")) == 2
    assert sum(len(entry["queue"]) for entry in records("directories")) == 1
    assert restored.run_until_user_done(10_000) == 123
    assert coherent_contention_machine().run_until_user_done(10_000) == 123


def sync_retry_machine() -> MMachine:
    """One node whose slot-0 ``ld.fe`` finds its word empty and faults; the
    fault is retried after a back-off until slot 1's ``st.ef``, twelve
    cycles late, fills the word."""
    machine = MMachine(MachineConfig.single_node())
    machine.map_on_node(0, 0x10000, num_pages=1)
    machine.write_word(0x10000, 0, sync_bit=0)
    machine.load_hthread(0, 0, 0, "ld.fe i4, i1\nhalt", registers={"i1": 0x10000})
    machine.load_hthread(0, 1, 0, "nop\n" * 12 + "st.ef i5, i1\nhalt",
                         registers={"i1": 0x10000, "i5": 9})
    return machine


#: sha256 of three snapshots that hold the component containers the six
#: above lack: ``nack-flood`` at cycle 21 (an NI retransmit entry, MIF-queue
#: requests and message-queue words) and ``multitenant-timeshare`` at cycle
#: 9 (an event record half read from the LTLB event queue), both taken
#: with ``checkpoint_context(dir, snapshot_at=cycle)``, and
#: ``sync_retry_machine`` run to cycle 5 (a deferred synchronizing-fault
#: retry).
CONTAINER_SNAPSHOTS = {
    "nack-flood": "d2a52f658aa322e5de4b0312037f28d7ad15d43f8ea578e59545e34e7016bb2e",
    "multitenant-timeshare":
        "63030b1197d76ee3b34e849fa79e43dfaac96c98f67cb4508cec552509ce6bf0",
    "sync-retry": "35a4c43825c48a6ab8025455339b609e6fed2967fbc42aa6c91df05294588acd",
}


def _container_counts(text: str) -> dict:
    """How many items the containers of :data:`CONTAINER_SNAPSHOTS` hold
    over all nodes, with the ``(records, head_offset)`` of each event queue
    that holds a record."""
    nodes = json.loads(text)["machine"]["nodes"]
    return {
        "retransmit": sum(len(node["net"]["retransmit"]) for node in nodes),
        "mif_queue": sum(len(node["memory"]["mif_queue"]) for node in nodes),
        "queue_words": sum(len(node[queue]["words"]) for node in nodes
                           for queue in ("msg_queue_p0", "msg_queue_p1")),
        "event_records": [(queue, len(node[queue]["records"]), node[queue]["head_offset"])
                          for node in nodes
                          for queue in ("event_queue_sync", "event_queue_ltlb")
                          if node[queue]["records"]],
        "deferred": sum(len(handler.get("deferred", ())) for node in nodes
                        for handler in node["native_handlers"]),
    }


def test_component_container_snapshot_digests_and_round_trip(tmp_path):
    """Snapshots holding an NI retransmit entry, MIF-queue requests,
    message-queue words, a half-read event record and a deferred
    synchronizing-fault retry keep their bytes, restoring then saving each
    reproduces it, and the sync-retry one resumes to the cycle the
    uninterrupted run ends on."""
    text = _workload_snapshot(tmp_path / "nack", "nack-flood", 21)
    _assert_pinned_round_trip(text, CONTAINER_SNAPSHOTS["nack-flood"])
    assert _container_counts(text) == {"retransmit": 1, "mif_queue": 2, "queue_words": 3,
                                       "event_records": [], "deferred": 0}

    text = _workload_snapshot(tmp_path / "timeshare", "multitenant-timeshare", 9)
    _assert_pinned_round_trip(text, CONTAINER_SNAPSHOTS["multitenant-timeshare"])
    assert _container_counts(text) == {"retransmit": 0, "mif_queue": 1, "queue_words": 2,
                                       "event_records": [("event_queue_ltlb", 1, 1)],
                                       "deferred": 0}

    machine = sync_retry_machine()
    machine.run(5)
    text = _compact(machine.snapshot_document())
    restored = _assert_pinned_round_trip(text, CONTAINER_SNAPSHOTS["sync-retry"])
    assert _container_counts(text) == {"retransmit": 0, "mif_queue": 0, "queue_words": 0,
                                       "event_records": [], "deferred": 1}
    assert restored.run_until_user_done(10_000) == 35
    assert sync_retry_machine().run_until_user_done(10_000) == 35


def test_record_field_mutants_load_or_raise_snapshot_error(record_snapshots):
    """Each field of the first two values of each tag, set to each
    malformed value or deleted, either loads or raises ``SnapshotError``,
    and exactly the pinned mutants load."""
    loads = record_mutant_loads(record_snapshots)
    with open(RECORD_MUTANTS_PATH, encoding="utf-8") as handle:
        pinned = json.load(handle)["loads"]
    assert sum(len(pattern) for pattern in loads.values()) == 1816
    assert sum(pattern.count("L") for pattern in loads.values()) == 1157
    assert loads == pinned
