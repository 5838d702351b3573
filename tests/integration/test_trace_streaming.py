"""End-to-end guarantees of the disk trace sink on real runs.

Five properties that together make ``--trace-dir`` safe for
million-cycle runs (scaled down here to event-count-equivalent sizes so
the suite stays fast):

* a long streaming run records a byte-identical event stream to the
  in-memory reference while never buffering more than one chunk;
* the paper's analyses (the Figure 9 timeline, the Table 1 latency
  measurements) compute identical numbers from either sink — including
  from a trace directory reopened after the run with ``Tracer.open``;
* a snapshot taken mid-run round-trips the disk sink: a machine rebuilt
  from the snapshot appends to the same trace directory, truncating any
  post-snapshot chunks, and the final stream is byte-identical to an
  uninterrupted run;
* each run numbers its machines' trace directories from 0, as checkpoints
  do, so a rerun replaces its traces; a checkpoint resumes only into the
  trace location its tracer state records, and one written up to 5.0.0,
  with the trace keys in its config, still restores;
* a corrupt trace directory is refused with a ``TraceDirError`` naming the
  file, on every read: no field of the index and no cut or padded chunk
  escapes as another exception or reads as a different trace.
"""

import copy
import gzip
import json
import os
import re
import shutil
import zlib

import pytest

from repro import Experiment, MMachine, MachineConfig
from repro.analysis.latency import measure_load_latency
from repro.analysis.timeline import extract_remote_access_timeline
from repro.core.trace import Tracer, encode_event
from repro.core.trace_disk import TraceDirError
from repro.snapshot import ConfigMismatchError

REGION = 0x40000


def _stream(tracer):
    return [
        json.dumps(encode_event(event), sort_keys=True)
        for event in tracer.iter_filter()
    ]


def _message_stream_machine(count, trace_dir=None, chunk_events=128):
    from repro.workloads.synthetic import remote_store_sender_program

    machine = MMachine(MachineConfig.small(2, 1, 1))
    if trace_dir is not None:
        machine.tracer.stream_to(trace_dir, chunk_events)
    far = machine.num_nodes - 1
    machine.map_on_node(far, REGION, num_pages=1)
    dip = machine.runtime.dip("remote_store")
    machine.load_hthread(0, 0, 0, remote_store_sender_program(REGION, dip, count))
    return machine


def test_long_streaming_run_matches_memory_run(tmp_path):
    """A sustained message stream (the event-count-equivalent of a
    million-cycle run) through the disk sink: bounded buffering, many
    chunks, and the exact event stream of the in-memory reference."""
    reference = _message_stream_machine(256)
    reference.run_until_user_done(max_cycles=500_000)

    streamed = _message_stream_machine(256, trace_dir=tmp_path / "t")
    streamed.run_until_user_done(max_cycles=500_000)

    assert streamed.cycle == reference.cycle
    sink = streamed.tracer.sink
    assert sink.kind == "disk"
    assert sink.peak_tail_events <= 128
    assert sink.stats()["chunks"] >= 5
    assert len(streamed.tracer) == len(reference.tracer)
    assert _stream(streamed.tracer) == _stream(reference.tracer)

    # The same stream again, out-of-core from the closed directory.
    reopened = Tracer.open(tmp_path / "t")
    assert _stream(reopened) == _stream(reference.tracer)
    assert reopened.count("send") == reference.tracer.count("send")
    assert reopened.first("send").cycle == reference.tracer.first("send").cycle
    assert (reopened.filter("msg_deliver")[-1].cycle
            == reference.tracer.filter("msg_deliver")[-1].cycle)


def _remote_read_machine(trace_dir=None):
    machine = MMachine(MachineConfig.small(2, 1, 1))
    if trace_dir is not None:
        machine.tracer.stream_to(trace_dir, 32)
    machine.map_on_node(1, REGION, num_pages=1)
    machine.write_word(REGION, 11)
    machine.load_hthread(0, 0, 0, "ld i5, i1\nhalt", registers={"i1": REGION})
    machine.run_until(lambda m: m.register_full(0, 0, 0, "i5"), max_cycles=10_000)
    return machine


def test_analyses_are_sink_independent(tmp_path):
    """Figure 9 timelines and Table 1 latencies must not depend on where
    the trace lives: memory sink, live disk sink, and a reopened trace
    directory all produce identical numbers."""
    memory = _remote_read_machine()
    disk = _remote_read_machine(trace_dir=tmp_path / "t")
    tracers = {
        "memory": memory.tracer,
        "disk": disk.tracer,
        "reopened": Tracer.open(tmp_path / "t"),
    }
    timelines = {
        name: extract_remote_access_timeline(tracer, "read", address=REGION).to_records()
        for name, tracer in tracers.items()
    }
    assert timelines["disk"] == timelines["memory"]
    assert timelines["reopened"] == timelines["memory"]
    assert timelines["memory"], "timeline extraction found no milestones"

    latencies = {
        name: measure_load_latency(tracer, node=0, slot=0, cluster=0)
        for name, tracer in tracers.items()
    }
    assert latencies["disk"] == latencies["memory"]
    assert latencies["reopened"] == latencies["memory"]
    assert latencies["memory"] > 0


def test_snapshot_resume_appends_to_same_trace(tmp_path):
    """Kill-and-resume over the disk sink: snapshot mid-run, let the
    original machine run on (writing chunks the snapshot does not know
    about), then rebuild from the snapshot.  The restored machine must
    re-attach to the snapshot's own trace directory, truncate the
    post-snapshot chunks, and append — ending with the exact stream (and
    event ids) of an uninterrupted run."""
    reference = _message_stream_machine(64, trace_dir=tmp_path / "ref", chunk_events=32)
    reference.run_until_user_done(max_cycles=500_000)
    reference_stream = _stream(Tracer.open(tmp_path / "ref"))
    assert len(reference_stream) == len(reference.tracer)

    victim = _message_stream_machine(64, trace_dir=tmp_path / "run", chunk_events=32)
    victim.run(400)
    still_running = not all(node.user_threads_finished for node in victim.nodes)
    assert still_running, "snapshot point is past completion"
    snapshot_path = str(tmp_path / "mid.json")
    victim.save_snapshot(snapshot_path)
    # The doomed continuation: chunks on disk the snapshot never saw.
    victim.run(400)
    assert len(Tracer.open(tmp_path / "run")) > 0

    resumed = MMachine.from_snapshot(snapshot_path)
    assert resumed.tracer.sink.kind == "disk"
    assert resumed.tracer.sink.directory.startswith(str(tmp_path / "run"))
    assert resumed.cycle == 400
    resumed.run_until_user_done(max_cycles=500_000)

    assert resumed.cycle == reference.cycle
    resumed_stream = _stream(Tracer.open(tmp_path / "run"))
    assert resumed_stream == reference_stream


def _busy_stencil_machines(trace_dir=None, runs=1):
    """The machines of *runs* runs of one busy-stencil experiment."""
    machines = []
    builder = (
        Experiment.builder()
        .workload("busy-stencil", mesh=[2, 1, 1], iterations=8)
        .probe(machines.append)
    )
    if trace_dir is not None:
        builder.trace(str(trace_dir), chunk_events=64)
    with builder.build() as experiment:
        for _ in range(runs):
            assert experiment.run().ok
    return machines


def test_each_run_numbers_its_machines_from_zero(tmp_path):
    """Every run of an experiment numbers its machines from 0, as the
    checkpoint policy does: two runs leave one trace directory,
    ``machine-0``, holding one run's events, and ``Tracer.open`` reads
    it."""
    [reference] = _busy_stencil_machines()
    machines = _busy_stencil_machines(tmp_path, runs=2)
    assert os.listdir(tmp_path) == ["machine-0"]
    directory = str(tmp_path / "machine-0")
    assert [machine.tracer.sink.directory for machine in machines] == [directory] * 2
    assert _stream(Tracer.open(tmp_path)) == _stream(reference.tracer)


#: A coherent-runtime run that a 50-cycle interval checkpoints mid-run.
RESUMED_WORKLOAD = ("remote-memory", {"mode": "coherent", "repeats": 4})


def _checkpointed_run(trace_dir=None, checkpoints=None, every=None, chunk_events=16):
    name, params = RESUMED_WORKLOAD
    builder = Experiment.builder().workload(name, **params)
    if trace_dir is not None:
        builder.trace(str(trace_dir), chunk_events=chunk_events)
    if checkpoints is not None:
        builder.checkpoint(str(checkpoints), every=every)
    with builder.build() as experiment:
        return experiment.run()


def test_resume_refuses_a_trace_kept_elsewhere(tmp_path):
    """A checkpoint of a run traced to A resumes only into A.  Resumed with
    the trace in B, or in memory, the run's trace would be split over two
    places, so both raise ``ConfigMismatchError``; resumed into A, the run
    ends with the trace of an uninterrupted run."""
    checkpoints = tmp_path / "checkpoints"
    first = _checkpointed_run(tmp_path / "a", checkpoints, every=50)
    assert first.ok and first.provenance.resumed_from_cycle is None
    saved = json.loads((checkpoints / "machine-0.json").read_text())["machine"]["cycle"]
    for trace_dir in (tmp_path / "b", None):
        with pytest.raises(ConfigMismatchError):
            _checkpointed_run(trace_dir, checkpoints)
    resumed = _checkpointed_run(tmp_path / "a", checkpoints)
    assert resumed.provenance.resumed_from_cycle == saved
    assert resumed.metrics == first.metrics
    assert _checkpointed_run(tmp_path / "uninterrupted").metrics == first.metrics
    assert _stream(Tracer.open(tmp_path / "a")) == _stream(Tracer.open(tmp_path / "uninterrupted"))


def test_resume_refusal_names_both_trace_locations(tmp_path):
    """A refused resume says where each side keeps its trace."""
    source = _message_stream_machine(8, trace_dir=tmp_path / "a", chunk_events=4)
    source.run(100)
    document = source.snapshot_document()
    elsewhere = _message_stream_machine(8, trace_dir=tmp_path / "b", chunk_events=4)
    in_memory = _message_stream_machine(8)
    a, b = (re.escape(repr(str(tmp_path / name))) for name in "ab")
    with pytest.raises(ConfigMismatchError, match=(
        rf"snapshot's trace is in {a} \(4-event chunks\), "
        rf"but this machine's trace is in {b} \(4-event chunks\)"
    )):
        elsewhere.restore_snapshot(document)
    with pytest.raises(ConfigMismatchError, match=r"this machine's trace is in memory$"):
        in_memory.restore_snapshot(document)
    with pytest.raises(ConfigMismatchError, match=r"snapshot's trace is in memory,"):
        elsewhere.restore_snapshot(in_memory.snapshot_document())


def test_5_0_0_checkpoint_of_a_disk_traced_run_restores(tmp_path):
    """Up to 5.0.0 a snapshot's config also said where the run's traces
    went (``trace_dir``, ``trace_chunk_events``).  Such a checkpoint of a
    disk-traced run restores through ``from_snapshot`` and resumes a run,
    attached to the directory its tracer state records."""
    checkpoints = tmp_path / "checkpoints"
    first = _checkpointed_run(tmp_path / "a", checkpoints, every=50, chunk_events=64)
    path = checkpoints / "machine-0.json"
    document = json.loads(path.read_text())
    document["config"].update(trace_dir=str(tmp_path / "a"), trace_chunk_events=64)
    path.write_text(json.dumps(document))
    state = document["machine"]

    restored = MMachine.from_snapshot(str(path))
    assert restored.cycle == state["cycle"]
    assert restored.tracer.sink.directory == str(tmp_path / "a" / "machine-0")
    assert len(restored.tracer) == state["tracer"]["flushed_events"] + len(state["tracer"]["tail"])

    resumed = _checkpointed_run(tmp_path / "a", checkpoints, chunk_events=64)
    assert resumed.provenance.resumed_from_cycle == state["cycle"]
    assert resumed.metrics == first.metrics
    _checkpointed_run(tmp_path / "uninterrupted", chunk_events=64)
    assert _stream(Tracer.open(tmp_path / "a")) == _stream(Tracer.open(tmp_path / "uninterrupted"))


#: Values each container and leaf of a trace index is set to in turn.
INDEX_MUTANT_VALUES = (None, "x", [], {}, -1, 1.5, [1, 2])


def _with_fresh_crc(index):
    """*index* with its ``crc32`` recomputed as ``docs/traces.md`` defines
    it, so that a reader gets past the checksum to the field checks."""
    body = {key: value for key, value in index.items() if key != "crc32"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return {**body, "crc32": zlib.crc32(canonical.encode("utf-8"))}


@pytest.fixture(scope="module")
def stencil_trace(tmp_path_factory):
    """Machine 0's trace of busy-stencil on a 2x2 mesh: one chunk of 16
    events."""
    base = tmp_path_factory.mktemp("stencil-trace")
    with (
        Experiment.builder()
        .workload("busy-stencil", mesh=[2, 2, 1], iterations=2)
        .trace(str(base), chunk_events=64)
        .build()
    ) as experiment:
        assert experiment.run().ok
    directory = base / "machine-0"
    index = json.loads((directory / "index.json").read_text())
    assert [chunk["events"] for chunk in index["chunks"]] == [16]
    return directory, index


def _index_paths(node, prefix=()):
    """The path of every container and leaf below the top of *node*."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _index_paths(value, prefix + (key,))


def _reads(directory):
    """Everything a reader takes from a trace directory: the whole stream,
    every filtered stream (filters skip chunks by the index), and the
    stats."""
    tracer = Tracer.open(directory)
    everything = _stream(tracer)
    reads = {"all": everything, "stats": tracer.sink.stats()}
    del reads["stats"]["trace_dir"]
    rows = [json.loads(row) for row in everything]
    for category in sorted({row[2] for row in rows}):
        reads[f"category={category}"] = _stream_of(tracer.iter_filter(category=category))
    for node in sorted({row[1] for row in rows}):
        reads[f"node={node}"] = _stream_of(tracer.iter_filter(node=node))
    since = max(row[0] for row in rows)
    reads[f"since={since}"] = _stream_of(tracer.iter_filter(since=since))
    return reads


def _stream_of(events):
    return [json.dumps(encode_event(event), sort_keys=True) for event in events]


def _drop_last_row(path):
    with gzip.open(path, "rt") as handle:
        lines = handle.read().splitlines(True)
    with gzip.open(path, "wt") as handle:
        handle.write("".join(lines[:-1]))


def _repeat_last_row(path):
    with gzip.open(path, "rt") as handle:
        lines = handle.read().splitlines(True)
    with gzip.open(path, "wt") as handle:
        handle.write("".join(lines + lines[-1:]))


def _replace_first_row(row):
    def replace(path):
        with gzip.open(path, "rt") as handle:
            lines = handle.read().splitlines(True)
        with gzip.open(path, "wt") as handle:
            handle.write("".join([json.dumps(row) + "\n"] + lines[1:]))
    return replace


#: Chunk corruptions: cut to nothing, cut mid-stream, a row short, a row
#: over, a row that is not ``[cycle, node, category, info]``, and a row whose
#: info carries an unknown codec tag.
CHUNK_MUTANTS = {
    "empty": lambda path: path.write_bytes(b""),
    "half": lambda path: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2]),
    "row-short": _drop_last_row,
    "row-over": _repeat_last_row,
    "row-not-a-row": _replace_first_row([1, 2]),
    "row-unknown-tag": _replace_first_row([25, 0, "halt", {"__snap__": "nope"}]),
}


def test_corrupt_index_fields_and_chunks_are_refused(stencil_trace, tmp_path):
    source, index = stencil_trace
    expected = _reads(source)
    mutants = []
    for path in _index_paths(index):
        for value in INDEX_MUTANT_VALUES:
            mutant = copy.deepcopy(index)
            parent = mutant
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            # A CRC mutant keeps its stale CRC; every other field mutant
            # gets a matching one, so the field checks must refuse it.
            if path != ("crc32",):
                mutant = _with_fresh_crc(mutant)
            mutants.append((f"index{list(path)}={value!r}", "index.json", mutant, None))
    chunk_file = index["chunks"][0]["file"]
    for name, cut in CHUNK_MUTANTS.items():
        mutants.append((f"chunk {name}", chunk_file, index, cut))
    assert len(mutants) == 18 * len(INDEX_MUTANT_VALUES) + len(CHUNK_MUTANTS)

    escaped, silent = [], []
    for ordinal, (name, named_file, mutant, cut) in enumerate(mutants):
        directory = tmp_path / f"mutant-{ordinal}"
        shutil.copytree(source, directory)
        (directory / "index.json").write_text(json.dumps(mutant))
        if cut is not None:
            cut(directory / chunk_file)
        try:
            reads = _reads(directory)
        except TraceDirError as error:
            if str(directory / named_file) not in str(error):
                escaped.append(f"{name}: error names no {named_file}: {error}")
            continue
        except Exception as error:  # any other exception is an escape
            escaped.append(f"{name}: {type(error).__name__}: {error}")
            continue
        if reads != expected:
            differ = sorted(key for key in reads if reads[key] != expected.get(key))
            silent.append(f"{name}: {differ}")
    assert escaped == [], f"{len(escaped)} of {len(mutants)} mutants escape"
    assert silent == [], f"{len(silent)} of {len(mutants)} mutants read silently"


# ------------------------------------------------- index summaries readers trust


def test_since_reads_keep_events_recorded_ahead_of_their_cycle(tmp_path):
    """A chunk's cycle range covers every event in it, although the
    simulator records a cache-miss store's ``store_complete`` ahead of
    events of earlier cycles: a ``since`` read skips no chunk that holds a
    matching event, live or reopened."""
    memory = _message_stream_machine(8)
    memory.run_until_user_done(max_cycles=10_000)
    disk = _message_stream_machine(8, trace_dir=tmp_path / "t", chunk_events=8)
    disk.run_until_user_done(max_cycles=10_000)
    for tracer in (disk.tracer, Tracer.open(tmp_path / "t")):
        for since in range(disk.cycle + 1):
            expected = _stream_of(memory.tracer.iter_filter(since=since))
            assert _stream_of(tracer.iter_filter(since=since)) == expected, since


def test_a_machine_restores_its_own_snapshot_in_small_chunks(tmp_path):
    reference = _message_stream_machine(8)
    reference.run(100)
    reference.run_until_user_done(max_cycles=10_000)
    machine = _message_stream_machine(8, trace_dir=tmp_path / "t", chunk_events=4)
    machine.run(100)
    restored = MMachine.from_snapshot(machine.snapshot_document())
    assert restored.cycle == 100
    restored.run_until_user_done(max_cycles=10_000)
    assert restored.cycle == reference.cycle
    assert _stream(Tracer.open(tmp_path / "t")) == _stream(reference.tracer)


def test_a_flipped_bit_in_the_index_is_refused(tmp_path):
    """Filtered reads skip chunks by the index's histograms, so a corrupt
    histogram would read short without an error; the index's CRC-32
    refuses it instead."""
    with (
        Experiment.builder()
        .workload("message-stream", count=32)
        .trace(str(tmp_path), chunk_events=16)
        .build()
    ) as experiment:
        assert experiment.run().ok
    path = tmp_path / "machine-0" / "index.json"
    assert "cache_hit" in json.loads(path.read_text())["chunks"][0]["categories"]
    # "t" (0x74) to "u" (0x75): one bit, in chunk 0's category key.
    path.write_text(path.read_text().replace('"cache_hit"', '"cache_hiu"', 1))
    with pytest.raises(TraceDirError, match=re.escape(f"{path} fails its checksum")):
        list(Tracer.open(tmp_path).iter_filter(category="cache_hit"))
