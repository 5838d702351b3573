"""Unit tests of the trace-sink layer (``core/trace.py`` + ``core/trace_disk.py``).

The cross-sink bit-exactness and bounded-memory guarantees on real
workloads live in ``tests/integration/test_trace_contract.py`` and
``tests/integration/test_trace_streaming.py``; this file covers the sink
mechanics directly: chunk rollover, index bookkeeping, filtered streaming,
fresh-vs-resume lifecycle, read-only attach, and the snapshot
encode-cache regression.
"""

import gzip
import json
import os
import re

import pytest

from repro.core import trace as trace_module
from repro.core import trace_disk as trace_disk_module
from repro.core.trace import MemoryTraceSink, Tracer, decode_event, encode_event
from repro.core.trace_disk import DiskTraceSink, TraceDirError, resolve_trace_dir


def _record_n(tracer, n, category="mem_issue", node=0, start_cycle=0):
    for i in range(n):
        tracer.record(start_cycle + i, node, category, req=i, address=0x100 + i)


# -------------------------------------------------------------------- disk sink


def test_disk_sink_chunks_and_index(tmp_path):
    sink = DiskTraceSink(tmp_path / "t", chunk_events=4)
    tracer = Tracer(sink=sink)
    _record_n(tracer, 10)
    # 10 events, chunk size 4: two full chunks flushed, two in the tail.
    assert len(tracer) == 10
    index = json.loads((tmp_path / "t" / "index.json").read_text())
    assert index["format"] == "repro-trace"
    assert index["total_events"] == 8
    assert [chunk["events"] for chunk in index["chunks"]] == [4, 4]
    tracer.flush()
    index = json.loads((tmp_path / "t" / "index.json").read_text())
    assert index["total_events"] == 10
    assert [chunk["events"] for chunk in index["chunks"]] == [4, 4, 2]
    assert index["chunks"][0]["categories"] == {"mem_issue": 4}
    assert index["chunks"][0]["nodes"] == {"0": 4}
    assert [event.req for event in tracer.iter_filter()] == list(range(10))


def test_disk_sink_round_trips_every_row(tmp_path):
    tracer = Tracer(sink=DiskTraceSink(tmp_path, chunk_events=3))
    tracer.record(1, 0, "send", msg=1, dest=3, priority=0)
    tracer.record(2, 1, "reg_write", reg="i5", origin="memory")
    tracer.record(3, 2, "halt", cluster=0, slot=1)
    tracer.record(9, 0, "mark", marker=7, pc=0x40)
    tracer.flush()
    reopened = Tracer.open(tmp_path)
    original = [encode_event(event) for event in tracer.iter_filter()]
    stored = [encode_event(event) for event in reopened.iter_filter()]
    assert stored == original


def test_disk_sink_filters_match_memory_sink(tmp_path):
    memory = Tracer()
    disk = Tracer(sink=DiskTraceSink(tmp_path, chunk_events=5))
    for tracer in (memory, disk):
        for i in range(23):
            tracer.record(i, i % 3, "cache_hit" if i % 2 else "cache_miss", req=i)
    disk.flush()
    for kwargs in (
        {"category": "cache_hit"},
        {"node": 2},
        {"since": 11},
        {"category": "cache_miss", "node": 1, "since": 4},
        {"predicate": lambda e: e.req % 5 == 0},
    ):
        expected = [encode_event(e) for e in memory.filter(**kwargs)]
        got = [encode_event(e) for e in disk.iter_filter(**kwargs)]
        assert got == expected, kwargs
    assert disk.count("cache_hit") == memory.count("cache_hit")
    assert disk.first("cache_hit", req=7).cycle == memory.first("cache_hit", req=7).cycle


def test_disk_sink_chunk_bytes_are_deterministic(tmp_path):
    chunks = {}
    for name in ("a", "b"):
        tracer = Tracer(sink=DiskTraceSink(tmp_path / name, chunk_events=4))
        _record_n(tracer, 4)
        chunks[name] = (tmp_path / name / "chunk-00000.jsonl.gz").read_bytes()
    assert chunks["a"] == chunks["b"]


def _write_chunk_per_line(path, rows):
    """The chunk writer as it was first written -- one encoder and two
    compressor writes per row -- kept as the byte-level reference."""
    with open(path, "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
            for row in rows:
                handle.write(json.dumps(row, separators=(",", ":")).encode("utf-8"))
                handle.write(b"\n")


def test_disk_sink_chunk_bytes_match_the_per_line_writer(tmp_path):
    tracer = Tracer(sink=DiskTraceSink(tmp_path / "t", chunk_events=64))
    for i in range(200):
        tracer.record(i, i % 3, "send", msg=i, dest=i % 5, priority=i % 2)
        tracer.record(i, i % 3, "reg_write", reg=f"i{i % 16}", origin="memory")
    tracer.flush()
    chunks = json.loads((tmp_path / "t" / "index.json").read_text())["chunks"]
    assert len(chunks) == 7
    (tmp_path / "ref").mkdir()
    for chunk in chunks:
        path = tmp_path / "t" / chunk["file"]
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            rows = [json.loads(line) for line in handle]
        # Same file name: the gzip header records the name written to.
        reference = tmp_path / "ref" / (chunk["file"] + ".tmp")
        _write_chunk_per_line(reference, rows)
        assert path.read_bytes() == reference.read_bytes()


def test_disk_sink_fresh_append_wipes_previous_run(tmp_path):
    first = Tracer(sink=DiskTraceSink(tmp_path, chunk_events=2))
    _record_n(first, 6)
    first.flush()
    assert len(Tracer.open(tmp_path)) == 6
    # A second run pointed at the same directory starts a fresh trace on
    # its first append (not at construction: a snapshot restore may still
    # re-attach between the two).
    second = Tracer(sink=DiskTraceSink(tmp_path, chunk_events=2))
    assert len(Tracer.open(tmp_path)) == 6
    second.record(0, 0, "halt", cluster=0, slot=0)
    second.flush()
    reopened = Tracer.open(tmp_path)
    assert len(reopened) == 1
    assert [event.category for event in reopened.iter_filter()] == ["halt"]
    leftovers = [
        name for name in os.listdir(tmp_path)
        if name.startswith("chunk") and name > "chunk-00000.jsonl.gz"
    ]
    assert not leftovers


def test_disk_sink_readonly_refuses_writes(tmp_path):
    with pytest.raises(TraceDirError):
        DiskTraceSink(tmp_path / "missing", readonly=True)
    writer = Tracer(sink=DiskTraceSink(tmp_path, chunk_events=2))
    _record_n(writer, 2)
    reader = DiskTraceSink(tmp_path, readonly=True)
    with pytest.raises(TraceDirError):
        reader.append(next(writer.iter_filter()))
    with pytest.raises(TraceDirError):
        reader.clear()


def test_disk_sink_restore_truncates_post_snapshot_chunks(tmp_path):
    tracer = Tracer(sink=DiskTraceSink(tmp_path, chunk_events=2))
    _record_n(tracer, 5)
    state = tracer.state_dict()  # 2 chunks flushed + 1 tail event
    assert state["flushed_chunks"] == 2 and len(state["tail"]) == 1
    _record_n(tracer, 5, start_cycle=5)  # the "lost" post-snapshot work
    tracer.flush()
    assert len(Tracer.open(tmp_path)) == 10

    resumed = Tracer(sink=DiskTraceSink(tmp_path, chunk_events=2))
    resumed.load_state_dict(state)
    assert len(resumed) == 5
    resumed.record(100, 0, "halt", cluster=0, slot=0)
    resumed.flush()
    reopened = Tracer.open(tmp_path)
    assert [event.cycle for event in reopened.iter_filter()] == [0, 1, 2, 3, 4, 100]


def test_disk_sink_restore_repoints_to_snapshot_directory(tmp_path):
    origin = Tracer(sink=DiskTraceSink(tmp_path / "origin", chunk_events=2))
    _record_n(origin, 3)
    state = origin.state_dict()
    # A tracer whose sink is somewhere else attaches to the snapshot's own
    # directory.
    resumed = Tracer(sink=DiskTraceSink(tmp_path / "elsewhere", chunk_events=2))
    resumed.load_state_dict(state)
    assert resumed.sink.directory == str(tmp_path / "origin")
    resumed.flush()
    assert len(Tracer.open(tmp_path / "origin")) == 3
    assert not (tmp_path / "elsewhere").exists()


def test_disk_sink_tracks_peak_tail(tmp_path):
    sink = DiskTraceSink(tmp_path, chunk_events=8)
    tracer = Tracer(sink=sink)
    _record_n(tracer, 50)
    assert sink.peak_tail_events <= 8
    assert len(tracer) == 50


def test_disk_sink_stats(tmp_path):
    tracer = Tracer(sink=DiskTraceSink(tmp_path, chunk_events=4))
    _record_n(tracer, 6, category="send", node=1, start_cycle=10)
    stats = tracer.sink.stats()
    assert stats["events"] == 6
    assert stats["chunks"] == 1  # 2 tail events not yet flushed
    assert stats["categories"] == {"send": 6}
    assert stats["nodes"] == {"1": 6}
    assert (stats["first_cycle"], stats["last_cycle"]) == (10, 15)
    tracer.flush()
    assert tracer.sink.stats()["compressed_bytes"] > 0


def test_resolve_trace_dir(tmp_path):
    base = tmp_path / "run"
    first = os.path.join(base, "machine-0")
    tracer = Tracer(sink=DiskTraceSink(first, chunk_events=2))
    _record_n(tracer, 2)
    assert resolve_trace_dir(base) == first
    assert resolve_trace_dir(first) == first
    with pytest.raises(TraceDirError):
        resolve_trace_dir(base, machine=1)  # machine-1 never wrote


def test_stream_to_moves_the_trace_inside_the_same_tracer(tmp_path):
    """``stream_to`` swaps the sink of the tracer the nodes hold, keeps the
    bound ``record`` working, and moves the events recorded so far."""
    tracer = Tracer()
    record = tracer.record
    _record_n(tracer, 3)
    tracer.stream_to(tmp_path, chunk_events=2)
    record(3, 0, "halt", cluster=0, slot=0)
    assert tracer.sink.kind == "disk"
    assert (tracer.sink.directory, tracer.sink.chunk_events) == (str(tmp_path), 2)
    tracer.flush()
    cycles = [event.cycle for event in Tracer.open(tmp_path).iter_filter()]
    assert cycles == [0, 1, 2, 3]


def test_stream_to_defaults_to_4096_event_chunks(tmp_path):
    tracer = Tracer()
    tracer.stream_to(tmp_path)
    assert tracer.sink.chunk_events == 4096
    assert not os.path.exists(tmp_path / "index.json")  # nothing recorded yet


def test_index_rejects_foreign_and_future_formats(tmp_path):
    (tmp_path / "index.json").write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(TraceDirError):
        DiskTraceSink(tmp_path, readonly=True)
    (tmp_path / "index.json").write_text(
        json.dumps({"format": "repro-trace", "format_version": 999})
    )
    with pytest.raises(TraceDirError):
        DiskTraceSink(tmp_path, readonly=True)


def _truncate_index(directory):
    path = directory / "index.json"
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


def _list_index(directory):
    (directory / "index.json").write_text("[]")


def _cut_gzip_stream(directory):
    path = directory / "chunk-00000.jsonl.gz"
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _cut_last_json_line(directory):
    path = directory / "chunk-00000.jsonl.gz"
    with gzip.open(path, "rt") as handle:
        text = handle.read()
    with gzip.open(path, "wt") as handle:
        handle.write(text[:-5])


#: (corruption, the file the error must name).
CORRUPT_TRACES = [
    (_truncate_index, "index.json"),
    (_list_index, "index.json"),
    (_cut_gzip_stream, "chunk-00000.jsonl.gz"),
    (_cut_last_json_line, "chunk-00000.jsonl.gz"),
]


@pytest.mark.parametrize("corrupt,filename", CORRUPT_TRACES,
                         ids=["truncated-index", "list-index",
                              "cut-gzip-stream", "cut-json-line"])
def test_corrupt_trace_dir_raises_trace_dir_error(tmp_path, corrupt, filename):
    tracer = Tracer(sink=DiskTraceSink(tmp_path, chunk_events=4))
    _record_n(tracer, 10)
    tracer.flush()
    corrupt(tmp_path)
    with pytest.raises(TraceDirError, match=re.escape(str(tmp_path / filename))):
        list(Tracer.open(tmp_path).iter_filter())


def test_chunk_lines_are_plain_json(tmp_path):
    """The chunk format is the documented interface: one JSON row
    ``[cycle, node, category, info]`` per line, gzip member per chunk."""
    tracer = Tracer(sink=DiskTraceSink(tmp_path, chunk_events=3))
    _record_n(tracer, 3, category="xregwr", node=2)
    with gzip.open(tmp_path / "chunk-00000.jsonl.gz", "rt") as handle:
        rows = [json.loads(line) for line in handle]
    assert rows == [[i, 2, "xregwr", {"req": i, "address": 0x100 + i}] for i in range(3)]
    assert decode_event(rows[0]).category == "xregwr"


# ---------------------------------------------------------- memory-sink snapshot


def _counting_encode(monkeypatch):
    calls = []
    real = trace_module.encode_event

    def counted(event):
        calls.append(event)
        return real(event)

    monkeypatch.setattr(trace_module, "encode_event", counted)
    monkeypatch.setattr(trace_disk_module, "encode_event", counted)
    return calls


def test_memory_state_dict_shape_is_unchanged():
    """The memory sink's snapshot shape is the historical one — exactly
    ``{"enabled": ..., "events": [...]}`` — so existing snapshots and
    their goldens are untouched by the sink refactor."""
    tracer = Tracer()
    tracer.record(5, 1, "halt", cluster=0, slot=2)
    state = tracer.state_dict()
    assert list(state) == ["enabled", "events"]
    assert state == {"enabled": True, "events": [[5, 1, "halt", {"cluster": 0, "slot": 2}]]}


def test_restore_keeps_checkpointing_incremental(monkeypatch):
    """Regression: ``load_state_dict`` used to drop the encoded-event
    cache, making the first post-restore checkpoint re-encode the entire
    restored history instead of only new events."""
    source = Tracer()
    _record_n(source, 100)
    state = source.state_dict()

    restored = Tracer()
    restored.load_state_dict(state)
    restored.record(200, 0, "halt", cluster=0, slot=0)
    calls = _counting_encode(monkeypatch)
    after = restored.state_dict()
    assert len(after["events"]) == 101
    assert len(calls) == 1  # only the post-restore event; history came cached


def test_disk_restore_keeps_checkpointing_incremental(tmp_path, monkeypatch):
    """The same guarantee holds for the disk sink's unflushed tail: the
    restored rows are reused as the encoded cache, so the next
    ``state_dict`` encodes only events recorded since the restore."""
    source = Tracer(sink=DiskTraceSink(tmp_path, chunk_events=1000))
    _record_n(source, 50)
    state = source.state_dict()

    restored = Tracer(sink=DiskTraceSink(tmp_path, chunk_events=1000))
    restored.load_state_dict(state)
    restored.record(200, 0, "halt", cluster=0, slot=0)
    calls = _counting_encode(monkeypatch)
    after = restored.state_dict()
    assert len(after["tail"]) == 51
    assert len(calls) == 1  # only the post-restore event; history came cached


def test_memory_round_trip_state_is_reencoded_identically():
    source = Tracer()
    _record_n(source, 10)
    state = source.state_dict()
    restored = Tracer()
    restored.load_state_dict(state)
    assert restored.state_dict() == state
    assert isinstance(restored.sink, MemoryTraceSink)
