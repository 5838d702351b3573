"""Append-only chunked on-disk trace sink.

The disk sink streams :class:`~repro.core.trace.TraceEvent` records to a
directory of gzip-compressed JSONL chunks plus one ``index.json``, so a
million-cycle run holds at most one chunk of events in memory.  The layout
(documented in ``docs/traces.md``) is::

    <trace_dir>/machine-<N>/        one per machine of a run, in build order
        index.json                  format tag + per-chunk summaries
        chunk-00000.jsonl.gz        chunk_events encoded rows, one per line
        chunk-00001.jsonl.gz
        ...

Each chunk line is the snapshot row ``[cycle, node, category, info]``
produced by :func:`repro.core.trace.encode_event` — the same incremental
encoding the snapshot cache uses, so appending a chunk is O(new events).
The index records per-chunk event counts, cycle ranges and category/node
histograms; :meth:`DiskTraceSink.iter_events` uses those to skip whole
chunks on filtered reads.  A chunk's cycle range is the lowest and highest
cycle of its events, not the cycles of its first and last event: the
simulator records some events ahead of the cycle they are stamped with (a
cache-miss store's ``store_complete``), so a chunk is not in cycle order.
Because readers trust those summaries, the index carries a CRC-32 of
itself and is refused when it does not match.

Lifecycle.  A freshly-constructed writable sink is *pending*: it has not
decided between starting fresh and resuming.  The first ``append`` wipes
whatever a previous run left in the directory and starts a new trace;
``restore`` (snapshot resume, which always happens before the first
post-restore event) instead attaches at the snapshot's flushed-chunk
offset, truncating any chunks written after the snapshot was taken, so a
killed-and-resumed run appends to the same files with exact event ids.
"""

from __future__ import annotations

import gzip
import json
import os
import zlib
from typing import Dict, Iterator, List, Optional

from repro.core.trace import TraceEvent, _match, decode_event, encode_event
from repro.core.values import SnapshotError

TRACE_INDEX_NAME = "index.json"
TRACE_FORMAT_NAME = "repro-trace"
TRACE_FORMAT_VERSION = 2
#: The index field holding the CRC-32 of the rest of the index.
TRACE_INDEX_CRC = "crc32"
DEFAULT_CHUNK_EVENTS = 4096


class TraceDirError(RuntimeError):
    """A trace directory is missing, inconsistent, or used incorrectly."""


def resolve_trace_dir(path, machine: int = 0) -> str:
    """Resolve *path* to a machine trace directory: either *path* itself
    holds ``index.json``, or its ``machine-<machine>`` subdirectory does."""
    path = os.fspath(path)
    if os.path.isfile(os.path.join(path, TRACE_INDEX_NAME)):
        return path
    candidate = os.path.join(path, f"machine-{machine}")
    if os.path.isfile(os.path.join(candidate, TRACE_INDEX_NAME)):
        return candidate
    raise TraceDirError(
        f"no trace found at {path!r}: neither it nor its machine-{machine}/ "
        f"subdirectory holds {TRACE_INDEX_NAME}"
    )


def _empty_index(chunk_events: int) -> dict:
    return {
        "format": TRACE_FORMAT_NAME,
        "format_version": TRACE_FORMAT_VERSION,
        "chunk_events": chunk_events,
        "total_events": 0,
        "chunks": [],
    }


def _read_index(directory: str) -> Optional[dict]:
    path = os.path.join(directory, TRACE_INDEX_NAME)
    if not os.path.isfile(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            index = json.load(handle)
    except (OSError, ValueError) as error:
        raise TraceDirError(f"cannot read {path}: {error}") from error
    if not isinstance(index, dict) or index.get("format") != TRACE_FORMAT_NAME:
        raise TraceDirError(f"{path} is not a {TRACE_FORMAT_NAME} index")
    if index.get("format_version") != TRACE_FORMAT_VERSION:
        raise TraceDirError(
            f"{path} has format_version {index.get('format_version')!r}; "
            f"this build reads version {TRACE_FORMAT_VERSION}"
        )
    stored_crc = index.pop(TRACE_INDEX_CRC, None)
    crc = _index_crc(index)
    if stored_crc != crc:
        raise TraceDirError(
            f"{path} fails its checksum: {TRACE_INDEX_CRC} is {stored_crc!r}, "
            f"but the index sums to {crc}"
        )
    problem = _index_problem(index)
    if problem is not None:
        raise TraceDirError(f"{path} is malformed: {problem}")
    return index


def _is_count(value: object) -> bool:
    """Whether *value* is a non-negative ``int`` (``bool`` excluded)."""
    return type(value) is int and value >= 0


def _histogram_problem(histogram: object, events: int) -> Optional[str]:
    if not isinstance(histogram, dict):
        return "is not an object"
    for key, count in histogram.items():
        if not _is_count(count) or count == 0:
            return f"counts {count!r} events for {key!r}"
    if sum(histogram.values()) != events:
        return f"counts {sum(histogram.values())} events, not {events}"
    return None


def _index_problem(index: dict) -> Optional[str]:
    """The first field of a trace index that is malformed or disagrees with
    the others, or None.  Readers rely on every one of them: the chunk
    files, their event counts, and the cycle ranges and histograms that
    filtered reads and ``stats`` use instead of reading the chunks."""
    chunk_events = index.get("chunk_events")
    if not _is_count(chunk_events) or chunk_events == 0:
        return f"chunk_events is {chunk_events!r}, not a positive int"
    chunks = index.get("chunks")
    if not isinstance(chunks, list):
        return f"chunks is {chunks!r}, not a list"
    for ordinal, chunk in enumerate(chunks):
        where = f"chunks[{ordinal}]"
        if not isinstance(chunk, dict):
            return f"{where} is {chunk!r}, not an object"
        expected_file = f"chunk-{ordinal:05d}.jsonl.gz"
        if chunk.get("file") != expected_file:
            return f"{where}.file is {chunk.get('file')!r}, not {expected_file!r}"
        events = chunk.get("events")
        if not _is_count(events) or events == 0:
            return f"{where}.events is {events!r}, not a positive int"
        first, last = chunk.get("first_cycle"), chunk.get("last_cycle")
        if not (_is_count(first) and _is_count(last) and first <= last):
            return f"{where} spans cycles {first!r} to {last!r}"
        for field in ("categories", "nodes"):
            problem = _histogram_problem(chunk.get(field), events)
            if problem is not None:
                return f"{where}.{field} {problem}"
        if not all(key.isdecimal() for key in chunk["nodes"]):
            return f"{where}.nodes has a key that is not a node number"
    total = index.get("total_events")
    flushed = sum(chunk["events"] for chunk in chunks)
    if not _is_count(total) or total != flushed:
        return f"total_events is {total!r}, but the chunks hold {flushed} events"
    return None


def _index_crc(index: dict) -> int:
    """CRC-32 of *index*, which holds no CRC field, as canonical JSON:
    sorted keys and compact separators."""
    canonical = json.dumps(index, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8"))


def _write_index(directory: str, index: dict) -> None:
    # Atomic write-then-rename, same discipline as snapshot documents: a
    # reader (or a killed run's resume) never sees a half-written index.
    path = os.path.join(directory, TRACE_INDEX_NAME)
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump({**index, TRACE_INDEX_CRC: _index_crc(index)}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp_path, path)


#: Compact encoder of chunk rows, built once: ``json.dumps`` with
#: non-default separators builds a new encoder on every call.
_ROW_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _write_chunk(path: str, rows: List[list]) -> None:
    tmp_path = path + ".tmp"
    encode = _ROW_ENCODER.encode
    payload = "".join([encode(row) + "\n" for row in rows]).encode("utf-8")
    # mtime=0 keeps chunk bytes deterministic for identical event streams;
    # one write hands the compressor the whole chunk at once.
    with open(tmp_path, "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
            handle.write(payload)
    os.replace(tmp_path, path)


def _iter_chunk_rows(path: str) -> Iterator[list]:
    # A chunk cut short by a killed writer or a bad copy surfaces as a
    # gzip, zlib, decoding or JSON error; all of them name the file.
    try:
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    yield json.loads(line)
    except (OSError, EOFError, ValueError, zlib.error) as error:
        raise TraceDirError(f"cannot read trace chunk {path}: {error}") from error


class DiskTraceSink:
    """Sink that appends events to chunked JSONL+gzip files under one
    machine trace directory.  See the module docstring for layout and
    lifecycle; a machine attaches it with ``Tracer.stream_to``."""

    kind = "disk"

    def __init__(self, directory, chunk_events: int = DEFAULT_CHUNK_EVENTS,
                 readonly: bool = False) -> None:
        if chunk_events <= 0:
            raise ValueError("chunk_events must be a positive event count")
        self.directory = os.fspath(directory)
        self.chunk_events = int(chunk_events)
        self.readonly = readonly
        self._tail: List[TraceEvent] = []
        #: Encoded prefix of the tail — the same incremental-encoding cache
        #: the memory sink keeps, shared between flush() and state_dict().
        self._encoded_tail: List[list] = []
        self._index = _read_index(self.directory)
        #: High-water mark of in-memory (unflushed) events, recorded so the
        #: bounded-RSS tests can assert trace memory never exceeded a chunk.
        self.peak_tail_events = 0
        if readonly:
            if self._index is None:
                raise TraceDirError(
                    f"{self.directory!r} holds no trace ({TRACE_INDEX_NAME} missing)"
                )
            self.chunk_events = int(self._index["chunk_events"])
            self._pending = False
        else:
            # Pending: fresh-vs-resume is decided by the first append (fresh)
            # or by restore() (attach at the snapshot's offsets).
            self._pending = True

    # -- write path ---------------------------------------------------------------

    def append(self, event: TraceEvent) -> None:
        if self.readonly:
            raise TraceDirError(f"trace at {self.directory!r} is open read-only")
        if self._pending:
            self._start_fresh()
        tail = self._tail
        tail.append(event)
        if len(tail) > self.peak_tail_events:
            self.peak_tail_events = len(tail)
        if len(tail) >= self.chunk_events:
            self.flush()

    def _start_fresh(self) -> None:
        # Wipe whatever a previous run left behind so the directory always
        # describes exactly one run.
        if self._index is not None:
            for chunk in self._index["chunks"]:
                self._remove_chunk(chunk["file"])
        os.makedirs(self.directory, exist_ok=True)
        self._index = _empty_index(self.chunk_events)
        _write_index(self.directory, self._index)
        self._pending = False

    def _remove_chunk(self, filename: str) -> None:
        path = os.path.join(self.directory, filename)
        if os.path.isfile(path):
            os.remove(path)

    def _encode_pending(self) -> None:
        encoded = self._encoded_tail
        for event in self._tail[len(encoded):]:
            encoded.append(encode_event(event))

    def flush(self) -> None:
        """Write the buffered tail as the next chunk and update the index.
        Called automatically when the tail reaches ``chunk_events`` and by
        the machine when a run method returns (so final short chunks are
        persisted too)."""
        if self.readonly or self._pending or not self._tail:
            return
        self._encode_pending()
        ordinal = len(self._index["chunks"])
        filename = f"chunk-{ordinal:05d}.jsonl.gz"
        _write_chunk(os.path.join(self.directory, filename), self._encoded_tail)
        categories: Dict[str, int] = {}
        nodes: Dict[str, int] = {}
        for event in self._tail:
            categories[event.category] = categories.get(event.category, 0) + 1
            node_key = str(event.node)
            nodes[node_key] = nodes.get(node_key, 0) + 1
        cycles = [event.cycle for event in self._tail]
        self._index["chunks"].append({
            "file": filename,
            "events": len(self._tail),
            "first_cycle": min(cycles),
            "last_cycle": max(cycles),
            "categories": categories,
            "nodes": nodes,
        })
        self._index["total_events"] += len(self._tail)
        _write_index(self.directory, self._index)
        self._tail = []
        self._encoded_tail = []

    def clear(self) -> None:
        if self.readonly:
            raise TraceDirError(f"trace at {self.directory!r} is open read-only")
        self._tail = []
        self._encoded_tail = []
        self._start_fresh()

    # -- queries ------------------------------------------------------------------

    def __len__(self) -> int:
        flushed = 0
        if not self._pending and self._index is not None:
            flushed = self._index["total_events"]
        return flushed + len(self._tail)

    def _flushed_chunks(self) -> List[dict]:
        if self._pending or self._index is None:
            return []
        return self._index["chunks"]

    def iter_events(
        self,
        category: Optional[str] = None,
        node: Optional[int] = None,
        since: Optional[int] = None,
    ) -> Iterator[TraceEvent]:
        node_key = None if node is None else str(node)
        for chunk in self._flushed_chunks():
            # The per-chunk histograms let filtered reads skip whole chunks
            # without decompressing them.
            if category is not None and category not in chunk["categories"]:
                continue
            if node_key is not None and node_key not in chunk["nodes"]:
                continue
            if since is not None and chunk["last_cycle"] < since:
                continue
            path = os.path.join(self.directory, chunk["file"])
            # A chunk holds at most chunk_events rows, so it is read and
            # decoded whole and checked against the index before any of its
            # events is yielded: a short, padded or garbled chunk is never
            # read as a trace.
            rows = list(_iter_chunk_rows(path))
            if len(rows) != chunk["events"]:
                raise TraceDirError(
                    f"trace chunk {path} holds {len(rows)} events, but "
                    f"{TRACE_INDEX_NAME} counts {chunk['events']}"
                )
            try:
                events = [decode_event(row) for row in rows]
            except (AttributeError, KeyError, TypeError, ValueError, SnapshotError) as error:
                raise TraceDirError(
                    f"cannot read trace chunk {path}: malformed row "
                    f"({type(error).__name__}: {error})"
                ) from error
            for event in events:
                if _match(event, category, node, since):
                    yield event
        for event in self._tail:
            if _match(event, category, node, since):
                yield event

    def count(self, category: str) -> int:
        total = sum(
            chunk["categories"].get(category, 0) for chunk in self._flushed_chunks()
        )
        return total + sum(1 for event in self._tail if event.category == category)

    def stats(self) -> dict:
        """Summary of the stored trace (the ``repro trace stats`` payload)."""
        chunks = self._flushed_chunks()
        categories: Dict[str, int] = {}
        nodes: Dict[str, int] = {}
        compressed_bytes = 0
        for chunk in chunks:
            for name, count in chunk["categories"].items():
                categories[name] = categories.get(name, 0) + count
            for name, count in chunk["nodes"].items():
                nodes[name] = nodes.get(name, 0) + count
            path = os.path.join(self.directory, chunk["file"])
            if os.path.isfile(path):
                compressed_bytes += os.path.getsize(path)
        for event in self._tail:
            categories[event.category] = categories.get(event.category, 0) + 1
            node_key = str(event.node)
            nodes[node_key] = nodes.get(node_key, 0) + 1
        # Events are not recorded in cycle order, so the range is the
        # lowest and highest cycle over every chunk and the tail.
        tail_cycles = [event.cycle for event in self._tail]
        lows = [chunk["first_cycle"] for chunk in chunks] + tail_cycles
        highs = [chunk["last_cycle"] for chunk in chunks] + tail_cycles
        return {
            "trace_dir": self.directory,
            "events": len(self),
            "chunks": len(chunks),
            "chunk_events": self.chunk_events,
            "first_cycle": min(lows, default=None),
            "last_cycle": max(highs, default=None),
            "compressed_bytes": compressed_bytes,
            "categories": {name: categories[name] for name in sorted(categories)},
            "nodes": {name: nodes[name] for name in sorted(nodes, key=int)},
        }

    # -- snapshot -----------------------------------------------------------------

    def state_dict(self) -> dict:
        """Path + offsets + unflushed tail.  Unlike the memory sink, the
        flushed history stays on disk — a snapshot of a long disk-backed run
        is O(tail), not O(trace)."""
        self._encode_pending()
        chunks = self._flushed_chunks()
        return {
            "sink": "disk",
            "trace_dir": self.directory,
            "chunk_events": self.chunk_events,
            "flushed_chunks": len(chunks),
            "flushed_events": sum(chunk["events"] for chunk in chunks),
            "tail": list(self._encoded_tail),
        }

    def restore(self, state: dict) -> None:
        """Attach at the snapshot's offsets: drop any chunks flushed after
        the snapshot was taken, and reload the unflushed tail, so the
        resumed run appends exactly where the snapshotted run stood.  The
        sink is one :meth:`Tracer.load_state_dict` built on the snapshot's
        directory and chunk size."""
        directory = self.directory
        flushed_chunks = state["flushed_chunks"]
        index = _read_index(directory)
        if flushed_chunks > 0:
            if index is None:
                raise TraceDirError(
                    f"snapshot references trace at {directory!r} but "
                    f"{TRACE_INDEX_NAME} is missing"
                )
            if len(index["chunks"]) < flushed_chunks:
                raise TraceDirError(
                    f"trace at {directory!r} holds {len(index['chunks'])} "
                    f"chunks but the snapshot expects {flushed_chunks}"
                )
            for chunk in index["chunks"][flushed_chunks:]:
                self._remove_chunk(chunk["file"])
            index["chunks"] = index["chunks"][:flushed_chunks]
            index["total_events"] = sum(
                chunk["events"] for chunk in index["chunks"]
            )
            if index["total_events"] != state["flushed_events"]:
                raise TraceDirError(
                    f"trace at {directory!r} holds {index['total_events']} "
                    f"flushed events but the snapshot expects "
                    f"{state['flushed_events']}"
                )
            _write_index(directory, index)
        else:
            if index is not None:
                for chunk in index["chunks"]:
                    self._remove_chunk(chunk["file"])
            os.makedirs(directory, exist_ok=True)
            index = _empty_index(self.chunk_events)
            _write_index(directory, index)
        self._index = index
        self._tail = [decode_event(row) for row in state["tail"]]
        # As with the memory sink, the loaded rows are already encoded:
        # reuse them so the first post-restore flush/checkpoint stays
        # O(new events).
        self._encoded_tail = list(state["tail"])
        self._pending = False
