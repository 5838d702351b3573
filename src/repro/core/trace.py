"""Machine-wide event tracing.

The tracer is the common instrumentation channel used by the memory system,
the clusters, the network interfaces and the runtime handlers.  The
Figure 9 timelines, the Table 1 latency measurements and several integration
tests are all computed from the trace, so categories and fields are treated
as a stable (documented) interface.  The full category/field table lives in
``docs/traces.md``; its machine-readable form is :data:`TRACE_CATEGORIES`
(plus the ``handler_`` prefix for runtime-handler events), and the contract
test ``tests/integration/test_trace_contract.py`` checks that the simulator,
the table here and the documentation page cannot drift apart.

Storage is pluggable behind a sink object:

* :class:`MemoryTraceSink` (the default) keeps events in a plain list —
  bit-exact with the historical in-memory tracer, including the snapshot
  ``state_dict`` shape.
* :class:`repro.core.trace_disk.DiskTraceSink` streams events to an
  append-only chunked JSONL+gzip directory with a per-chunk category/node
  index, keeping trace memory bounded on million-cycle runs.  Selected per
  machine with :meth:`Tracer.stream_to`, which ``Experiment.trace`` calls
  for every machine a run builds.

Every query goes through :meth:`Tracer.iter_filter`, a streaming iterator
that works identically over both sinks (the disk sink uses its index to
skip whole chunks), so analyses never need the full trace in memory.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core.values import decode_value, encode_value

#: Every trace category the simulator can emit, as documented in
#: ``docs/traces.md``.  This is a stable interface: analyses and tests may
#: rely on these names, and new instrumentation must extend this set (and
#: the documentation table).
TRACE_CATEGORIES = frozenset({
    "mem_issue",
    "cache_hit",
    "cache_miss",
    "ltlb_miss",
    "block_status_fault",
    "sync_fault",
    "store_complete",
    "mem_response",
    "reg_write",
    "event_enqueue",
    "handler_dispatch",
    "handler_sync_retry",
    "msg_inject",
    "msg_deliver",
    "msg_ack",
    "msg_nack",
    "msg_reject",
    "msg_retransmit",
    "send",
    "xregwr",
    "mark",
    "halt",
    "exception",
})

#: Prefix of the runtime-handler categories (``handler_dispatch``, ...).
HANDLER_CATEGORY_PREFIX = "handler_"


#: Every distinct sequence of info keys, interned: all events recorded with
#: the same keys in the same order share one key tuple.  Derived state like
#: ``dispatch._FACTORIES``: module-level, filled on first use, never
#: serialised.
_KEYS: Dict[Tuple[str, ...], Tuple[str, ...]] = {}


class TraceEvent:
    """One trace event: ``cycle``, ``node``, ``category`` and the ``info``
    fields it was recorded with.

    An event stores its info as a shared key tuple and a tuple of values, in
    recording order, so it holds no dict of its own.  ``info`` builds a
    fresh dict on every access (read it; mutating it changes nothing), and
    ``event.<field>`` reads one info field.  Equality compares the cycle,
    node, category and info, ignoring the key order; events are unhashable.
    """

    __slots__ = ("cycle", "node", "category", "_keys", "_values")

    def __init__(self, cycle: int, node: int, category: str,
                 info: Optional[Mapping[str, object]] = None) -> None:
        self.cycle = cycle
        self.node = node
        self.category = category
        if info is None:
            info = {}
        keys = tuple(info)
        self._keys = _KEYS.setdefault(keys, keys)
        self._values = tuple(info.values())

    @property
    def info(self) -> Dict[str, object]:
        return dict(zip(self._keys, self._values))

    def __getattr__(self, name: str):
        # Reached only for a name that is no slot, method or property: an
        # info field.
        try:
            return self._values[self._keys.index(name)]
        except ValueError:
            raise AttributeError(name) from None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if (self.cycle, self.node, self.category) != (other.cycle, other.node, other.category):
            return False
        if self._keys is other._keys:
            return self._values == other._values
        return self.info == other.info

    __hash__ = None

    def __reduce__(self):
        return (self.__class__, (self.cycle, self.node, self.category, self.info))

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}(cycle={self.cycle!r}, node={self.node!r}, "
                f"category={self.category!r}, info={self.info!r})")

    def __str__(self) -> str:
        fields = sorted(zip(self._keys, self._values))
        details = ", ".join(f"{key}={value}" for key, value in fields)
        return f"[{self.cycle:6d}] node {self.node} {self.category}: {details}"


def encode_event(event: TraceEvent) -> list:
    """Encode one event into its serialised row ``[cycle, node, category,
    info]`` — the format shared by snapshots and on-disk trace chunks."""
    values = event._values
    # Fast path: almost every event holds only plain scalars.
    for value in values:
        value_type = type(value)
        if not (value_type is int or value_type is str
                or value_type is bool or value is None):
            return [event.cycle, event.node, event.category, encode_value(event.info)]
    return [event.cycle, event.node, event.category, dict(zip(event._keys, values))]


def decode_event(row: Iterable) -> TraceEvent:
    """Inverse of :func:`encode_event`."""
    cycle, node, category, info = row
    info = decode_value(info)
    if not isinstance(info, dict):
        raise ValueError(f"trace event info is a {type(info).__name__}, not an object")
    return TraceEvent(cycle, node, category, info)


def _match(event: TraceEvent, category, node, since) -> bool:
    if category is not None and event.category != category:
        return False
    if node is not None and event.node != node:
        return False
    if since is not None and event.cycle < since:
        return False
    return True


class MemoryTraceSink:
    """The default sink: events in a plain list, encoded lazily for
    snapshots.  Identical behaviour (and snapshot bytes) to the historical
    in-memory tracer."""

    kind = "memory"

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        #: Encoded-event cache for :meth:`state_dict`.  The event list is
        #: append-only between snapshots, so periodic checkpointing encodes
        #: each event once instead of re-encoding the whole (ever-growing)
        #: trace on every save.
        self._encoded: List[list] = []

    def append(self, event: TraceEvent) -> None:
        self.events.append(event)

    def flush(self) -> None:
        pass

    def clear(self) -> None:
        self.events.clear()
        self._encoded = []

    def __len__(self) -> int:
        return len(self.events)

    def iter_events(
        self,
        category: Optional[str] = None,
        node: Optional[int] = None,
        since: Optional[int] = None,
    ) -> Iterator[TraceEvent]:
        for event in self.events:
            if _match(event, category, node, since):
                yield event

    def count(self, category: str) -> int:
        return sum(1 for event in self.events if event.category == category)

    # -- snapshot -----------------------------------------------------------------

    def state_dict(self) -> dict:
        # Only events recorded since the previous state_dict call need
        # encoding; the cache keeps periodic checkpointing O(new events)
        # instead of O(total trace) per save.
        encoded = self._encoded
        for event in self.events[len(encoded):]:
            encoded.append(encode_event(event))
        return {"events": list(encoded)}

    def load(self, rows: List[list]) -> None:
        self.events = [decode_event(row) for row in rows]
        # The loaded rows *are* the encoded form: repopulating the cache
        # keeps the first post-restore checkpoint O(new events) instead of
        # re-encoding the entire restored history.
        self._encoded = list(rows)


class Tracer:
    """Collects :class:`TraceEvent` records for later analysis.

    The tracer is a thin facade over a sink object; pass ``sink`` to select
    storage (default: :class:`MemoryTraceSink`).  Use :meth:`stream_to` to
    move a live tracer to a disk directory, and :meth:`Tracer.open` to
    attach read-only to a trace directory a previous run left on disk.
    """

    def __init__(self, enabled: bool = True, sink=None):
        self.enabled = enabled
        self._sink = sink if sink is not None else MemoryTraceSink()
        self._rebind()

    def _rebind(self) -> None:
        # record() is on the node tick path; bind the sink's append once so
        # the default memory sink costs exactly one list.append per event.
        sink = self._sink
        self._append = sink.events.append if isinstance(sink, MemoryTraceSink) else sink.append

    @property
    def sink(self):
        """The storage sink behind this tracer."""
        return self._sink

    def stream_to(self, directory, chunk_events: Optional[int] = None) -> None:
        """Keep this tracer's events, those recorded so far included, in the
        disk trace directory *directory*, *chunk_events* per chunk (default
        4096).  The first event written replaces what the directory held."""
        from repro.core.trace_disk import DEFAULT_CHUNK_EVENTS, DiskTraceSink  # noqa: PLC0415

        if chunk_events is None:
            chunk_events = DEFAULT_CHUNK_EVENTS
        recorded, self._sink = self._sink, DiskTraceSink(directory, chunk_events=chunk_events)
        for event in recorded.iter_events():
            self._sink.append(event)
        self._rebind()

    @property
    def events(self) -> List[TraceEvent]:
        """The full event list.  For the memory sink this is the live list;
        for a disk sink it *materialises* the whole trace — use
        :meth:`iter_filter` for bounded-memory access."""
        sink = self._sink
        if isinstance(sink, MemoryTraceSink):
            return sink.events
        return list(sink.iter_events())

    def record(self, cycle: int, node: int, category: str, **info) -> None:
        if not self.enabled:
            return
        self._append(TraceEvent(cycle, node, category, info))

    # -- queries -----------------------------------------------------------------

    def iter_filter(
        self,
        category: Optional[str] = None,
        node: Optional[int] = None,
        since: Optional[int] = None,
        predicate: Optional[Callable[[TraceEvent], bool]] = None,
    ) -> Iterator[TraceEvent]:
        """Stream matching events in recording order without materialising
        the trace (on the disk sink, whole chunks are skipped via the
        per-chunk category/node index)."""
        events = self._sink.iter_events(category=category, node=node, since=since)
        if predicate is None:
            return iter(events)
        return (event for event in events if predicate(event))

    def filter(
        self,
        category: Optional[str] = None,
        node: Optional[int] = None,
        since: Optional[int] = None,
        predicate: Optional[Callable[[TraceEvent], bool]] = None,
    ) -> List[TraceEvent]:
        return list(self.iter_filter(category, node, since, predicate))

    def first(self, category: str, **match) -> Optional[TraceEvent]:
        for event in self._sink.iter_events(category=category):
            info = event.info
            if all(info.get(key) == value for key, value in match.items()):
                return event
        return None

    def count(self, category: str) -> int:
        return self._sink.count(category)

    def clear(self) -> None:
        self._sink.clear()

    def flush(self) -> None:
        """Persist buffered events (no-op on the memory sink).  The machine
        calls this when a run method returns, so an on-disk trace is always
        complete and readable after the run."""
        self._sink.flush()

    def __len__(self) -> int:
        return len(self._sink)

    def __iter__(self) -> Iterator[TraceEvent]:
        return self._sink.iter_events()

    # -- snapshot (repro.snapshot state_dict contract) ---------------------------

    def state_dict(self) -> dict:
        """The trace is part of a snapshot: several workloads verify their
        results (and the Figure 9 analyses measure latencies) from events
        recorded *before* the snapshot point, so a resumed run must see the
        complete history.  The memory sink embeds the full event list; the
        disk sink records its directory, flushed-chunk offsets and
        unflushed tail, so a resumed run re-attaches and appends."""
        state = {"enabled": self.enabled}
        state.update(self._sink.state_dict())
        return state

    def load_state_dict(self, state: dict) -> None:
        self.enabled = state["enabled"]
        if state.get("sink") == "disk":
            from repro.core.trace_disk import DiskTraceSink  # noqa: PLC0415

            self._sink = DiskTraceSink(state["trace_dir"], chunk_events=state["chunk_events"])
            self._sink.restore(state)
        else:
            if not isinstance(self._sink, MemoryTraceSink):
                self._sink = MemoryTraceSink()
            self._sink.load(state["events"])
        self._rebind()

    @classmethod
    def open(cls, path, machine: int = 0) -> "Tracer":
        """Attach read-only to a trace directory on disk (out-of-core
        analysis of a finished run).  *path* may be a machine trace
        directory (holding ``index.json``) or the directory a run was given
        with ``Experiment.trace``, in which case the *machine*-th machine of
        that run is opened."""
        from repro.core.trace_disk import DiskTraceSink, resolve_trace_dir  # noqa: PLC0415

        sink = DiskTraceSink(resolve_trace_dir(path, machine), readonly=True)
        return cls(enabled=False, sink=sink)
