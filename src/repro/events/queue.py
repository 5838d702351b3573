"""Hardware queues.

Both the event system and the message system expose their contents to
software as *register-mapped word queues*: the handler H-Thread reads the
``evq`` or ``net`` register, which dequeues one 64-bit word, and the read
does not issue while the queue is empty (Sections 3.3 and 4.1).

:class:`HardwareQueue` models such a queue of words with a finite capacity.
:class:`EventQueue` is a thin wrapper that accepts whole
:class:`~repro.events.records.EventRecord` objects, keeps the structured
records for tracing, and serves their packed words to software.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.core.component import StatefulComponent
from repro.core.values import Codec, each, state_fields
from repro.events.records import EventRecord
from repro.events.records import EVENT_RECORD_WORDS


class QueueUnderflowError(Exception):
    """Raised when popping from an empty queue (or popping a record that is
    only partially present)."""


class HardwareQueue(StatefulComponent):
    """A bounded FIFO of 64-bit words with occupancy statistics."""

    _STATE = state_fields(("_words", Codec(list, deque)), "total_pushed", "total_popped",
                          "max_occupancy", "overflow_rejections")

    def __init__(self, capacity_words: int, name: str = "queue"):
        if capacity_words <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity_words = capacity_words
        self.name = name
        self._words: Deque[int] = deque()
        # Statistics
        self.total_pushed = 0
        self.total_popped = 0
        self.max_occupancy = 0
        self.overflow_rejections = 0

    # -- state -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._words)

    @property
    def is_empty(self) -> bool:
        return not self._words

    @property
    def free_words(self) -> int:
        return self.capacity_words - len(self._words)

    def can_accept(self, num_words: int) -> bool:
        return self.free_words >= num_words

    # -- operations --------------------------------------------------------------

    def push_words(self, words: List[int]) -> bool:
        """Append *words* atomically; returns False (and rejects all of them)
        if the queue does not have room for the whole group."""
        if not self.can_accept(len(words)):
            self.overflow_rejections += 1
            return False
        self._words.extend(int(w) for w in words)
        self.total_pushed += len(words)
        self.max_occupancy = max(self.max_occupancy, len(self._words))
        return True

    def pop_word(self) -> int:
        if not self._words:
            raise QueueUnderflowError(f"pop from empty queue {self.name!r}")
        self.total_popped += 1
        return self._words.popleft()

    def peek_word(self) -> Optional[int]:
        return self._words[0] if self._words else None

    def __repr__(self) -> str:
        return f"HardwareQueue({self.name!r}, {len(self._words)}/{self.capacity_words} words)"


class EventQueue(HardwareQueue):
    """Hardware event queue (one per event class / handler H-Thread).

    Asynchronous event handling requires sufficient queue space to handle the
    case where every outstanding instruction generates an exception
    (Section 3.3); callers size the queue accordingly via the machine
    configuration.  A rejected push is reported to the caller, which models a
    machine check in hardware -- the simulator raises instead of silently
    dropping events, since a real M-Machine sizes the queue to make this
    impossible.
    """

    _STATE = HardwareQueue._STATE + state_fields(
        ("_records", each(into=deque)), "_head_offset", "records_pushed")

    def __init__(self, capacity_records: int, name: str = "event-queue"):

        super().__init__(capacity_records * EVENT_RECORD_WORDS, name)
        self.capacity_records = capacity_records
        self.records_pushed = 0
        #: Structured copies of enqueued records, for tracing and native
        #: handlers.  Consumed in FIFO order by :meth:`pop_record`.
        self._records: Deque[EventRecord] = deque()
        # Number of words of the head record already consumed word-by-word.
        self._head_offset = 0

    def push_record(self, record: EventRecord) -> bool:
        ok = self.push_words(record.to_words())
        if ok:
            self.records_pushed += 1
            self._records.append(record)
        return ok

    def pop_record(self) -> EventRecord:
        """Pop a whole structured record (native-handler path).

        Removes both the structured record and its packed words, keeping the
        two views consistent.  May only be called on a record boundary.
        """

        if not self._records:
            raise QueueUnderflowError(f"pop_record from empty queue {self.name!r}")
        if self._head_offset != 0:
            raise QueueUnderflowError(
                f"pop_record from {self.name!r} while a record is partially consumed"
            )
        record = self._records.popleft()
        for _ in range(EVENT_RECORD_WORDS):
            super().pop_word()
        return record

    def pop_word(self) -> int:

        word = super().pop_word()
        # Keep the structured view consistent when software consumes an entire
        # record word-by-word.
        self._head_offset += 1
        if self._head_offset == EVENT_RECORD_WORDS:
            self._head_offset = 0
            if self._records:
                self._records.popleft()
        return word

    @property
    def pending_records(self) -> int:
        return len(self._records)
