"""Deterministic id allocation for hardware records.

Memory requests and network messages carry small integer ids that appear in
traces, completion tables and NACK bookkeeping.  Each :class:`MMachine` owns
one :class:`IdSource` per record kind, so

* two machines in the same process never perturb each other's numbering,
* the sequence a machine allocates is a pure function of its execution, and
* a snapshot can capture the allocator (:meth:`state`) and a restored
  machine can continue it (:meth:`load_state`) bit-exactly.

Records constructed outside a machine (unit tests building a bare
``MemRequest``) fall back to a module-level source in their own module; the
fallback never feeds machine-owned state.
"""

from __future__ import annotations


class IdSource:
    """A restorable monotonic id allocator (callable, like ``itertools.count``
    but with readable/settable state)."""

    __slots__ = ("next_id",)

    def __init__(self):
        self.next_id = 0

    def __call__(self) -> int:
        value = self.next_id
        self.next_id += 1
        return value

    def state(self) -> int:
        """The next id that would be allocated (snapshot support)."""
        return self.next_id

    def load_state(self, next_id: int) -> None:
        """Restore the allocator (snapshot support)."""
        self.next_id = int(next_id)

    def __repr__(self) -> str:
        return f"IdSource(next_id={self.next_id})"
