"""The local translation lookaside buffer (LTLB).

"The external memory interface consists of the SDRAM controller and a local
translation lookaside buffer (LTLB) used to cache local page table (LPT)
entries." (Section 2.)  The LTLB is only consulted on cache misses because
the on-chip cache is virtually addressed and tagged; an LTLB miss raises an
asynchronous event handled in software by the event V-Thread (Section 3.3),
which is exactly how remote memory references are detected (Section 4.2).

The LTLB caches :class:`~repro.memory.page_table.LptEntry` objects; it holds
references, so block-status updates made through the page table are
immediately visible to hardware checks.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.core.component import StatefulComponent
from repro.core.values import AS_IS, Codec, decode_value, encode_value, pairs, state_fields
from repro.memory.page_table import LocalPageTable, LptEntry, page_of

#: Entries of the LTLB.
LTLB_ENTRIES = 64


class Ltlb(StatefulComponent):
    """A fully associative, LRU-replaced translation cache."""

    # LRU order is significant (oldest first, like the OrderedDict).  Entries
    # are saved by value, and read back as saved for the load to re-link.
    _STATE = state_fields(
        ("_entries", pairs(Codec(encode_value, AS_IS.decode), into=OrderedDict)),
        "hits", "misses", "insertions", "evictions")

    def __init__(self, name: str = "ltlb"):
        self.name = name
        self._entries: "OrderedDict[int, LptEntry]" = OrderedDict()
        # Statistics
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0

    # -- lookup ------------------------------------------------------------------

    def lookup(self, address: int) -> Optional[LptEntry]:
        """Translate a virtual address; None on a miss (which the memory
        system turns into an LTLB-miss event)."""
        page = page_of(address)
        entry = self._entries.get(page)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(page)
        return entry

    def probe(self, address: int) -> Optional[LptEntry]:
        """Like :meth:`lookup` but without touching statistics or LRU state
        (used by debug/loader paths)."""
        return self._entries.get(page_of(address))

    # -- maintenance -------------------------------------------------------------

    def insert(self, entry: LptEntry) -> Optional[LptEntry]:
        """Insert an entry, returning the evicted entry if any."""
        evicted = None
        if entry.virtual_page in self._entries:
            self._entries.move_to_end(entry.virtual_page)
            self._entries[entry.virtual_page] = entry
            return None
        if len(self._entries) >= LTLB_ENTRIES:
            _, evicted = self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[entry.virtual_page] = entry
        self.insertions += 1
        return evicted

    # -- snapshot (repro.snapshot state_dict contract) ---------------------------

    def load_state_dict(self, state: dict, page_table: LocalPageTable) -> None:
        """Restore the entries in their LRU order, re-linking the *shared*
        entry objects of *page_table*: the LTLB caches references, and
        block-status updates made through the page table must stay visible
        after a restore.  An entry is decoded from its saved value only
        when the page table has none for its page."""
        super().load_state_dict(state)
        for page, encoded in self._entries.items():
            entry = page_table.lookup_page(page)
            self._entries[page] = decode_value(encoded) if entry is None else entry

    # -- introspection -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, virtual_page: int) -> bool:
        return virtual_page in self._entries

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return f"Ltlb({self.name!r}, {len(self)}/{LTLB_ENTRIES} entries)"
