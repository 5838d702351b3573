"""The on-chip cache.

"The on-chip cache is organized as four word-interleaved 4KW (32KB) banks to
permit four consecutive word accesses to proceed in parallel.  The cache is
virtually addressed and tagged.  The cache banks are pipelined with a
three-cycle read latency, including switch traversal." (Section 2.)

Because the banks are *word*-interleaved, an eight-word cache block spans all
four banks (two words per bank).  The model therefore keeps a single logical
line store (set-associative over virtual line addresses) and exposes the bank
structure purely for port arbitration: word address ``a`` must use bank
``a % NUM_BANKS`` and each bank accepts one access per cycle, which is how the
paper gets four consecutive word accesses per cycle.

The cache is write-back / write-allocate.  Each line carries the physical
base address it was filled from (so write-backs and synchronisation-bit
updates need no reverse translation) and a copy of the per-word
synchronisation bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.component import StatefulComponent
from repro.core.values import each, pairs, record_codec, state_fields
from repro.memory.page_table import BLOCK_SIZE_WORDS

#: Word-interleaved cache banks (Section 2).
NUM_BANKS = 4
#: Words per bank: four 4 KW banks make the 32 KB cache.
BANK_SIZE_WORDS = 4096
#: Lines per set.
ASSOCIATIVITY = 2
#: Sets of ``ASSOCIATIVITY`` eight-word lines; addresses ``NUM_SETS *
#: BLOCK_SIZE_WORDS`` words apart share a set.
NUM_SETS = NUM_BANKS * BANK_SIZE_WORDS // BLOCK_SIZE_WORDS // ASSOCIATIVITY


@dataclass
class CacheLine:
    """One cache line: a block of ``BLOCK_SIZE_WORDS`` words."""

    tag: int
    virtual_base: int
    physical_base: int
    data: List[object]
    sync_bits: List[int]
    valid: bool = True
    dirty: bool = False
    #: Whether stores may hit this line.  Set at fill time from the block
    #: status bits / page writability, so the block-status check of
    #: Section 4.3 is enforced on cache hits as well as misses.
    writable: bool = True
    #: LRU timestamp maintained by the cache.
    last_used: int = 0


class InterleavedCache(StatefulComponent):
    """A four-bank, word-interleaved, virtually addressed cache."""

    _STATE = state_fields(
        ("_sets", pairs(each(record_codec(CacheLine)))), "_access_counter", "hits", "misses",
        "read_hits", "read_misses", "write_hits", "write_misses", "evictions", "writebacks")

    def __init__(self, name: str = "cache"):
        self.name = name
        # sets[set_index] -> list of CacheLine
        self._sets: Dict[int, List[CacheLine]] = {}
        self._access_counter = 0
        # Statistics
        self.hits = 0
        self.misses = 0
        self.read_hits = 0
        self.read_misses = 0
        self.write_hits = 0
        self.write_misses = 0
        self.evictions = 0
        self.writebacks = 0

    # -- geometry ----------------------------------------------------------------

    def bank_of(self, address: int) -> int:
        """Bank a word access must use (port arbitration)."""
        return address % NUM_BANKS

    def _set_and_tag(self, address: int) -> Tuple[int, int]:
        line_number = address // BLOCK_SIZE_WORDS
        return line_number % NUM_SETS, line_number // NUM_SETS

    # -- lookup ------------------------------------------------------------------

    def _find(self, address: int) -> Optional[CacheLine]:
        set_index, tag = self._set_and_tag(address)
        for line in self._sets.get(set_index, []):
            if line.valid and line.tag == tag:
                return line
        return None

    def probe(self, address: int) -> Optional[CacheLine]:
        """Non-statistical lookup used by debug and coherence paths."""
        return self._find(address)

    def lookup(self, address: int, is_store: bool) -> Optional[CacheLine]:
        """Architectural lookup (updates hit/miss statistics and LRU)."""
        line = self._find(address)
        self._access_counter += 1
        if line is not None:
            line.last_used = self._access_counter
            self.hits += 1
            if is_store:
                self.write_hits += 1
            else:
                self.read_hits += 1
            return line
        self.misses += 1
        if is_store:
            self.write_misses += 1
        else:
            self.read_misses += 1
        return None

    # -- data access on a hit line -----------------------------------------------

    def read_word(self, line: CacheLine, address: int):
        return line.data[address - line.virtual_base]

    def write_word(self, line: CacheLine, address: int, value) -> None:
        line.data[address - line.virtual_base] = value
        line.dirty = True

    def sync_bit(self, line: CacheLine, address: int) -> int:
        return line.sync_bits[address - line.virtual_base]

    def set_sync_bit(self, line: CacheLine, address: int, value: int) -> None:
        line.sync_bits[address - line.virtual_base] = int(bool(value))
        line.dirty = True

    # -- fills and evictions -------------------------------------------------------

    def fill(
        self,
        virtual_base: int,
        physical_base: int,
        data: List[object],
        sync_bits: List[int],
        writable: bool = True,
    ) -> Optional[CacheLine]:
        """Install a line; returns the victim (for write-back) if one was
        evicted dirty, or None."""
        if len(data) != BLOCK_SIZE_WORDS:
            raise ValueError(
                f"fill data must be {BLOCK_SIZE_WORDS} words, got {len(data)}"
            )
        if virtual_base % BLOCK_SIZE_WORDS:
            raise ValueError("fill address must be line aligned")
        set_index, tag = self._set_and_tag(virtual_base)
        ways = self._sets.setdefault(set_index, [])
        self._access_counter += 1

        # Re-fill of an already resident line replaces its contents.
        for line in ways:
            if line.valid and line.tag == tag:
                line.data = list(data)
                line.sync_bits = list(sync_bits)
                line.physical_base = physical_base
                line.dirty = False
                line.writable = writable
                line.last_used = self._access_counter
                return None

        evicted: Optional[CacheLine] = None
        if len(ways) >= ASSOCIATIVITY:
            victim = min(ways, key=lambda entry: entry.last_used)
            ways.remove(victim)
            self.evictions += 1
            if victim.dirty:
                self.writebacks += 1
                evicted = victim
        ways.append(
            CacheLine(
                tag=tag,
                virtual_base=virtual_base,
                physical_base=physical_base,
                data=list(data),
                sync_bits=list(sync_bits),
                writable=writable,
                last_used=self._access_counter,
            )
        )
        return evicted

    def invalidate(self, address: int) -> Optional[CacheLine]:
        """Invalidate the line containing *address*; returns it, for
        write-back, if it was dirty (used by the software coherence layer)."""
        set_index, _ = self._set_and_tag(address)
        line = self._find(address)
        if line is None:
            return None
        self._sets[set_index].remove(line)
        if line.dirty:
            self.writebacks += 1
            return line
        return None

    def flush(self) -> List[CacheLine]:
        """Invalidate everything, returning the dirty lines for write-back."""
        dirty = [line for ways in self._sets.values() for line in ways if line.dirty]
        self.writebacks += len(dirty)
        self._sets.clear()
        return dirty

    # -- introspection ------------------------------------------------------------

    @property
    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets.values())

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"InterleavedCache({self.name!r}, {NUM_BANKS}x{BANK_SIZE_WORDS}W, "
            f"{self.resident_lines} lines resident)"
        )
