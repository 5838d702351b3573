"""The local page table (LPT) and block-status bits.

Paging manages relocation of data within the single global virtual address
space: each node keeps a *local page table* mapping the virtual pages it
currently holds to physical frames in its SDRAM.  Pages are 512 words = 64
eight-word cache blocks (Section 2).

"In addition to the virtual to physical mapping, each LTLB (and LPT) entry
contains 2 status bits for each cache block in the page.  These block status
bits are used to provide fine grained control over 8 word blocks, allowing
different blocks within the same mapped page to be in different states."
(Section 4.3.)  The four states are INVALID, READ-ONLY, READ/WRITE and DIRTY.

The LPT has two coupled representations:

* the structured :class:`LocalPageTable` used by the simulator, the loader and
  the native (Python) handlers, and
* a memory-resident image -- a direct-mapped table of 4-word entries -- that
  the *assembly* LTLB-miss handler of :mod:`repro.runtime.asm_handlers` reads
  with ordinary loads, exactly as the paper's software handler walks the LPT.

The structured table writes through to the memory image whenever it changes so
the two views never diverge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.component import StatefulComponent
from repro.core.values import pairs, state_fields

#: Words per page (Section 2: "Pages are 512 words (64 8-word cache blocks)").
PAGE_SIZE_WORDS = 512
#: Words per cache block / coherence block.
BLOCK_SIZE_WORDS = 8
#: Blocks per page.
BLOCKS_PER_PAGE = PAGE_SIZE_WORDS // BLOCK_SIZE_WORDS

#: Number of 64-bit words one packed LPT entry occupies in the memory image.
LPT_ENTRY_WORDS = 4
#: Slots of a node's direct-mapped LPT memory image.
LPT_ENTRIES = 1024


class BlockStatus(enum.IntEnum):
    """Block status states encoded by the two status bits (Section 4.3)."""

    INVALID = 0
    READ_ONLY = 1
    READ_WRITE = 2
    DIRTY = 3

    def allows_read(self) -> bool:
        return self is not BlockStatus.INVALID

    def allows_write(self) -> bool:
        return self in (BlockStatus.READ_WRITE, BlockStatus.DIRTY)


def page_of(address: int) -> int:
    return address // PAGE_SIZE_WORDS


def page_offset(address: int) -> int:
    return address % PAGE_SIZE_WORDS


def block_of(address: int) -> int:
    """Block index *within its page* of a word address."""
    return (address % PAGE_SIZE_WORDS) // BLOCK_SIZE_WORDS


def block_base(address: int) -> int:
    """Word address of the first word of the block containing *address*."""
    return address - (address % BLOCK_SIZE_WORDS)


@dataclass
class LptEntry:
    """One local page table entry."""

    virtual_page: int
    physical_frame: int
    writable: bool = True
    #: Per-block status; defaults to READ_WRITE for locally homed pages.
    block_status: List[BlockStatus] = field(
        default_factory=lambda: [BlockStatus.READ_WRITE] * BLOCKS_PER_PAGE
    )

    def status_of(self, address: int) -> BlockStatus:
        return self.block_status[block_of(address)]

    def set_status(self, address: int, status: BlockStatus) -> None:
        self.block_status[block_of(address)] = status

    def translate(self, address: int) -> int:
        """Translate a virtual word address within this page to physical."""
        return self.physical_frame * PAGE_SIZE_WORDS + page_offset(address)

    # -- packed (memory image) form --------------------------------------------

    def pack(self) -> List[int]:
        """Pack into the 4-word memory-image format.

        ====  ==================================================
        word  contents
        ====  ==================================================
        0     ``(virtual_page << 1) | valid``
        1     ``(physical_frame << 1) | writable``
        2     block-status bits for blocks 0..31 (2 bits each)
        3     block-status bits for blocks 32..63 (2 bits each)
        ====  ==================================================
        """
        status_low = 0
        status_high = 0
        for index, status in enumerate(self.block_status):
            if index < 32:
                status_low |= int(status) << (2 * index)
            else:
                status_high |= int(status) << (2 * (index - 32))
        return [
            (self.virtual_page << 1) | 1,
            (self.physical_frame << 1) | int(self.writable),
            status_low,
            status_high,
        ]

    @classmethod
    def unpack(cls, words: List[int]) -> Optional["LptEntry"]:
        if len(words) != LPT_ENTRY_WORDS:
            raise ValueError(f"an LPT entry is {LPT_ENTRY_WORDS} words, got {len(words)}")
        if not words[0] & 1:
            return None
        status = []
        for index in range(BLOCKS_PER_PAGE):
            source = words[2] if index < 32 else words[3]
            shift = 2 * (index % 32)
            status.append(BlockStatus((source >> shift) & 0x3))
        return cls(
            virtual_page=words[0] >> 1,
            physical_frame=words[1] >> 1,
            writable=bool(words[1] & 1),
            block_status=status,
        )


class LocalPageTable(StatefulComponent):
    """The software-managed local page table of one node.

    The table holds one entry per slot of the direct-mapped memory image,
    ``LPT_ENTRIES`` slots, which is what the assembly handler probes: two
    pages ``LPT_ENTRIES`` apart share a slot, and :meth:`insert` refuses the
    second.  The node installs the image mirror with
    :meth:`attach_writeback` once the image's physical location is known.
    A restore rebuilds the structured table *without* mirroring into the
    memory image: the SDRAM snapshot already holds the image, and mirroring
    would perturb the SDRAM write statistics.
    """

    _STATE = state_fields(("_entries", pairs()), "lookups", "misses")

    def __init__(self):
        self._entries: Dict[int, LptEntry] = {}
        self._writeback: Optional[Callable[[int, List[int]], None]] = None
        # Statistics
        self.lookups = 0
        self.misses = 0

    # -- wiring ------------------------------------------------------------------

    def attach_writeback(self, writeback: Callable[[int, List[int]], None]) -> None:
        """Install the memory-image mirror callback and (re)write all entries."""
        self._writeback = writeback
        for entry in self._entries.values():
            self._mirror(entry)

    def slot_of(self, virtual_page: int) -> int:
        """Slot of the direct-mapped memory image a page maps to."""
        return virtual_page & (LPT_ENTRIES - 1)

    def _mirror(self, entry: LptEntry) -> None:
        if self._writeback is not None:
            self._writeback(self.slot_of(entry.virtual_page), entry.pack())

    # -- operations --------------------------------------------------------------

    def insert(self, entry: LptEntry) -> None:
        slot = self.slot_of(entry.virtual_page)
        existing = self._entries.get(slot)
        if existing is not None and existing.virtual_page != entry.virtual_page:
            raise ValueError(
                f"LPT image collision: virtual pages {existing.virtual_page:#x} and "
                f"{entry.virtual_page:#x} both map to slot {slot}; "
                f"change the address-space layout"
            )
        self._entries[slot] = entry
        self._mirror(entry)

    def lookup(self, address: int) -> Optional[LptEntry]:
        self.lookups += 1
        page = page_of(address)
        entry = self._entries.get(self.slot_of(page))
        if entry is None or entry.virtual_page != page:
            self.misses += 1
            return None
        return entry

    def lookup_page(self, virtual_page: int) -> Optional[LptEntry]:
        entry = self._entries.get(self.slot_of(virtual_page))
        if entry is None or entry.virtual_page != virtual_page:
            return None
        return entry

    # -- introspection -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, virtual_page: int) -> bool:
        return self.lookup_page(virtual_page) is not None
