"""The global translation lookaside buffer (GTLB) and global destination table.

"The map implements a Global Translation Lookaside Buffer (GTLB), backed by a
software Global Destination Table (GDT), to hold mappings of virtual address
regions to node numbers ...  With a single GTLB entry, a range of virtual
addresses (called a page-group) is mapped across a region of processors.  In
order to simplify encoding, the page-group must be a power of 2 pages in
size.  The mapped processors must be in a contiguous 3-D rectangular region
with a power of 2 number of nodes on a side. ...  The pages-per-node field
indicates the number of pages placed on each consecutive processor, and is
used to implement a spectrum of block and cyclic interleavings."
(Section 4.1, Figure 8.)

Node-assignment order within the region is X-fastest (X, then Y, then Z);
when the page-group holds more pages than ``pages_per_node x region size``
the assignment wraps around the region, which yields the cyclic
interleavings the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

from repro.core.component import StatefulComponent
from repro.core.values import each, state_fields

#: Bit widths of the packed GDT/GTLB entry (Figure 8).
VIRTUAL_PAGE_BITS = 42
LENGTH_BITS = 16
NODE_COORD_BITS = 6
PAGES_PER_NODE_BITS = 16
EXTENT_BITS = 3
#: Entries of a node's GTLB.
GTLB_ENTRIES = 16


def _is_power_of_two(value: int) -> bool:
    return value > 0 and value & (value - 1) == 0


@dataclass(frozen=True)
class GtlbEntry:
    """One page-group mapping."""

    #: First virtual page of the page-group (the tag of the entry).
    base_page: int
    #: Number of pages in the page-group (power of two).
    page_group_length: int
    #: Coordinates of the origin of the mapped processor region.
    start_node: Tuple[int, int, int]
    #: Base-2 logarithm of the X, Y and Z extents of the region.
    extent: Tuple[int, int, int]
    #: Pages placed on each consecutive processor before moving to the next.
    pages_per_node: int = 1
    #: Page size in words (kept per entry so translation is self-contained).
    page_size_words: int = 512

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.page_group_length):
            raise ValueError("page-group length must be a power of two pages")
        if not _is_power_of_two(self.pages_per_node):
            raise ValueError("pages-per-node must be a power of two")
        if any(e < 0 or e >= (1 << EXTENT_BITS) for e in self.extent):
            raise ValueError("extent exponents out of range")
        if any(c < 0 for c in self.start_node):
            raise ValueError("start node coordinates must be non-negative")

    # -- geometry ----------------------------------------------------------------
    # Computed on first use and kept in the instance ``__dict__``, which the
    # dataclass's fields, ``==``, ``repr`` and the snapshot record do not
    # read.  Not in ``__post_init__``, which would change which malformed
    # snapshot entries load (``snapshot_record_mutants.json``).

    @cached_property
    def region_shape(self) -> Tuple[int, int, int]:
        return tuple(1 << e for e in self.extent)

    @cached_property
    def region_size(self) -> int:
        dx, dy, dz = self.region_shape
        return dx * dy * dz

    @cached_property
    def _limit_page(self) -> int:
        return self.base_page + self.page_group_length

    @property
    def base_address(self) -> int:
        return self.base_page * self.page_size_words

    @property
    def limit_address(self) -> int:
        return (self.base_page + self.page_group_length) * self.page_size_words

    def covers(self, address: int) -> bool:
        page = address // self.page_size_words
        return self.base_page <= page < self._limit_page

    # -- translation -------------------------------------------------------------

    def node_coords_of(self, address: int) -> Tuple[int, int, int]:
        """Map a covered virtual address to the coordinates of its home node."""
        if not self.covers(address):
            raise ValueError(f"address {address:#x} not covered by this page-group")
        page_offset = address // self.page_size_words - self.base_page
        node_index = (page_offset // self.pages_per_node) % self.region_size
        dx, dy, _dz = self.region_shape
        x = node_index % dx
        y = (node_index // dx) % dy
        z = node_index // (dx * dy)
        sx, sy, sz = self.start_node
        return (sx + x, sy + y, sz + z)

    def pages_on_node(self, coords: Tuple[int, int, int]) -> List[int]:
        """All virtual pages of this page-group homed on *coords* (helper for
        the loader, which must create local page-table entries there)."""
        pages = []
        for offset in range(self.page_group_length):
            address = (self.base_page + offset) * self.page_size_words
            if self.node_coords_of(address) == coords:
                pages.append(self.base_page + offset)
        return pages

    # -- packing (Figure 8) --------------------------------------------------------

    def pack(self) -> int:
        """Pack into the Figure 8 bit layout.

        The fields exceed 64 bits in total, so the packed entry occupies two
        words; this method returns them as one combined integer.
        """
        if self.base_page >= (1 << VIRTUAL_PAGE_BITS):
            raise ValueError("virtual page number does not fit the 42-bit field")
        value = self.base_page
        value = (value << LENGTH_BITS) | (self.page_group_length & ((1 << LENGTH_BITS) - 1))
        for coord in self.start_node:
            value = (value << NODE_COORD_BITS) | (coord & ((1 << NODE_COORD_BITS) - 1))
        value = (value << PAGES_PER_NODE_BITS) | (self.pages_per_node & ((1 << PAGES_PER_NODE_BITS) - 1))
        for e in self.extent:
            value = (value << EXTENT_BITS) | (e & ((1 << EXTENT_BITS) - 1))
        return value

    @classmethod
    def unpack(cls, value: int, page_size_words: int = 512) -> "GtlbEntry":
        extent = []
        for _ in range(3):
            extent.append(value & ((1 << EXTENT_BITS) - 1))
            value >>= EXTENT_BITS
        extent = tuple(reversed(extent))
        pages_per_node = value & ((1 << PAGES_PER_NODE_BITS) - 1)
        value >>= PAGES_PER_NODE_BITS
        start = []
        for _ in range(3):
            start.append(value & ((1 << NODE_COORD_BITS) - 1))
            value >>= NODE_COORD_BITS
        start = tuple(reversed(start))
        length = value & ((1 << LENGTH_BITS) - 1)
        value >>= LENGTH_BITS
        base_page = value
        return cls(
            base_page=base_page,
            page_group_length=length,
            start_node=start,
            extent=extent,
            pages_per_node=pages_per_node,
            page_size_words=page_size_words,
        )


class GlobalDestinationTable(StatefulComponent):
    """The software GDT: the complete list of page-group mappings.

    System software owns this table; the GTLB caches its entries.
    """

    _STATE = state_fields(("_entries", each()))

    def __init__(self):
        self._entries: List[GtlbEntry] = []

    def add(self, entry: GtlbEntry) -> None:
        for existing in self._entries:
            overlap = not (
                entry.limit_address <= existing.base_address
                or existing.limit_address <= entry.base_address
            )
            if overlap:
                raise ValueError(
                    f"page-group [{entry.base_address:#x}, {entry.limit_address:#x}) overlaps "
                    f"existing [{existing.base_address:#x}, {existing.limit_address:#x})"
                )
        self._entries.append(entry)

    def lookup(self, address: int) -> Optional[GtlbEntry]:
        for entry in self._entries:
            if entry.covers(address):
                return entry
        return None

    def __len__(self) -> int:
        return len(self._entries)


class Gtlb(StatefulComponent):
    """The per-node GTLB: a small fully-associative cache of GDT entries.

    On a miss the hardware consults the backing GDT (in the real machine a
    software fill); the fill is counted in :attr:`fills` and costs no
    cycles.
    """

    # MRU-first order is significant (move-to-front LRU).  GtlbEntry is a
    # frozen value type, so equal entries are interchangeable and no
    # identity with the GDT needs restoring.
    _STATE = state_fields(("_entries", each()), "hits", "misses", "fills")

    def __init__(self, gdt: GlobalDestinationTable, name: str = "gtlb"):
        self.gdt = gdt
        self.name = name
        self._entries: List[GtlbEntry] = []
        # Statistics
        self.hits = 0
        self.misses = 0
        self.fills = 0

    def lookup(self, address: int) -> Optional[GtlbEntry]:
        for index, entry in enumerate(self._entries):
            if entry.covers(address):
                self.hits += 1
                # Move-to-front LRU.
                self._entries.insert(0, self._entries.pop(index))
                return entry
        self.misses += 1
        entry = self.gdt.lookup(address)
        if entry is not None:
            self.fills += 1
            self._entries.insert(0, entry)
            del self._entries[GTLB_ENTRIES:]
        return entry

    def node_coords_of(self, address: int) -> Optional[Tuple[int, int, int]]:
        entry = self.lookup(address)
        if entry is None:
            return None
        return entry.node_coords_of(address)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
