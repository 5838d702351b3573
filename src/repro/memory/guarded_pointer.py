"""Guarded pointers: the M-Machine's light-weight capability system.

"A light-weight capability system implements protection through guarded
pointers, while paging is used to manage the relocation of data in physical
memory within the virtual address space.  The segmentation and paging
mechanisms are independent so that protection may be preserved on
variable-size segments of memory." (Section 2, citing Carter, Keckler &
Dally, ASPLOS VI 1994.)

A guarded pointer is a 64-bit word (plus an architecturally invisible tag
marking it as a pointer) that encodes:

* a 4-bit **permission** field,
* a 6-bit **segment length exponent** ``L`` -- the pointer's segment is the
  naturally aligned block of ``2**L`` words containing its address,
* a **54-bit address**.

Pointer arithmetic (the ``lea`` operation) may move the address anywhere
inside the segment but faults if the result leaves the segment, so user code
can never manufacture a pointer to memory it was not granted.  Only
privileged code (``setptr``) can forge pointers.

In this simulator registers and memory words may hold either plain integers
or :class:`GuardedPointer` instances; the pointer tag is represented by the
Python type.  :func:`encode` / :func:`decode` give the packed 64-bit
representation for tests and for storing pointers in untagged containers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


ADDRESS_BITS = 54
LENGTH_BITS = 6
PERMISSION_BITS = 4

_ADDRESS_MASK = (1 << ADDRESS_BITS) - 1
_LENGTH_SHIFT = ADDRESS_BITS
_PERMISSION_SHIFT = ADDRESS_BITS + LENGTH_BITS


class ProtectionError(Exception):
    """Raised when a guarded-pointer check fails.

    In the full machine this becomes a synchronous protection exception
    handled by the exception V-Thread; the memory system and functional
    units catch it and convert it into an exception record.
    """


class PointerPermission(enum.IntFlag):
    """Permission bits of a guarded pointer."""

    NONE = 0
    READ = 1
    WRITE = 2
    EXECUTE = 4
    #: "Enter" pointers may only be jumped to (protected subsystem entry).
    ENTER = 8

    @classmethod
    def rw(cls) -> "PointerPermission":
        return cls.READ | cls.WRITE

    @classmethod
    def rwx(cls) -> "PointerPermission":
        return cls.READ | cls.WRITE | cls.EXECUTE


@dataclass(frozen=True)
class GuardedPointer:
    """An unforgeable pointer to a power-of-two-sized, aligned segment."""

    address: int
    length_exp: int
    permission: PointerPermission

    def __post_init__(self) -> None:
        if not 0 <= self.address <= _ADDRESS_MASK:
            raise ValueError(f"address {self.address:#x} does not fit in {ADDRESS_BITS} bits")
        if not 0 <= self.length_exp < (1 << LENGTH_BITS):
            raise ValueError(f"length exponent {self.length_exp} does not fit in {LENGTH_BITS} bits")
        if int(self.permission) < 0 or int(self.permission) >= (1 << PERMISSION_BITS):
            raise ValueError(f"permission {self.permission!r} does not fit in {PERMISSION_BITS} bits")

    # -- segment geometry --------------------------------------------------------

    @property
    def segment_size(self) -> int:
        """Size of the segment in words."""
        return 1 << self.length_exp

    @property
    def segment_base(self) -> int:
        return self.address & ~(self.segment_size - 1)

    @property
    def segment_limit(self) -> int:
        """One past the last word of the segment."""
        return self.segment_base + self.segment_size

    def contains(self, address: int) -> bool:
        return self.segment_base <= address < self.segment_limit

    # -- operations --------------------------------------------------------------

    def add(self, offset: int) -> "GuardedPointer":
        """Pointer arithmetic with a segment bounds check (the ``lea`` op)."""
        new_address = self.address + offset
        if not self.contains(new_address):
            raise ProtectionError(
                f"pointer arithmetic leaves segment: {self.address:#x} + {offset} "
                f"outside [{self.segment_base:#x}, {self.segment_limit:#x})"
            )
        return GuardedPointer(new_address, self.length_exp, self.permission)

    def check(self, required: PointerPermission, address: int = None) -> None:
        """Check an access through this pointer.

        Raises :class:`ProtectionError` if the permission is missing or the
        accessed address lies outside the pointer's segment.
        """
        if required & ~self.permission:
            raise ProtectionError(
                f"permission {required!r} not granted by pointer (has {self.permission!r})"
            )
        target = self.address if address is None else address
        if not self.contains(target):
            raise ProtectionError(
                f"address {target:#x} outside segment "
                f"[{self.segment_base:#x}, {self.segment_limit:#x})"
            )

    # -- packing -----------------------------------------------------------------

    def encode(self) -> int:
        """Pack into the architectural 64-bit representation."""
        return (
            (int(self.permission) << _PERMISSION_SHIFT)
            | (self.length_exp << _LENGTH_SHIFT)
            | (self.address & _ADDRESS_MASK)
        )

    @classmethod
    def decode(cls, word: int) -> "GuardedPointer":
        """Unpack the architectural 64-bit representation."""
        return cls(
            address=word & _ADDRESS_MASK,
            length_exp=(word >> _LENGTH_SHIFT) & ((1 << LENGTH_BITS) - 1),
            permission=PointerPermission((word >> _PERMISSION_SHIFT) & ((1 << PERMISSION_BITS) - 1)),
        )

    def __int__(self) -> int:
        return self.address

    def __index__(self) -> int:
        return self.address

    def __str__(self) -> str:
        return (
            f"ptr({self.address:#x}, seg=2^{self.length_exp}, "
            f"perm={self.permission.name or int(self.permission)})"
        )


def make_pointer(base: int, size_words: int, permission: PointerPermission) -> GuardedPointer:
    """Create a pointer whose segment is the smallest aligned power-of-two
    block that both contains *base* and is at least *size_words* long.

    This is the helper privileged runtime code uses when handing segments to
    user threads.
    """
    if size_words <= 0:
        raise ValueError("segment size must be positive")
    length_exp = max(size_words - 1, 1).bit_length()
    if (1 << length_exp) < size_words:
        length_exp += 1
    # Grow the segment until the aligned block starting at the pointer's base
    # covers [base, base + size_words).
    while (base & ~((1 << length_exp) - 1)) + (1 << length_exp) < base + size_words:
        length_exp += 1
    return GuardedPointer(base, length_exp, permission)


