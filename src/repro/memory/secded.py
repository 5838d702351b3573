"""SECDED (single-error-correcting, double-error-detecting) code.

The MAP's SDRAM controller "performs SECDED error control" (Section 2).  This
module implements a standard (72, 64) Hamming code extended with an overall
parity bit: 64 data bits are protected by 7 Hamming check bits plus 1 parity
bit.  A single flipped bit in the 72-bit codeword is corrected; two flipped
bits are detected and reported.

The code is defined by the classic positional construction: data bits are
placed at the non-power-of-two positions 1..71 of the codeword, check bit
``i`` at position ``2**i`` covers every position whose index has bit ``i``
set, and position 0 holds the overall parity of the other 71 bits.  The
syndrome of a codeword is therefore the XOR of the positions of its set bits
in 1..71: zero for a clean codeword, the flipped position after one flip.

The encoder and decoder do not walk those positions on every call.  The code
is linear over GF(2): the codeword of ``a ^ b`` is the XOR of the codewords
of ``a`` and ``b``, and the syndrome and data bits of a codeword are XORs
over its set bits too.  So at import the module tabulates, from the same
positions, the codeword of each of the 256 values of each of the 8 data
bytes, and ``(data bits << 7) | syndrome`` of each of the 256 values of each
of the 9 codeword bytes.  An encode is then the XOR of 8 table entries and a
decode the XOR of 9, plus the overall parity of the whole int and, after a
single-bit error, one entry of a 128-entry table that maps the syndrome to
the data bit it names.  The 17 byte tables and the flip table take about
0.2 MB and about 1 ms to build; ``tests/unit/test_secded.py`` pins both
functions to the positional loops, kept there as the reference.
"""

from __future__ import annotations

from typing import Dict, Tuple

DATA_BITS = 64
#: Number of Hamming check bits required for 64 data bits (2^7 >= 64+7+1).
CHECK_BITS = 7
#: Total codeword length: data + Hamming checks + overall parity.
CODEWORD_BITS = DATA_BITS + CHECK_BITS + 1  # 72

# Positions 1..71 that are not powers of two hold the data bits, LSB first.
_DATA_POSITIONS = [pos for pos in range(1, CODEWORD_BITS) if pos & (pos - 1) != 0][:DATA_BITS]
_CHECK_POSITIONS = [1 << i for i in range(CHECK_BITS)]


class SecdedError(Exception):
    """Raised when an uncorrectable (double-bit) error is detected."""


def _parity(value: int) -> int:
    return bin(value).count("1") & 1


def _data_bit_codeword(position: int) -> int:
    """Codeword of the data word whose only set bit sits at *position*."""
    codeword = 1 << position
    for check in _CHECK_POSITIONS:
        if position & check:
            codeword |= 1 << check
    # Overall parity over positions 1..71 stored at position 0.
    return codeword | _parity(codeword >> 1)


_DATA_INDEX = {position: index for index, position in enumerate(_DATA_POSITIONS)}


def _data_bit(position: int) -> int:
    """The data-word bit stored at codeword *position* (0 for check bits)."""
    return 1 << _DATA_INDEX[position] if position in _DATA_INDEX else 0


def _byte_table(part: Dict[int, int]) -> Tuple[int, ...]:
    """XOR of ``part[bit]`` over the set bits of each byte value 0..255."""
    row = [0] * 256
    for value in range(1, 256):
        low = value & -value
        row[value] = row[value ^ low] ^ part[low]
    return tuple(row)


#: Per data byte: the codeword of each of its values.
_ENCODE_TABLES = tuple(
    _byte_table({1 << j: _data_bit_codeword(_DATA_POSITIONS[8 * k + j]) for j in range(8)})
    for k in range(DATA_BITS // 8)
)
#: Per codeword byte: ``(data bits << 7) | syndrome`` of each of its values.
_DECODE_TABLES = tuple(
    _byte_table({1 << j: (_data_bit(8 * k + j) << CHECK_BITS) | (8 * k + j) for j in range(8)})
    for k in range(CODEWORD_BITS // 8)
)
#: The data bit a single-bit error at position ``syndrome`` flipped.
_SYNDROME_FLIPS = tuple(_data_bit(syndrome) for syndrome in range(1 << CHECK_BITS))


def secded_encode(word: int) -> int:
    """Encode a 64-bit data word into a 72-bit SECDED codeword."""
    # Only the low 8 bytes are looked up, so the word is masked to 64 bits.
    e0, e1, e2, e3, e4, e5, e6, e7 = _ENCODE_TABLES
    return (
        e0[word & 0xFF] ^ e1[(word >> 8) & 0xFF] ^ e2[(word >> 16) & 0xFF]
        ^ e3[(word >> 24) & 0xFF] ^ e4[(word >> 32) & 0xFF] ^ e5[(word >> 40) & 0xFF]
        ^ e6[(word >> 48) & 0xFF] ^ e7[(word >> 56) & 0xFF]
    )


def secded_decode(codeword: int) -> Tuple[int, bool]:
    """Decode a 72-bit codeword.

    Returns ``(data_word, corrected)`` where *corrected* is True when a
    single-bit error was found and repaired.

    Raises
    ------
    SecdedError
        When a double-bit error is detected.
    """
    d0, d1, d2, d3, d4, d5, d6, d7, d8 = _DECODE_TABLES
    bits = (
        d0[codeword & 0xFF] ^ d1[(codeword >> 8) & 0xFF] ^ d2[(codeword >> 16) & 0xFF]
        ^ d3[(codeword >> 24) & 0xFF] ^ d4[(codeword >> 32) & 0xFF]
        ^ d5[(codeword >> 40) & 0xFF] ^ d6[(codeword >> 48) & 0xFF]
        ^ d7[(codeword >> 56) & 0xFF] ^ d8[(codeword >> 64) & 0xFF]
    )
    syndrome, data = bits & 0x7F, bits >> 7
    # Overall parity of the whole int, bits above 71 included.
    if bin(codeword).count("1") & 1:
        # Single-bit error at position `syndrome`, or at the parity bit
        # itself when the syndrome is 0: correct it.
        return data ^ _SYNDROME_FLIPS[syndrome], True
    if syndrome:
        # Non-zero syndrome but even overall parity: two bits flipped.
        raise SecdedError(f"uncorrectable double-bit error (syndrome {syndrome:#x})")
    return data, False


def inject_error(codeword: int, bit_positions) -> int:
    """Flip the given bit positions of a codeword (fault-injection helper)."""
    for position in bit_positions:
        if not 0 <= position < CODEWORD_BITS:
            raise ValueError(f"bit position {position} outside the {CODEWORD_BITS}-bit codeword")
        codeword ^= 1 << position
    return codeword
