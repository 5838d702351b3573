"""Node-local synchronous DRAM model.

Each M-Machine node contains 1 MW (8 MBytes) of synchronous DRAM.  The MAP's
external memory interface "exploits the pipeline and page mode of the
external memory and performs SECDED error control" (Section 2).

This model provides:

* word-granular backing storage (sparse -- only touched words are stored),
* per-word metadata: the synchronisation bit and the pointer tag,
* a page-mode timing model: accesses to the currently open row cost only the
  CAS latency, accesses to another row pay precharge+activate first,
* SECDED encoding of stored integer words, with a fault injection hook for
  testing the correction/detection paths.

Physical addresses are word addresses in ``[0, SDRAM_SIZE_WORDS)``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.core.component import StatefulComponent
from repro.core.values import AS_IS, pairs, state_fields
from repro.memory.secded import SecdedError, inject_error, secded_decode, secded_encode

#: Words of SDRAM per node: 1 MW (8 MB).
SDRAM_SIZE_WORDS = 1 << 20
#: Cycles to precharge the open row and activate a new one.
ROW_ACTIVATE_CYCLES = 5
#: Column access latency once the row is open.
CAS_CYCLES = 2
#: Cycles per additional word of a burst transfer.
CYCLES_PER_WORD = 1
#: Words per DRAM row (page-mode reach).
ROW_SIZE_WORDS = 1024


class Sdram(StatefulComponent):
    """Backing DRAM of one node."""

    # Sparse contents: SECDED codewords are stored verbatim, tagged words
    # (floats, guarded pointers) through the value codec.
    _STATE = state_fields(
        ("_words", pairs()), ("_sync_bits", pairs(AS_IS)), ("_pointer_tags", pairs(AS_IS)),
        "_open_row", "reads", "writes", "row_hits", "row_misses", "corrected_errors",
        "detected_errors")

    def __init__(self, name: str = "sdram"):
        self.name = name
        # Sparse storage: address -> stored value.  The stored value of an
        # integer word (bools included) is its 72-bit SECDED codeword;
        # floats and guarded pointers are stored as-is (they model tagged
        # words that a real implementation would serialise).
        self._words: Dict[int, object] = {}
        self._sync_bits: Dict[int, int] = {}
        self._pointer_tags: Dict[int, bool] = {}
        # Page-mode state.
        self._open_row: Optional[int] = None
        # Statistics.
        self.reads = 0
        self.writes = 0
        self.row_hits = 0
        self.row_misses = 0
        self.corrected_errors = 0
        self.detected_errors = 0

    # -- address helpers ---------------------------------------------------------

    def _check_address(self, address: int) -> None:
        if not 0 <= address < SDRAM_SIZE_WORDS:
            raise IndexError(
                f"{self.name}: physical word address {address:#x} outside "
                f"[0, {SDRAM_SIZE_WORDS:#x})"
            )

    # -- timing ------------------------------------------------------------------

    def access_latency(self, address: int, num_words: int = 1) -> int:
        """Latency in cycles of a burst access starting at *address*.

        Also updates the open-row state, so successive calls model the page
        mode of the controller.
        """
        self._check_address(address)
        row = address // ROW_SIZE_WORDS
        if row == self._open_row:
            self.row_hits += 1
            latency = CAS_CYCLES
        else:
            self.row_misses += 1
            latency = ROW_ACTIVATE_CYCLES + CAS_CYCLES
            self._open_row = row
        latency += CYCLES_PER_WORD * max(num_words - 1, 0)
        return latency

    # -- data --------------------------------------------------------------------

    def write_word(self, address: int, value, sync_bit: Optional[int] = None) -> None:
        self._check_address(address)
        self.writes += 1
        if isinstance(value, int):
            self._words[address] = secded_encode(value)
            self._pointer_tags[address] = False
        else:
            self._words[address] = value
            self._pointer_tags[address] = not isinstance(value, (int, float))
        if sync_bit is not None:
            self._sync_bits[address] = int(bool(sync_bit))

    def read_word(self, address: int):
        self._check_address(address)
        self.reads += 1
        # An unwritten word reads 0: 0's codeword is 0.
        stored = self._words.get(address, 0)
        if isinstance(stored, int):
            try:
                value, corrected = secded_decode(stored)
            except SecdedError:
                # Double-bit (uncorrectable) error: account it before
                # propagating so callers can report detected-vs-corrected.
                self.detected_errors += 1
                raise
            if corrected:
                self.corrected_errors += 1
                # Scrub: rewrite the corrected word.
                self._words[address] = secded_encode(value)
            return value
        return stored

    def read_block(self, address: int, num_words: int) -> List:
        return [self.read_word(address + i) for i in range(num_words)]

    def write_block(self, address: int, values: Iterable) -> None:
        for offset, value in enumerate(values):
            self.write_word(address + offset, value)

    # -- metadata ----------------------------------------------------------------

    def sync_bit(self, address: int) -> int:
        self._check_address(address)
        return self._sync_bits.get(address, 0)

    def set_sync_bit(self, address: int, value: int) -> None:
        self._check_address(address)
        self._sync_bits[address] = int(bool(value))

    # -- fault injection ---------------------------------------------------------

    def inject_bit_error(self, address: int, bit_positions: Iterable[int]) -> None:
        """Flip bits of the stored codeword at *address*.

        Every position must lie inside the codeword, in
        ``[0, CODEWORD_BITS)``; otherwise ``ValueError`` is raised and the
        stored word is left as it was.
        """
        self._check_address(address)
        stored = self._words.get(address, 0)
        if not isinstance(stored, int):
            raise RuntimeError("cannot inject bit errors into tagged (non-integer) words")
        self._words[address] = inject_error(stored, bit_positions)

    # -- snapshot (repro.snapshot state_dict contract) ---------------------------

    def load_state_dict(self, state: dict) -> None:
        # Snapshots written before the counter existed (0.8.0) load with it at 0.
        super().load_state_dict({"detected_errors": 0, **state})

    # -- introspection -----------------------------------------------------------

    @property
    def words_in_use(self) -> int:
        return len(self._words)

    def __repr__(self) -> str:
        return f"Sdram({self.name!r}, {SDRAM_SIZE_WORDS} words, {self.words_in_use} in use)"
