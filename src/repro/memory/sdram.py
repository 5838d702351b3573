"""Node-local synchronous DRAM model.

Each M-Machine node contains 1 MW (8 MBytes) of synchronous DRAM.  The MAP's
external memory interface "exploits the pipeline and page mode of the
external memory and performs SECDED error control" (Section 2).

This model provides:

* word-granular backing storage (sparse -- only touched words are stored),
* per-word metadata: the synchronisation bit and the pointer tag,
* a page-mode timing model: accesses to the currently open row cost only the
  CAS latency, accesses to another row pay precharge+activate first,
* optional SECDED encoding of stored words with fault injection hooks for
  testing the correction/detection paths.

Physical addresses are word addresses in ``[0, size_words)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.core.values import decode_value, encode_value
from repro.memory.secded import SecdedError, inject_error, secded_decode, secded_encode


@dataclass
class SdramTiming:
    """Timing parameters of the SDRAM and its controller (in MAP cycles)."""

    #: Cycles to precharge the open row and activate a new one.
    row_activate: int = 5
    #: Column access latency once the row is open.
    cas: int = 2
    #: Cycles per additional word of a burst transfer.
    cycles_per_word: int = 1
    #: Number of words per DRAM row (page-mode reach).
    row_size_words: int = 1024


class Sdram:
    """Backing DRAM of one node."""

    def __init__(
        self,
        size_words: int = 1 << 20,
        timing: Optional[SdramTiming] = None,
        name: str = "sdram",
    ):
        self.size_words = size_words
        self.timing = timing or SdramTiming()
        self.name = name
        # Sparse storage: address -> stored value.  The stored value of an
        # integer word is its 72-bit SECDED codeword; floats and guarded
        # pointers are stored as-is (they model tagged words that a real
        # implementation would serialise).
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
        if not 0 <= address < self.size_words:
            raise IndexError(
                f"{self.name}: physical word address {address:#x} outside "
                f"[0, {self.size_words:#x})"
            )

    def _row_of(self, address: int) -> int:
        return address // self.timing.row_size_words

    # -- timing ------------------------------------------------------------------

    def access_latency(self, address: int, num_words: int = 1) -> int:
        """Latency in cycles of a burst access starting at *address*.

        Also updates the open-row state, so successive calls model the page
        mode of the controller.
        """
        self._check_address(address)
        row = self._row_of(address)
        if row == self._open_row:
            self.row_hits += 1
            latency = self.timing.cas
        else:
            self.row_misses += 1
            latency = self.timing.row_activate + self.timing.cas
            self._open_row = row
        latency += self.timing.cycles_per_word * max(num_words - 1, 0)
        return latency

    # -- data --------------------------------------------------------------------

    def write_word(self, address: int, value, sync_bit: Optional[int] = None) -> None:
        self._check_address(address)
        self.writes += 1
        if isinstance(value, int) and not isinstance(value, bool):
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

    def state_dict(self) -> dict:

        return {
            # Sparse contents: SECDED codewords are stored verbatim, tagged
            # words (floats, guarded pointers) through the value codec.
            "words": [[address, encode_value(value)]
                      for address, value in self._words.items()],
            "sync_bits": [[address, bit] for address, bit in self._sync_bits.items()],
            "pointer_tags": [[address, tag] for address, tag in self._pointer_tags.items()],
            "open_row": self._open_row,
            "reads": self.reads,
            "writes": self.writes,
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
            "corrected_errors": self.corrected_errors,
            "detected_errors": self.detected_errors,
        }

    def load_state_dict(self, state: dict) -> None:

        self._words = {address: decode_value(value) for address, value in state["words"]}
        self._sync_bits = {address: bit for address, bit in state["sync_bits"]}
        self._pointer_tags = {address: tag for address, tag in state["pointer_tags"]}
        self._open_row = state["open_row"]
        self.reads = state["reads"]
        self.writes = state["writes"]
        self.row_hits = state["row_hits"]
        self.row_misses = state["row_misses"]
        self.corrected_errors = state["corrected_errors"]
        # .get(): snapshots written before the counter existed load fine.
        self.detected_errors = state.get("detected_errors", 0)

    # -- introspection -----------------------------------------------------------

    @property
    def words_in_use(self) -> int:
        return len(self._words)

    def __repr__(self) -> str:
        return f"Sdram({self.name!r}, {self.size_words} words, {self.words_in_use} in use)"
