"""Register files with scoreboard bits.

Each H-Thread context holds its own integer, floating-point, local
condition-code, message-composition and (per-cluster copy of the) global
condition-code registers.  Every register carries a *scoreboard* bit:

"A scoreboard bit associated with the destination register is cleared
(empty) when a multicycle operation, such as a load, issues and set (full)
when the result is available.  An operation that uses the result will not be
selected for issue until the corresponding scoreboard bit is set."
(Section 3.1.)

Inter-cluster transfers additionally use the explicit ``empty`` operation to
clear destination registers before the producing H-Thread writes them over
the C-Switch.

Besides the full/empty scoreboard, the model tracks a *pending-write* count
per register: the number of in-flight operations of the owning H-Thread that
will write the register.  The issue stage uses it to preserve
write-after-write ordering for a thread's own out-of-order completions; it is
not visible to software.

Storage is struct-of-arrays: all five register files live in single flat
``values``/``full``/``pending`` lists with per-file base offsets.  The issue
stage's compiled plans (:mod:`repro.cluster.dispatch`) resolve a
:class:`~repro.isa.registers.RegisterRef` to its flat offset once at
compile time and then index the flat lists directly on every cycle; the
reference-taking methods below remain the API for everything off the hot
path.  The snapshot ``state_dict`` keeps the original nested-by-file
serialisation, so snapshots are unchanged by the flat layout.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.values import decode_value, encode_value
from repro.isa.registers import FILE_SIZES, RegFile, RegisterRef, parse_register

#: Fixed file layout order of the flat arrays (also the serialisation order).
FILE_ORDER = (RegFile.INT, RegFile.FP, RegFile.CC, RegFile.GCC, RegFile.MC)

#: Each file's first offset in the flat arrays, and their length.
_BASE = {file: sum(FILE_SIZES[before] for before in FILE_ORDER[:position])
         for position, file in enumerate(FILE_ORDER)}
_TOTAL = sum(FILE_SIZES.values())


class RegisterSet:
    """The registers of one H-Thread context (one V-Thread slot on one cluster).

    Every register set has the same layout, so a
    :class:`~repro.isa.registers.RegisterRef` resolves to the same flat
    offset in all of them.
    """

    def __init__(self):
        self._values = [0] * _TOTAL
        fp_base = _BASE[RegFile.FP]
        for index in range(FILE_SIZES[RegFile.FP]):
            self._values[fp_base + index] = 0.0
        self._full = [True] * _TOTAL
        self._pending = [0] * _TOTAL
        # Statistics
        self.reads = 0
        self.writes = 0

    # -- checks ------------------------------------------------------------------

    def _check(self, ref: RegisterRef) -> int:
        """Resolve *ref* to its flat offset.  A :class:`RegisterRef` is
        always within its file, so only special registers are refused."""
        if ref.is_special:
            raise ValueError(f"special register {ref} is not stored in the register file")
        return _BASE[ref.file] + ref.index

    def flat_offset(self, ref: RegisterRef) -> Optional[int]:
        """Flat offset of *ref*, or None when *ref* names no register of this
        set (a special or remote register).  The dispatch compiler resolves
        operands with it; a None for a special destination compiles to a
        ``SimulationError`` that names the instruction.  Writebacks restored
        from a snapshot are re-resolved with it too."""
        if ref.file is RegFile.SPECIAL or ref.cluster is not None:
            return None
        return _BASE[ref.file] + ref.index

    # -- values ------------------------------------------------------------------

    def write(self, ref: RegisterRef, value) -> None:
        offset = self._check(ref)
        self.writes += 1
        self._values[offset] = value
        self._full[offset] = True

    def peek(self, ref: RegisterRef):
        """Read without statistics (debug/test helper)."""
        return self._values[self._check(ref)]

    # -- scoreboard --------------------------------------------------------------

    def is_full(self, ref: RegisterRef) -> bool:
        return self._full[self._check(ref)]

    # -- pending writes ----------------------------------------------------------

    def clear_pending(self, ref: RegisterRef) -> None:
        offset = self._check(ref)
        if self._pending[offset] > 0:
            self._pending[offset] -= 1
    # -- bulk helpers ------------------------------------------------------------

    def set_initial(self, assignments: Dict[str, object]) -> None:
        """Initialise registers from a ``{"i0": 5, "f1": 2.5}`` mapping
        (loader/test helper); marks them full."""
        for name, value in assignments.items():
            self.write(parse_register(name), value)

    # -- snapshot (repro.snapshot state_dict contract) ----------------------------

    def _file_slice(self, flat, file: RegFile):
        base = _BASE[file]
        return flat[base:base + FILE_SIZES[file]]

    def state_dict(self) -> Dict[str, object]:
        return {
            "values": {file.name: [encode_value(v)
                                   for v in self._file_slice(self._values, file)]
                       for file in FILE_ORDER},
            "full": {file.name: self._file_slice(self._full, file)
                     for file in FILE_ORDER},
            "pending": {file.name: self._file_slice(self._pending, file)
                        for file in FILE_ORDER},
            "reads": self.reads,
            "writes": self.writes,
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        def load_file(flat, file_name, items, convert):
            file = RegFile[file_name]
            base = _BASE[file]
            size = FILE_SIZES[file]
            if len(items) != size:
                raise ValueError(
                    f"snapshot has {len(items)} {file.name} registers, "
                    f"register file holds {size}"
                )
            flat[base:base + size] = [convert(item) for item in items]

        for file_name, values in state["values"].items():
            load_file(self._values, file_name, values, decode_value)
        for file_name, bits in state["full"].items():
            load_file(self._full, file_name, bits, bool)
        for file_name, counts in state["pending"].items():
            load_file(self._pending, file_name, counts, int)
        self.reads = state["reads"]
        self.writes = state["writes"]
