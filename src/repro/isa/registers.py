"""Register name spaces of the MAP cluster.

Each H-Thread context (one per V-Thread slot per cluster) holds:

* 16 general-purpose 64-bit integer registers   ``i0 .. i15``
* 16 general-purpose 64-bit floating registers  ``f0 .. f15``
* 4  local single-bit condition-code registers  ``cc0 .. cc3``
* its cluster's copy of 8 global condition-code registers ``gcc0 .. gcc7``
  (four *pairs*; cluster ``k`` may broadcast only to the pair
  ``gcc(2k)``/``gcc(2k+1)`` but may read and empty any local copy -- see
  Section 3.1 of the paper)
* 8 message-composition registers ``m0 .. m7`` used as the body of a
  ``SEND``

Every register has an associated *scoreboard* bit ("full"/"empty") used for
synchronisation; the scoreboard itself lives in
:mod:`repro.cluster.regfile`.

In addition a handful of *special*, queue- or identity-mapped registers are
architecturally visible:

* ``net``  -- head of the hardware message queue of the cluster's priority
  (readable only by the event V-Thread on clusters 2 and 3); reading it
  dequeues one word and stalls while the queue is empty.
* ``evq``  -- head of the hardware event queue of the cluster's event class
  (readable only by the event V-Thread on clusters 0 and 1).
* ``nid``, ``cid``, ``vid`` -- read-only identity registers holding the node
  identifier, cluster index and V-Thread slot of the reading H-Thread.
* ``zero`` -- always reads as integer 0.

A destination may also name a register of *another* H-Thread in the same
V-Thread, written ``c<k>.<reg>`` (e.g. ``c1.i7``); such writes travel over
the C-Switch and set the destination's scoreboard bit full on arrival.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Optional

#: Register-file sizes of one H-Thread context: the assembler refuses any
#: other index and :class:`~repro.cluster.regfile.RegisterSet` sizes its
#: files from them.
NUM_INT_REGS = 16
NUM_FP_REGS = 16
NUM_CC_REGS = 4
NUM_GCC_REGS = 8
NUM_MC_REGS = 8

#: Number of clusters on a MAP chip (fixed by the architecture): the bound
#: of ``c<k>.<reg>`` references, and the cluster count of every node.
NUM_CLUSTERS = 4


class RegFile(enum.Enum):
    """The architectural register file a register reference names."""

    INT = "i"
    FP = "f"
    CC = "cc"
    GCC = "gcc"
    MC = "m"
    SPECIAL = "special"

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"RegFile.{self.name}"


#: Names of the special registers and whether they may be written.
SPECIAL_REGISTERS = {
    "net": {"writable": False, "queue": True},
    "evq": {"writable": False, "queue": True},
    "nid": {"writable": False, "queue": False},
    "cid": {"writable": False, "queue": False},
    "vid": {"writable": False, "queue": False},
    "zero": {"writable": False, "queue": False},
}

#: Registers per file.
FILE_SIZES = {
    RegFile.INT: NUM_INT_REGS,
    RegFile.FP: NUM_FP_REGS,
    RegFile.CC: NUM_CC_REGS,
    RegFile.GCC: NUM_GCC_REGS,
    RegFile.MC: NUM_MC_REGS,
}

_REGISTER_RE = re.compile(
    r"^(?:c(?P<cluster>\d)\.)?"
    r"(?P<body>(?P<prefix>gcc|cc|i|f|m)(?P<index>\d+)|net|evq|nid|cid|vid|zero)$"
)

_PREFIX_TO_FILE = {
    "i": RegFile.INT,
    "f": RegFile.FP,
    "cc": RegFile.CC,
    "gcc": RegFile.GCC,
    "m": RegFile.MC,
}


@dataclass(frozen=True)
class RegisterRef:
    """A reference to an architectural register.

    Parameters
    ----------
    file:
        Which register file the reference names.
    index:
        Register index within the file.  For :attr:`RegFile.SPECIAL` the
        index is unused and ``name`` identifies the register.
    cluster:
        ``None`` for the issuing H-Thread's own cluster, otherwise the index
        of the target cluster in the same V-Thread (inter-cluster register
        write over the C-Switch).
    name:
        Only used for special registers (``net``, ``evq``, ...).
    """

    file: RegFile
    index: int = 0
    cluster: Optional[int] = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.file is RegFile.SPECIAL:
            if self.name not in SPECIAL_REGISTERS:
                raise ValueError(f"unknown special register {self.name!r}")
        else:
            size = FILE_SIZES[self.file]
            if not 0 <= self.index < size:
                raise ValueError(
                    f"register index {self.index} out of range for "
                    f"{self.file.name} file (size {size})"
                )
        if self.cluster is not None and not 0 <= self.cluster < NUM_CLUSTERS:
            raise ValueError(f"cluster index {self.cluster} out of range")

    # -- classification helpers -------------------------------------------------

    @property
    def is_remote(self) -> bool:
        """True when the reference targets a register on another cluster."""
        return self.cluster is not None

    @property
    def is_special(self) -> bool:
        return self.file is RegFile.SPECIAL

    @property
    def is_queue(self) -> bool:
        """True for queue-mapped special registers (``net``, ``evq``)."""
        return self.is_special and SPECIAL_REGISTERS[self.name]["queue"]

    @property
    def is_identity(self) -> bool:
        """True for the read-only identity registers (``nid``/``cid``/``vid``/``zero``)."""
        return self.is_special and not SPECIAL_REGISTERS[self.name]["queue"]

    # -- formatting -------------------------------------------------------------

    def __str__(self) -> str:
        if self.file is RegFile.SPECIAL:
            body = self.name
        else:
            body = f"{self.file.value}{self.index}"
        if self.cluster is not None:
            return f"c{self.cluster}.{body}"
        return body

    def local(self) -> "RegisterRef":
        """Return the same register reference without the cluster qualifier."""
        if self.cluster is None:
            return self
        return RegisterRef(self.file, self.index, None, self.name)


def parse_register(text: str) -> RegisterRef:
    """Parse a textual register reference.

    Accepts the plain forms (``i3``, ``f0``, ``cc1``, ``gcc5``, ``m2``,
    ``net``, ``evq``, ``nid``, ``cid``, ``vid``, ``zero``) and the
    cluster-qualified form ``c<k>.<reg>`` used for inter-cluster register
    writes.

    Raises
    ------
    ValueError
        If the text does not name a register.
    """
    match = _REGISTER_RE.match(text.strip())
    if match is None:
        raise ValueError(f"not a register: {text!r}")
    cluster = match.group("cluster")
    cluster_idx = int(cluster) if cluster is not None else None
    body = match.group("body")
    if body in SPECIAL_REGISTERS:
        if cluster_idx is not None:
            raise ValueError(f"special register {body!r} cannot be cluster-qualified")
        return RegisterRef(RegFile.SPECIAL, 0, None, body)
    prefix = match.group("prefix")
    index = int(match.group("index"))
    return RegisterRef(_PREFIX_TO_FILE[prefix], index, cluster_idx)


def is_register(text: str) -> bool:
    """Return True when *text* parses as a register reference."""
    return _REGISTER_RE.match(text.strip()) is not None


# ---------------------------------------------------------------------------
# Register-spec packing.
#
# The runtime's event records and the privileged ``xregwr`` operation refer to
# an arbitrary thread register with a packed integer "regspec" so that event
# and message handlers (which only manipulate 64-bit integers) can carry a
# register destination around.  The packing is part of the architectural
# contract between hardware (which emits regspecs in event records) and the
# software runtime (which passes them to ``xregwr``).
# ---------------------------------------------------------------------------

_FILE_CODES = {
    RegFile.INT: 0,
    RegFile.FP: 1,
    RegFile.CC: 2,
    RegFile.GCC: 3,
    RegFile.MC: 4,
}
_CODE_FILES = {code: file for file, code in _FILE_CODES.items()}

REGSPEC_BITS = 16


def pack_regspec(vthread: int, cluster: int, ref: RegisterRef) -> int:
    """Pack a (V-Thread slot, cluster, register) triple into a 16-bit regspec.

    Layout (least-significant bit first)::

        [4:0]   register index
        [7:5]   register-file code (int/fp/cc/gcc/mc)
        [10:8]  cluster index
        [14:11] V-Thread slot
    """
    if ref.is_special:
        raise ValueError("special registers cannot be packed into a regspec")
    if not 0 <= vthread < 16:
        raise ValueError(f"V-Thread slot {vthread} out of range")
    if not 0 <= cluster < 8:
        raise ValueError(f"cluster {cluster} out of range")
    return (
        (ref.index & 0x1F)
        | (_FILE_CODES[ref.file] << 5)
        | ((cluster & 0x7) << 8)
        | ((vthread & 0xF) << 11)
    )


def unpack_regspec(spec: int):
    """Unpack a regspec into ``(vthread, cluster, RegisterRef)``."""
    index = spec & 0x1F
    file_code = (spec >> 5) & 0x7
    cluster = (spec >> 8) & 0x7
    vthread = (spec >> 11) & 0xF
    if file_code not in _CODE_FILES:
        raise ValueError(f"invalid register-file code in regspec {spec:#x}")
    ref = RegisterRef(_CODE_FILES[file_code], index)
    return vthread, cluster, ref
