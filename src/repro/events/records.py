"""Event records.

An event record precisely identifies a faulting operation and its operands so
that a software handler can complete the operation asynchronously, without
rolling back or stalling the thread that issued it (Section 3.3).

The record is exposed to software as a fixed sequence of four 64-bit words
read from the register-mapped ``evq`` register:

====  =========================================================================
word  contents
====  =========================================================================
0     event type code (:class:`EventType`)
1     faulting virtual address
2     data word (store data; 0 for loads)
3     info word -- see :data:`INFO_REGSPEC_MASK` and the ``INFO_*`` shifts
====  =========================================================================

The info word packs the destination regspec of a faulting load (so the
handler can deliver the result directly into the destination register with
the privileged ``xregwr`` operation), an *is-store* flag, the sync-bit
pre/postcondition of the faulting operation and the issuing V-Thread slot.
The layout is part of the hardware/runtime contract; the assembly handlers in
:mod:`repro.runtime.asm_handlers` decode it with shift/mask immediates taken
from the constants below.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional


class EventType(enum.IntEnum):
    """Asynchronous event classes (one hardware queue class per handler)."""

    #: A local translation lookaside buffer miss (handled on cluster 1).
    LTLB_MISS = 1
    #: A block-status fault: the block's status bits forbid the access
    #: (handled on cluster 0).
    BLOCK_STATUS = 2
    #: A memory-synchronizing fault: the word's sync bit did not satisfy the
    #: operation's precondition (handled on cluster 0).
    SYNC_FAULT = 3
    #: Arrival of a priority-0 message (delivered to the cluster-2 queue).
    MESSAGE_P0 = 4
    #: Arrival of a priority-1 message (delivered to the cluster-3 queue).
    MESSAGE_P1 = 5
    #: Synchronous exception: protection violation (exception V-Thread).
    PROTECTION = 6
    #: Synchronous exception: arithmetic fault (exception V-Thread).
    ARITHMETIC = 7
    #: Synchronous exception: illegal or privileged operation in user mode.
    PRIVILEGE = 8


#: Number of words in an asynchronous event record as read from ``evq``.
EVENT_RECORD_WORDS = 4

# Layout of the info word (word 3 of the record).
INFO_REGSPEC_MASK = 0xFFFF
INFO_IS_STORE_SHIFT = 16
INFO_SYNC_PRE_SHIFT = 17       # 2 bits: 0=x, 1=full, 2=empty
INFO_SYNC_POST_SHIFT = 19      # 2 bits: 0=x, 1=full, 2=empty
INFO_VTHREAD_SHIFT = 21        # 4 bits
INFO_CLUSTER_SHIFT = 25        # 3 bits
INFO_IS_FP_SHIFT = 28          # 1 bit: destination register is floating point

_SYNC_CODE = {"x": 0, "f": 1, "e": 2}


@dataclass
class EventRecord:
    """An asynchronous event record.

    The simulator keeps records as structured objects for convenience (traces
    and native handlers use them directly) but software only ever sees the
    packed word representation returned by :meth:`to_words`.
    """

    event_type: EventType
    address: int = 0
    data: int = 0
    regspec: int = 0
    is_store: bool = False
    sync_pre: str = "x"
    sync_post: str = "x"
    vthread: int = 0
    cluster: int = 0
    is_fp: bool = False
    #: Cycle at which the hardware enqueued the record (for traces/timelines).
    cycle: Optional[int] = None
    #: Free-form extra payload used by native handlers (never visible to
    #: assembly handlers).
    extra: dict = field(default_factory=dict)

    def info_word(self) -> int:
        return (
            (self.regspec & INFO_REGSPEC_MASK)
            | (int(self.is_store) << INFO_IS_STORE_SHIFT)
            | (_SYNC_CODE[self.sync_pre] << INFO_SYNC_PRE_SHIFT)
            | (_SYNC_CODE[self.sync_post] << INFO_SYNC_POST_SHIFT)
            | ((self.vthread & 0xF) << INFO_VTHREAD_SHIFT)
            | ((self.cluster & 0x7) << INFO_CLUSTER_SHIFT)
            | (int(self.is_fp) << INFO_IS_FP_SHIFT)
        )

    def to_words(self) -> List[int]:
        """Pack the record into the 4-word representation read via ``evq``."""
        return [int(self.event_type), self.address, self.data, self.info_word()]

    def __str__(self) -> str:
        kind = "store" if self.is_store else "load"
        return (
            f"EventRecord({self.event_type.name}, va={self.address:#x}, {kind}, "
            f"vt={self.vthread}, cl={self.cluster}, regspec={self.regspec:#x})"
        )
