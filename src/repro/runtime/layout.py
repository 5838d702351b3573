"""Runtime constants and address-space layout helpers.

The software runtime needs a small number of conventions shared between the
hardware model and the handler code:

* where the memory-resident LPT image lives (at the top of each node's SDRAM,
  computed by the node; exposed here for handler generation),
* the dispatch-instruction-pointer (DIP) name space, and
* the packing of the "return info" word carried by remote-load request
  messages: ``(source node id << RETURN_NODE_SHIFT) | regspec``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

#: Shift used to pack the requesting node id above the 16-bit regspec in the
#: return-info word of a remote-load request (Section 4.2 step 3).
RETURN_NODE_SHIFT = 20
RETURN_REGSPEC_MASK = 0xFFFF

#: DIPs used by the native (Section 4.3) coherence protocol.  They live in a
#: separate number space from the assembly handlers' DIPs (which are
#: instruction indices into the event-thread message handler programs).
DIP_BLOCK_READ_REQ = 0x100
DIP_BLOCK_WRITE_REQ = 0x101
DIP_BLOCK_DATA = 0x102
DIP_INVALIDATE = 0x103
DIP_INVAL_ACK = 0x104


@dataclass
class RuntimeEnvironment:
    """What the rest of the system reads of the installed runtime: the DIP
    table of the assembly handlers and the coherence runtime."""

    dips: Dict[str, int] = field(default_factory=dict)
    #: The coherence runtime object in ``coherent`` mode (None otherwise).
    coherence: Optional[object] = None

    def dip(self, name: str) -> int:
        try:
            return self.dips[name]
        except KeyError:
            raise KeyError(f"no DIP named {name!r} in the installed runtime") from None
