"""The MAP's on-chip switches.

Two crossbar switches interconnect the clusters, the cache banks and the
external interfaces (Section 2):

* the 4x4 **M-Switch** carries memory requests from the clusters to the
  appropriate bank of the interleaved cache;
* the 10x4 **C-Switch** is used for inter-cluster communication (register
  writes, global condition-code broadcasts) and to return data from the
  memory system.

:class:`~repro.switches.crossbar.Crossbar` models the C-Switch.  The
M-Switch is modelled as a fixed crossing latency (``MSWITCH_LATENCY`` in
:mod:`repro.node.node`) in front of the cache banks, each of which accepts
one access per cycle.
"""

from repro.switches.crossbar import Crossbar, Transfer

__all__ = ["Crossbar", "Transfer"]
