"""M-Machine nodes.

Each node consists of a multi-ALU (MAP) chip and 1 MW (8 MB) of synchronous
DRAM (Section 2).  :class:`~repro.node.node.Node` assembles the four
execution clusters, the two on-chip switches, the memory system, the event
and message queues, the GTLB and the network interface into one simulated
node.

The paper draws a hardware boundary between the MAP chip (clusters,
switches, cache banks, memory interface, LTLB, GTLB, network interfaces and
router) and the off-chip SDRAM (Figure 2).  One ``Node`` models both sides
because nothing in the paper's evaluation depends on where the boundary
falls -- only on the latencies across it, which are configured in
:class:`repro.core.config.MemoryConfig`.
"""

from repro.node.node import Node

__all__ = ["Node"]
