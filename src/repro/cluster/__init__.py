"""The MAP execution cluster.

"Each of the four map clusters is a 64-bit, three-issue, pipelined processor
consisting of two integer ALUs, a floating-point ALU, associated register
files, and a 1KW (8KB) instruction cache ...  One of the integer ALUs in each
cluster, termed the memory unit, serves as interface to the memory system."
(Section 2, Figure 3.)

Concurrency is managed by the *synchronization stage* (Section 3.2): the next
instruction of each of the six resident H-Threads is held until all of its
operands are present and all required resources are available; each cycle one
ready instruction is selected and issued, so V-Threads interleave with zero
switching cost while a single runnable thread can issue every cycle.
"""

from repro.cluster.regfile import RegisterSet
from repro.cluster.icache import InstructionCache
from repro.cluster.hthread import HThreadContext, ThreadState
from repro.cluster.functional_units import OperandError
from repro.cluster.issue import IssuePolicy, make_issue_policy
from repro.cluster.cluster import Cluster, RegWrite

__all__ = [
    "RegisterSet",
    "InstructionCache",
    "HThreadContext",
    "ThreadState",
    "OperandError",
    "IssuePolicy",
    "make_issue_policy",
    "Cluster",
    "RegWrite",
]
