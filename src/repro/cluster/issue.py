"""Thread-selection policies of the synchronization stage.

"A synchronization pipeline stage holds the next instruction to be issued
from each of the six V-Threads until all of its operands are present and all
of the required resources are available.  At every cycle this stage decides
which instruction to issue from those which are ready to run." (Section 3.2.)

The paper does not fix the selection policy, so the simulator offers three:

``event-priority`` (default)
    The exception slot, then the event slot, then the user slots in
    round-robin order.  Giving the resident handler threads priority keeps
    event- and message-handling latency low and deterministic, which is what
    the fast-trap argument of Section 4.2 relies on.

``round-robin``
    Pure round-robin over all ready slots.

``hep``
    Barrel scheduling in the style of HEP/MASA (Section 3.4's comparison):
    the issue turn rotates over *all* six slots with the clock
    (``cycle % num_slots``), whether or not a slot holds a thread, so a
    single resident thread issues at most every sixth cycle, on its slot's
    turn.  The ablation uses it to show why zero-cost interleaving preserves
    single-thread performance while barrel scheduling does not: with one
    resident thread the ``issue-policy`` workload takes 408 cycles under
    ``event-priority`` and 2,423 (5.9x) under ``hep``.

Each policy's order over *all* slots depends only on one small integer, its
*scan key*: the round-robin pointer, or for the barrel the cycle residue.
Residency only filters that order (the rotation key ``(slot - pointer) %
num_slots`` does not depend on which other slots are resident), so a
policy precomputes one order per key value in :attr:`IssuePolicy.orders`
and the issue stage filters it by its runnable slots.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.component import StatefulComponent
from repro.core.config import ClusterConfig, EVENT_SLOT, EXCEPTION_SLOT
from repro.core.values import state_fields


class IssuePolicy(StatefulComponent):
    """Base class: decides the order in which ready slots are considered."""

    name = "base"
    _STATE = state_fields("_rr_pointer")

    def __init__(self, num_slots: int):
        self.num_slots = num_slots
        self._rr_pointer = 0
        #: Scan order over every slot, indexed by :meth:`scan_key`.
        self.orders = tuple(tuple(self._order(key)) for key in range(num_slots))

    def _order(self, key: int) -> List[int]:
        """Every slot, in the order offered the issue slot under *key*."""
        raise NotImplementedError

    def _rotated(self, slots: Sequence[int], pointer: int) -> List[int]:
        return sorted(slots, key=lambda slot: (slot - pointer) % self.num_slots)

    def scan_key(self, cycle: int) -> int:
        """Index into :attr:`orders` of this cycle's scan order."""
        return self._rr_pointer

    def issued(self, slot: int) -> None:
        """Feedback that *slot* issued this cycle (used to advance pointers)."""
        self._rr_pointer = (slot + 1) % self.num_slots

    # -- snapshot (repro.snapshot state_dict contract) ---------------------------

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        # The pointer indexes the order table, so an out-of-range value
        # from a malformed snapshot is refused here, not at the next issue.
        pointer = self._rr_pointer
        if type(pointer) is not int or not 0 <= pointer < self.num_slots:
            raise ValueError(f"issue-policy pointer must be a slot number, got {pointer!r}")


class EventPriorityPolicy(IssuePolicy):
    """Exception slot, then event slot, then user slots round-robin."""

    name = "event-priority"

    def _order(self, key: int) -> List[int]:
        handlers = [EXCEPTION_SLOT, EVENT_SLOT]
        user = [slot for slot in range(self.num_slots) if slot not in handlers]
        return handlers + self._rotated(user, key)


class RoundRobinPolicy(IssuePolicy):
    """Pure round-robin over every resident slot."""

    name = "round-robin"

    def _order(self, key: int) -> List[int]:
        return self._rotated(range(self.num_slots), key)


class HepBarrelPolicy(IssuePolicy):
    """Strict barrel scheduling: the issue slot rotates over *all* thread
    contexts every cycle regardless of readiness or residency, modelling
    HEP/MASA-style round-robin issue (Section 3.4).  A single resident thread
    therefore issues at most once every ``num_slots`` cycles, which is exactly
    the single-thread degradation the paper contrasts with the MAP's
    zero-cost interleaving."""

    name = "hep"

    def _order(self, key: int) -> List[int]:
        return [key]

    def scan_key(self, cycle: int) -> int:
        return cycle % self.num_slots

    def issued(self, slot: int) -> None:  # the barrel rotates with the clock
        pass


def make_issue_policy(config: ClusterConfig, num_slots: int) -> IssuePolicy:
    policies = {
        "event-priority": EventPriorityPolicy,
        "round-robin": RoundRobinPolicy,
        "hep": HepBarrelPolicy,
    }
    try:
        policy_class = policies[config.issue_policy]
    except KeyError:
        raise ValueError(f"unknown issue policy {config.issue_policy!r}") from None
    return policy_class(num_slots)
