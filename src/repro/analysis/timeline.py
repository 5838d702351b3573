"""Remote-access timelines (Figure 9).

Figure 9 of the paper shows, for one remote read and one remote write, the
cycle at which each hardware and software step occurs on the requesting node
(node 0) and on the home node (node 1).  :func:`extract_remote_access_timeline`
reconstructs the same milestones from the machine trace of a single remote
access performed by the Table 1 harness (or any equivalent experiment).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.trace import TraceEvent, Tracer

#: The node that issues the remote access, and the node that homes its page.
REQUESTING_NODE = 0
HOME_NODE = 1
#: The register a remote read's reply fills.
DESTINATION_REGISTER = "i5"


@dataclass
class TimelineEvent:
    cycle: int
    node: int
    label: str

    def __str__(self) -> str:
        return f"{self.cycle:6d}  node {self.node}  {self.label}"


@dataclass
class Timeline:
    """An ordered list of milestones, relative to the first one."""

    kind: str
    events: List[TimelineEvent] = field(default_factory=list)

    def add(self, cycle: Optional[int], node: int, label: str) -> None:
        if cycle is not None:
            self.events.append(TimelineEvent(cycle=cycle, node=node, label=label))

    def normalised(self) -> "Timeline":
        """Shift cycles so the first milestone is cycle 0 (Figure 9's x-axis)."""
        if not self.events:
            return self
        origin = min(event.cycle for event in self.events)
        shifted = Timeline(kind=self.kind)
        for event in sorted(self.events, key=lambda entry: entry.cycle):
            shifted.events.append(
                TimelineEvent(cycle=event.cycle - origin, node=event.node, label=event.label)
            )
        return shifted

    @property
    def total_cycles(self) -> int:
        if not self.events:
            return 0
        cycles = [event.cycle for event in self.events]
        return max(cycles) - min(cycles)

    def labels(self) -> List[str]:
        return [event.label for event in self.events]

    def to_records(self) -> List[list]:
        """JSON-ready ``[[cycle, node, label], ...]`` rows of the normalised
        timeline (the machine-readable form sweep records and the report
        renderer exchange)."""
        return [
            [event.cycle, event.node, event.label]
            for event in self.normalised().events
        ]

    def __str__(self) -> str:
        lines = [f"timeline: {self.kind} ({self.total_cycles} cycles)"]
        lines.extend(str(event) for event in self.normalised().events)
        return "\n".join(lines)


def _first(tracer: Tracer, category: str, node: int, since: int = 0, **match) -> Optional[TraceEvent]:
    # Streamed (iter_filter), so the extraction works out-of-core on a
    # disk-backed trace of an arbitrarily long run.
    for event in tracer.iter_filter(category=category, node=node, since=since):
        if all(event.info.get(key) == value for key, value in match.items()):
            return event
    return None


def extract_remote_access_timeline(
    tracer: Tracer,
    kind: str,
    address: Optional[int] = None,
) -> Timeline:
    """Rebuild the Figure 9 milestones of a single remote read or write from
    ``REQUESTING_NODE`` to ``HOME_NODE``.

    The trace must contain exactly one remote access of the given kind (the
    Table 1 harness guarantees this); *address* narrows the store-completion
    match when supplied.
    """
    if kind not in ("read", "write"):
        raise ValueError("kind must be 'read' or 'write'")
    is_store = kind == "write"
    timeline = Timeline(kind=f"remote {kind}")

    issue = _first(tracer, "mem_issue", REQUESTING_NODE, store=is_store, slot=0)
    timeline.add(issue.cycle if issue else None, REQUESTING_NODE,
                 "STORE issues" if is_store else "LOAD issues")
    start = issue.cycle if issue else 0

    miss = _first(tracer, "cache_miss", REQUESTING_NODE, start)
    timeline.add(miss.cycle if miss else None, REQUESTING_NODE, "cache miss detected")

    ltlb = _first(tracer, "ltlb_miss", REQUESTING_NODE, start)
    timeline.add(ltlb.cycle if ltlb else None, REQUESTING_NODE, "LTLB miss")

    event = _first(tracer, "event_enqueue", REQUESTING_NODE, start, type="LTLB_MISS")
    timeline.add(event.cycle if event else None, REQUESTING_NODE,
                 "event record enqueued / start LTLB miss handler")

    request_inject = _first(tracer, "msg_inject", REQUESTING_NODE, start, priority=0)
    timeline.add(request_inject.cycle if request_inject else None, REQUESTING_NODE,
                 "handler sends %s message (LTLB miss handler completes)" % ("STORE" if is_store else "LOAD"))

    request_deliver = _first(tracer, "msg_deliver", HOME_NODE, start, priority=0)
    timeline.add(request_deliver.cycle if request_deliver else None, HOME_NODE,
                 "message received / message handler dispatches")

    home_access = _first(tracer, "mem_issue", HOME_NODE, start, store=is_store)
    timeline.add(home_access.cycle if home_access else None, HOME_NODE,
                 "execute %s" % ("store" if is_store else "load"))

    if is_store:
        complete_match = {"address": address} if address is not None else {}
        complete = _first(tracer, "store_complete", HOME_NODE, start, **complete_match)
        timeline.add(complete.cycle if complete else None, HOME_NODE,
                     "store complete (message handler completes)")
    else:
        reply_inject = _first(tracer, "msg_inject", HOME_NODE, start, priority=1)
        timeline.add(reply_inject.cycle if reply_inject else None, HOME_NODE,
                     "send reply message (message handler completes)")
        reply_deliver = _first(tracer, "msg_deliver", REQUESTING_NODE, start, priority=1)
        timeline.add(reply_deliver.cycle if reply_deliver else None, REQUESTING_NODE,
                     "reply message received")
        final = None
        for candidate in tracer.iter_filter("reg_write", node=REQUESTING_NODE, since=start):
            if candidate.info.get("reg") == DESTINATION_REGISTER and \
                    candidate.info.get("origin") == "xregwr":
                final = candidate
                break
        timeline.add(final.cycle if final else None, REQUESTING_NODE,
                     "return data to destination register")

    return timeline
