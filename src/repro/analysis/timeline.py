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
    requesting_node: int = 0,
    home_node: int = 1,
    address: Optional[int] = None,
    destination_register: str = "i5",
    since: int = 0,
) -> Timeline:
    """Rebuild the Figure 9 milestones of a single remote read or write.

    The trace must contain exactly one remote access of the given kind after
    *since* (the Table 1 harness guarantees this); *address* narrows the
    store-completion match when supplied.
    """
    if kind not in ("read", "write"):
        raise ValueError("kind must be 'read' or 'write'")
    is_store = kind == "write"
    timeline = Timeline(kind=f"remote {kind}")

    issue = _first(tracer, "mem_issue", requesting_node, since, store=is_store, slot=0)
    timeline.add(issue.cycle if issue else None, requesting_node,
                 "STORE issues" if is_store else "LOAD issues")
    start = issue.cycle if issue else since

    miss = _first(tracer, "cache_miss", requesting_node, start)
    timeline.add(miss.cycle if miss else None, requesting_node, "cache miss detected")

    ltlb = _first(tracer, "ltlb_miss", requesting_node, start)
    timeline.add(ltlb.cycle if ltlb else None, requesting_node, "LTLB miss")

    event = _first(tracer, "event_enqueue", requesting_node, start, type="LTLB_MISS")
    timeline.add(event.cycle if event else None, requesting_node,
                 "event record enqueued / start LTLB miss handler")

    request_inject = _first(tracer, "msg_inject", requesting_node, start, priority=0)
    timeline.add(request_inject.cycle if request_inject else None, requesting_node,
                 "handler sends %s message (LTLB miss handler completes)" % ("STORE" if is_store else "LOAD"))

    request_deliver = _first(tracer, "msg_deliver", home_node, start, priority=0)
    timeline.add(request_deliver.cycle if request_deliver else None, home_node,
                 "message received / message handler dispatches")

    home_access = _first(tracer, "mem_issue", home_node, start, store=is_store)
    timeline.add(home_access.cycle if home_access else None, home_node,
                 "execute %s" % ("store" if is_store else "load"))

    if is_store:
        complete_match = {"address": address} if address is not None else {}
        complete = _first(tracer, "store_complete", home_node, start, **complete_match)
        timeline.add(complete.cycle if complete else None, home_node,
                     "store complete (message handler completes)")
    else:
        reply_inject = _first(tracer, "msg_inject", home_node, start, priority=1)
        timeline.add(reply_inject.cycle if reply_inject else None, home_node,
                     "send reply message (message handler completes)")
        reply_deliver = _first(tracer, "msg_deliver", requesting_node, start, priority=1)
        timeline.add(reply_deliver.cycle if reply_deliver else None, requesting_node,
                     "reply message received")
        final = None
        for candidate in tracer.iter_filter("reg_write", node=requesting_node, since=start):
            if candidate.info.get("reg") == destination_register and \
                    candidate.info.get("origin") == "xregwr":
                final = candidate
                break
        timeline.add(final.cycle if final else None, requesting_node,
                     "return data to destination register")

    return timeline
