"""The bidirectional 3-D mesh network.

Messages are routed in dimension order (X, then Y, then Z), one hop per
router.  The model is message-granular rather than flit-granular: a message
occupies each link of its path for ``length_words`` cycles (wormhole-like
pipelining is approximated by letting the head advance one hop per
``ROUTER_LATENCY + CHANNEL_LATENCY`` cycles while each traversed link stays
busy for the message length), which captures the two effects that matter for
the paper's evaluation -- the ~5-cycle neighbour delivery latency of
Section 4.2 and contention when many messages share a link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import NetworkConfig
from repro.core.component import StatefulComponent
from repro.core.values import Codec, decode_value, encode_value, state_fields
from repro.network.message import Message

Coords = Tuple[int, int, int]

#: Cycles from SEND issue to the head flit entering the router.
INJECT_LATENCY = 1
#: Per-hop router latency.
ROUTER_LATENCY = 1
#: Channel (link) traversal latency.
CHANNEL_LATENCY = 1
#: Cycles from router ejection to the message appearing in the queue.
EJECT_LATENCY = 1


def coords_to_id(coords: Coords, shape: Coords) -> int:
    """Linear node identifier of mesh coordinates (X fastest)."""
    x, y, z = coords
    sx, sy, sz = shape
    if not (0 <= x < sx and 0 <= y < sy and 0 <= z < sz):
        raise ValueError(f"coordinates {coords} outside mesh {shape}")
    return x + sx * (y + sy * z)


def id_to_coords(node_id: int, shape: Coords) -> Coords:
    sx, sy, sz = shape
    if not 0 <= node_id < sx * sy * sz:
        raise ValueError(f"node id {node_id} outside mesh {shape}")
    x = node_id % sx
    y = (node_id // sx) % sy
    z = node_id // (sx * sy)
    return (x, y, z)


@dataclass
class _InFlight:
    message: Message
    deliver_cycle: int


class MeshNetwork(StatefulComponent):
    """The 3-D mesh connecting the MAP routers."""

    _STATE = state_fields(
        # Each in-flight message as a ``[message, deliver_cycle]`` pair.
        ("_in_flight", Codec(lambda flights: [[encode_value(flight.message), flight.deliver_cycle]
                                              for flight in flights],
                             lambda flights: [_InFlight(decode_value(message), deliver_cycle)
                                              for message, deliver_cycle in flights])),
        ("_link_free", Codec(lambda links: [[list(link), free] for link, free in links.items()],
                             lambda links: {tuple(link): free for link, free in links})),
        "messages_injected", "messages_delivered", "total_latency", "total_hops",
        "link_contention_cycles")

    def __init__(self, config: Optional[NetworkConfig] = None):
        self.config = config or NetworkConfig()
        self.shape: Coords = tuple(self.config.mesh_shape)
        self._in_flight: List[_InFlight] = []
        #: Link occupancy: (from_id, to_id) -> first cycle the link is free.
        self._link_free: Dict[Tuple[int, int], int] = {}
        #: Delivery callbacks per node, installed by the machine.
        self._delivery: Dict[int, Callable[[Message, int], None]] = {}
        #: Optional :class:`~repro.core.component.MeshObserver` (the event
        #: kernel), told about every delivery so it can wake the target node.
        self._observer = None
        # Statistics
        self.messages_injected = 0
        self.messages_delivered = 0
        self.total_latency = 0
        self.total_hops = 0
        self.link_contention_cycles = 0

    # -- wiring ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        sx, sy, sz = self.shape
        return sx * sy * sz

    def attach(self, node_id: int, deliver: Callable[[Message, int], None]) -> None:
        """Register the delivery callback of a node's network input interface."""
        self._delivery[node_id] = deliver

    def attach_observer(self, observer) -> None:
        """Register a :class:`~repro.core.component.MeshObserver` notified of
        every message delivery (data, ACK and NACK alike)."""
        self._observer = observer

    # -- routing -----------------------------------------------------------------

    def route(self, source: int, dest: int) -> List[Tuple[int, int]]:
        """Dimension-order route as a list of (from_id, to_id) hops."""
        path: List[Tuple[int, int]] = []
        current = list(id_to_coords(source, self.shape))
        target = id_to_coords(dest, self.shape)
        for dim in range(3):
            while current[dim] != target[dim]:
                step = 1 if target[dim] > current[dim] else -1
                next_coords = list(current)
                next_coords[dim] += step
                path.append(
                    (coords_to_id(tuple(current), self.shape),
                     coords_to_id(tuple(next_coords), self.shape))
                )
                current = next_coords
        return path

    # -- injection / delivery ------------------------------------------------------

    def inject(self, message: Message, cycle: int) -> int:
        """Inject a message; returns the cycle at which it will be delivered
        to the destination node's input interface."""
        self.messages_injected += 1
        time = cycle + INJECT_LATENCY
        path = self.route(message.source_node, message.dest_node)
        for link in path:
            free_at = self._link_free.get(link, 0)
            depart = max(time, free_at)
            self.link_contention_cycles += max(0, free_at - time)
            # The link stays busy while the message body streams through it.
            self._link_free[link] = depart + max(message.length_words, 1)
            time = depart + ROUTER_LATENCY + CHANNEL_LATENCY
        deliver_cycle = time + EJECT_LATENCY
        self._in_flight.append(_InFlight(message=message, deliver_cycle=deliver_cycle))
        self.total_hops += len(path)
        return deliver_cycle

    def tick(self, cycle: int) -> None:
        """Deliver every message whose arrival cycle has come."""
        if not self._in_flight:
            return
        remaining: List[_InFlight] = []
        for flight in self._in_flight:
            if flight.deliver_cycle <= cycle:
                deliver = self._delivery.get(flight.message.dest_node)
                if deliver is None:
                    raise KeyError(
                        f"no node attached at id {flight.message.dest_node} for {flight.message}"
                    )
                self.messages_delivered += 1
                self.total_latency += flight.deliver_cycle - flight.message.send_cycle
                deliver(flight.message, cycle)
                if self._observer is not None:
                    self._observer.message_delivered(flight.message.dest_node, cycle)
            else:
                remaining.append(flight)
        self._in_flight = remaining

    # -- introspection -----------------------------------------------------------

    @property
    def in_flight(self) -> int:
        return len(self._in_flight)

    @property
    def busy(self) -> bool:
        return bool(self._in_flight)

    def next_delivery_cycle(self) -> Optional[int]:
        """Earliest delivery cycle of an in-flight message, or None.  Used by
        the event kernel to jump the clock over spans where the only activity
        anywhere is messages streaming through the mesh."""
        if not self._in_flight:
            return None
        return min(flight.deliver_cycle for flight in self._in_flight)

    def __repr__(self) -> str:
        return f"MeshNetwork(shape={self.shape}, in_flight={self.in_flight})"
