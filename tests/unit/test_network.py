"""Unit tests for the communication subsystem: GTLB/GDT, messages, routing,
the mesh and the network interfaces (including return-to-sender throttling)."""

import pytest

from repro.core.config import NetworkConfig
from repro.events.queue import HardwareQueue
from repro.memory.guarded_pointer import ProtectionError
from repro.network.gtlb import GlobalDestinationTable, Gtlb, GtlbEntry
from repro.network.interface import NetworkInterface
from repro.network.mesh import (
    CHANNEL_LATENCY,
    EJECT_LATENCY,
    INJECT_LATENCY,
    ROUTER_LATENCY,
    MeshNetwork,
    coords_to_id,
    id_to_coords,
)
from repro.network.message import Message, MessageKind


class TestGtlbEntry:
    def _entry(self, **overrides):
        parameters = dict(base_page=16, page_group_length=8, start_node=(0, 0, 0),
                          extent=(1, 1, 0), pages_per_node=1, page_size_words=512)
        parameters.update(overrides)
        return GtlbEntry(**parameters)

    def test_region_shape(self):
        entry = self._entry(extent=(2, 1, 0))
        assert entry.region_shape == (4, 2, 1)
        assert entry.region_size == 8

    def test_covers(self):
        entry = self._entry()
        assert entry.covers(16 * 512)
        assert entry.covers(24 * 512 - 1)
        assert not entry.covers(24 * 512)
        assert not entry.covers(15 * 512)

    def test_cyclic_interleaving_one_page_per_node(self):
        entry = self._entry(extent=(1, 0, 0), pages_per_node=1, page_group_length=8)
        # 2-node region in X: pages alternate between (0,0,0) and (1,0,0).
        homes = [entry.node_coords_of((16 + page) * 512) for page in range(8)]
        assert homes == [(0, 0, 0), (1, 0, 0)] * 4

    def test_block_interleaving_multiple_pages_per_node(self):
        entry = self._entry(extent=(1, 0, 0), pages_per_node=4, page_group_length=8)
        homes = [entry.node_coords_of((16 + page) * 512) for page in range(8)]
        assert homes == [(0, 0, 0)] * 4 + [(1, 0, 0)] * 4

    def test_x_fastest_ordering(self):
        entry = self._entry(extent=(1, 1, 0), page_group_length=4)
        homes = [entry.node_coords_of((16 + page) * 512) for page in range(4)]
        assert homes == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]

    def test_start_node_offset(self):
        entry = self._entry(start_node=(2, 1, 0), extent=(0, 0, 0), page_group_length=1)
        assert entry.node_coords_of(16 * 512) == (2, 1, 0)

    def test_pages_on_node(self):
        entry = self._entry(extent=(1, 0, 0), pages_per_node=1, page_group_length=8)
        assert entry.pages_on_node((0, 0, 0)) == [16, 18, 20, 22]
        assert entry.pages_on_node((1, 0, 0)) == [17, 19, 21, 23]

    @pytest.mark.parametrize("pages_per_node", [1, 2, 4, 8])
    def test_64_page_group_spreads_evenly_over_2x2x2(self, pages_per_node):
        """Figure 8's interleavings, from cyclic to block: each of the eight
        nodes homes 8 pages, in runs of ``pages_per_node``."""
        entry = self._entry(base_page=0, page_group_length=64, extent=(1, 1, 1),
                            pages_per_node=pages_per_node)
        homes = [entry.node_coords_of(page * 512) for page in range(64)]
        assert sorted(homes.count(node) for node in set(homes)) == [8] * 8
        assert homes[0] == homes[pages_per_node - 1] != homes[pages_per_node]

    def test_pack_unpack_roundtrip(self):
        entry = self._entry(start_node=(3, 2, 1), extent=(2, 1, 0), pages_per_node=2)
        assert GtlbEntry.unpack(entry.pack(), page_size_words=512) == entry

    def test_geometry_is_computed_once_and_leaves_the_value_alone(self):
        entry = self._entry(start_node=(3, 2, 1), extent=(2, 1, 0), pages_per_node=2)
        fresh = self._entry(start_node=(3, 2, 1), extent=(2, 1, 0), pages_per_node=2)
        assert entry.node_coords_of(17 * 512) == (3, 2, 1)
        assert entry.region_shape is entry.region_shape
        assert (entry == fresh, hash(entry) == hash(fresh)) == (True, True)
        assert (repr(entry), entry.pack()) == (repr(fresh), fresh.pack())
        assert GtlbEntry.unpack(entry.pack(), page_size_words=512) == entry

    def test_non_power_of_two_length_rejected(self):
        with pytest.raises(ValueError):
            self._entry(page_group_length=6)

    def test_non_power_of_two_pages_per_node_rejected(self):
        with pytest.raises(ValueError):
            self._entry(pages_per_node=3)

    def test_uncovered_address_raises(self):
        with pytest.raises(ValueError):
            self._entry().node_coords_of(0)


class TestGdtAndGtlb:
    def test_gdt_lookup(self):
        gdt = GlobalDestinationTable()
        entry = GtlbEntry(base_page=0, page_group_length=4, start_node=(0, 0, 0),
                          extent=(0, 0, 0))
        gdt.add(entry)
        assert gdt.lookup(100) is entry
        assert gdt.lookup(4 * 512) is None

    def test_gdt_rejects_overlap(self):
        gdt = GlobalDestinationTable()
        gdt.add(GtlbEntry(base_page=0, page_group_length=4, start_node=(0, 0, 0),
                          extent=(0, 0, 0)))
        with pytest.raises(ValueError):
            gdt.add(GtlbEntry(base_page=2, page_group_length=4, start_node=(0, 0, 0),
                              extent=(0, 0, 0)))

    def test_gtlb_caches_and_counts(self):
        gdt = GlobalDestinationTable()
        gdt.add(GtlbEntry(base_page=0, page_group_length=4, start_node=(1, 0, 0),
                          extent=(0, 0, 0)))
        gtlb = Gtlb(gdt)
        assert gtlb.node_coords_of(100) == (1, 0, 0)
        assert gtlb.misses == 1 and gtlb.fills == 1
        assert gtlb.node_coords_of(200) == (1, 0, 0)
        assert gtlb.hits == 1

    def test_gtlb_unmapped_returns_none(self):
        gtlb = Gtlb(GlobalDestinationTable())
        assert gtlb.node_coords_of(123) is None


class TestRouting:
    def test_coords_roundtrip(self):
        shape = (4, 2, 2)
        for node in range(16):
            assert coords_to_id(id_to_coords(node, shape), shape) == node

    def test_out_of_range_coords(self):
        with pytest.raises(ValueError):
            coords_to_id((4, 0, 0), (4, 2, 2))
        with pytest.raises(ValueError):
            id_to_coords(16, (4, 2, 2))

    @staticmethod
    def _route_coords(shape, source, dest):
        mesh = MeshNetwork(NetworkConfig(mesh_shape=shape))
        return [
            (id_to_coords(a, shape), id_to_coords(b, shape))
            for a, b in mesh.route(coords_to_id(source, shape), coords_to_id(dest, shape))
        ]

    def test_next_hop_dimension_order(self):
        shape = (3, 2, 4)
        assert self._route_coords(shape, (0, 0, 0), (2, 1, 3)) == [
            ((0, 0, 0), (1, 0, 0)),
            ((1, 0, 0), (2, 0, 0)),
            ((2, 0, 0), (2, 1, 0)),
            ((2, 1, 0), (2, 1, 1)),
            ((2, 1, 1), (2, 1, 2)),
            ((2, 1, 2), (2, 1, 3)),
        ]
        assert self._route_coords(shape, (2, 1, 3), (2, 1, 3)) == []

    def test_path_length_is_manhattan_distance(self):
        shape = (3, 2, 4)
        path = self._route_coords(shape, (0, 0, 0), (2, 1, 3))
        assert len(path) == 2 + 1 + 3
        path = self._route_coords(shape, (2, 0, 3), (0, 1, 1))
        assert len(path) == 2 + 1 + 2


class TestMesh:
    def _mesh(self, shape=(2, 2, 1)):
        config = NetworkConfig(mesh_shape=shape)
        return MeshNetwork(config)

    def test_message_delivery_latency(self):
        mesh = self._mesh()
        received = []
        mesh.attach(1, lambda message, cycle: received.append((message, cycle)))
        message = Message(kind=MessageKind.DATA, source_node=0, dest_node=1, body=[1],
                          send_cycle=0)
        deliver = mesh.inject(message, cycle=0)
        assert deliver == INJECT_LATENCY + ROUTER_LATENCY + CHANNEL_LATENCY + EJECT_LATENCY
        for cycle in range(deliver + 1):
            mesh.tick(cycle)
        assert received and received[0][0] is message

    def test_farther_nodes_take_longer(self):
        mesh = self._mesh((4, 1, 1))
        mesh.attach(1, lambda *a: None)
        mesh.attach(3, lambda *a: None)
        near = mesh.inject(Message(kind=MessageKind.DATA, source_node=0, dest_node=1), 0)
        far = mesh.inject(Message(kind=MessageKind.DATA, source_node=0, dest_node=3), 0)
        assert far > near

    def test_link_contention_delays_second_message(self):
        mesh = self._mesh((2, 1, 1))
        mesh.attach(1, lambda *a: None)
        first = mesh.inject(
            Message(kind=MessageKind.DATA, source_node=0, dest_node=1, body=[0] * 6), 0)
        second = mesh.inject(
            Message(kind=MessageKind.DATA, source_node=0, dest_node=1, body=[0] * 6), 0)
        assert second > first
        assert mesh.link_contention_cycles > 0

    def test_delivery_requires_attachment(self):
        mesh = self._mesh((2, 1, 1))
        mesh.inject(Message(kind=MessageKind.DATA, source_node=0, dest_node=1), 0)
        with pytest.raises(KeyError):
            for cycle in range(20):
                mesh.tick(cycle)


class TestMessage:
    def test_queue_words_layout(self):
        message = Message(kind=MessageKind.DATA, source_node=0, dest_node=1,
                          dip=7, dest_address=0x1234, body=[10, 20])
        assert message.queue_words == [7, 0x1234, 10, 20]
        assert message.length_words == 4

    def test_physical_reply_address_word_defaults_to_zero(self):
        message = Message(kind=MessageKind.DATA, source_node=0, dest_node=1, dip=3,
                          body=[1])
        assert message.queue_words == [3, 0, 1]


def _interface_pair(send_credits=2, queue_words=6):
    """Two nodes connected by a 2x1x1 mesh with small queues/credits so the
    throttling paths are easy to exercise."""
    config = NetworkConfig(mesh_shape=(2, 1, 1), send_credits=send_credits,
                           message_queue_words=queue_words, retransmit_interval=8)
    mesh = MeshNetwork(config)
    gdt = GlobalDestinationTable()
    gdt.add(GtlbEntry(base_page=0, page_group_length=2, start_node=(1, 0, 0),
                      extent=(0, 0, 0)))
    interfaces = []
    for node_id in range(2):
        q0 = HardwareQueue(queue_words, name=f"q0-{node_id}")
        q1 = HardwareQueue(queue_words, name=f"q1-{node_id}")
        interfaces.append(
            NetworkInterface(node_id, config, mesh, Gtlb(gdt), q0, q1)
        )
    return mesh, interfaces


def _run_mesh(mesh, interfaces, cycles):
    for cycle in range(cycles):
        mesh.tick(cycle)
        for interface in interfaces:
            interface.tick(cycle)


class TestNetworkInterface:
    def test_send_translates_virtual_destination(self):
        mesh, (sender, receiver) = _interface_pair()
        message = sender.send(cycle=0, dest_address=100, dip=1, body=[42])
        assert message.dest_node == 1
        _run_mesh(mesh, [sender, receiver], 20)
        assert receiver.queues[0].pop_word() == 1        # DIP
        assert receiver.queues[0].pop_word() == 100      # address
        assert receiver.queues[0].pop_word() == 42       # body

    def test_send_to_unmapped_address_faults(self):
        mesh, (sender, receiver) = _interface_pair()
        with pytest.raises(ProtectionError):
            sender.send(cycle=0, dest_address=10_000_000, dip=1, body=[])

    def test_illegal_dip_faults_when_registered(self):
        mesh, (sender, receiver) = _interface_pair()
        sender.register_dips({1, 2})
        with pytest.raises(ProtectionError):
            sender.send(cycle=0, dest_address=100, dip=9, body=[])

    def test_body_length_limit(self):
        mesh, (sender, receiver) = _interface_pair()
        with pytest.raises(ProtectionError):
            sender.send(cycle=0, dest_address=100, dip=1, body=list(range(20)))
        # System senders may exceed the MC-register limit (packetised).
        sender.send(cycle=0, dest_address=100, dip=1, body=list(range(20)), allow_long=True)

    def test_credits_consumed_and_returned_by_ack(self):
        mesh, (sender, receiver) = _interface_pair(send_credits=2)
        sender.send(cycle=0, dest_address=100, dip=1, body=[1])
        assert sender.credits == 1
        _run_mesh(mesh, [sender, receiver], 30)
        assert sender.credits == 2
        assert sender.acks_received == 1

    def test_can_send_reflects_credits(self):
        mesh, (sender, receiver) = _interface_pair(send_credits=1)
        assert sender.can_send(0)
        sender.send(cycle=0, dest_address=100, dip=1, body=[1])
        assert not sender.can_send(0)
        assert sender.can_send(1)      # priority 1 does not need credits

    def test_full_queue_nack_and_retransmit(self):
        mesh, (sender, receiver) = _interface_pair(send_credits=4, queue_words=3)
        # First message fills the 3-word queue; the second is rejected,
        # returned to the sender and retransmitted after the back-off.
        sender.send(cycle=0, dest_address=100, dip=1, body=[1])
        sender.send(cycle=0, dest_address=101, dip=1, body=[2])
        _run_mesh(mesh, [sender, receiver], 15)
        assert receiver.enqueue_rejections >= 1
        assert sender.nacks_received >= 1
        # Drain the queue so the retransmission can be accepted.
        while not receiver.queues[0].is_empty:
            receiver.queues[0].pop_word()
        _run_mesh(mesh, [sender, receiver], 40)
        assert sender.retransmissions >= 1
        assert receiver.queues[0].total_pushed >= 6

    def test_priority_one_uses_second_queue(self):
        mesh, (sender, receiver) = _interface_pair()
        sender.send(cycle=0, dest_address=100, dip=5, body=[9], priority=1)
        _run_mesh(mesh, [sender, receiver], 20)
        assert receiver.queues[1].peek_word() == 5
        assert receiver.queues[0].is_empty
