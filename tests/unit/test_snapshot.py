"""Unit tests for the repro.snapshot subsystem: the value codec, the config
serialisation, the file format, and machine-level save/restore plumbing."""

import json

import pytest

from repro import MMachine, MachineConfig
from repro.cluster.cluster import RegWrite
from repro.events.records import EventRecord, EventType
from repro.isa.assembler import assemble
from repro.isa.operations import LabelRef
from repro.isa.registers import RegFile, RegisterRef
from repro.memory.guarded_pointer import GuardedPointer, PointerPermission
from repro.memory.page_table import BlockStatus, LptEntry
from repro.memory.requests import MemOpKind, MemRequest
from repro.network.gtlb import GtlbEntry
from repro.network.message import Message, MessageKind
from repro.snapshot import (
    ConfigMismatchError,
    SNAPSHOT_SCHEMA_VERSION,
    SnapshotError,
    config_from_dict,
    config_to_dict,
    decode_value,
    encode_value,
    read_snapshot,
    write_snapshot,
)
from repro.snapshot.format import validate_document

#: Marks a document field that a malformed-document case deletes.
DELETE = object()


def roundtrip(value):
    # Force a real JSON round trip so int keys / tuples cannot leak through.
    return decode_value(json.loads(json.dumps(encode_value(value))))


class TestValueCodec:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, -7, 1 << 70, 0.0, 2.5, -1e300, "text", "",
    ])
    def test_scalars(self, value):
        result = roundtrip(value)
        assert result == value and type(result) is type(value)

    def test_non_finite_floats(self):
        assert roundtrip(float("inf")) == float("inf")
        assert roundtrip(float("-inf")) == float("-inf")
        nan = roundtrip(float("nan"))
        assert nan != nan

    def test_containers(self):
        value = {"a": [1, (2, 3)], "b": {4: "x"}, "c": {1, 2, 3}}
        assert roundtrip(value) == value
        assert isinstance(roundtrip((1, 2))[0], int)

    def test_int_keyed_dict_preserves_key_type(self):
        result = roundtrip({3: "three"})
        assert result == {3: "three"}
        assert isinstance(next(iter(result)), int)

    def test_guarded_pointer(self):
        pointer = GuardedPointer(0x40000, 6, PointerPermission.rw())
        assert roundtrip(pointer) == pointer

    def test_register_refs(self):
        assert roundtrip(RegisterRef(RegFile.INT, 5)) == RegisterRef(RegFile.INT, 5)
        remote = RegisterRef(RegFile.FP, 2, cluster=1)
        assert roundtrip(remote) == remote
        special = RegisterRef(RegFile.SPECIAL, 0, None, "net")
        assert roundtrip(special) == special

    def test_label_ref_and_block_status(self):
        assert roundtrip(LabelRef("loop")) == LabelRef("loop")
        status = roundtrip(BlockStatus.DIRTY)
        assert status is BlockStatus.DIRTY

    def test_mem_request_preserves_req_id(self):
        request = MemRequest(kind=MemOpKind.STORE, address=0x40010, data=9,
                             vthread=2, cluster=1, sync_pre="e", sync_post="f")
        copy = roundtrip(request)
        assert copy == request
        assert copy.req_id == request.req_id

    def test_event_record_with_request_in_extra(self):
        request = MemRequest(kind=MemOpKind.LOAD, address=0x40000,
                             dest=RegisterRef(RegFile.INT, 4))
        record = EventRecord(event_type=EventType.SYNC_FAULT, address=0x40000,
                             vthread=1, cycle=17,
                             extra={"request": request, "sync_bit": 0})
        copy = roundtrip(record)
        assert copy == record
        assert copy.extra["request"].req_id == request.req_id

    def test_nested_nack_message(self):
        original = Message(kind=MessageKind.DATA, source_node=0, dest_node=1,
                           dip=3, dest_address=0x40000, body=[1, 2, 3])
        nack = Message(kind=MessageKind.NACK, source_node=1, dest_node=0,
                       priority=1, returned=original)
        copy = roundtrip(nack)
        assert copy == nack
        assert copy.returned.msg_id == original.msg_id

    def test_reg_write(self):
        write = RegWrite(vthread=1, ref=RegisterRef(RegFile.INT, 3), value=42,
                         clear_pending=True, origin="memory")
        assert roundtrip(write) == write

    def test_lpt_and_gtlb_entries(self):
        lpt = LptEntry(virtual_page=3, physical_frame=9, writable=False,
                       block_status=[BlockStatus.INVALID] * 64)
        assert roundtrip(lpt) == lpt
        gtlb = GtlbEntry(base_page=0x80, page_group_length=16,
                         start_node=(1, 0, 0), extent=(1, 1, 0), pages_per_node=2)
        assert roundtrip(gtlb) == gtlb

    def test_program_decodes_to_shared_object(self):
        program = assemble("add i1, i1, #1\nhalt", name="tiny")
        first = roundtrip(program)
        second = roundtrip(program)
        assert first is second
        assert len(first) == len(program)
        assert first.labels == program.labels

    def test_unencodable_value_raises(self):
        with pytest.raises(SnapshotError):
            encode_value(object())


class TestConfigSerialisation:
    def test_round_trip(self):
        config = MachineConfig.small(4, 4, 1)
        config.sim.kernel = "naive"
        config.runtime.shared_memory_mode = "coherent"
        config.cluster.issue_policy = "hep"
        rebuilt = config_from_dict(json.loads(json.dumps(config_to_dict(config))))
        assert config_to_dict(rebuilt) == config_to_dict(config)
        assert rebuilt.network.mesh_shape == (4, 4, 1)

    def test_unknown_field_is_rejected(self):
        document = config_to_dict(MachineConfig())
        document["memory"]["flux_capacitor"] = 1
        with pytest.raises(SnapshotError):
            config_from_dict(document)


class TestFileFormat:
    def _machine(self):
        machine = MMachine(MachineConfig.single_node())
        machine.map_on_node(0, 0x10000, num_pages=1)
        machine.write_word(0x10000, 5)
        machine.load_hthread(0, 0, 0, "ld i2, i1\nadd i2, i2, #1\nst i2, i1\nhalt",
                             registers={"i1": 0x10000})
        machine.run(20)
        return machine

    def test_document_shape(self):
        document = self._machine().snapshot_document()
        assert document["format"] == "repro-mmachine-snapshot"
        assert document["schema_version"] == SNAPSHOT_SCHEMA_VERSION
        assert "config" in document and "machine" in document
        validate_document(document)

    def test_write_and_read(self, tmp_path):
        machine = self._machine()
        path = str(tmp_path / "snap.json")
        assert machine.save_snapshot(path) == path
        document = read_snapshot(path)
        assert document["machine"]["cycle"] == machine.cycle

    def test_gzip_round_trip(self, tmp_path):
        machine = self._machine()
        path = str(tmp_path / "snap.json.gz")
        machine.save_snapshot(path)
        restored = MMachine.from_snapshot(path)
        assert restored.cycle == machine.cycle

    def test_unsupported_schema_version_is_refused(self, tmp_path):
        document = self._machine().snapshot_document()
        document["schema_version"] = 999
        path = str(tmp_path / "future.json")
        write_snapshot(document, path)
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_garbage_file_is_refused(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(SnapshotError):
            read_snapshot(str(path))
        with pytest.raises(SnapshotError):
            read_snapshot(str(tmp_path / "missing.json"))

    def test_restore_refuses_mismatched_config(self):
        document = self._machine().snapshot_document()
        other = MMachine(MachineConfig.small(2, 1, 1))
        with pytest.raises(ConfigMismatchError) as excinfo:
            other.restore_snapshot(document)
        assert "network" in str(excinfo.value)

    def test_restore_refuses_wrong_node_count_state(self):
        document = self._machine().snapshot_document()
        machine = MMachine(MachineConfig.single_node())
        document["machine"]["nodes"] = []
        with pytest.raises(SnapshotError):
            machine.load_state_dict(document["machine"])

    @pytest.mark.parametrize("path, value, error", [
        pytest.param(("machine", "nodes"), DELETE, "machine section is malformed: KeyError",
                     id="nodes-missing"),
        pytest.param(("machine", "nodes", 0, "clusters"), DELETE,
                     "machine section is malformed: KeyError", id="clusters-missing"),
        pytest.param(("machine", "nodes"), {"0": {}}, "machine section is malformed: TypeError",
                     id="nodes-not-a-list"),
        pytest.param(("machine", "cycle"), "20", "cycle must be a non-negative int",
                     id="cycle-not-an-int"),
        pytest.param(("machine", "nodes", 0, "page_table", "entries", 0, 1), "x",
                     "machine section is malformed: AttributeError", id="lpt-entry-not-an-entry"),
        pytest.param(("machine", "nodes", 0, "clusters", 0, "policy", "rr_pointer"), 6,
                     "machine section is malformed: ValueError: issue-policy pointer",
                     id="rr-pointer-out-of-range"),
        pytest.param(("config", "network", "mesh_shape"), [2, 2],
                     "config section is malformed: ValueError: mesh shape", id="mesh-2d"),
        pytest.param(("config", "network", "mesh_shape"), [2, -1, 1],
                     "config section is malformed: ValueError: mesh shape",
                     id="mesh-negative"),
        pytest.param(("config", "node", "num_clusters"), 2,
                     "config section is malformed: ValueError: node.num_clusters must be 4",
                     id="num-clusters-2"),
        pytest.param(("config", "memory", "page_size_words"), 256,
                     "config section is malformed: ValueError: memory.page_size_words must be",
                     id="page-size-256"),
        *[pytest.param(("config", "cluster", field), value,
                       f"config section is malformed: ValueError: cluster.{field} must be",
                       id=f"{field}-{value if type(value) is int else type(value).__name__}")
          for field, values in (("num_int_regs", ("x", None, 1.5, [1, 2])),
                                ("num_gcc_regs", ("x", None, 1.5, [1, 2])),
                                ("icache_words", (-1, 0)),
                                ("words_per_instruction", (0, -1)),
                                ("enforce_gcc_pairs", ("x", None)))
          for value in values],
        pytest.param(("machine", "nodes", 0, "cswitch", "queues"),
                     [[port, []] for port in (0, 1, 3)],
                     r"C-Switch queues must list ports \[0, 1, 2, 3\], got \[0, 1, 3\]",
                     id="cswitch-port-2-missing"),
        pytest.param(("machine", "nodes", 0, "cswitch", "queues"),
                     [[port, []] for port in (0, 1, 2, 3, 7)],
                     r"C-Switch queues must list ports \[0, 1, 2, 3\], got \[0, 1, 2, 3, 7\]",
                     id="cswitch-port-7"),
        pytest.param(("machine", "nodes", 0, "net", "allowed_dips"), ["x", 3],
                     r"a set of ints holds \['x', 3\]", id="allowed-dips-not-ints"),
        pytest.param(("machine", "nodes", 0, "memory", "pending"), [[25, 3]],
                     "a pending memory response is 3", id="pending-response-not-a-memresp"),
    ])
    def test_malformed_document_raises_snapshot_error(self, path, value, error):
        document = json.loads(json.dumps(self._machine().snapshot_document()))
        *parents, last = path
        target = document
        for key in parents:
            target = target[key]
        if value is DELETE:
            del target[last]
        else:
            target[last] = value
        with pytest.raises(SnapshotError, match=error):
            MMachine.from_snapshot(document)

    @pytest.mark.parametrize("path", [
        ("sdram", "sync_bits"), ("sdram", "pointer_tags"), ("sdram", "words"),
        ("memory", "store_completions"), ("clusters", 0, "operations_by_unit"),
        ("clusters", 0, "contexts", 0, "stall_reasons"),
    ], ids=lambda path: "/".join(map(str, path)))
    def test_object_for_a_pair_list_raises_snapshot_error(self, path):
        """A JSON object where a ``[key, value]`` pair list belongs is
        refused, not read as a mapping whose string keys no address or
        counter name matches."""
        self.test_malformed_document_raises_snapshot_error(
            ("machine", "nodes", 0, *path), {"65536": 1},
            "machine section is malformed: ValueError")

    def test_non_int_sharer_raises_snapshot_error(self):
        """A coherence directory entry whose sharers are not all node ids is
        refused at load, not when the next save sorts them."""
        config = MachineConfig.small(2, 1, 1)
        config.runtime.shared_memory_mode = "coherent"
        machine = MMachine(config)
        machine.map_on_node(0, 0x40000)
        machine.load_hthread(1, 0, 0, "ld i4, i1\nhalt", registers={"i1": 0x40000})
        machine.run_until_user_done()
        document = json.loads(json.dumps(machine.snapshot_document()))
        directories = dict(document["machine"]["coherence"]["directories"])
        ((_, entry),) = directories[0]
        entry["sharers"] = [1, "x"]
        with pytest.raises(SnapshotError, match=r"a set of ints holds \[1, 'x'\]"):
            MMachine.from_snapshot(document)

    def test_restore_snapshot_rejects_malformed_state(self):
        document = json.loads(json.dumps(self._machine().snapshot_document()))
        del document["machine"]["nodes"][0]["clusters"]
        with pytest.raises(SnapshotError, match="machine section is malformed: KeyError"):
            MMachine(MachineConfig.single_node()).restore_snapshot(document)

    def test_from_snapshot_restores_architectural_state(self):
        machine = self._machine()
        machine.run_until_user_done()
        restored = MMachine.from_snapshot(machine.snapshot_document())
        assert restored.cycle == machine.cycle
        assert restored.read_word(0x10000) == 6
        assert restored.register_value(0, 0, 0, "i2") == 6
        assert restored.thread_halted(0, 0, 0)
        assert restored.stats().summary() == machine.stats().summary()

    def test_state_dict_is_stable_across_round_trip(self):
        machine = self._machine()
        state = machine.state_dict()
        restored = MMachine.from_snapshot(machine.snapshot_document())
        assert restored.state_dict() == state
