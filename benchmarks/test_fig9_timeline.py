"""E4 -- Figure 9: timelines of a remote read and a remote write.

Reproduces the per-step breakdown of Section 4.2 / Figure 9: the cycle at
which each hardware and software milestone of a single remote read / write
occurs on the requesting node and on the home node.
"""

import pytest

from conftest import report
from repro import MMachine, MachineConfig
from repro.analysis.timeline import extract_remote_access_timeline
from repro.report.expected import PAPER_REMOTE_READ_STEPS, PAPER_TABLE1

REGION = 0x40000


def _run_remote_access(kind):
    config = MachineConfig.small(2, 1, 1)
    machine = MMachine(config)
    machine.map_on_node(1, REGION, num_pages=1)
    machine.write_word(REGION, 11)
    if kind == "read":
        machine.load_hthread(0, 0, 0, "ld i5, i1\nhalt", registers={"i1": REGION})
        machine.run_until(lambda m: m.register_full(0, 0, 0, "i5"), max_cycles=10000)
    else:
        machine.load_hthread(0, 0, 0, "st i6, i1\nhalt",
                             registers={"i1": REGION, "i6": 77})
        machine.run_until_quiescent(max_cycles=10000)
    return extract_remote_access_timeline(machine.tracer, kind, address=REGION)


@pytest.fixture(scope="module")
def timelines():
    return {kind: _run_remote_access(kind) for kind in ("read", "write")}


def test_fig9_remote_read_timeline(single_run_benchmark):
    timeline = single_run_benchmark(_run_remote_access, "read")
    report("Figure 9 (left): remote read timeline",
           [str(timeline),
            f"paper total: {PAPER_TABLE1['remote_cache_hit']['read']} cycles "
            f"(steps: {PAPER_REMOTE_READ_STEPS})"])
    assert timeline.total_cycles > 0


def test_fig9_remote_write_timeline(single_run_benchmark):
    timeline = single_run_benchmark(_run_remote_access, "write")
    report("Figure 9 (right): remote write timeline",
           [str(timeline),
            f"paper total: {PAPER_TABLE1['remote_cache_hit']['write']} cycles"])
    assert timeline.total_cycles > 0


class TestFig9Shape:
    def test_read_has_all_milestones(self, timelines):
        labels = " | ".join(timelines["read"].labels())
        for fragment in ("LOAD issues", "LTLB miss", "message received",
                         "reply message received", "destination register"):
            assert fragment in labels

    def test_write_has_all_milestones(self, timelines):
        labels = " | ".join(timelines["write"].labels())
        for fragment in ("STORE issues", "LTLB miss", "message received", "store complete"):
            assert fragment in labels

    def test_milestones_in_order(self, timelines):
        for timeline in timelines.values():
            cycles = [event.cycle for event in timeline.normalised().events]
            assert cycles == sorted(cycles)

    def test_read_longer_than_write(self, timelines):
        """The read needs the reply network trip and decode; the write ends
        when the home node's store completes (as in Figure 9)."""
        assert timelines["read"].total_cycles > timelines["write"].total_cycles

    def test_software_steps_dominate(self, timelines):
        """Like the paper's breakdown, most of the latency is in the software
        handlers rather than the two 5-cycle network traversals."""
        read = timelines["read"]
        events = {event.label: event.cycle for event in read.normalised().events}
        request_network = (events["message received / message handler dispatches"]
                           - events[[k for k in events if "handler sends" in k][0]])
        assert request_network < read.total_cycles / 3
