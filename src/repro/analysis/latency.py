"""Access-latency measurement (Table 1).

"Table 1 shows a comparison of preliminary results of local and remote access
latencies (in cycles).  A read is completed when the requested data has been
written into the destination register.  A write is completed when the line
containing the data has been fully loaded into the cache."  (Section 4.2.)

:class:`AccessLatencyHarness` rebuilds exactly that experiment on the
simulator: a user thread on node 0 performs a single load or store to an
address that is local or homed on the neighbouring node 1, with the cache and
LTLB warmed or not according to the scenario; the latency is measured from
the trace, using the paper's completion definitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.config import MachineConfig
from repro.core.machine import MMachine
from repro.core.trace import Tracer

#: The scenarios of Table 1, in the paper's row order.
SCENARIOS = (
    "local_cache_hit",
    "local_cache_miss",
    "local_ltlb_miss",
    "remote_cache_hit",
    "remote_cache_miss",
    "remote_ltlb_miss",
)

_LOAD_SOURCE = "ld i5, i1\nhalt"
_STORE_SOURCE = "st i6, i1\nhalt"
_WARM_SOURCE = "ld i7, i1\nhalt"

#: Slot used for the measured access and for the warm-up access.
_MEASURE_SLOT = 0
_WARM_SLOT = 1


def measure_load_latency(tracer: Tracer, node: int, slot: int, cluster: int,
                         register: str = "i5", since: int = 0) -> int:
    """Cycles from load issue to the destination register being written.

    Both passes stream over the trace (:meth:`Tracer.iter_filter`), so the
    measurement works out-of-core on a disk-backed trace — nothing is
    materialised.
    """
    issue_event = None
    for event in tracer.iter_filter("mem_issue", node=node, since=since):
        info = event.info
        if not info.get("store") and info.get("cluster") == cluster \
                and info.get("slot") == slot:
            issue_event = event
            break
    if issue_event is None:
        raise LookupError("no load issue found in the trace")
    for event in tracer.iter_filter("reg_write", node=node, since=issue_event.cycle):
        info = event.info
        if info.get("cluster") == cluster and info.get("slot") == slot \
                and info.get("reg") == register:
            return event.cycle - issue_event.cycle
    raise LookupError(f"load to {register} never completed (issued at {issue_event.cycle})")


def measure_store_latency(tracer: Tracer, issue_node: int, home_node: int, address: int,
                          slot: int, cluster: int, since: int = 0) -> int:
    """Cycles from store issue (on *issue_node*) to the data being resident at
    its home (*home_node*).  Streams like :func:`measure_load_latency`."""
    issue_event = None
    for event in tracer.iter_filter("mem_issue", node=issue_node, since=since):
        info = event.info
        if info.get("store") and info.get("cluster") == cluster \
                and info.get("slot") == slot:
            issue_event = event
            break
    if issue_event is None:
        raise LookupError("no store issue found in the trace")
    for event in tracer.iter_filter("store_complete", node=home_node, since=issue_event.cycle):
        if event.info.get("address") == address:
            return event.cycle - issue_event.cycle
    raise LookupError(f"store to {address:#x} never completed (issued at {issue_event.cycle})")


@dataclass
class AccessLatencyHarness:
    """Builds one fresh two-node machine per scenario and measures it."""

    region_base: int = 0x40000
    access_offset: int = 8
    max_cycles: int = 20_000
    #: Filled by :meth:`measure_all`.
    results: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def _build_machine(self, scenario: str) -> MMachine:
        config = MachineConfig.small(2, 1, 1)
        config.runtime.shared_memory_mode = "remote"
        config.trace_enabled = True
        machine = MMachine(config)
        remote = scenario.startswith("remote")
        preload_ltlb = not scenario.endswith("ltlb_miss")
        home = 1 if remote else 0
        machine.map_on_node(home, self.region_base, num_pages=1, preload_ltlb=preload_ltlb)
        machine.write_word(self.address, 777)
        return machine

    @property
    def address(self) -> int:
        return self.region_base + self.access_offset

    def _warm_cache(self, machine: MMachine, scenario: str) -> None:
        """For the *_cache_hit scenarios, touch the word on its home node so
        the measured access hits in that node's on-chip cache."""
        if not scenario.endswith("cache_hit"):
            return
        home = 1 if scenario.startswith("remote") else 0
        machine.load_hthread(home, _WARM_SLOT, 0, _WARM_SOURCE,
                             registers={"i1": self.address}, name="warm")
        machine.run_until(
            lambda m: m.register_full(home, _WARM_SLOT, 0, "i7")
            and m.thread_halted(home, _WARM_SLOT, 0),
            max_cycles=self.max_cycles,
        )

    def measure(self, scenario: str, kind: str) -> int:
        """Measure one Table 1 cell (scenario x {read, write})."""
        if scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {scenario!r}")
        if kind not in ("read", "write"):
            raise ValueError("kind must be 'read' or 'write'")
        machine = self._build_machine(scenario)
        self._warm_cache(machine, scenario)
        start_cycle = machine.cycle
        home = 1 if scenario.startswith("remote") else 0

        if kind == "read":
            machine.load_hthread(0, _MEASURE_SLOT, 0, _LOAD_SOURCE,
                                 registers={"i1": self.address}, name="measure-load")
            machine.run_until(
                lambda m: m.register_full(0, _MEASURE_SLOT, 0, "i5"),
                max_cycles=self.max_cycles,
            )
            return measure_load_latency(machine.tracer, node=0, slot=_MEASURE_SLOT,
                                        cluster=0, register="i5", since=start_cycle)

        machine.load_hthread(0, _MEASURE_SLOT, 0, _STORE_SOURCE,
                             registers={"i1": self.address, "i6": 424242},
                             name="measure-store")
        machine.run_until_quiescent(max_cycles=self.max_cycles)
        return measure_store_latency(machine.tracer, issue_node=0, home_node=home,
                                     address=self.address, slot=_MEASURE_SLOT, cluster=0,
                                     since=start_cycle)

    def measure_all(self) -> Dict[str, Dict[str, int]]:
        self.results = {
            scenario: {
                "read": self.measure(scenario, "read"),
                "write": self.measure(scenario, "write"),
            }
            for scenario in SCENARIOS
        }
        return self.results
