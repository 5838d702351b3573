"""Unit tests for repro.analysis (Figure 9 timelines, Table 1 latency)."""

import pytest

from repro.analysis.latency import (
    AccessLatencyHarness,
    measure_load_latency,
    measure_store_latency,
)
from repro.analysis.timeline import (
    Timeline,
    TimelineEvent,
    extract_remote_access_timeline,
)
from repro.core.trace import Tracer


class TestTimeline:
    def _timeline(self):
        timeline = Timeline(kind="remote read")
        timeline.add(110, 1, "execute load")
        timeline.add(100, 0, "LOAD issues")
        timeline.add(None, 0, "never happened")
        timeline.add(140, 0, "return data to destination register")
        return timeline

    def test_add_ignores_none_cycles(self):
        assert len(self._timeline().events) == 3

    def test_normalised_shifts_and_sorts(self):
        normalised = self._timeline().normalised()
        assert [event.cycle for event in normalised.events] == [0, 10, 40]
        assert normalised.events[0].label == "LOAD issues"
        # The original is untouched.
        assert self._timeline().events[0].cycle == 110

    def test_normalised_empty_is_identity(self):
        timeline = Timeline(kind="x")
        assert timeline.normalised() is timeline
        assert timeline.total_cycles == 0

    def test_total_cycles_and_labels(self):
        timeline = self._timeline()
        assert timeline.total_cycles == 40
        assert "execute load" in timeline.labels()

    def test_str_renders_normalised_rows(self):
        text = str(self._timeline())
        assert text.startswith("timeline: remote read (40 cycles)")
        assert "node 0  LOAD issues" in text

    def test_records_are_normalised_rows(self):
        records = self._timeline().to_records()
        assert records == [[0, 0, "LOAD issues"], [10, 1, "execute load"],
                           [40, 0, "return data to destination register"]]

    def test_event_str(self):
        event = TimelineEvent(cycle=5, node=1, label="x")
        assert "node 1" in str(event)


def _synthetic_remote_read_trace():
    tracer = Tracer()
    tracer.record(100, 0, "mem_issue", store=False, slot=0, cluster=0)
    tracer.record(102, 0, "cache_miss")
    tracer.record(103, 0, "ltlb_miss")
    tracer.record(105, 0, "event_enqueue", type="LTLB_MISS")
    tracer.record(130, 0, "msg_inject", priority=0)
    tracer.record(135, 1, "msg_deliver", priority=0)
    tracer.record(138, 1, "mem_issue", store=False, slot=1, cluster=0)
    tracer.record(150, 1, "msg_inject", priority=1)
    tracer.record(155, 0, "msg_deliver", priority=1)
    tracer.record(160, 0, "reg_write", reg="i5", origin="xregwr", slot=0, cluster=0)
    return tracer


class TestExtractTimeline:
    def test_read_timeline_from_synthetic_trace(self):
        timeline = extract_remote_access_timeline(
            _synthetic_remote_read_trace(), "read"
        )
        assert timeline.total_cycles == 60
        labels = " | ".join(timeline.labels())
        for fragment in ("LOAD issues", "LTLB miss", "message received",
                         "reply message received", "destination register"):
            assert fragment in labels

    def test_write_timeline_matches_store_milestones(self):
        tracer = Tracer()
        tracer.record(10, 0, "mem_issue", store=True, slot=0, cluster=0)
        tracer.record(12, 0, "cache_miss")
        tracer.record(13, 0, "ltlb_miss")
        tracer.record(15, 0, "event_enqueue", type="LTLB_MISS")
        tracer.record(30, 0, "msg_inject", priority=0)
        tracer.record(35, 1, "msg_deliver", priority=0)
        tracer.record(38, 1, "mem_issue", store=True, slot=1, cluster=0)
        tracer.record(50, 1, "store_complete", address=0x4000)
        timeline = extract_remote_access_timeline(tracer, "write", address=0x4000)
        assert timeline.total_cycles == 40
        assert "store complete (message handler completes)" in timeline.labels()

    def test_address_filter_excludes_other_stores(self):
        tracer = Tracer()
        tracer.record(10, 0, "mem_issue", store=True, slot=0, cluster=0)
        tracer.record(50, 1, "store_complete", address=0x9999)
        timeline = extract_remote_access_timeline(tracer, "write", address=0x4000)
        assert "store complete (message handler completes)" not in timeline.labels()

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            extract_remote_access_timeline(Tracer(), "swap")


class TestMeasureLatency:
    def test_load_latency_from_synthetic_trace(self):
        tracer = _synthetic_remote_read_trace()
        assert measure_load_latency(tracer, node=0, slot=0, cluster=0) == 60

    def test_load_latency_requires_issue_and_completion(self):
        with pytest.raises(LookupError):
            measure_load_latency(Tracer(), node=0, slot=0, cluster=0)
        tracer = Tracer()
        tracer.record(10, 0, "mem_issue", store=False, slot=0, cluster=0)
        with pytest.raises(LookupError):
            measure_load_latency(tracer, node=0, slot=0, cluster=0)

    def test_store_latency_from_synthetic_trace(self):
        tracer = Tracer()
        tracer.record(10, 0, "mem_issue", store=True, slot=0, cluster=0)
        tracer.record(52, 1, "store_complete", address=0x4000)
        latency = measure_store_latency(tracer, issue_node=0, home_node=1,
                                        address=0x4000, slot=0, cluster=0)
        assert latency == 42

    def test_store_latency_requires_matching_address(self):
        tracer = Tracer()
        tracer.record(10, 0, "mem_issue", store=True, slot=0, cluster=0)
        tracer.record(52, 1, "store_complete", address=0x9999)
        with pytest.raises(LookupError):
            measure_store_latency(tracer, issue_node=0, home_node=1,
                                  address=0x4000, slot=0, cluster=0)


class TestHarness:
    def test_local_cache_hit_measurement_on_a_real_machine(self):
        harness = AccessLatencyHarness()
        read = harness.measure("local_cache_hit", "read")
        write = harness.measure("local_cache_hit", "write")
        assert read > 0 and write > 0
        assert write <= read

    def test_rejects_unknown_scenario_and_kind(self):
        harness = AccessLatencyHarness()
        with pytest.raises(ValueError):
            harness.measure("nonexistent", "read")
        with pytest.raises(ValueError):
            harness.measure("local_cache_hit", "swap")
