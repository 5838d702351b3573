"""The paper's claims: published values and per-metric acceptance bands.

This module is the one statement of what the paper claims, and
``repro report --check`` (:mod:`repro.report.compare`) the one check of it.
It holds the numbers the paper publishes: Table 1's access times and the
Section 4.2 remote-read step costs (:data:`PAPER_TABLE1`,
:data:`PAPER_REMOTE_READ_STEPS`), the Figure 5 static depths
(:data:`PAPER_DEPTHS`), and the paper values of the expectation catalog
below.  Renderers import them from here.

Every expectation names a measured quantity (a metric of one sweep record, a
ratio between two records that differ in one parameter, or a ratio between
two metrics of the same record), the paper's published value where one
exists, and an absolute ``[lo, hi]`` acceptance band for the measured value.

Bands are deliberately explicit rather than derived: where this
reproduction's re-written handlers are shorter than the authors' unpublished
ones (Table 1, Figure 9), the band admits the known offset while still
catching regressions; where the paper states an exact number (static
depths, the 128x peak ratio, the hardware-only access times) the band is a
point.  Where the paper makes a *qualitative* claim (barrel scheduling
degrades single-thread performance, caching beats repeated remote access,
small queues NACK but never lose messages), ``paper`` is ``None`` and the
band encodes the claim.  A strict claim becomes the nearest inclusive
bound: one step for an integer metric (``latency < 74`` is ``hi=73``), a
small margin for a ratio (``< 2`` is ``hi=1.99``).

:mod:`repro.report.compare` evaluates the catalog against a manifest;
``repro report --check`` exits nonzero iff any evaluated expectation falls
outside its band.  The few claims that are no band on one record or one
same-workload pair are plain tests: across workloads and inside the
Figure 9 timelines in ``tests/integration/test_sweep_paper_figures.py``, the
GTLB interleavings in ``tests/unit/test_network.py`` and the area model in
``tests/unit/test_core_components.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: Table 1 of the paper: access times in cycles, per scenario and access kind.
PAPER_TABLE1: Dict[str, Dict[str, int]] = {
    "local_cache_hit": {"read": 3, "write": 2},
    "local_cache_miss": {"read": 13, "write": 19},
    "local_ltlb_miss": {"read": 61, "write": 67},
    "remote_cache_hit": {"read": 138, "write": 74},
    "remote_cache_miss": {"read": 154, "write": 90},
    "remote_ltlb_miss": {"read": 202, "write": 138},
}

#: The remote-read step breakdown of Section 4.2 (cycles per step).
PAPER_REMOTE_READ_STEPS: Dict[str, int] = {
    "cache_miss_detect": 2,
    "ltlb_miss_event": 2,
    "local_handler": 48,
    "request_network": 5,
    "remote_handler": 29,
    "reply_network": 5,
    "reply_decode": 41,
}

#: The paper's published static instruction depths (Figure 5 / Section 3.1).
#: Single source for both the rendered Figure 5 table/chart and the fig5/*
#: expectations below.
PAPER_DEPTHS: Dict[Tuple[str, int], int] = {
    ("7pt", 1): 12,
    ("7pt", 2): 8,
    ("27pt", 1): 36,
    ("27pt", 4): 17,
}


@dataclass(frozen=True)
class Expectation:
    """One metric of one record: ``workload`` selected by ``params``."""

    key: str
    section: str
    workload: str
    metric: str
    lo: float
    hi: float
    paper: Optional[float] = None
    params: Dict[str, object] = field(default_factory=dict)
    note: str = ""


@dataclass(frozen=True)
class PairRatioExpectation:
    """``metric`` of the run where ``vary_key == num_value`` divided by the
    same metric of the run where ``vary_key == den_value``; the two runs must
    otherwise have identical effective parameters."""

    key: str
    section: str
    workload: str
    metric: str
    vary_key: str
    num_value: object
    den_value: object
    lo: float
    hi: float
    paper: Optional[float] = None
    params: Dict[str, object] = field(default_factory=dict)
    note: str = ""


@dataclass(frozen=True)
class RecordRatioExpectation:
    """``num_metric / den_metric`` within a single record."""

    key: str
    section: str
    workload: str
    num_metric: str
    den_metric: str
    lo: float
    hi: float
    paper: Optional[float] = None
    params: Dict[str, object] = field(default_factory=dict)
    note: str = ""


def _table1_expectations() -> Tuple[object, ...]:
    # (scenario, kind) -> (lo, hi).  The hardware-only rows are exact; the
    # handler-dominated rows carry the known offset of this repository's
    # shorter handlers (roughly 0.4-0.85x the paper's counts).
    bands = {
        ("local_cache_hit", "read"): (3, 3),
        ("local_cache_hit", "write"): (2, 2),
        ("local_cache_miss", "read"): (13, 13),
        ("local_cache_miss", "write"): (19, 19),
        ("local_ltlb_miss", "read"): (31, 80),
        ("local_ltlb_miss", "write"): (34, 87),
        ("remote_cache_hit", "read"): (35, 166),
        ("remote_cache_hit", "write"): (19, 89),
        ("remote_cache_miss", "read"): (39, 185),
        ("remote_cache_miss", "write"): (23, 108),
        ("remote_ltlb_miss", "read"): (51, 243),
        ("remote_ltlb_miss", "write"): (35, 166),
    }
    expectations = []
    for (scenario, kind), (lo, hi) in bands.items():
        expectations.append(Expectation(
            key=f"table1/{scenario}/{kind}",
            section="Table 1",
            workload="table1-access-times",
            metric=f"{scenario}_{kind}",
            paper=PAPER_TABLE1[scenario][kind],
            lo=lo,
            hi=hi,
        ))
    # The relationships the paper draws from the table, each a ratio of two
    # cells of the one record: key -> (numerator, denominator, lo, hi, note).
    # A ratio with lo=1 says a row costs no less than the row above it.
    ratios = {
        "remote-hit-read-vs-local-ltlb-read": (
            "remote_cache_hit_read", "local_ltlb_miss_read", 1.01, 3.49,
            "'a remote read that hits in the cache is only about twice as "
            "large as a local read that requires software intervention'"),
        "remote-write-cheaper-than-read": (
            "remote_cache_hit_write", "remote_cache_hit_read", 0.1, 0.99,
            "remote writes complete without the reply-decode tail"),
        "remote-miss-write-vs-remote-miss-read": (
            "remote_cache_miss_write", "remote_cache_miss_read", 0.1, 0.99,
            "remote writes complete without the reply-decode tail"),
        "remote-ltlb-write-vs-remote-ltlb-read": (
            "remote_ltlb_miss_write", "remote_ltlb_miss_read", 0.1, 0.99,
            "remote writes complete without the reply-decode tail"),
        "remote-hit-read-vs-local-miss-read": (
            "remote_cache_hit_read", "local_cache_miss_read", 3.01, 13,
            "software intervention, not the hardware, dominates remote latency"),
        "local-miss-read-vs-local-hit-read": (
            "local_cache_miss_read", "local_cache_hit_read", 1, 10,
            "the read column does not decrease down the table"),
        "local-ltlb-read-vs-local-miss-read": (
            "local_ltlb_miss_read", "local_cache_miss_read", 1, 10,
            "the read column does not decrease down the table"),
        "remote-miss-read-vs-remote-hit-read": (
            "remote_cache_miss_read", "remote_cache_hit_read", 1, 10,
            "the read column does not decrease down the table"),
        "remote-ltlb-read-vs-remote-miss-read": (
            "remote_ltlb_miss_read", "remote_cache_miss_read", 1, 10,
            "the read column does not decrease down the table"),
        # A remote write into a warm home cache undercuts a local LTLB-miss
        # write here (the paper has the two only 7 cycles apart), so the
        # write column is ordered within the local and the remote rows only.
        "local-miss-write-vs-local-hit-write": (
            "local_cache_miss_write", "local_cache_hit_write", 1, 10,
            "the local writes do not decrease down the table"),
        "local-ltlb-write-vs-local-miss-write": (
            "local_ltlb_miss_write", "local_cache_miss_write", 1, 10,
            "the local writes do not decrease down the table"),
        "remote-miss-write-vs-remote-hit-write": (
            "remote_cache_miss_write", "remote_cache_hit_write", 1, 10,
            "the remote writes do not decrease down the table"),
        "remote-ltlb-write-vs-remote-miss-write": (
            "remote_ltlb_miss_write", "remote_cache_miss_write", 1, 10,
            "the remote writes do not decrease down the table"),
    }

    def paper_cell(metric: str) -> int:
        scenario, _, kind = metric.rpartition("_")
        return PAPER_TABLE1[scenario][kind]

    for key, (num, den, lo, hi, note) in ratios.items():
        expectations.append(RecordRatioExpectation(
            key=f"table1/{key}",
            section="Table 1",
            workload="table1-access-times",
            num_metric=num,
            den_metric=den,
            paper=round(paper_cell(num) / paper_cell(den), 2),
            lo=lo,
            hi=hi,
            note=note,
        ))
    return tuple(expectations)


def _catalog() -> Tuple[object, ...]:
    return _table1_expectations() + (
        # -- Sections 1/5: the area model -----------------------------------
        Expectation(
            key="sec1/peak-ratio",
            section="Sections 1/5",
            workload="area-model",
            metric="peak_ratio",
            paper=128,
            lo=128,
            hi=128,
            note="32 nodes x 4 clusters vs a 1-processor 1993 machine",
        ),
        Expectation(
            key="sec1/area-ratio",
            section="Sections 1/5",
            workload="area-model",
            metric="area_ratio",
            paper=1.5,
            lo=1.3,
            hi=1.7,
        ),
        Expectation(
            key="sec1/peak-per-area",
            section="Sections 1/5",
            workload="area-model",
            metric="peak_per_area_improvement",
            paper=85,
            lo=80,
            hi=90,
        ),
        Expectation(
            key="sec1/processor-fraction-1993",
            section="Sections 1/5",
            workload="area-model",
            metric="processor_fraction_1993",
            paper=0.11,
            lo=0.10,
            hi=0.125,
        ),
        Expectation(
            key="sec1/processor-fraction-1996",
            section="Sections 1/5",
            workload="area-model",
            metric="processor_fraction_1996",
            paper=0.04,
            lo=0.035,
            hi=0.045,
        ),
        # -- Figure 5: stencil static depths --------------------------------
        Expectation(
            key="fig5/static-depth-7pt-1T",
            section="Figure 5",
            workload="stencil",
            metric="static_depth",
            params={"kind": "7pt", "n_hthreads": 1},
            paper=PAPER_DEPTHS[("7pt", 1)],
            lo=PAPER_DEPTHS[("7pt", 1)],
            hi=PAPER_DEPTHS[("7pt", 1)],
        ),
        Expectation(
            key="fig5/static-depth-7pt-2T",
            section="Figure 5",
            workload="stencil",
            metric="static_depth",
            params={"kind": "7pt", "n_hthreads": 2},
            paper=PAPER_DEPTHS[("7pt", 2)],
            lo=PAPER_DEPTHS[("7pt", 2)],
            hi=PAPER_DEPTHS[("7pt", 2)],
        ),
        Expectation(
            key="fig5/static-depth-27pt-1T",
            section="Figure 5",
            workload="stencil",
            metric="static_depth",
            params={"kind": "27pt", "n_hthreads": 1},
            paper=PAPER_DEPTHS[("27pt", 1)],
            lo=25,
            hi=40,
            note="our 27-point schedule is slightly tighter than the paper's",
        ),
        PairRatioExpectation(
            key="fig5/27pt-depth-reduction",
            section="Figure 5",
            workload="stencil",
            metric="static_depth",
            vary_key="n_hthreads",
            num_value=1,
            den_value=4,
            params={"kind": "27pt"},
            paper=round(PAPER_DEPTHS[("27pt", 1)] / PAPER_DEPTHS[("27pt", 4)], 2),
            lo=1.7,
            hi=4.0,
            note="four H-Threads cut the 27-point critical path about in half",
        ),
        PairRatioExpectation(
            key="fig5/27pt-cycles-4T-vs-1T",
            section="Figure 5",
            workload="stencil",
            metric="cycles",
            vary_key="n_hthreads",
            num_value=4,
            den_value=1,
            params={"kind": "27pt"},
            lo=0.25,
            hi=0.99,
            note="the shorter critical path shows in the dynamic cycle count",
        ),
        PairRatioExpectation(
            key="fig5/27pt-cycles-2T-vs-1T",
            section="Figure 5",
            workload="stencil",
            metric="cycles",
            vary_key="n_hthreads",
            num_value=2,
            den_value=1,
            params={"kind": "27pt"},
            lo=0.25,
            hi=0.99,
            note="the shorter critical path shows in the dynamic cycle count",
        ),
        # -- Figure 6 -------------------------------------------------------
        Expectation(
            key="fig6/cc-sync-cycles-per-iteration",
            section="Figure 6",
            workload="cc-sync",
            metric="cycles_per_iteration",
            lo=5,
            hi=25,
            note="broadcast + consume + notify, far below a memory barrier",
        ),
        Expectation(
            key="fig6/cc-sync-memory-requests",
            section="Figure 6",
            workload="cc-sync",
            metric="memory_requests",
            lo=0,
            hi=0,
            note="the interlock needs no load or store",
        ),
        Expectation(
            key="fig6/cc-barrier-cycles-per-iteration",
            section="Figure 6",
            workload="cc-barrier",
            metric="cycles_per_iteration",
            lo=5,
            hi=60,
            note="a 4-way barrier over the replicated CC registers, with no "
                 "combining or distribution tree",
        ),
        # -- Figure 7 -------------------------------------------------------
        Expectation(
            key="fig7/single-remote-store-latency",
            section="Figure 7",
            workload="remote-store-latency",
            metric="latency",
            lo=6,
            hi=73,
            note="direct SEND beats the Table 1 remote write (74 cycles)",
        ),
        Expectation(
            key="fig7/ping-pong-round-trip",
            section="Figure 7",
            workload="ping-pong",
            metric="cycles_per_round_trip",
            lo=1,
            hi=399,
            note="a user-level round trip of two remote stores",
        ),
        # -- Figure 8 -------------------------------------------------------
        Expectation(
            key="fig8/nodes-used",
            section="Figure 8",
            workload="gtlb-mapping",
            metric="nodes_used",
            paper=8,
            lo=8,
            hi=8,
            note="a 64-page group spreads over the whole 2x2x2 sub-mesh",
        ),
        Expectation(
            key="fig8/gtlb-hit-rate",
            section="Figure 8",
            workload="gtlb-mapping",
            metric="gtlb_hit_rate",
            lo=0.98,
            hi=1.0,
        ),
        Expectation(
            key="fig8/min-pages-per-node",
            section="Figure 8",
            workload="gtlb-mapping",
            metric="min_pages_per_node",
            lo=8,
            hi=8,
            note="every interleaving puts 8 of the 64 pages on each node",
        ),
        Expectation(
            key="fig8/max-pages-per-node",
            section="Figure 8",
            workload="gtlb-mapping",
            metric="max_pages_per_node",
            lo=8,
            hi=8,
            note="every interleaving puts 8 of the 64 pages on each node",
        ),
        # -- Figure 9 -------------------------------------------------------
        Expectation(
            key="fig9/remote-read-total",
            section="Figure 9",
            workload="remote-access-timeline",
            metric="total_cycles",
            params={"kind": "read"},
            paper=PAPER_TABLE1["remote_cache_hit"]["read"],
            lo=35,
            hi=166,
            note="same band as the Table 1 remote cache-hit read",
        ),
        Expectation(
            key="fig9/remote-write-total",
            section="Figure 9",
            workload="remote-access-timeline",
            metric="total_cycles",
            params={"kind": "write"},
            paper=PAPER_TABLE1["remote_cache_hit"]["write"],
            lo=19,
            hi=89,
            note="same band as the Table 1 remote cache-hit write",
        ),
        PairRatioExpectation(
            key="fig9/read-vs-write-total",
            section="Figure 9",
            workload="remote-access-timeline",
            metric="total_cycles",
            vary_key="kind",
            num_value="read",
            den_value="write",
            paper=round(
                PAPER_TABLE1["remote_cache_hit"]["read"]
                / PAPER_TABLE1["remote_cache_hit"]["write"], 2
            ),
            lo=1.01,
            hi=3.0,
            note="the read adds the reply trip and decode; the write ends "
                 "when the home node's store completes",
        ),
        # -- Ablations ------------------------------------------------------
        PairRatioExpectation(
            key="ablation-a1/4-threads-vs-1",
            section="Ablation A1",
            workload="vthread-interleave",
            metric="cycles",
            vary_key="num_threads",
            num_value=4,
            den_value=1,
            lo=0.5,
            hi=1.99,
            note="4x the work in < 2x the time: interleaving hides most "
                 "of the latency",
        ),
        PairRatioExpectation(
            key="ablation-a1/2-threads-vs-1",
            section="Ablation A1",
            workload="vthread-interleave",
            metric="cycles",
            vary_key="num_threads",
            num_value=2,
            den_value=1,
            lo=0.5,
            hi=1.99,
            note="each added thread raises throughput over one thread alone",
        ),
        PairRatioExpectation(
            key="ablation-a1/3-threads-vs-1",
            section="Ablation A1",
            workload="vthread-interleave",
            metric="cycles",
            vary_key="num_threads",
            num_value=3,
            den_value=1,
            lo=0.5,
            hi=2.99,
            note="each added thread raises throughput over one thread alone",
        ),
        PairRatioExpectation(
            key="ablation-a2/hep-vs-event-priority",
            section="Ablation A2",
            workload="issue-policy",
            metric="cycles",
            vary_key="policy",
            num_value="hep",
            den_value="event-priority",
            lo=3.01,
            hi=12.0,
            note="barrel scheduling degrades a single thread by about the "
                 "number of contexts",
        ),
        PairRatioExpectation(
            key="ablation-a2/round-robin-vs-event-priority",
            section="Ablation A2",
            workload="issue-policy",
            metric="cycles",
            vary_key="policy",
            num_value="round-robin",
            den_value="event-priority",
            lo=0.8,
            hi=1.2,
            note="a lone thread loses little to round-robin selection",
        ),
        PairRatioExpectation(
            key="ablation-a3/coherent-vs-remote",
            section="Ablation A3",
            workload="remote-memory",
            metric="cycles",
            vary_key="mode",
            num_value="coherent",
            den_value="remote",
            lo=0.02,
            hi=0.49,
            note="one block fetch then local speed beats per-access remote "
                 "latency",
        ),
        Expectation(
            key="ablation-a4/small-queue-nacks",
            section="Ablation A4",
            workload="many-to-one-flood",
            metric="nacks",
            params={"queue_words": 6},
            lo=1,
            hi=10_000,
            note="an overflowed consumer queue NACKs instead of losing data",
        ),
        Expectation(
            key="ablation-a4/small-queue-retransmits",
            section="Ablation A4",
            workload="many-to-one-flood",
            metric="retransmissions",
            params={"queue_words": 6},
            lo=1,
            hi=10_000,
            note="a NACKed message returns to its sender and is sent again",
        ),
        PairRatioExpectation(
            key="ablation-a4/small-queue-vs-large-cycles",
            section="Ablation A4",
            workload="many-to-one-flood",
            metric="cycles",
            vary_key="queue_words",
            num_value=6,
            den_value=128,
            lo=1.0,
            hi=10.0,
            note="throttled runs are no faster, but still correct",
        ),
        Expectation(
            key="ablation-a4/large-queue-no-nacks",
            section="Ablation A4",
            workload="many-to-one-flood",
            metric="nacks",
            params={"queue_words": 128},
            paper=0,
            lo=0,
            hi=0,
        ),
    )


#: The full expectation catalog, in paper order.
EXPECTATIONS: Tuple[object, ...] = _catalog()


def paper_value(key: str) -> Optional[float]:
    """The paper's published value for expectation *key* (None if absent).

    Section renderers pull their "paper" columns from here so a published
    number lives in exactly one place — this catalog.
    """
    for spec in EXPECTATIONS:
        if spec.key == key:
            return spec.paper
    raise KeyError(f"no expectation with key {key!r}")
