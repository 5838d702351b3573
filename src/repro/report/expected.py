"""The paper's published values, with per-metric acceptance bands.

This module is the single home of the numbers the paper publishes: Table 1's
access times and the Section 4.2 remote-read step costs
(:data:`PAPER_TABLE1`, :data:`PAPER_REMOTE_READ_STEPS`), the Figure 5
static depths (:data:`PAPER_DEPTHS`), and the paper values of the
expectation catalog below.  Renderers and benchmarks import them from here.

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
band encodes the claim.  :mod:`repro.report.compare` evaluates the catalog
against a manifest; ``repro report --check`` exits nonzero iff any
evaluated expectation falls outside its band.
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
    remote_hit = PAPER_TABLE1["remote_cache_hit"]
    expectations.append(RecordRatioExpectation(
        key="table1/remote-hit-read-vs-local-ltlb-read",
        section="Table 1",
        workload="table1-access-times",
        num_metric="remote_cache_hit_read",
        den_metric="local_ltlb_miss_read",
        paper=round(remote_hit["read"] / PAPER_TABLE1["local_ltlb_miss"]["read"], 2),
        lo=1.0,
        hi=3.5,
        note="'a remote read that hits in the cache is only about twice as "
             "large as a local read that requires software intervention'",
    ))
    expectations.append(RecordRatioExpectation(
        key="table1/remote-write-cheaper-than-read",
        section="Table 1",
        workload="table1-access-times",
        num_metric="remote_cache_hit_write",
        den_metric="remote_cache_hit_read",
        paper=round(remote_hit["write"] / remote_hit["read"], 2),
        lo=0.1,
        hi=0.99,
        note="remote writes complete without the reply-decode tail",
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
        # -- Figure 7 -------------------------------------------------------
        Expectation(
            key="fig7/single-remote-store-latency",
            section="Figure 7",
            workload="remote-store-latency",
            metric="latency",
            lo=5,
            hi=74,
            note="direct SEND beats the Table 1 remote write (74 cycles)",
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
            hi=3.99,
            note="4x the work in < 4x the time: interleaving hides latency",
        ),
        PairRatioExpectation(
            key="ablation-a2/hep-vs-event-priority",
            section="Ablation A2",
            workload="issue-policy",
            metric="cycles",
            vary_key="policy",
            num_value="hep",
            den_value="event-priority",
            lo=2.0,
            hi=12.0,
            note="barrel scheduling degrades a single thread by about the "
                 "number of contexts",
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
            hi=0.8,
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
