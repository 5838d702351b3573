"""E1 -- Figure 5 / Section 3.1: stencil smoothing on 1, 2 and 4 H-Threads.

Regenerates the static-instruction-depth comparison of Figure 5 (7-point
stencil: 12 instructions on one H-Thread vs 8 on two; 27-point stencil depth
reduced from 36 to 17 on four H-Threads -- our schedules are slightly tighter
but show the same reduction) and additionally reports the *dynamic* cycle
counts measured on the simulator, which the paper leaves to "the pipeline and
memory latencies".
"""

import pytest

from conftest import report, run_and_record
from repro.core.stats import format_table
from repro.report.expected import PAPER_DEPTHS


def _run(kind, n_hthreads):
    metrics = run_and_record("stencil", kind=kind, n_hthreads=n_hthreads)
    assert metrics["verified"], "stencil result mismatch"
    return {
        "static_depth": metrics["static_depth"],
        "cycles": metrics["cycles"],
        "operations": metrics["workload_operations"],
    }


def _sweep():
    results = {}
    for kind in ("7pt", "27pt"):
        for n_hthreads in (1, 2, 4):
            results[(kind, n_hthreads)] = _run(kind, n_hthreads)
    return results


@pytest.fixture(scope="module")
def sweep():
    return _sweep()


def test_fig5_stencil_sweep(single_run_benchmark):
    results = single_run_benchmark(_sweep)
    rows = []
    for (kind, threads), data in sorted(results.items()):
        rows.append([
            kind, threads, data["static_depth"],
            PAPER_DEPTHS.get((kind, threads), "-"),
            data["cycles"], data["operations"],
        ])
    report(
        "Figure 5: stencil static depth and dynamic cycles",
        [format_table(
            ["stencil", "H-Threads", "static depth", "paper depth", "dynamic cycles", "ops"],
            rows)],
    )
    assert results[("7pt", 1)]["static_depth"] == 12


class TestFig5Shape:
    def test_seven_point_depth_12_vs_8(self, sweep):
        assert sweep[("7pt", 1)]["static_depth"] == PAPER_DEPTHS[("7pt", 1)]
        assert sweep[("7pt", 2)]["static_depth"] == PAPER_DEPTHS[("7pt", 2)]

    def test_27_point_reduction_factor(self, sweep):
        one = sweep[("27pt", 1)]["static_depth"]
        four = sweep[("27pt", 4)]["static_depth"]
        paper_factor = PAPER_DEPTHS[("27pt", 1)] / PAPER_DEPTHS[("27pt", 4)]  # ~2.1
        assert one / four >= 0.8 * paper_factor

    def test_dynamic_cycles_shrink_with_hthreads_27pt(self, sweep):
        assert sweep[("27pt", 4)]["cycles"] < sweep[("27pt", 1)]["cycles"]
        assert sweep[("27pt", 2)]["cycles"] < sweep[("27pt", 1)]["cycles"]

    def test_operation_count_roughly_constant(self, sweep):
        """Splitting over H-Threads redistributes work; it should not add
        more than a few transfer/synchronisation operations."""
        for kind in ("7pt", "27pt"):
            base = sweep[(kind, 1)]["operations"]
            assert sweep[(kind, 4)]["operations"] <= base + 10
