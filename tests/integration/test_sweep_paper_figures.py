"""Acceptance: ``repro sweep paper-figures --jobs 4`` completes, matches the
benchmarks' cycle counts, resumes without re-executing anything, and renders
the committed ``docs/reports/paper-figures/`` report byte for byte.

The benchmark suite runs its scenarios through the same workload factories
(``benchmarks/conftest.py::run_and_record``), so equality against fresh
in-process factory runs is exactly equality against the pytest benchmarks —
and because the sweep executes in worker *processes*, this also checks that
the simulator is deterministic across process boundaries.
"""

import json
import os

import pytest

from repro.api import get_workload
from repro.cli import main
from repro.report import Manifest, render_report
from repro.sweep import get_spec, validate_results
from repro.sweep.runner import RESULTS_FILENAME

#: The full report rendered from this sweep (``report.md`` plus its charts):
#: every section and all 34 paper checks, which the smoke golden does not
#: cover.
GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "docs", "reports", "paper-figures"
)

#: (workload, params) pairs re-run in-process for the cycle-count comparison;
#: a representative of every machine-driving figure and ablation.
CHECKED = [
    ("stencil", {"kind": "7pt", "n_hthreads": 1}),
    ("stencil", {"kind": "27pt", "n_hthreads": 4}),
    ("cc-sync", {"iterations": 50}),
    ("cc-barrier", {"iterations": 50, "clusters": 4}),
    ("remote-store-latency", {}),
    ("message-stream", {"count": 64}),
    ("ping-pong", {"rounds": 16}),
    ("remote-access-timeline", {"kind": "read"}),
    ("vthread-interleave", {"num_threads": 4}),
    ("issue-policy", {"policy": "hep"}),
    ("remote-memory", {"mode": "remote", "repeats": 16}),
    ("remote-memory", {"mode": "coherent", "repeats": 16}),
    ("flood", {"messages": 24, "send_credits": 2}),
    ("many-to-one-flood", {"queue_words": 6}),
]


@pytest.fixture(scope="module")
def sweep_results(tmp_path_factory):
    results_dir = tmp_path_factory.mktemp("paper-figures")
    exit_code = main(["sweep", "paper-figures", "--jobs", "4",
                      "--results-dir", str(results_dir)])
    document = json.loads((results_dir / RESULTS_FILENAME).read_text())
    return {"exit_code": exit_code, "results_dir": results_dir,
            "document": document}


def test_sweep_completes_and_validates(sweep_results):
    assert sweep_results["exit_code"] == 0
    document = sweep_results["document"]
    assert validate_results(document) == []
    assert document["counts"]["total"] == len(get_spec("paper-figures").expand())
    assert document["counts"]["failed"] == 0


def test_sweep_cycle_counts_match_benchmark_runs(sweep_results):
    by_id = {record["run_id"]: record
             for record in sweep_results["document"]["runs"]}
    from repro.sweep.spec import RunSpec

    for workload, params in CHECKED:
        run_id = RunSpec(workload=workload, params=params).run_id
        assert run_id in by_id, f"paper-figures is missing {workload} {params}"
        sweep_metrics = by_id[run_id]["metrics"]
        bench_metrics = get_workload(workload).call(params)
        assert sweep_metrics["cycles"] == bench_metrics["cycles"], (workload, params)
        assert sweep_metrics == bench_metrics, (workload, params)


def test_reinvocation_skips_all_completed_runs(sweep_results):
    exit_code = main(["sweep", "paper-figures", "--jobs", "4",
                      "--results-dir", str(sweep_results["results_dir"])])
    assert exit_code == 0
    document = json.loads(
        (sweep_results["results_dir"] / RESULTS_FILENAME).read_text()
    )
    total = document["counts"]["total"]
    assert document["counts"]["reused"] == total
    assert document["counts"]["executed"] == 0
    # Identical records to the first invocation (loaded from disk).
    assert document["runs"] == sweep_results["document"]["runs"]


def test_report_matches_committed_golden(sweep_results, tmp_path):
    manifest = Manifest.load(str(sweep_results["results_dir"] / RESULTS_FILENAME))
    assert manifest.problems == []
    out_dir = tmp_path / "report"
    render_report(manifest, str(out_dir))
    names = sorted(os.listdir(out_dir))
    assert names == sorted(os.listdir(GOLDEN_DIR))
    for name in names:
        with open(os.path.join(GOLDEN_DIR, name), "rb") as handle:
            assert (out_dir / name).read_bytes() == handle.read(), name
