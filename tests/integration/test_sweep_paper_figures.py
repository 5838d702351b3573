"""Acceptance: ``repro sweep paper-figures --jobs 4`` completes, gives in
every record what an in-process run of the same workload gives, resumes
without re-executing anything, and renders the committed
``docs/reports/paper-figures/`` report byte for byte.

The sweep executes in worker *processes*, so the record comparison checks
that the simulator is deterministic across process boundaries.

The paper's claims are the expectation catalogue (``repro/report/expected.py``)
that ``repro report --check`` evaluates; the golden pins its verdicts, and
``test_paper_claim_holds`` checks each row on its own, so a claim that no
longer holds fails under its catalogue key.  The few claims that are no band
on one record or one same-workload pair are the tests at the end, over the
records this module's sweep already holds.
"""

import json
import os

import pytest

from repro.api import get_workload
from repro.cli import main
from repro.report import Manifest, evaluate, render_report
from repro.report.compare import OK
from repro.report.expected import EXPECTATIONS
from repro.sweep import get_spec, validate_results
from repro.sweep.runner import RESULTS_FILENAME

#: The full report rendered from this sweep (``report.md`` plus its charts):
#: every section and all 58 paper checks, which the smoke golden does not
#: cover.
GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "docs", "reports", "paper-figures"
)


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


def test_sweep_records_match_in_process_runs(sweep_results):
    runs = sweep_results["document"]["runs"]
    assert len(runs) == len(get_spec("paper-figures").expand())
    for record in runs:
        in_process = get_workload(record["workload"]).call(record["params"])
        assert record["metrics"] == in_process, record["run_id"]


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


@pytest.fixture(scope="module")
def manifest(sweep_results):
    return Manifest.from_document(sweep_results["document"])


@pytest.fixture(scope="module")
def check_rows(manifest):
    return {row.key: row for row in evaluate(manifest)}


@pytest.mark.parametrize("key", [spec.key for spec in EXPECTATIONS])
def test_paper_claim_holds(check_rows, key):
    """The sweep measures every catalogue row, and each measurement is
    inside the row's band: ``repro report --check`` passes with no row
    skipped."""
    row = check_rows[key]
    assert row.status == OK, (row.measured, row.lo, row.hi)


def _metrics(manifest, workload, **params):
    return manifest.first(workload, **params).metrics


@pytest.mark.parametrize("kind", ["7pt", "27pt"])
def test_fig5_four_hthreads_add_at_most_ten_operations(manifest, kind):
    """Splitting a stencil over H-Threads redistributes its work; it adds
    no more than a few transfer and synchronisation operations."""
    one = _metrics(manifest, "stencil", kind=kind, n_hthreads=1)
    four = _metrics(manifest, "stencil", kind=kind, n_hthreads=4)
    assert four["workload_operations"] <= one["workload_operations"] + 10


def test_fig7_stream_pipelines_below_single_store_latency(manifest):
    """Message injection pipelines: a stream's cycles per message stay far
    below the completion latency of one remote store."""
    stream = _metrics(manifest, "message-stream")["cycles_per_message"]
    latency = _metrics(manifest, "remote-store-latency")["latency"]
    assert stream < 1.5 * latency


@pytest.mark.parametrize("kind,fragments", [
    ("read", ("LOAD issues", "LTLB miss", "message received",
              "reply message received", "destination register")),
    ("write", ("STORE issues", "LTLB miss", "message received", "store complete")),
])
def test_fig9_timeline_holds_every_milestone(manifest, kind, fragments):
    timeline = manifest.first("remote-access-timeline", kind=kind).timeline
    labels = " | ".join(label for _, _, label in timeline)
    for fragment in fragments:
        assert fragment in labels


def test_fig9_software_steps_dominate_the_remote_read(manifest):
    """As in the paper's breakdown, the handlers take most of a remote read:
    the request network's span is under a third of it."""
    read = manifest.first("remote-access-timeline", kind="read")
    cycles = {label: cycle for cycle, _, label in read.timeline}
    sent = next(cycle for label, cycle in cycles.items() if "handler sends" in label)
    request_network = cycles["message received / message handler dispatches"] - sent
    assert request_network < read.metrics["total_cycles"] / 3


def test_table1_ltlb_miss_adder_is_similar_local_and_remote(manifest):
    metrics = _metrics(manifest, "table1-access-times")
    local = metrics["local_ltlb_miss_read"] - metrics["local_cache_miss_read"]
    remote = metrics["remote_ltlb_miss_read"] - metrics["remote_cache_miss_read"]
    assert remote == pytest.approx(local, rel=0.6)
