"""A malformed sweep manifest is refused, never a traceback in the report.

Each container and leaf of the smoke sweep's ``sweep-results.json`` is set
in turn to None, "x", [], {}, -1, 1.5 and [1, 2], and the mutant goes
through ``Manifest.load`` and ``render_report``.  Each must either raise
``ManifestError`` or render: a record whose params or metrics the section
builders could not read is listed in ``manifest.problems`` and left out,
as a schema-invalid record is.
"""

import copy
import json

import pytest

from repro.cli import main
from repro.report import Manifest, ManifestError, render_report
from repro.sweep.runner import RESULTS_FILENAME

#: Values each container and leaf of the manifest is set to in turn.
MUTANT_VALUES = (None, "x", [], {}, -1, 1.5, [1, 2])


@pytest.fixture(scope="module")
def smoke_document(tmp_path_factory):
    results_dir = tmp_path_factory.mktemp("smoke")
    assert main(["sweep", "smoke", "--jobs", "1", "--results-dir", str(results_dir)]) == 0
    return json.loads((results_dir / RESULTS_FILENAME).read_text())


def _paths(node, prefix=()):
    """The path of every container and leaf below the top of *node*."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def test_smoke_manifest_mutants_render_or_raise_manifest_error(smoke_document, tmp_path):
    assert Manifest.from_document(smoke_document).problems == []
    path = tmp_path / RESULTS_FILENAME
    mutants, escapes = 0, []
    for where in _paths(smoke_document):
        for value in MUTANT_VALUES:
            mutant = copy.deepcopy(smoke_document)
            target = mutant
            for key in where[:-1]:
                target = target[key]
            target[where[-1]] = copy.deepcopy(value)
            path.write_text(json.dumps(mutant))
            mutants += 1
            try:
                render_report(Manifest.load(str(path)), str(tmp_path / "report"))
            except ManifestError:
                pass
            except Exception as error:  # any other exception is an escape
                escapes.append((where, value, f"{type(error).__name__}: {error}"))
    assert mutants == 1862
    assert escapes == []


@pytest.mark.parametrize("where, value, problem", [
    (("params", "n_hthreads"), [1, 2], "param 'n_hthreads' is [1, 2], not a number"),
    (("params", "kind"), -1, "param 'kind' is -1, not a string"),
    (("metrics", "cycles"), "x", "metric 'cycles' is 'x', not a number"),
    (("metrics", "cycles"), None, "metric 'cycles' is None, not a number"),
    (("metrics",), {"verified": True}, "metric 'cycles' is missing"),
    (("metrics", "timeline"), "x", "'timeline' is not a JSON list of [cycle, node, label]"),
    (("metrics", "timeline"), "[[1, 0]]", "'timeline' is not a JSON list of [cycle, node, label]"),
    (("tags",), "x", "field 'tags' has type str"),
])
def test_unreadable_record_is_listed_and_left_out(smoke_document, where, value, problem):
    document = copy.deepcopy(smoke_document)
    [record] = [run for run in document["runs"] if run["params"].get("n_hthreads") == 2
                and run["params"].get("kernel") == "event"]
    target = record
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    manifest = Manifest.from_document(document)
    assert len(manifest.records) == len(document["runs"]) - 1
    [listed] = manifest.problems
    assert listed.startswith("runs[") and problem in listed
