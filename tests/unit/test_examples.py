"""Smoke test: every script in ``examples/`` runs, in-process.

The examples are documentation that executes; before this suite they were
never run by CI, so an API change could silently strand them.  Each script
is executed via ``runpy`` as ``__main__`` in a scratch working directory
(some examples write snapshot files), and its assertions are the test.
"""

import runpy
import sys

import pytest

from pathlib import Path

from repro import MMachine

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def _run(path, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [str(path)])
    return runpy.run_path(str(path), run_name="__main__")


def test_examples_directory_found():
    assert EXAMPLES, f"no example scripts under {EXAMPLES_DIR}"


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_runs(path, monkeypatch, tmp_path, capsys):
    _run(path, monkeypatch, tmp_path)
    # Every example narrates what it did; an empty stdout means it silently
    # did nothing, which is as much a regression as an exception.
    assert capsys.readouterr().out.strip()


def test_quickstart_uses_the_experiment_facade(monkeypatch, tmp_path, capsys):
    """The quickstart is the documented entry point: it must demonstrate the
    typed API and actually produce the incremented word."""
    source = (EXAMPLES_DIR / "quickstart.py").read_text()
    assert "Experiment.builder()" in source
    assert "@workload" in source
    _run(EXAMPLES_DIR / "quickstart.py", monkeypatch, tmp_path)
    out = capsys.readouterr().out
    assert "memory word after the run : 42" in out
    assert "config fingerprint" in out


def test_checkpoint_example_fails_when_a_mismatched_restore_is_accepted(
        monkeypatch, tmp_path, capsys):
    """The example's last step must fail, not just stay quiet, when
    ``restore_snapshot`` accepts a snapshot of a differently-configured
    machine.  Its bit-exact part restores through ``from_snapshot``, which
    this stub does not touch."""
    monkeypatch.setattr(MMachine, "restore_snapshot", lambda self, document: None)
    with pytest.raises(AssertionError, match="restored into a 2x2x1 machine"):
        _run(EXAMPLES_DIR / "checkpoint_resume.py", monkeypatch, tmp_path)
    assert "resumed run is bit-exact" in capsys.readouterr().out
