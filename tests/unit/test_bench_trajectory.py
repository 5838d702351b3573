"""Unit tests for the benchmark-trajectory file (repro.report.trajectory)."""

import json
import os

import pytest

from repro.report import trajectory


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "BENCH_kernel.json")


class TestSchema:
    def test_valid_document(self):
        document = {
            "schema_version": trajectory.SCHEMA_VERSION,
            "sessions": [{
                "repro_version": "0.5.0",
                "python": "3.11.7",
                "benchmarks": {"kernel": {"cycles_per_second": 1000}},
            }],
        }
        assert trajectory.validate_trajectory(document) == []

    def test_rejects_wrong_shapes(self):
        assert trajectory.validate_trajectory([]) != []
        assert trajectory.validate_trajectory({"schema_version": 99}) != []
        assert trajectory.validate_trajectory(
            {"schema_version": trajectory.SCHEMA_VERSION, "sessions": {}}
        ) != []

    def test_rejects_bad_sessions(self):
        assert trajectory.validate_session("x") != []
        assert trajectory.validate_session({"repro_version": "v"}) != []
        assert trajectory.validate_session({
            "repro_version": "v", "python": "3", "benchmarks": {"k": {"m": [1]}},
        }) != []

    def test_generated_file_passes_the_ci_gate(self, path):
        # The exact document conftest writes must clear the CI bench gate.
        trajectory.append_session(path, {"kernel": {"cycles_per_second": 1000}})
        assert trajectory.check_file(path, require_nonempty=True) == []

    def test_local_trajectory_is_valid_when_present(self):
        # BENCH_kernel.json is a gitignored artifact; when a local benchmark
        # run has produced one, it must validate against the schema.
        repo_root = os.path.join(os.path.dirname(__file__), "..", "..")
        local = os.path.join(repo_root, "BENCH_kernel.json")
        if not os.path.exists(local):
            pytest.skip("no local benchmark trajectory")
        assert trajectory.validate_trajectory(
            json.load(open(local, encoding="utf-8"))
        ) == []


class TestAppend:
    def test_creates_and_appends_sessions(self, path):
        trajectory.append_session(path, {"kernel": {"speed": 1}})
        trajectory.append_session(path, {"kernel": {"speed": 2}})
        document = json.load(open(path))
        assert trajectory.validate_trajectory(document) == []
        assert [s["benchmarks"]["kernel"]["speed"]
                for s in document["sessions"]] == [1, 2]

    def test_empty_benchmarks_still_appends_a_session(self, path):
        trajectory.append_session(path, {})
        assert len(trajectory.load_sessions(path)) == 1

    def test_corrupt_file_is_replaced(self, path):
        with open(path, "w") as handle:
            handle.write("{nope")
        document = trajectory.append_session(path, {"kernel": {"speed": 1}})
        assert len(document["sessions"]) == 1

    def test_cap_keeps_newest_sessions(self, path):
        for index in range(6):
            trajectory.append_session(path, {"kernel": {"run": index}},
                                      max_sessions=4)
        sessions = trajectory.load_sessions(path)
        assert [s["benchmarks"]["kernel"]["run"] for s in sessions] == [2, 3, 4, 5]


class TestCheckFile:
    def test_missing_file(self, path):
        assert trajectory.check_file(path) != []

    def test_empty_sessions_fail_only_when_required(self, path):
        with open(path, "w") as handle:
            json.dump({"schema_version": trajectory.SCHEMA_VERSION,
                       "sessions": []}, handle)
        assert trajectory.check_file(path) == []
        assert trajectory.check_file(path, require_nonempty=True) != []

    def test_sessions_without_benchmarks_fail_nonempty(self, path):
        trajectory.append_session(path, {})
        assert trajectory.check_file(path) == []
        assert trajectory.check_file(path, require_nonempty=True) != []

    def test_main_exit_codes(self, path, capsys):
        assert trajectory.main([path]) == 1
        trajectory.append_session(path, {"kernel": {"speed": 1}})
        assert trajectory.main([path, "--require-nonempty"]) == 0
        assert "valid" in capsys.readouterr().out
