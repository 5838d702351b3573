"""Unit tests for the ``repro`` CLI: parsing, list/run/validate commands."""

import gzip
import json
import os

import pytest

from repro.cli import build_parser, main, parse_param, parse_params
from repro.report import trajectory
from repro.sweep import SCHEMA_VERSION, make_record
from repro.sweep.runner import RESULTS_FILENAME, RUNS_DIRNAME


class TestArgParsing:
    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "smoke"])
        assert args.spec == "smoke"
        assert args.jobs == 1
        assert args.results_dir == "sweep-results"
        assert not args.force and not args.dry_run

    def test_sweep_jobs_short_flag(self):
        args = build_parser().parse_args(["sweep", "smoke", "-j", "4"])
        assert args.jobs == 4

    def test_no_command_is_an_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_param_values_parse_as_json_when_possible(self):
        assert parse_param("4") == 4
        assert parse_param("[4,4,1]") == [4, 4, 1]
        assert parse_param("true") is True
        assert parse_param("7pt") == "7pt"

    def test_parse_params_pairs(self):
        params = parse_params(["kind=7pt", "n_hthreads=2"])
        assert params == {"kind": "7pt", "n_hthreads": 2}

    def test_parse_params_rejects_bare_words(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_params(["nonsense"])


class TestListCommand:
    def test_lists_workloads_and_specs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "stencil" in out
        assert "paper-figures" in out
        assert "smoke" in out


class TestRunCommand:
    def test_run_prints_metrics_json(self, capsys):
        assert main(["run", "area-model"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["peak_ratio"] == 128
        assert payload["run_id"].startswith("area-model_")

    def test_run_with_params(self, capsys):
        assert main(["run", "stencil", "--param", "kind=7pt",
                     "--param", "n_hthreads=2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["verified"] is True
        assert payload["metrics"]["static_depth"] == 8

    def test_unknown_workload_exits_2(self, capsys):
        assert main(["run", "no-such-workload"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_malformed_param_exits_2(self):
        assert main(["run", "stencil", "--param", "oops"]) == 2

    def test_invalid_param_value_exits_2(self, capsys):
        assert main(["run", "ping-pong", "--param", "mesh=[1,1,1]"]) == 2
        assert "at least two nodes" in capsys.readouterr().err

    def test_unexpected_param_name_exits_2(self, capsys):
        assert main(["run", "stencil", "--param", "bogus=1"]) == 2
        assert "bogus" in capsys.readouterr().err


class TestTraceCommand:
    def _record_run(self, tmp_path, capsys):
        trace_dir = str(tmp_path / "trace")
        assert main(["run", "message-stream", "--param", "count=16",
                     "--trace-dir", trace_dir,
                     "--trace-chunk-events", "32"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace_dir"] == trace_dir
        return trace_dir

    def test_run_then_stats(self, tmp_path, capsys):
        trace_dir = self._record_run(tmp_path, capsys)
        assert main(["trace", "stats", trace_dir]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["events"] > 0
        assert stats["chunks"] >= 1
        assert stats["chunk_events"] == 32
        assert "send" in stats["categories"]

    def test_dump_streams_readable_events(self, tmp_path, capsys):
        trace_dir = self._record_run(tmp_path, capsys)
        assert main(["trace", "dump", trace_dir,
                     "--category", "send", "--limit", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert all("send" in line for line in lines)

    def test_filter_emits_jsonl_rows(self, tmp_path, capsys):
        trace_dir = self._record_run(tmp_path, capsys)
        assert main(["trace", "filter", trace_dir,
                     "--category", "msg_deliver", "--node", "1"]) == 0
        rows = [json.loads(line)
                for line in capsys.readouterr().out.strip().splitlines()]
        assert rows, "no msg_deliver rows on the receiving node"
        for cycle, node, category, info in rows:
            assert node == 1 and category == "msg_deliver"
            assert isinstance(info, dict)

    def test_filter_since_restricts_cycles(self, tmp_path, capsys):
        trace_dir = self._record_run(tmp_path, capsys)
        assert main(["trace", "filter", trace_dir, "--since", "100"]) == 0
        rows = [json.loads(line)
                for line in capsys.readouterr().out.strip().splitlines()]
        assert rows and all(row[0] >= 100 for row in rows)

    def test_missing_trace_dir_exits_2(self, tmp_path, capsys):
        assert main(["trace", "stats", str(tmp_path / "absent")]) == 2
        assert "trace" in capsys.readouterr().err

    def test_truncated_chunk_exits_2(self, tmp_path, capsys):
        trace_dir = self._record_run(tmp_path, capsys)
        chunk = os.path.join(trace_dir, "machine-0", "chunk-00000.jsonl.gz")
        with open(chunk, "rb") as handle:
            data = handle.read()
        with open(chunk, "wb") as handle:
            handle.write(data[: len(data) // 2])
        assert main(["trace", "dump", trace_dir]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro trace: ") and chunk in err
        assert "Traceback" not in err

    def test_stats_of_chunks_recorded_out_of_cycle_order(self, tmp_path, capsys):
        """A cache-miss store's ``store_complete`` is recorded before events
        of earlier cycles, so 8-event chunks of this run are not in cycle
        order; each chunk's range is its lowest and highest cycle."""
        trace_dir = str(tmp_path / "trace")
        assert main(["run", "message-stream", "--param", "count=8",
                     "--trace-dir", trace_dir, "--trace-chunk-events", "8"]) == 0
        capsys.readouterr()
        assert main(["trace", "stats", trace_dir]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert main(["trace", "filter", trace_dir]) == 0
        cycles = [json.loads(line)[0]
                  for line in capsys.readouterr().out.strip().splitlines()]
        assert cycles != sorted(cycles)
        assert len(cycles) == stats["events"]
        assert (stats["first_cycle"], stats["last_cycle"]) == (min(cycles), max(cycles))

    def test_missing_machine_exits_2(self, tmp_path, capsys):
        trace_dir = self._record_run(tmp_path, capsys)
        assert main(["trace", "stats", trace_dir, "--machine", "7"]) == 2
        assert capsys.readouterr().err

    def test_chunk_events_without_trace_dir_exits_2(self, capsys):
        assert main(["run", "area-model", "--trace-chunk-events", "64"]) == 2
        assert "--trace-dir" in capsys.readouterr().err


class TestProfileCommand:
    def test_profile_prints_top_n_table(self, capsys):
        assert main(["profile", "area-model", "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "workload area-model" in out
        assert "sort cumtime" in out
        # The pstats table header and at least one profiled frame.
        assert "ncalls" in out
        assert "cumtime" in out
        assert "function calls" in out

    def test_profile_sort_tottime(self, capsys):
        assert main(["profile", "area-model", "--sort", "tottime"]) == 0
        out = capsys.readouterr().out
        assert "sort tottime" in out
        assert "Ordered by: internal time" in out

    def test_profile_unknown_workload_exits_2(self, capsys):
        assert main(["profile", "no-such-workload"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_profile_bad_limit_exits_2(self, capsys):
        assert main(["profile", "area-model", "--limit", "0"]) == 2
        assert "--limit" in capsys.readouterr().err


class TestSweepArgErrors:
    def test_unknown_spec_exits_2(self, capsys):
        assert main(["sweep", "no-such-spec"]) == 2
        assert "unknown sweep spec" in capsys.readouterr().err

    def test_spec_and_spec_file_together_exit_2(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text("{}")
        assert main(["sweep", "smoke", "--spec-file", str(path)]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_neither_spec_nor_file_exits_2(self):
        assert main(["sweep"]) == 2

    def test_malformed_yaml_spec_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("groups: [unclosed\n  - nonsense: {")
        assert main(["sweep", "--spec-file", str(path)]) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err and str(path) in err

    def test_dry_run_still_validates_the_spec(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "name": "typo",
            "groups": [{"workload": "stencill"}],
        }))
        assert main(["sweep", "--spec-file", str(path), "--dry-run"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_dry_run_prints_ids_without_results(self, tmp_path, capsys):
        results_dir = tmp_path / "results"
        assert main(["sweep", "smoke", "--dry-run",
                     "--results-dir", str(results_dir)]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 11
        assert not results_dir.exists()


class TestValidateCommand:
    def _write(self, path, document):
        path.write_text(json.dumps(document))
        return str(path)

    def test_valid_document_exits_0(self, tmp_path, capsys):
        record = make_record(run_id="r1", workload="area-model", params={},
                             status="ok", metrics={"peak_ratio": 128},
                             wall_seconds=0.1)
        path = self._write(tmp_path / "ok.json",
                           {"schema_version": SCHEMA_VERSION, "runs": [record]})
        assert main(["validate", path]) == 0
        assert "valid (1 records)" in capsys.readouterr().out

    def test_schema_invalid_document_exits_1(self, tmp_path, capsys):
        path = self._write(tmp_path / "bad.json",
                           {"schema_version": SCHEMA_VERSION,
                            "runs": [{"run_id": "r1"}]})
        assert main(["validate", path]) == 1
        assert "missing field" in capsys.readouterr().err

    def test_missing_records_exit_1(self, tmp_path, capsys):
        path = self._write(tmp_path / "missing.json",
                           {"schema_version": SCHEMA_VERSION,
                            "expected_run_ids": ["r1"], "runs": []})
        assert main(["validate", path]) == 1
        assert "missing record" in capsys.readouterr().err

    def test_unreadable_file_exits_2(self, tmp_path):
        assert main(["validate", str(tmp_path / "absent.json")]) == 2

    def test_failed_runs_exit_1_unless_allowed(self, tmp_path):
        record = make_record(run_id="r1", workload="stencil", params={},
                             status="failed", metrics={}, wall_seconds=0.1,
                             error="boom")
        path = self._write(tmp_path / "failed.json",
                           {"schema_version": SCHEMA_VERSION, "runs": [record]})
        assert main(["validate", path]) == 1
        assert main(["validate", path, "--allow-failed"]) == 0


class TestVersionFlag:
    def test_version_prints_package_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestInfoCommand:
    def test_info_dumps_default_config_as_json(self, capsys):
        assert main(["info"]) == 0
        payload = json.loads(capsys.readouterr().out)
        defaults = payload["defaults"]
        assert defaults["mesh_shape"] == [2, 2, 2]
        assert defaults["num_nodes"] == 8
        assert defaults["vthread_slots"] == 6
        assert defaults["cache_words"] == 4 * 4096
        assert defaults["sdram_words"] == 1 << 20
        assert payload["config"]["network"]["mesh_shape"] == [2, 2, 2]
        assert payload["snapshot_schema_version"] >= 1

    def test_info_config_round_trips(self, capsys):
        from repro.snapshot import config_from_dict

        assert main(["info"]) == 0
        payload = json.loads(capsys.readouterr().out)
        config = config_from_dict(payload["config"])
        assert config.num_nodes == 8


class TestSnapshotResumeCommands:
    def test_snapshot_parser_defaults(self):
        args = build_parser().parse_args(
            ["snapshot", "cc-sync", "--at-cycle", "100", "--out", "s.json"])
        assert args.workload == "cc-sync"
        assert args.at_cycle == 100 and args.out == "s.json"

    def test_resume_parser_defaults(self):
        args = build_parser().parse_args(["resume", "s.json"])
        assert args.max_cycles == 1_000_000

    @pytest.mark.parametrize("option", ["--fanout", "--jobs"])
    def test_resume_has_no_fanout_options(self, option, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["resume", "s.json", option, "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sweep_checkpoint_every_flag(self):
        args = build_parser().parse_args(
            ["sweep", "smoke", "--checkpoint-every", "5000"])
        assert args.checkpoint_every == 5000

    def test_snapshot_then_resume_end_to_end(self, tmp_path, capsys):
        path = str(tmp_path / "warm.json")
        assert main(["snapshot", "cc-sync", "--at-cycle", "60",
                     "--out", path, "--param", "iterations=20"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["snapshot"] == path
        assert payload["cycle"] >= 60

        assert main(["resume", path]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert sorted(resumed) == [
            "cycles", "measured_cycles", "resumed_from_cycle", "snapshot", "summary"]
        assert resumed["snapshot"] == path
        assert resumed["resumed_from_cycle"] >= 60
        assert resumed["measured_cycles"] == (
            resumed["cycles"] - resumed["resumed_from_cycle"])
        assert resumed["summary"]["cycles"] == resumed["cycles"]
        assert resumed["summary"]["nodes"] == 1

        # The resumed run ends where the uninterrupted run does.
        assert main(["run", "cc-sync", "--param", "iterations=20"]) == 0
        uninterrupted = json.loads(capsys.readouterr().out)["metrics"]
        assert resumed["cycles"] == uninterrupted["cycles"] == 168
        for key in ("instructions", "operations", "messages"):
            assert resumed["summary"][key] == uninterrupted[key], key

    def test_snapshot_unknown_workload_exits_2(self, tmp_path, capsys):
        assert main(["snapshot", "no-such", "--at-cycle", "10",
                     "--out", str(tmp_path / "s.json")]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_snapshot_after_workload_end_exits_1(self, tmp_path, capsys):
        assert main(["snapshot", "cc-sync", "--at-cycle", "10000000",
                     "--out", str(tmp_path / "s.json"),
                     "--param", "iterations=5"]) == 1
        assert "finished before" in capsys.readouterr().err

    def test_resume_unreadable_snapshot_exits_2(self, tmp_path, capsys):
        assert main(["resume", str(tmp_path / "absent.json")]) == 2
        assert "cannot read snapshot" in capsys.readouterr().err

    def test_resume_malformed_snapshot_exits_2(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        assert main(["snapshot", "ping-pong", "--param", "rounds=4", "--at-cycle", "40",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        document = json.loads(path.read_text())
        del document["machine"]["nodes"][0]["clusters"]
        path.write_text(json.dumps(document))
        assert main(["resume", str(path)]) == 2
        assert "repro resume: snapshot machine section is malformed: KeyError" in (
            capsys.readouterr().err)

    def test_resume_malformed_cluster_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        assert main(["snapshot", "ping-pong", "--param", "rounds=4", "--at-cycle", "40",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        document = json.loads(path.read_text())
        document["config"]["cluster"]["icache_words"] = -1
        path.write_text(json.dumps(document))
        assert main(["resume", str(path)]) == 2
        assert ("repro resume: snapshot config section is malformed: ValueError: "
                "cluster.icache_words must be 1024, the value this build runs, "
                "got -1") in capsys.readouterr().err


def _bad_deflate():
    """A gzip member with a sound header and a deflate stream that starts
    with an invalid block type."""
    data = bytearray(gzip.compress(b"{}", mtime=0))
    data[10] = 0xFF
    return bytes(data)


#: Bytes no reader can decode: a UTF-16 byte-order mark, a UTF-8 lead byte
#: without its continuation inside a JSON string, and a gzip member with a
#: corrupt deflate stream (not UTF-8 either).
UNDECODABLE = {
    "utf16-bom": b"\xff\xfe{\x00}\x00",
    "cut-utf8": b'{"runs": ["\xc3"]}',
    "bad-deflate": _bad_deflate(),
}


def _write(path, data):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return str(path)


def _tiny_sweep(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "tiny", "groups": [{"workload": "area-model"}]}))
    return ["sweep", "--spec-file", str(spec), "--results-dir", str(tmp_path / "out")]


def _report_file(tmp_path, data, capsys):
    path = _write(tmp_path / RESULTS_FILENAME, data)
    assert main(["report", path]) == 2
    assert f"repro report: {path} is not valid JSON" in capsys.readouterr().err


def _report_dir(tmp_path, data, capsys):
    assert main(_tiny_sweep(tmp_path)) == 0
    os.remove(tmp_path / "out" / RESULTS_FILENAME)
    _write(tmp_path / "out" / RUNS_DIRNAME / "x.json", data)
    assert main(["report", str(tmp_path / "out")]) == 0
    assert "skipped invalid record: x.json: not valid JSON" in capsys.readouterr().err


def _validate(tmp_path, data, capsys):
    path = _write(tmp_path / RESULTS_FILENAME, data)
    assert main(["validate", path]) == 2
    assert f"repro validate: cannot read {path}" in capsys.readouterr().err


def _resume(tmp_path, data, capsys):
    for name in ("s.json", "s.json.gz"):
        path = _write(tmp_path / name, data)
        assert main(["resume", path]) == 2
        assert f"repro resume: cannot read snapshot {path}" in capsys.readouterr().err


def _sweep_record(tmp_path, data, capsys):
    args = _tiny_sweep(tmp_path)
    assert main(args) == 0
    [record] = (tmp_path / "out" / RUNS_DIRNAME).iterdir()
    record.write_bytes(data)
    assert main(args) == 0
    document = json.loads((tmp_path / "out" / RESULTS_FILENAME).read_text())
    assert document["counts"]["executed"] == 1


def _sweep_spec_file(tmp_path, data, capsys):
    path = _write(tmp_path / "spec.json", data)
    assert main(["sweep", "--spec-file", path]) == 2
    assert f"repro sweep: sweep spec {path} is not valid JSON" in capsys.readouterr().err


def _trajectory(tmp_path, data, capsys):
    path = _write(tmp_path / "BENCH_kernel.json", data)
    assert trajectory.load_sessions(path) == []
    assert trajectory.main([path]) == 1
    assert f"trajectory: cannot read {path}" in capsys.readouterr().err


#: Every reader of an on-disk JSON input, and the clean outcome it must
#: give on bytes it cannot decode: a named error, a listed problem, a re-run.
READERS = {
    "report-file": _report_file,
    "report-dir": _report_dir,
    "validate": _validate,
    "resume": _resume,
    "sweep-record": _sweep_record,
    "sweep-spec-file": _sweep_spec_file,
    "trajectory": _trajectory,
}


@pytest.mark.parametrize("pattern", sorted(UNDECODABLE))
@pytest.mark.parametrize("reader", sorted(READERS))
def test_undecodable_input_fails_cleanly(tmp_path, capsys, reader, pattern):
    READERS[reader](tmp_path, UNDECODABLE[pattern], capsys)


def test_report_dir_lists_a_directory_named_like_a_record(tmp_path, capsys):
    assert main(_tiny_sweep(tmp_path)) == 0
    os.remove(tmp_path / "out" / RESULTS_FILENAME)
    (tmp_path / "out" / RUNS_DIRNAME / "x.json").mkdir()
    assert main(["report", str(tmp_path / "out")]) == 0
    assert "skipped invalid record: x.json: cannot read" in capsys.readouterr().err
