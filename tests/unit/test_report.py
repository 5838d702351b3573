"""Unit tests for the paper-figure report subsystem (repro.report)."""

import json
import os

import pytest

from repro import cli
from repro.api.result import RunResult
from repro.report.compare import FAIL, OK, SKIPPED, delta_table, evaluate, failures
from repro.report.manifest import Manifest, ManifestError
from repro.report.render import build_markdown, render_report
from repro.report.svg import (
    escape,
    format_value,
    gantt_chart,
    grouped_bar_chart,
    nice_ceiling,
)
from repro.api.schema import SCHEMA_VERSION, make_record


def _record(workload, params, metrics, run_id=None, status="ok", tags=None):
    return make_record(
        run_id=run_id or f"{workload}-" + "-".join(f"{k}{v}" for k, v in params.items()),
        workload=workload,
        params=params,
        status=status,
        metrics=metrics,
        error="boom" if status == "failed" else None,
        tags=tags,
    )


def _document(records):
    return {
        "schema_version": SCHEMA_VERSION,
        "spec": {"name": "test-spec"},
        "runs": records,
    }


def _table1_record(**cells):
    """A Table 1 record with this repository's measured cells, overridden by
    ``cells`` (``remote_cache_miss=(read, write)``)."""
    measured = {
        "local_cache_hit": (3, 2), "local_cache_miss": (13, 19),
        "local_ltlb_miss": (50, 55), "remote_cache_hit": (59, 42),
        "remote_cache_miss": (68, 59), "remote_ltlb_miss": (105, 95),
    }
    measured.update(cells)
    metrics = {"verified": True}
    for scenario, (read, write) in measured.items():
        metrics[f"{scenario}_read"] = read
        metrics[f"{scenario}_write"] = write
    return _record("table1-access-times", {}, metrics)


def _pair(workload, key, values, cycles, **params):
    return [_record(workload, {**params, key: value},
                    {"verified": True, "cycles": count, key: value})
            for value, count in zip(values, cycles)]


@pytest.fixture
def sample_records():
    timeline = [[0, 0, "LOAD issues"], [5, 0, "LTLB miss"], [20, 1, "execute load"],
                [40, 0, "return data to destination register"]]
    return [
        _record("area-model", {"num_nodes": 32}, {
            "verified": True, "peak_ratio": 128.0, "area_ratio": 1.5189,
            "peak_per_area_improvement": 84.27,
            "processor_fraction_1993": 0.1111, "processor_fraction_1996": 0.04,
        }),
        _record("stencil", {"kind": "7pt", "n_hthreads": 1},
                {"verified": True, "cycles": 72, "static_depth": 12,
                 "workload_operations": 19}),
        _record("stencil", {"kind": "7pt", "n_hthreads": 2},
                {"verified": True, "cycles": 61, "static_depth": 8,
                 "workload_operations": 22}),
        _record("many-to-one-flood", {"queue_words": 6},
                {"verified": True, "cycles": 115, "nacks": 14,
                 "retransmissions": 14, "max_queue_words": 6}),
        _record("many-to-one-flood", {"queue_words": 128},
                {"verified": True, "cycles": 109, "nacks": 0,
                 "retransmissions": 0, "max_queue_words": 33}),
        _record("remote-access-timeline", {"kind": "read"},
                {"verified": True, "cycles": 41, "total_cycles": 40,
                 "milestones": 4,
                 "timeline": json.dumps(timeline, separators=(",", ":"))}),
    ]


@pytest.fixture
def manifest(sample_records):
    return Manifest.from_document(_document(sample_records), source="test")


@pytest.fixture
def full_manifest(sample_records):
    """Synthetic records for every section the paper-figures sweep covers."""
    records = sample_records + [
        _table1_record(),
        _record("cc-sync", {"iterations": 50},
                {"verified": True, "cycles": 408, "cycles_per_iteration": 8.16}),
        _record("cc-barrier", {"iterations": 50, "clusters": 4},
                {"verified": True, "cycles": 759, "cycles_per_iteration": 15.18}),
        _record("remote-store-latency", {}, {"verified": True, "latency": 25}),
        _record("message-stream", {"count": 64},
                {"verified": True, "cycles": 458, "cycles_per_message": 7.16}),
        _record("ping-pong", {"rounds": 16},
                {"verified": True, "cycles": 571, "cycles_per_round_trip": 35.7}),
        _record("gtlb-mapping", {"pages_per_node": 2},
                {"verified": True, "nodes_used": 8, "min_pages_per_node": 8,
                 "max_pages_per_node": 8, "gtlb_hit_rate": 0.9998}),
        _record("stencil", {"kind": "27pt", "n_hthreads": 1},
                {"verified": True, "cycles": 139, "static_depth": 32,
                 "workload_operations": 59}),
        _record("stencil", {"kind": "27pt", "n_hthreads": 4},
                {"verified": True, "cycles": 98, "static_depth": 13,
                 "workload_operations": 66}),
        _record("vthread-interleave", {"num_threads": 1},
                {"verified": True, "cycles": 204, "num_threads": 1}),
        _record("vthread-interleave", {"num_threads": 4},
                {"verified": True, "cycles": 349, "num_threads": 4}),
        _record("issue-policy", {"policy": "event-priority"},
                {"verified": True, "cycles": 408, "policy": "event-priority"}),
        _record("issue-policy", {"policy": "hep"},
                {"verified": True, "cycles": 2423, "policy": "hep"}),
        _record("remote-memory", {"mode": "remote", "repeats": 16},
                {"verified": True, "cycles": 949, "mode": "remote"}),
        _record("remote-memory", {"mode": "coherent", "repeats": 16},
                {"verified": True, "cycles": 177, "mode": "coherent"}),
        _record("flood", {"send_credits": 16, "messages": 24},
                {"verified": True, "cycles": 178, "nacks": 0,
                 "retransmissions": 0, "max_queue_words": 3}),
    ]
    return Manifest.from_document(_document(records), source="test-full")


class TestSvg:
    def test_format_value(self):
        assert format_value(12) == "12"
        assert format_value(12.0) == "12"
        assert format_value(8.16) == "8.16"
        assert format_value(1 / 3) == "0.3333"
        assert format_value(True) == "true"
        assert format_value("x") == "x"

    def test_escape(self):
        assert escape("a <b> & \"c\"") == "a &lt;b&gt; &amp; &quot;c&quot;"

    def test_nice_ceiling(self):
        assert nice_ceiling(0) == 1.0
        assert nice_ceiling(7) == 10.0
        assert nice_ceiling(101) == 200.0
        assert nice_ceiling(2423) == 2500.0

    def test_grouped_bar_chart_structure(self):
        svg = grouped_bar_chart("T", ["a", "b"], [("s1", [1, 2]), ("s2", [3, None])])
        assert svg.startswith("<svg ") and svg.endswith("</svg>\n")
        assert svg.count("<path ") == 3  # one bar skipped for the None gap
        assert "s1" in svg and "s2" in svg  # legend for >= 2 series

    def test_grouped_bar_chart_single_series_has_no_legend_swatch(self):
        # The only <rect> is the chart surface: one series means no legend.
        svg = grouped_bar_chart("T", ["a"], [("only", [1])])
        assert "<rect x=" not in svg

    def test_grouped_bar_chart_rejects_bad_input(self):
        with pytest.raises(ValueError):
            grouped_bar_chart("T", [], [("s", [])])
        with pytest.raises(ValueError):
            grouped_bar_chart("T", ["a"], [("s", [1, 2])])
        with pytest.raises(ValueError):
            grouped_bar_chart("T", ["a"], [(f"s{i}", [1]) for i in range(5)])

    def test_gantt_chart_structure(self):
        svg = gantt_chart("T", [(0, 0, "start"), (10, 1, "end")])
        assert "start" in svg and "end" in svg
        assert svg.count('rx="2"') >= 2
        with pytest.raises(ValueError):
            gantt_chart("T", [])

    def test_charts_are_deterministic(self):
        args = ("T", ["a", "b"], [("s", [1.5, 2.5])])
        assert grouped_bar_chart(*args) == grouped_bar_chart(*args)


class TestManifest:
    def test_load_results_file(self, tmp_path, sample_records):
        path = tmp_path / "sweep-results.json"
        path.write_text(json.dumps(_document(sample_records)))
        manifest = Manifest.load(str(path))
        assert len(manifest.records) == len(sample_records)
        assert manifest.spec_name == "test-spec"

    def test_load_results_dir_prefers_manifest(self, tmp_path, sample_records):
        (tmp_path / "sweep-results.json").write_text(json.dumps(_document(sample_records)))
        manifest = Manifest.load(str(tmp_path))
        assert len(manifest.records) == len(sample_records)

    def test_load_results_dir_falls_back_to_runs(self, tmp_path, sample_records):
        runs = tmp_path / "runs"
        runs.mkdir()
        for record in sample_records:
            (runs / (record["run_id"] + ".json")).write_text(json.dumps(record))
        manifest = Manifest.load(str(tmp_path))
        assert len(manifest.records) == len(sample_records)

    def test_load_rejects_unusable_paths(self, tmp_path):
        with pytest.raises(ManifestError):
            Manifest.load(str(tmp_path))  # empty dir
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ManifestError):
            Manifest.load(str(bad))

    def test_invalid_records_are_skipped_with_problems(self, sample_records):
        document = _document(sample_records + [{"run_id": "broken"}])
        manifest = Manifest.from_document(document)
        assert len(manifest.records) == len(sample_records)
        assert manifest.problems

    def test_find_matches_effective_defaults(self, manifest):
        # kernel="event" is a factory default the records never spelled out.
        assert manifest.find("stencil", kind="7pt", kernel="event")
        assert not manifest.find("stencil", kind="7pt", kernel="naive")
        # mesh defaults compare list-vs-tuple insensitively.
        assert manifest.find("stencil", mesh=[1, 1, 1])

    def test_records_are_run_results_in_run_id_order(self, manifest):
        assert all(isinstance(run, RunResult) for run in manifest.records)
        run_ids = [run.run_id for run in manifest.records]
        assert run_ids == sorted(run_ids)

    def test_find_unregistered_workload_matches_explicit_params(self, sample_records):
        records = sample_records + [_record("not-registered", {"size": [2, 2]}, {"cycles": 1})]
        manifest = Manifest.from_document(_document(records))
        assert manifest.find("not-registered", size=(2, 2))
        assert not manifest.find("not-registered", kernel="event")

    def test_find_excludes_failed_records(self, sample_records):
        records = sample_records + [
            _record("cc-sync", {"iterations": 5}, {}, status="failed")
        ]
        manifest = Manifest.from_document(_document(records))
        assert not manifest.find("cc-sync")
        assert manifest.counts() == (len(sample_records), 1)


class TestCompare:
    def test_statuses(self, manifest):
        rows = {row.key: row for row in evaluate(manifest)}
        assert rows["sec1/peak-ratio"].status == OK
        assert rows["fig5/static-depth-7pt-1T"].status == OK
        assert rows["ablation-a4/small-queue-nacks"].status == OK
        # Nothing in the sample manifest covers Table 1.
        assert rows["table1/local_cache_hit/read"].status == SKIPPED
        assert not failures(evaluate(manifest))

    def test_out_of_band_fails(self, sample_records):
        records = [record for record in sample_records
                   if record["workload"] != "many-to-one-flood"]
        records.append(_record("many-to-one-flood", {"queue_words": 128},
                               {"verified": True, "cycles": 109, "nacks": 3,
                                "retransmissions": 3, "max_queue_words": 33}))
        rows = {row.key: row
                for row in evaluate(Manifest.from_document(_document(records)))}
        assert rows["ablation-a4/large-queue-no-nacks"].status == FAIL
        assert failures(list(rows.values()))

    def test_pair_ratio_requires_both_sides(self, sample_records):
        # Only n_hthreads=1 for 27pt: the reduction ratio must be skipped.
        records = sample_records + [
            _record("stencil", {"kind": "27pt", "n_hthreads": 1},
                    {"verified": True, "cycles": 139, "static_depth": 32}),
        ]
        rows = {row.key: row
                for row in evaluate(Manifest.from_document(_document(records)))}
        assert rows["fig5/27pt-depth-reduction"].status == SKIPPED
        records.append(_record("stencil", {"kind": "27pt", "n_hthreads": 4},
                               {"verified": True, "cycles": 98, "static_depth": 13}))
        rows = {row.key: row
                for row in evaluate(Manifest.from_document(_document(records)))}
        assert rows["fig5/27pt-depth-reduction"].status == OK
        assert rows["fig5/27pt-depth-reduction"].measured == [round(32 / 13, 4)]

    def test_delta_table_lists_every_expectation(self, manifest):
        rows = evaluate(manifest)
        lines = delta_table(rows)
        assert len(lines) == len(rows) + 2  # header + separator


class TestRender:
    def test_render_both_is_deterministic(self, manifest, tmp_path):
        first = render_report(manifest, str(tmp_path / "a"))
        second = render_report(manifest, str(tmp_path / "b"))
        assert first.markdown_path and second.markdown_path
        names = sorted(os.listdir(tmp_path / "a"))
        assert names == sorted(os.listdir(tmp_path / "b"))
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_markdown_mentions_sections_and_check(self, manifest):
        lines, charts, check_rows, skipped = build_markdown(manifest)
        text = "\n".join(lines)
        assert "## Figure 5" in text
        assert "## Figure 9" in text
        assert "## Reproduction check vs the paper" in text
        assert "Table 1 access times" in text  # listed as not covered
        assert any(name.startswith("fig9-remote-read") for name, _ in charts)
        assert check_rows and skipped

    def test_format_md_writes_no_charts(self, manifest, tmp_path):
        result = render_report(manifest, str(tmp_path), fmt="md")
        assert result.chart_paths == []
        assert sorted(os.listdir(tmp_path)) == ["report.md"]
        text = (tmp_path / "report.md").read_text()
        assert "![" not in text  # no dangling image links

    def test_format_svg_writes_no_markdown(self, manifest, tmp_path):
        result = render_report(manifest, str(tmp_path), fmt="svg")
        assert result.markdown_path is None
        assert all(name.endswith(".svg") for name in os.listdir(tmp_path))
        with pytest.raises(ValueError):
            render_report(manifest, str(tmp_path), fmt="pdf")

    def test_full_manifest_renders_every_section(self, full_manifest, tmp_path):
        lines, charts, check_rows, skipped = build_markdown(full_manifest)
        assert skipped == []
        text = "\n".join(lines)
        for heading in ("## Sections 1/5", "## Figure 5", "## Figure 6",
                        "## Figure 7", "## Figure 8", "## Figure 9",
                        "## Table 1", "## Ablations A1-A4"):
            assert heading in text, heading
        assert "Not covered" not in text
        # Every evaluated expectation of the synthetic manifest passes.
        statuses = {row.key: row.status for row in check_rows}
        assert statuses["table1/local_cache_hit/read"] == OK
        assert statuses["ablation-a2/hep-vs-event-priority"] == OK
        assert statuses["ablation-a3/coherent-vs-remote"] == OK
        assert FAIL not in statuses.values()
        result = render_report(full_manifest, str(tmp_path))
        chart_names = sorted(os.path.basename(path) for path in result.chart_paths)
        assert "table1-read.svg" in chart_names
        assert "ablation-a1.svg" in chart_names
        assert "fig6-cc-sync.svg" in chart_names

    def test_timeline_detail_missing_is_noted(self, sample_records, tmp_path):
        records = [dict(record) for record in sample_records]
        for record in records:
            if record["workload"] == "remote-access-timeline":
                record["metrics"] = {k: v for k, v in record["metrics"].items()
                                     if k != "timeline"}
        manifest = Manifest.from_document(_document(records))
        lines, charts, _, _ = build_markdown(manifest)
        assert any("not recorded in this manifest" in line for line in lines)
        assert not any(name.startswith("fig9") for name, _ in charts)


#: Manifests that the paper's claims reject though a looser catalogue passed
#: them, each with the row that must fail: an A1 4-vs-1 V-Thread ratio of
#: 2.5, an A2 HEP slowdown of 2.5, an A3 coherent/remote ratio of 0.6, and a
#: remote cache-miss read below the remote cache-hit read.
STRICTER_CHECKS = [
    ("ablation-a1/4-threads-vs-1",
     _pair("vthread-interleave", "num_threads", (1, 4), (200, 500))),
    ("ablation-a2/hep-vs-event-priority",
     _pair("issue-policy", "policy", ("event-priority", "hep"), (400, 1000))),
    ("ablation-a3/coherent-vs-remote",
     _pair("remote-memory", "mode", ("remote", "coherent"), (1000, 600), repeats=16)),
    ("table1/remote-miss-read-vs-remote-hit-read",
     [_table1_record(remote_cache_hit=(68, 42), remote_cache_miss=(59, 50))]),
]


class TestReportCli:
    @pytest.mark.parametrize("key,records", STRICTER_CHECKS,
                             ids=[key for key, _ in STRICTER_CHECKS])
    def test_check_fails_what_the_paper_rejects(self, tmp_path, capsys, key, records):
        rows = evaluate(Manifest.from_document(_document(records)))
        assert [row.key for row in rows if row.status == FAIL] == [key]
        path = self._write_manifest(tmp_path, records)
        assert cli.main(["report", path, "--check"]) == 1
        assert f"repro report: {key}: measured" in capsys.readouterr().err

    def _write_manifest(self, tmp_path, records):
        path = tmp_path / "sweep-results.json"
        path.write_text(json.dumps(_document(records)))
        return str(path)

    def test_report_renders_and_checks_ok(self, tmp_path, sample_records, capsys):
        path = self._write_manifest(tmp_path, sample_records)
        out_dir = str(tmp_path / "out")
        assert cli.main(["report", path, "-o", out_dir, "--check"]) == 0
        assert os.path.isfile(os.path.join(out_dir, "report.md"))
        captured = capsys.readouterr()
        assert "reproduction check:" in captured.err

    def test_report_default_output_dir(self, tmp_path, sample_records):
        path = self._write_manifest(tmp_path, sample_records)
        assert cli.main(["report", path]) == 0
        assert os.path.isfile(str(tmp_path / "report" / "report.md"))

    def test_check_failure_exits_nonzero(self, tmp_path, sample_records, capsys):
        records = [record for record in sample_records
                   if record["workload"] != "many-to-one-flood"]
        records.append(_record("many-to-one-flood", {"queue_words": 128},
                               {"verified": True, "cycles": 109, "nacks": 3,
                                "retransmissions": 3, "max_queue_words": 33}))
        path = self._write_manifest(tmp_path, records)
        assert cli.main(["report", path, "--check"]) == 1
        assert "outside" in capsys.readouterr().err
        # Without --check the same render exits zero.
        assert cli.main(["report", path]) == 0

    def test_missing_manifest_is_usage_error(self, tmp_path, capsys):
        assert cli.main(["report", str(tmp_path / "nope.json")]) == 2
        assert "repro report:" in capsys.readouterr().err

    def test_empty_manifest_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "sweep-results.json"
        path.write_text(json.dumps({"schema_version": SCHEMA_VERSION, "runs": []}))
        assert cli.main(["report", str(path)]) == 2
        assert "no valid records" in capsys.readouterr().err

    def test_format_md_flag(self, tmp_path, sample_records):
        path = self._write_manifest(tmp_path, sample_records)
        out_dir = str(tmp_path / "md-only")
        assert cli.main(["report", path, "-o", out_dir, "--format", "md"]) == 0
        assert os.listdir(out_dir) == ["report.md"]


class TestSweepReportIntegration:
    def test_sweep_report_flag_renders(self, tmp_path):
        from repro.sweep.runner import SweepRunner
        from repro.sweep.spec import AxesGroup, SweepSpec

        spec = SweepSpec(name="tiny", groups=[
            AxesGroup("gtlb-mapping", params={"lookups": 50},
                      axes={"pages_per_node": [1, 2]}),
            AxesGroup("area-model"),
        ])
        runner = SweepRunner(results_dir=str(tmp_path), report=True,
                             log=lambda message: None)
        result = runner.run(spec)
        assert result.ok
        report_dir = tmp_path / "report"
        assert (report_dir / "report.md").is_file()
        assert any(name.endswith(".svg") for name in os.listdir(report_dir))
