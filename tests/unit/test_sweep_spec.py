"""Unit tests for the sweep spec, expansion determinism and result schema."""

import json

import pytest

from repro.sweep import (
    AxesGroup,
    RunSpec,
    SCHEMA_VERSION,
    SweepSpec,
    builtin_spec_names,
    builtin_specs,
    get_spec,
    make_record,
    validate_record,
    validate_results,
)
from repro.api import workload_names


def _quick_spec():
    return SweepSpec(
        name="quick",
        groups=[
            AxesGroup("stencil", params={"max_cycles": 30000},
                      axes={"kind": ["7pt", "27pt"], "n_hthreads": [1, 2]}),
            AxesGroup("area-model"),
        ],
    )


class TestExpansion:
    def test_cross_product_size(self):
        assert len(_quick_spec().expand()) == 2 * 2 + 1

    def test_expansion_is_deterministic(self):
        first = [run.run_id for run in _quick_spec().expand()]
        second = [run.run_id for run in _quick_spec().expand()]
        assert first == second

    def test_axis_order_does_not_change_ids(self):
        forward = AxesGroup("stencil", axes={"kind": ["7pt"], "n_hthreads": [1, 2]})
        reversed_axes = AxesGroup("stencil",
                                  axes={"n_hthreads": [1, 2], "kind": ["7pt"]})
        assert ([run.run_id for run in forward.expand()]
                == [run.run_id for run in reversed_axes.expand()])

    def test_duplicate_runs_are_collapsed(self):
        spec = SweepSpec(name="dup", groups=[
            AxesGroup("area-model", params={"num_nodes": 32}),
            AxesGroup("area-model", axes={"num_nodes": [32, 64]}),
        ])
        assert len(spec.expand()) == 2

    def test_duplicate_runs_merge_tags(self):
        spec = SweepSpec(name="dup-tags", groups=[
            AxesGroup("area-model", params={"num_nodes": 32},
                      tags={"figure": "sec1"}),
            AxesGroup("area-model", params={"num_nodes": 32},
                      tags={"figure": "other", "extra": "yes"}),
        ])
        runs = spec.expand()
        assert len(runs) == 1
        # First group wins on conflicts; new keys from the duplicate survive.
        assert runs[0].tags == {"figure": "sec1", "extra": "yes"}

    def test_run_id_readable_and_distinct(self):
        runs = _quick_spec().expand()
        ids = [run.run_id for run in runs]
        assert len(set(ids)) == len(ids)
        assert ids[0].startswith("stencil_")
        assert "7pt" in ids[0]

    def test_run_id_stable_across_dict_roundtrip(self):
        for run in _quick_spec().expand():
            assert RunSpec.from_dict(run.to_dict()).run_id == run.run_id

    def test_params_differing_only_in_value_get_distinct_ids(self):
        one = RunSpec("stencil", {"n_hthreads": 1})
        two = RunSpec("stencil", {"n_hthreads": 2})
        assert one.run_id != two.run_id


class TestSpecValidation:
    def test_valid_spec_has_no_problems(self):
        assert _quick_spec().validate(workload_names()) == []

    def test_unknown_workload_is_reported(self):
        spec = SweepSpec(name="bad", groups=[AxesGroup("no-such-workload")])
        problems = spec.validate(workload_names())
        assert any("no-such-workload" in problem for problem in problems)

    def test_empty_spec_is_reported(self):
        assert SweepSpec(name="empty").validate() != []

    def test_param_axis_collision_is_reported(self):
        spec = SweepSpec(name="clash", groups=[
            AxesGroup("stencil", params={"kind": "7pt"}, axes={"kind": ["27pt"]}),
        ])
        assert any("both a fixed param and an axis" in p for p in spec.validate())


class TestSpecFiles:
    def test_json_roundtrip(self, tmp_path):
        spec = _quick_spec()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        loaded = SweepSpec.from_file(str(path))
        assert loaded.expand() == spec.expand()

    def test_yaml_file_rejected(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text(
            "name: yamlspec\n"
            "groups:\n"
            "  - workload: stencil\n"
            "    axes:\n"
            "      kind: [7pt, 27pt]\n"
        )
        with pytest.raises(ValueError, match="not valid JSON") as excinfo:
            SweepSpec.from_file(str(path))
        assert str(path) in str(excinfo.value)

    def test_non_mapping_file_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            SweepSpec.from_file(str(path))


class TestBuiltinSpecs:
    def test_names(self):
        assert builtin_spec_names() == ["paper-figures", "scenario-matrix", "smoke"]

    def test_all_builtins_validate_against_registry(self):
        for name, spec in builtin_specs().items():
            assert spec.validate(workload_names()) == [], name

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get_spec("nope")

    def test_paper_figures_covers_every_figure(self):
        tags = {run.tags.get("figure") for run in get_spec("paper-figures").expand()}
        assert {"fig5", "fig6", "fig7", "fig8", "fig9", "table1", "sec1",
                "ablation-a1", "ablation-a2", "ablation-a3", "ablation-a4"} <= tags

    def test_scenario_matrix_scales_mesh_and_kernel(self):
        runs = get_spec("scenario-matrix").expand()
        # secded-soak is single-node and sweeps no mesh axis.
        meshes = {tuple(run.params["mesh"]) for run in runs if "mesh" in run.params}
        kernels = {run.params["kernel"] for run in runs}
        assert (8, 8, 1) in meshes and (2, 2, 1) in meshes
        assert kernels == {"event", "naive"}

    def test_scenario_matrix_includes_fault_family(self):
        workloads = {run.workload for run in get_spec("scenario-matrix").expand()}
        assert {"multitenant-timeshare", "protection-storm",
                "secded-soak", "nack-flood"} <= workloads


class TestSchema:
    def _record(self, **overrides):
        record = make_record(
            run_id="r1", workload="stencil", params={"kind": "7pt"},
            status="ok", metrics={"cycles": 72, "verified": True},
            wall_seconds=0.5,
        )
        record.update(overrides)
        return record

    def test_make_record_is_valid(self):
        assert validate_record(self._record()) == []

    def test_missing_field_detected(self):
        record = self._record()
        del record["metrics"]
        assert any("metrics" in problem for problem in validate_record(record))

    def test_bad_status_detected(self):
        assert validate_record(self._record(status="maybe")) != []

    def test_failed_without_error_detected(self):
        assert any("error" in p for p in validate_record(self._record(status="failed")))

    def test_unverified_ok_record_detected(self):
        record = self._record(metrics={"cycles": 72, "verified": False})
        assert validate_record(record) != []

    def test_non_scalar_metric_detected(self):
        record = self._record(metrics={"cycles": [1, 2]})
        assert validate_record(record) != []

    def test_results_document_roundtrip(self):
        document = {
            "schema_version": SCHEMA_VERSION,
            "expected_run_ids": ["r1"],
            "runs": [self._record()],
        }
        assert validate_results(document) == []

    def test_missing_and_unexpected_records_detected(self):
        document = {
            "schema_version": SCHEMA_VERSION,
            "expected_run_ids": ["r1", "r2"],
            "runs": [self._record(run_id="r3")],
        }
        problems = validate_results(document)
        assert any("missing record" in p for p in problems)
        assert any("unexpected record" in p for p in problems)

    def test_failed_record_fails_unless_allowed(self):
        failed = make_record(
            run_id="r1", workload="stencil", params={}, status="failed",
            metrics={}, wall_seconds=0.1, error="boom",
        )
        document = {"schema_version": SCHEMA_VERSION, "runs": [failed]}
        assert validate_results(document) != []
        assert validate_results(document, allow_failed=True) == []
