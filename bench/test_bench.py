"""Tests of the benchmark itself, at test-sized units (tier-1, a few seconds).

They check that the benchmark reports failures instead of crashing, that
tracing leaves simulated results untouched, that a resumed coherent run
equals the uninterrupted one, that the layer spans account for a unit's
time, and the comparison rules of ``bench.compare``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from bench import ROOT, WORKLOAD_NAMES
from bench.compare import main as compare_main
from bench.compare import paired, verdict
from bench.measure import host_time, run_unit, span_total
from bench.workloads import WORKLOADS, WRITE_SEPARATION, _share_plan, coherent_share
from repro import Experiment
from repro.memory.page_table import block_base


def _tiny_inputs(name, seed=3):
    workload = WORKLOADS[name]
    return workload.prepare(seed, **workload.tiny)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "bench", *args], cwd=cwd, capture_output=True, text=True,
        timeout=120,
    )


def test_wrong_expectation_is_a_failed_op_not_a_traceback():
    completed = _bench("--workload", "busy-8x8", "--size", "tiny", "--seconds", "0",
                       "--wrong-expectation")
    assert completed.returncode == 1
    assert "Traceback" not in completed.stderr
    summary = json.loads(completed.stdout.strip().splitlines()[-1])
    assert summary["correct"] is False
    assert summary["failed"] > 0
    assert summary["attempted"] >= summary["failed"]


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _bench("--workload", "busy-8x8", "--seconds", "0", cwd=tmp_path)
    assert completed.returncode == 2
    assert completed.stdout == ""


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_unit_matches_untraced_and_spans_cover_it(name, tmp_path):
    inputs = _tiny_inputs(name)
    plain = run_unit(name, inputs, traced=False, workdir=str(tmp_path / "plain"))
    traced = run_unit(name, inputs, traced=True, workdir=str(tmp_path / "traced"))
    assert plain["failures"] == [] and traced["failures"] == []
    assert plain["digest"] == traced["digest"]

    wall = traced["wall_s"]
    self_times = {key: entry[2] for key, entry in traced["spans"].items()}
    assert all(value >= -1e-9 for value in self_times.values())
    layers = sum(value for key, value in self_times.items() if key != "unit<process>")
    assert layers <= wall + 1e-9
    assert layers >= 0.9 * wall
    assert span_total(traced, "scheduler", 0) >= 1


def test_resumed_coherent_run_equals_the_uninterrupted_one(tmp_path):
    builder = (
        Experiment.builder()
        .workload(coherent_share, seed=5, groups=2)
        .mesh(2, 2, 1)
        .trace(str(tmp_path / "trace"))
        .checkpoint(str(tmp_path / "checkpoints"), every=100)
    )
    with builder.build() as experiment:
        first = experiment.run()
        resumed = experiment.run()
    assert "resumed_from_cycle" in resumed.tags
    assert resumed.metrics == first.metrics


@pytest.mark.parametrize("seed", range(20))
def test_coherent_writes_to_one_block_are_groups_apart(seed):
    groups = WORKLOADS["coherent-share-4x4"].full["groups"]
    writes = {}
    for table in _share_plan(seed, groups, num_nodes=16):
        for group, address in enumerate(table[3::5]):
            writes.setdefault(block_base(address), []).append(group)
    for block_groups in writes.values():
        ordered = sorted(block_groups)
        assert all(b - a >= WRITE_SEPARATION for a, b in zip(ordered, ordered[1:]))


def test_host_time_leaves_out_reference_passes_and_counts_in_them():
    calibrations = [(0.0, 1.0), (3.0, 4.0), (10.0, 12.0)]
    # 1 s between passes of 1 s each, then 6 s between passes of 1 s and 2 s.
    assert host_time(calibrations, 2.0, 11.0) == pytest.approx((7.0, 1.0 + 6.0 / 1.5))


def test_workload_names_match_the_definitions():
    assert tuple(WORKLOADS) == WORKLOAD_NAMES


def test_composed_workloads_follow_the_seed():
    for name in ("remote-gather-8x8", "coherent-share-4x4"):
        assert _tiny_inputs(name, seed=1) == _tiny_inputs(name, seed=1)
        assert _tiny_inputs(name, seed=1) != _tiny_inputs(name, seed=2)


@pytest.mark.parametrize("parent, change, lower, expected", [
    ([1.00, 1.01, 0.99, 1.00], [1.00, 1.01, 1.00, 0.99], True, "unchanged"),
    ([1.00, 1.01, 0.99, 1.00], [1.30, 1.31, 1.29, 1.30], True, "regressed"),
    ([1.00, 1.01, 0.99, 1.00], [0.80, 0.81, 0.79, 0.80], True, "improved"),
    ([1.00, 1.01, 0.99, 1.00], [1.20, 1.21, 1.19, 1.20], False, "improved"),
    ([1.00, 1.60, 0.50, 1.00], [1.00, 1.01, 0.99, 1.00], True, "unresolved"),
    ([1.00, 1.60, 1.40, 1.00], [0.40, 0.41, 0.39, 0.40], True, "improved"),
])
def test_compare_rules(parent, change, lower, expected):
    assert verdict(dict(enumerate(parent)), dict(enumerate(change)), bound=0.1,
                   lower_is_better=lower) == expected


def test_compare_pairs_runs_by_seed_not_by_position():
    assert paired({1: 1.5, 0: 1.0}, {0: 0.9, 1: 1.4}) == ([1.0, 1.5], [0.9, 1.4])
    with pytest.raises(ValueError):
        paired({0: 1.0, 1: 1.5}, {0: 0.9, 2: 1.4})


def _result_file(directory, name, seed):
    run = {"seed": seed, "end_to_end": {
        "wall_norm_s": {"value": 10.0 + seed / 100, "unit": "s"},
        "ops": {"value": 3, "unit": "count"}, "ops_failed": {"value": 0, "unit": "count"},
    }}
    document = {"seed": seed, "trace": False, "fingerprint": {}, "workloads": {"w": run}}
    directory.mkdir(exist_ok=True)
    path = directory / name
    path.write_text(json.dumps(document))
    return str(path)


@pytest.mark.parametrize("change_seeds, status", [
    ((0, 1), 0),  # paired: every row unchanged
    ((0, 2), 2),  # different seeds
    ((0, 1, 1), 2),  # two results for one seed
])
def test_compare_refuses_unpaired_seeds(tmp_path, change_seeds, status):
    parent = [_result_file(tmp_path / "parent", f"{seed}.json", seed) for seed in (0, 1)]
    change = [_result_file(tmp_path / "change", f"{index}.json", seed)
              for index, seed in enumerate(change_seeds)]
    assert compare_main(parent + change) == status
