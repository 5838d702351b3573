"""Repeat one workload's unit for a time budget and turn it into metrics.

Untraced units give the end-to-end metrics.  A traced run alternates
untraced and traced units, so it also yields the tracing overhead and
checks, unit by unit, that tracing leaves the simulated-statistics digest
unchanged; its per-layer metrics come from the traced units only.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import tempfile
import time
from typing import Dict, List, Tuple

import repro

from bench.probes import Probe, Recorder, reference_pass
from bench.workloads import WORKLOADS, UnitContext, UnitOutcome

#: End-to-end metrics: name -> unit.  See bench/README.md for definitions.
END_TO_END = {
    "wall_s": "s", "wall_norm_s": "s", "setup_s": "s", "setup_raw_s": "s",
    "sim_cycles_per_s": "cycles/s", "ref_s": "s", "peak_rss_mb": "MB",
    "sim_cycles": "cycles", "sim_ipc": "instr/cycle", "ops": "count", "ops_failed": "count",
    "paper_bands_failed": "count", "run_p50_s": "s", "run_p98_s": "s",
}

#: Coarse spans that are set-up work.
SETUP_SPANS = ("machine.build", "workloads.load")

#: Reference passes whose median is taken right after each cold import.
REFERENCE_PASSES = 5

#: Seconds one reference pass takes on the host the baseline was recorded
#: on (a 2-vCPU Xeon VM, CPython 3.11) while it runs at full speed.  The
#: normalised metrics count host time in reference passes and multiply by
#: this, so they read as the seconds the work takes on that host at full
#: speed.
REFERENCE_PASS_S = 0.0023

#: Per-layer metrics: name -> unit.  Times and counts are per traced unit.
PER_LAYER = {
    "api.import_s": "s", "machine.build_s": "s", "machine.builds": "count",
    "workloads.load_s": "s", "workloads.verify_s": "s",
    "scheduler.self_s": "s", "scheduler.awake_ratio": "ratio",
    "node.tick_s": "s", "node.self_s": "s", "node.ticks": "count", "node.ns_per_tick": "ns",
    "cluster.issue_s": "s", "cluster.issue_calls": "count", "cluster.issue_ratio": "ratio",
    "cluster.writeback_s": "s", "cluster.compile_s": "s", "cluster.compiles": "count",
    "switches.deliver_s": "s", "switches.transfers": "count",
    "memory.tick_s": "s", "memory.sdram_s": "s", "memory.sdram_accesses": "count",
    "memory.cache_hit_ratio": "ratio", "memory.ltlb_miss_ratio": "ratio",
    "runtime.handler_s": "s", "runtime.handler_calls": "count",
    "runtime.block_fetches": "count", "runtime.invalidations": "count",
    "runtime.dirty_writebacks": "count",
    "network.mesh_s": "s", "network.ni_s": "s", "network.messages": "count",
    "network.contention_cycles": "cycles", "network.latency_cycles": "cycles",
    "network.nacks": "count",
    "trace.record_s": "s", "trace.events": "count", "trace.flush_s": "s",
    "trace.coverage": "ratio",
    "snapshot.save_s": "s", "snapshot.saves": "count", "snapshot.bytes": "bytes",
    "snapshot.restore_s": "s",
    "sweep.overhead_s": "s", "report.render_s": "s",
    "trace_overhead": "ratio",
}

#: Per-layer ``*_s`` metrics that are a span's inclusive time.
_INCLUSIVE = {
    "machine.build_s": "machine.build", "workloads.load_s": "workloads.load",
    "workloads.verify_s": "workloads.verify", "node.tick_s": "node.tick",
    "cluster.issue_s": "cluster.issue", "cluster.writeback_s": "cluster.writeback",
    "cluster.compile_s": "cluster.compile", "switches.deliver_s": "switches.deliver",
    "memory.tick_s": "memory.tick", "memory.sdram_s": "memory.sdram",
    "runtime.handler_s": "runtime.handler", "network.mesh_s": "network.mesh",
    "network.ni_s": "network.ni", "trace.record_s": "trace.record",
    "trace.flush_s": "trace.flush", "snapshot.save_s": "snapshot.save",
    "snapshot.restore_s": "snapshot.restore", "report.render_s": "report.render",
}

#: Per-layer call counts that are a span's count.
_CALLS = {
    "machine.builds": "machine.build", "node.ticks": "node.tick",
    "cluster.issue_calls": "cluster.issue", "cluster.compiles": "cluster.compile",
    "trace.events": "trace.record", "snapshot.saves": "snapshot.save",
}

#: Per-layer counts read from the components at the end of each unit.
_COUNTERS = {
    "switches.transfers": "transfers", "memory.sdram_accesses": "sdram",
    "runtime.handler_calls": "handler_calls", "runtime.block_fetches": "block_fetches",
    "runtime.invalidations": "invalidations", "runtime.dirty_writebacks": "dirty_writebacks",
    "network.messages": "messages", "network.contention_cycles": "contention",
    "network.nacks": "nacks", "snapshot.bytes": "snapshot_bytes",
}

#: Fewest units a run measures, untraced and traced (half of them traced).
MIN_UNITS = {False: 3, True: 4}


def _layer_counts(probe: Probe) -> Dict[str, int]:
    """Component counters summed over the unit's machines, as each machine
    reports them at the end (a resumed machine includes restored counts)."""
    counts = dict.fromkeys((
        "node_cycles", "node_ticks", "issued", "snapshot_bytes", "transfers", "sdram",
        "cache_hits", "cache_misses", "ltlb_hits", "ltlb_misses", "handler_calls",
        "block_fetches", "invalidations", "dirty_writebacks", "messages", "contention",
        "latency", "delivered", "nacks",
    ), 0)
    for state in probe.machines:
        machine = state.machine
        counts["node_cycles"] += state.cycles * machine.num_nodes
        counts["node_ticks"] += state.node_ticks
        counts["issued"] += state.issued
        counts["snapshot_bytes"] += state.snapshot_bytes
        mesh = machine.mesh
        counts["messages"] += mesh.messages_injected
        counts["contention"] += mesh.link_contention_cycles
        counts["latency"] += mesh.total_latency
        counts["delivered"] += mesh.messages_delivered
        for node in machine.nodes:
            counts["transfers"] += node.cswitch.transfers_delivered
            counts["sdram"] += node.sdram.reads + node.sdram.writes
            counts["cache_hits"] += node.cache.hits
            counts["cache_misses"] += node.cache.misses
            counts["ltlb_hits"] += node.ltlb.hits
            counts["ltlb_misses"] += node.ltlb.misses
            counts["nacks"] += node.net.nacks_received
            counts["handler_calls"] += sum(h.invocations for h in node.native_handlers)
        coherence = getattr(machine.runtime, "coherence", None)
        if coherence is not None:
            for key in ("block_fetches", "invalidations", "dirty_writebacks"):
                counts[key] += getattr(coherence, key)
    return counts


def _digest(outcome: UnitOutcome, probe: Probe) -> str:
    """Hash of everything the unit simulated (no host times, no paths)."""
    machines = [[state.machine.cycle, state.machine.stats().summary()]
                for state in probe.machines]
    text = json.dumps([outcome.digest, machines], sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def host_time(calibrations: List[Tuple[float, float]], start: float,
              end: float) -> Tuple[float, float]:
    """Host seconds spent from *start* to *end* outside reference passes,
    and the same time counted in reference passes: each stretch between two
    passes divided by the mean length of those two passes."""
    seconds = passes = 0.0
    for (start_a, end_a), (start_b, end_b) in zip(calibrations, calibrations[1:]):
        overlap = min(end, start_b) - max(start, end_a)
        if overlap > 0:
            seconds += overlap
            passes += 2 * overlap / (end_a - start_a + end_b - start_b)
    return seconds, passes


def _spans_time(recorder: Recorder, names: Tuple[str, ...]) -> Tuple[float, float]:
    """:func:`host_time` summed over the recorder's raw spans of *names*."""
    times = [host_time(recorder.calibrations, start, end)
             for span, _, start, end in recorder.raw if span in names]
    return sum(seconds for seconds, _ in times), sum(passes for _, passes in times)


def run_unit(name: str, inputs: object, traced: bool, workdir: str,
             expect_offset: int = 0) -> dict:
    """Run one unit of workload *name* and return its measurements.

    An untraced unit is calibrated (see :class:`bench.probes.Recorder`); a
    traced one takes reference passes only before and after it.  ``spans``
    maps ``"name<parent"`` to [count, inclusive_s, self_s]; the unit's own
    span is ``unit<process>``.
    """
    recorder = Recorder()
    probe = Probe(recorder, detailed=traced)
    context = UnitContext(recorder=recorder, probe=probe, workdir=workdir,
                          expect_offset=expect_offset)
    recorder.calibrate()
    recorder.calibrating = not traced
    depth = recorder.depth
    recorder.enter("unit")
    try:
        with probe.patched_modules():
            outcome = WORKLOADS[name].unit(context, inputs)
    except Exception as error:  # a unit that raises is one failed op; the run goes on
        outcome = UnitOutcome(ops=1, failures=[f"{type(error).__name__}: {error}"])
    finally:
        recorder.close_to(depth + 1)
        span_s = recorder.exit()
    recorder.calibrate()
    machines = [state.machine for state in probe.machines]
    wall_s, wall_passes = _spans_time(recorder, ("unit",))
    setup_s, setup_passes = _spans_time(recorder, SETUP_SPANS)
    run_s, _ = _spans_time(recorder, ("scheduler",))
    cycles = sum(state.cycles for state in probe.machines)
    return {
        "traced": traced,
        "wall_s": wall_s,
        "wall_passes": wall_passes,
        "setup_s": setup_s,
        "setup_passes": setup_passes,
        "ref_s": statistics.median(end - start for start, end in recorder.calibrations),
        "cycles_per_s": cycles / run_s if run_s > 0 else 0.0,
        "sim_cycles": sum(machine.cycle for machine in machines),
        "instructions": sum(machine.stats().summary()["instructions"] for machine in machines),
        "ops": outcome.ops,
        "failures": outcome.failures,
        "ops_failed": min(len(outcome.failures), outcome.ops),
        "digest": _digest(outcome, probe),
        "spans": {f"{span}<{parent}": entry
                  for (span, parent), entry in recorder.totals.items()},
        "coverage": 1.0 - recorder.self_time("unit") / span_s if span_s > 0 else 0.0,
        "counts": _layer_counts(probe),
        "run_walls": outcome.run_walls,
        "bands_failed": outcome.bands_failed,
        "sweep_overhead_s": outcome.sweep_overhead_s,
        "raw_spans": recorder.raw if traced else [],
    }


def span_total(unit: dict, name: str, field: int) -> float:
    """Sum of one field (0 count, 1 inclusive, 2 self) of span *name*
    over all its parents in *unit*."""
    prefix = name + "<"
    return sum(entry[field] for key, entry in unit["spans"].items() if key.startswith(prefix))


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: List[float], percent: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def reference_seconds() -> float:
    """The median length of a few reference passes taken now."""
    return statistics.median(reference_pass() for _ in range(REFERENCE_PASSES))


def _end_to_end(units: List[dict], imports: List[Tuple[float, float]]) -> Dict[str, float]:
    plain = [unit for unit in units if not unit["traced"]]
    first = plain[0]
    setup_passes = (_median([seconds / reference for seconds, reference in imports])
                    + _median([unit["setup_passes"] for unit in plain]))
    metrics = {
        "wall_s": _median([unit["wall_s"] for unit in plain]),
        "wall_norm_s": _median([unit["wall_passes"] for unit in plain]) * REFERENCE_PASS_S,
        "setup_s": setup_passes * REFERENCE_PASS_S,
        "setup_raw_s": (_median([seconds for seconds, _ in imports])
                        + _median([unit["setup_s"] for unit in plain])),
        "sim_cycles_per_s": _median([unit["cycles_per_s"] for unit in plain]),
        "ref_s": _median([unit["ref_s"] for unit in plain]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_cycles": first["sim_cycles"],
        "sim_ipc": round(_ratio(first["instructions"], first["sim_cycles"]), 6),
        "ops": sum(unit["ops"] for unit in units),
        "ops_failed": sum(unit["ops_failed"] for unit in units),
        "paper_bands_failed": max(unit["bands_failed"] for unit in units),
    }
    walls = [wall for unit in plain for wall in unit["run_walls"]]
    if walls:
        metrics["run_p50_s"] = _percentile(walls, 50)
        metrics["run_p98_s"] = _percentile(walls, 98)
    return metrics


def _per_layer(units: List[dict], imports: List[Tuple[float, float]]) -> Dict[str, float]:
    traced = [unit for unit in units if unit["traced"]]
    plain = [unit for unit in units if not unit["traced"]]
    count = len(traced)

    def spans(name: str, field: int) -> float:
        return sum(span_total(unit, name, field) for unit in traced)

    def counter(name: str) -> int:
        return sum(unit["counts"][name] for unit in traced)

    metrics = {"api.import_s": _median([seconds for seconds, _ in imports])}
    for metric, span in _INCLUSIVE.items():
        metrics[metric] = spans(span, 1) / count
    for metric, span in _CALLS.items():
        metrics[metric] = spans(span, 0) / count
    for metric, key in _COUNTERS.items():
        metrics[metric] = counter(key) / count
    metrics.update({
        "scheduler.self_s": spans("scheduler", 2) / count,
        "scheduler.awake_ratio": _ratio(counter("node_ticks"), counter("node_cycles")),
        "node.self_s": spans("node.tick", 2) / count,
        "node.ns_per_tick": _ratio(spans("node.tick", 1), spans("node.tick", 0)) * 1e9,
        "cluster.issue_ratio": _ratio(counter("issued"), spans("cluster.issue", 0)),
        "memory.cache_hit_ratio": _ratio(
            counter("cache_hits"), counter("cache_hits") + counter("cache_misses")),
        "memory.ltlb_miss_ratio": _ratio(
            counter("ltlb_misses"), counter("ltlb_hits") + counter("ltlb_misses")),
        "network.latency_cycles": _ratio(counter("latency"), counter("delivered")),
        "trace.coverage": _median([unit["coverage"] for unit in traced]),
        "sweep.overhead_s": sum(unit["sweep_overhead_s"] for unit in traced) / count,
        "trace_overhead": _ratio(_median([unit["wall_s"] for unit in traced]),
                                 _median([unit["wall_s"] for unit in plain])) - 1.0,
    })
    return metrics


def _with_units(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, dict]:
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def _another_unit(units: List[dict], traced: bool, deadline: float) -> bool:
    """Whether to start another unit: always below :data:`MIN_UNITS`, then
    only if a unit of the next kind (traced or not) is likely to end nearer
    to *deadline* than now is."""
    if len(units) < MIN_UNITS[traced]:
        return True
    next_traced = traced and len(units) % 2 == 1
    expected = _median([unit["wall_s"] for unit in units if unit["traced"] == next_traced])
    return time.perf_counter() + expected / 2 <= deadline


def measure(name: str, seed: int, seconds: float, traced: bool, size: str,
            expect_offset: int, import_span: Tuple[float, float],
            imports: List[Tuple[float, float]], work_root: str) -> dict:
    """Prepare *name*'s inputs from *seed*, repeat its unit for *seconds*
    (at least :data:`MIN_UNITS` units) and summarise them.

    *import_span* is when this worker started and finished importing the
    simulator, *imports* the (seconds, reference seconds) of each cold
    import sample, and *work_root* the directory scratch files go under.
    """
    workload = WORKLOADS[name]
    inputs = workload.prepare(seed, **(workload.tiny if size == "tiny" else workload.full))
    os.makedirs(work_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="worker-", dir=work_root)
    units: List[dict] = []
    deadline = time.perf_counter() + seconds
    # The garbage collector runs before every unit, so every unit starts
    # from the same heap and no unit's garbage lifts the next one's memory
    # peak.  The units' files are deleted only after the last unit.
    try:
        while _another_unit(units, traced, deadline):
            workdir = tempfile.mkdtemp(prefix="unit-", dir=scratch)
            gc.collect()
            units.append(run_unit(name, inputs, traced and len(units) % 2 == 1, workdir,
                                  expect_offset))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another worker's scratch is still there
    digests = sorted({unit["digest"] for unit in units})
    failures = [message for unit in units for message in unit["failures"]]
    end_to_end = _end_to_end(units, imports)
    if len(digests) > 1:
        failures.append(f"units disagree: simulated-statistics digests {digests}")
        end_to_end["ops_failed"] += 1
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "size": size,
        "repro_version": repro.__version__,
        "units": len(units),
        "traced_units": sum(1 for unit in units if unit["traced"]),
        "digest": digests[0] if len(digests) == 1 else None,
        "failures": failures[:20],
        "end_to_end": _with_units(end_to_end, END_TO_END),
    }
    if traced:
        result["per_layer"] = _with_units(_per_layer(units, imports), PER_LAYER)
        totals: Dict[str, List[float]] = {}
        for unit in units:
            if unit["traced"]:
                for key, entry in unit["spans"].items():
                    merged = totals.setdefault(key, [0, 0.0, 0.0])
                    for index in range(3):
                        merged[index] += entry[index]
        result["spans"] = totals
        trace_id = f"{name}-seed{seed}-pid{os.getpid()}"
        raw = [["api.import", "process", import_span[0], import_span[1]]]
        raw += [span for unit in units for span in unit["raw_spans"]]
        result["raw_spans"] = [
            {"trace_id": trace_id, "name": span, "parent": parent,
             "start_s": round(start - import_span[0], 6), "end_s": round(end - import_span[0], 6)}
            for span, parent, start, end in raw
        ]
    return result
