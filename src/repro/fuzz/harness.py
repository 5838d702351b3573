"""Differential harness: one generated program, every clock driver.

Each generated program runs under both simulation kernels — the event
kernel and the naive reference loop — and every observable the repository's
equivalence suites guard must be identical: final cycle, machine
statistics, per-context microarchitectural state including the per-reason
stall strings, SECDED error counters, the full event trace and the snapshot
state (:func:`machine_view`).  A third
run snapshot-round-trips at a seeded mid-run cycle and must land on the
same final state (the bit-exact-resume guarantee).

The harness is the fuzzing analogue of the differential tests: they pin
the hand-picked scenarios of ``tests/integration/scenarios.py`` through
the same comparison, this one pins whatever :mod:`repro.fuzz.generator`
dreams up.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.machine import MMachine
from repro.fuzz.generator import GeneratedProgram, GeneratorKnobs, generate_program
from repro.fuzz.shrink import shrink_program

#: The differential grid: the baseline kernel first, then every variant
#: compared against it.
BASELINE = "event"
VARIANTS = ("naive",)


def observe(machine: MMachine) -> Dict[str, object]:
    """Everything the equivalence suites compare, as one JSON-safe dict."""
    stats = machine.stats()
    contexts = []
    for node in machine.nodes:
        for cluster in node.clusters:
            for context in cluster.contexts:
                contexts.append(
                    {
                        "state": context.state.name,
                        "pc": context.pc,
                        "issued": context.instructions_issued,
                        "stall_cycles": context.stall_cycles,
                        "stall_reasons": dict(context.stall_reasons),
                    }
                )
    return json.loads(
        json.dumps(
            {
                "cycle": machine.cycle,
                "summary": stats.summary(),
                "node_stats": stats.node_stats,
                "contexts": contexts,
                "icache_fetches": [
                    cluster.icache.fetches
                    for node in machine.nodes
                    for cluster in node.clusters
                ],
                "secded": [
                    {
                        "corrected": node.memory.sdram.corrected_errors,
                        "detected": node.memory.sdram.detected_errors,
                    }
                    for node in machine.nodes
                ],
                "trace": [str(event) for event in machine.tracer.events],
            }
        )
    )


def first_difference(expected: object, actual: object, path: str = "$") -> Optional[str]:
    """Human-readable path + values of the first mismatch (None when equal)."""
    if type(expected) is not type(actual):
        return f"{path}: type {type(expected).__name__} != {type(actual).__name__}"
    if isinstance(expected, dict):
        for key in expected:
            if key not in actual:
                return f"{path}.{key}: missing"
            diff = first_difference(expected[key], actual[key], f"{path}.{key}")
            if diff is not None:
                return diff
        extra = [key for key in actual if key not in expected]
        if extra:
            return f"{path}: unexpected keys {extra}"
        return None
    if isinstance(expected, list):
        for index, (left, right) in enumerate(zip(expected, actual)):
            diff = first_difference(left, right, f"{path}[{index}]")
            if diff is not None:
                return diff
        if len(expected) != len(actual):
            return f"{path}: length {len(expected)} != {len(actual)}"
        return None
    if expected != actual:
        return f"{path}: {expected!r} != {actual!r}"
    return None


def machine_view(machine: MMachine) -> str:
    """What two runs of one scenario must agree on, as one JSON text:
    :func:`observe` and the machine's ``state_dict()``."""
    return json.dumps({"observe": observe(machine), "state": machine.state_dict()})


def view_difference(expected: str, actual: str) -> Optional[str]:
    """The first path at which two :func:`machine_view` texts differ, or
    None."""
    if expected == actual:
        return None
    return (first_difference(json.loads(expected), json.loads(actual))
            or "$: equal values, different JSON text")


def machine_difference(expected: MMachine, actual: MMachine) -> Optional[str]:
    """The first path at which two finished machines differ, or None: their
    :func:`machine_view`, and their clock drivers' node ticks when both
    drivers are of one kind.  A machine restored from a snapshot counts node
    ticks from the restore, so a resumed run is compared with an
    uninterrupted one by its view alone."""
    diff = view_difference(machine_view(expected), machine_view(actual))
    if diff is None and type(expected.kernel) is type(actual.kernel):
        diff = first_difference(expected.kernel.node_ticks, actual.kernel.node_ticks,
                                "$.node_ticks")
    return diff


@dataclass
class FuzzOutcome:
    """Result of the full differential + snapshot check for one program."""

    seed: int
    fingerprint: str
    ok: bool = True
    cycles: int = 0
    threads: int = 0
    failures: List[Dict[str, str]] = field(default_factory=list)

    def fail(self, stage: str, detail: str) -> None:
        self.ok = False
        self.failures.append({"stage": stage, "detail": detail})

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "fingerprint": self.fingerprint,
            "ok": self.ok,
            "cycles": self.cycles,
            "threads": self.threads,
            "failures": list(self.failures),
        }


Mutator = Callable[[MMachine, str], None]


def check_program(
    program: GeneratedProgram, _mutate: Optional[Mutator] = None
) -> FuzzOutcome:
    """Run *program* through the whole grid; report the first mismatch per
    stage.

    ``_mutate`` is the mutation-testing seam: a callable applied to each
    finished machine (before observation) so tests can inject a deliberate
    "kernel bug" and prove the harness catches it.
    """
    outcome = FuzzOutcome(
        seed=program.seed, fingerprint=program.fingerprint, threads=len(program.threads)
    )

    def run_grid_point(kernel: str) -> Optional[MMachine]:
        machine = program.build_machine(kernel)
        try:
            program.run(machine)
        except TimeoutError as error:
            outcome.fail(f"run[{kernel}]", str(error))
            return None
        if _mutate is not None:
            _mutate(machine, kernel)
        return machine

    baseline = run_grid_point(BASELINE)
    if baseline is None:
        return outcome
    outcome.cycles = baseline.cycle
    expected = machine_view(baseline)

    for kernel in VARIANTS:
        machine = run_grid_point(kernel)
        if machine is None:
            continue
        diff = view_difference(expected, machine_view(machine))
        if diff is not None:
            outcome.fail(f"differential[{kernel}]", diff)

    _check_snapshot_roundtrip(program, baseline.cycle, expected, outcome, _mutate)
    return outcome


def _check_snapshot_roundtrip(
    program: GeneratedProgram,
    final_cycle: int,
    expected: str,
    outcome: FuzzOutcome,
    _mutate: Optional[Mutator],
) -> None:
    """Snapshot at the seeded mid-run cycle, restore from the JSON document,
    run the exact remaining cycle budget, and compare against the
    uninterrupted baseline's *expected* view."""
    snapshot_cycle = max(1, min(int(final_cycle * program.snapshot_fraction), final_cycle))
    machine = program.build_machine(BASELINE)
    machine.run(snapshot_cycle)
    document = json.loads(json.dumps(machine.snapshot_document()))
    restored = MMachine.from_snapshot(document)
    if restored.cycle != machine.cycle:
        outcome.fail(
            "snapshot",
            f"restored cycle {restored.cycle} != snapshot cycle {machine.cycle}",
        )
        return
    remaining = final_cycle - restored.cycle
    if remaining > 0:
        restored.run(remaining)
    if _mutate is not None:
        _mutate(restored, "snapshot")
    diff = view_difference(expected, machine_view(restored))
    if diff is not None:
        outcome.fail(f"snapshot[cycle={snapshot_cycle}]", diff)


# ---------------------------------------------------------------------------
# Campaign driver (the `repro fuzz` engine)
# ---------------------------------------------------------------------------


def dump_repro(
    program: GeneratedProgram,
    outcome: FuzzOutcome,
    path: str,
    shrunk: Optional[GeneratedProgram] = None,
) -> str:
    """Write a self-contained repro file a fresh process can replay."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    payload = {
        "fuzz_repro": 1,
        "failure": outcome.to_dict(),
        "program": program.to_dict(),
        "shrunk": shrunk.to_dict() if shrunk is not None else None,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_repro(path: str) -> GeneratedProgram:
    """Load a repro file; prefers the shrunk program when present.

    A program that does not decode (a wrong type or a missing field
    anywhere in it) raises ``ValueError`` naming the file.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "program" not in payload:
        raise ValueError(f"{path} is not a fuzz repro file")
    data = payload.get("shrunk") or payload["program"]
    try:
        return GeneratedProgram.from_dict(data)
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(
            f"{path} holds a malformed fuzz program ({type(error).__name__}: {error})"
        ) from error


def fuzz_many(
    seed: int = 0,
    runs: int = 10,
    knobs: Optional[GeneratorKnobs] = None,
    shrink: bool = False,
    repro_dir: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Check ``runs`` consecutive seeds starting at ``seed``.

    Returns a JSON-safe campaign summary.  On failure, the offending program
    (optionally shrunk first) is dumped to ``repro_dir/fuzz-seed-N.json``.
    """
    emit = log if log is not None else (lambda message: None)
    summary: Dict[str, object] = {
        "seed": seed,
        "runs": runs,
        "knobs": (knobs or GeneratorKnobs()).to_params(),
        "passed": 0,
        "failed": [],
        "repro_files": [],
    }
    for current_seed in range(seed, seed + runs):
        program = generate_program(current_seed, knobs)
        outcome = check_program(program)
        if outcome.ok:
            summary["passed"] = int(summary["passed"]) + 1
            emit(
                f"seed {current_seed}: ok "
                f"({outcome.threads} threads, {outcome.cycles} cycles)"
            )
            continue
        emit(f"seed {current_seed}: FAIL {outcome.failures[0]['stage']}: "
             f"{outcome.failures[0]['detail']}")
        entry = outcome.to_dict()
        shrunk = None
        if shrink:
            shrunk = shrink_program(program, lambda candidate: not check_program(candidate).ok)
            entry["shrunk_threads"] = len(shrunk.threads)
            emit(
                f"seed {current_seed}: shrunk {len(program.threads)} -> "
                f"{len(shrunk.threads)} threads"
            )
        if repro_dir is not None:
            path = os.path.join(repro_dir, f"fuzz-seed-{current_seed}.json")
            dump_repro(program, outcome, path, shrunk=shrunk)
            entry["repro_file"] = path
            summary["repro_files"].append(path)
            emit(f"seed {current_seed}: repro written to {path}")
        summary["failed"].append(entry)
    summary["ok"] = not summary["failed"]
    return summary
