"""Seeded differential fuzzing for the simulator's correctness contracts.

``repro.fuzz`` generates small legal-by-construction multiprogrammed
workloads (compute, message traffic, remote memory, guarded-pointer faults,
SECDED bit flips, NACK storms), runs each one under both clock drivers the
simulator has — the event kernel and the naive reference loop — and
asserts that all observables and the snapshot state are bit-identical,
including a snapshot round-trip at a seeded mid-run cycle.  Failures shrink
to a minimal program and are dumped to replayable repro files.

Entry points: :func:`generate_program`, :func:`check_program`,
:func:`fuzz_many`, and the ``repro fuzz`` CLI command.
"""

from repro.fuzz.generator import (
    GeneratedProgram,
    GeneratorKnobs,
    ThreadSpec,
    generate_program,
)
from repro.fuzz.harness import (
    FuzzOutcome,
    check_program,
    dump_repro,
    first_difference,
    fuzz_many,
    load_repro,
    observe,
)
from repro.fuzz.shrink import shrink_program

__all__ = [
    "FuzzOutcome",
    "GeneratedProgram",
    "GeneratorKnobs",
    "ThreadSpec",
    "check_program",
    "dump_repro",
    "first_difference",
    "fuzz_many",
    "generate_program",
    "load_repro",
    "observe",
    "shrink_program",
]
