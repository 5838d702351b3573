"""Greedy structural shrinker for failing generated programs.

When the differential harness finds a mismatch, the raw generated program is
usually noisy: half a dozen threads, fault injections, and message traffic,
most of it irrelevant to the actual divergence.  The shrinker repeatedly
applies structure-preserving reductions — drop a thread, halve an iteration
count, drop a bit flip — keeping a candidate only if it still fails the
harness.  The result is the smallest program (under this reduction grammar)
that still reproduces the failure, which is what gets written to the repro
file for a human to stare at.

This is deliberately a plain greedy fixpoint loop, not a generic delta
debugger: the program structure is shallow (a list of threads plus scalar
knobs), so greedy passes converge in a handful of rounds and every candidate
evaluation costs five full simulations.
"""

from __future__ import annotations

import copy
from typing import Callable

from repro.fuzz.generator import GeneratedProgram

#: Thread parameters that can be shrunk towards 1 without changing legality.
_SHRINKABLE_PARAMS = ("iterations", "messages", "words", "repeats")

#: Upper bound on candidate evaluations per shrink call.  Each evaluation is
#: five full simulator runs, so this caps shrinking at a few hundred runs.
_MAX_EVALUATIONS = 60


def _clone(program: GeneratedProgram) -> GeneratedProgram:
    return GeneratedProgram.from_dict(copy.deepcopy(program.to_dict()))


def shrink_program(
    program: GeneratedProgram,
    is_failing: Callable[[GeneratedProgram], bool],
    max_rounds: int = 8,
) -> GeneratedProgram:
    """Return the smallest variant of *program* for which *is_failing* holds.

    The differential harness passes "the harness reports a failure" (see
    :func:`repro.fuzz.harness.fuzz_many`).  If the input program does not
    satisfy the predicate it is returned unchanged (there is nothing to
    reproduce).
    """
    evaluations = [0]

    def still_fails(candidate: GeneratedProgram) -> bool:
        if evaluations[0] >= _MAX_EVALUATIONS:
            return False
        evaluations[0] += 1
        return is_failing(candidate)

    if not still_fails(program):
        return program

    current = _clone(program)
    for _ in range(max_rounds):
        changed = False
        changed |= _drop_threads(current, still_fails)
        changed |= _shrink_params(current, still_fails)
        changed |= _drop_flips(current, still_fails)
        if not changed or evaluations[0] >= _MAX_EVALUATIONS:
            break
    return current


def _drop_threads(
    program: GeneratedProgram, still_fails: Callable[[GeneratedProgram], bool]
) -> bool:
    """Remove threads one at a time while the failure persists."""
    changed = False
    index = 0
    while len(program.threads) > 1 and index < len(program.threads):
        candidate = _clone(program)
        del candidate.threads[index]
        if still_fails(candidate):
            program.threads = candidate.threads
            changed = True
        else:
            index += 1
    return changed


def _shrink_params(
    program: GeneratedProgram, still_fails: Callable[[GeneratedProgram], bool]
) -> bool:
    """Halve iteration-like thread parameters towards 1."""
    changed = False
    for index, thread in enumerate(program.threads):
        for key in _SHRINKABLE_PARAMS:
            value = thread.params.get(key)
            if not isinstance(value, int):
                continue
            while value > 1:
                candidate = _clone(program)
                candidate.threads[index].params[key] = value // 2
                if not still_fails(candidate):
                    break
                value //= 2
                program.threads[index].params[key] = value
                changed = True
    return changed


def _drop_flips(
    program: GeneratedProgram, still_fails: Callable[[GeneratedProgram], bool]
) -> bool:
    """Remove injected bit flips one at a time while the failure persists."""
    changed = False
    for attribute in ("single_flips", "double_flips"):
        flips = getattr(program, attribute)
        index = 0
        while index < len(flips):
            candidate = _clone(program)
            del getattr(candidate, attribute)[index]
            if still_fails(candidate):
                del flips[index]
                changed = True
            else:
                index += 1
    return changed
