"""Functional-unit semantics.

This module evaluates the *value* computed by an operation given its resolved
source operands.  Timing (latency, writeback scheduling) is handled by the
cluster; memory, send and privileged system operations have side effects and
are executed by the cluster/node, not here.

Integer results are kept as Python integers (the simulator does not wrap to
64 bits on arithmetic -- benchmark kernels never rely on wrap-around, and
keeping full precision makes address arithmetic in handlers straightforward);
shift/mask operations used by the runtime handlers behave exactly as 64-bit
logic as long as their inputs are in range, which the assembler-level tests
check.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.isa.operations import Operation
from repro.memory.guarded_pointer import GuardedPointer, PointerPermission


class OperandError(Exception):
    """Raised when an operation is applied to operands of the wrong shape."""


def _as_number(value):
    if isinstance(value, GuardedPointer):
        return value.address
    return value


def _as_int(value) -> int:
    if isinstance(value, GuardedPointer):
        return value.address
    if isinstance(value, float):
        return int(value)
    return int(value)


def _as_float(value) -> float:
    if isinstance(value, GuardedPointer):
        return float(value.address)
    return float(value)


def _add(values):
    a, b = values
    if isinstance(a, GuardedPointer):
        return a.add(_as_int(b))
    if isinstance(b, GuardedPointer):
        return b.add(_as_int(a))
    return a + b


def _sub(values):
    a, b = values
    if isinstance(a, GuardedPointer) and not isinstance(b, GuardedPointer):
        return a.add(-_as_int(b))
    return _as_number(a) - _as_number(b)


def _lea(values):
    pointer, offset = values
    if isinstance(pointer, GuardedPointer):
        return pointer.add(_as_int(offset))
    # Without protection enabled addresses are plain integers and lea reduces
    # to an add.
    return _as_int(pointer) + _as_int(offset)


def _setptr(values):
    base, length_exp, perms = values
    return GuardedPointer(_as_int(base), _as_int(length_exp), PointerPermission(_as_int(perms)))


def _ptrinfo(values):
    pointer, selector = values
    selector = _as_int(selector)
    if not isinstance(pointer, GuardedPointer):
        # Plain integers report "no segment, all permissions" so code can run
        # with protection disabled.
        return {0: _as_int(pointer), 1: 63, 2: int(PointerPermission.rwx())}.get(selector, 0)
    if selector == 0:
        return pointer.address
    if selector == 1:
        return pointer.length_exp
    if selector == 2:
        return int(pointer.permission)
    raise OperandError(f"ptrinfo selector {selector} out of range (0..2)")


_INT_EVAL: Dict[str, Callable[[List[object]], object]] = {
    "add": _add,
    "sub": _sub,
    "mul": lambda v: _as_number(v[0]) * _as_number(v[1]),
    "div": lambda v: int(_as_int(v[0]) / _as_int(v[1])) if _as_int(v[1]) != 0 else _raise_div(),
    "mod": lambda v: _as_int(v[0]) - _as_int(v[1]) * int(_as_int(v[0]) / _as_int(v[1]))
    if _as_int(v[1]) != 0
    else _raise_div(),
    "and": lambda v: _as_int(v[0]) & _as_int(v[1]),
    "or": lambda v: _as_int(v[0]) | _as_int(v[1]),
    "xor": lambda v: _as_int(v[0]) ^ _as_int(v[1]),
    "shl": lambda v: _as_int(v[0]) << _as_int(v[1]),
    "shr": lambda v: _as_int(v[0]) >> _as_int(v[1]),
    "min": lambda v: min(_as_number(v[0]), _as_number(v[1])),
    "max": lambda v: max(_as_number(v[0]), _as_number(v[1])),
    "not": lambda v: ~_as_int(v[0]) & ((1 << 64) - 1),
    "neg": lambda v: -_as_number(v[0]),
    "mov": lambda v: v[0],
    "eq": lambda v: int(_as_number(v[0]) == _as_number(v[1])),
    "ne": lambda v: int(_as_number(v[0]) != _as_number(v[1])),
    "lt": lambda v: int(_as_number(v[0]) < _as_number(v[1])),
    "le": lambda v: int(_as_number(v[0]) <= _as_number(v[1])),
    "gt": lambda v: int(_as_number(v[0]) > _as_number(v[1])),
    "ge": lambda v: int(_as_number(v[0]) >= _as_number(v[1])),
    "lea": _lea,
    "setptr": _setptr,
    "ptrinfo": _ptrinfo,
}


_BOTH_INT = "type({0}) is int and type({1}) is int"

#: In-line Python forms of the commonest integer operations, for the code the
#: issue stage generates (:mod:`repro.cluster.dispatch`): ``name ->
#: (expression, guard)`` over the operands ``{0}`` and ``{1}``.  Where the
#: guard holds, the expression gives exactly what the evaluator above
#: returns and cannot raise; elsewhere the evaluator runs.  ``mov`` copies
#: any value.  The other guards admit exact ints only (no bools, floats or
#: guarded pointers), and the shifts only counts from 0 to 64: a negative
#: count raises, and so does a left shift too large for the host's memory.
INLINE_FORMS: Dict[str, Tuple[str, Optional[str]]] = {
    "mov": ("{0}", None),
    "add": ("{0} + {1}", _BOTH_INT),
    "sub": ("{0} - {1}", _BOTH_INT),
    "mul": ("{0} * {1}", _BOTH_INT),
    "and": ("{0} & {1}", _BOTH_INT),
    "or": ("{0} | {1}", _BOTH_INT),
    "xor": ("{0} ^ {1}", _BOTH_INT),
    "shl": ("{0} << {1}", _BOTH_INT + " and 0 <= {1} <= 64"),
    "shr": ("{0} >> {1}", _BOTH_INT + " and 0 <= {1} <= 64"),
    "eq": ("1 if {0} == {1} else 0", _BOTH_INT),
    "ne": ("1 if {0} != {1} else 0", _BOTH_INT),
    "lt": ("1 if {0} < {1} else 0", _BOTH_INT),
    "le": ("1 if {0} <= {1} else 0", _BOTH_INT),
    "gt": ("1 if {0} > {1} else 0", _BOTH_INT),
    "ge": ("1 if {0} >= {1} else 0", _BOTH_INT),
}


_FP_EVAL: Dict[str, Callable[[List[object]], object]] = {
    "fadd": lambda v: _as_float(v[0]) + _as_float(v[1]),
    "fsub": lambda v: _as_float(v[0]) - _as_float(v[1]),
    "fmul": lambda v: _as_float(v[0]) * _as_float(v[1]),
    "fdiv": lambda v: _as_float(v[0]) / _as_float(v[1]) if _as_float(v[1]) != 0.0 else _raise_div(),
    "fmin": lambda v: min(_as_float(v[0]), _as_float(v[1])),
    "fmax": lambda v: max(_as_float(v[0]), _as_float(v[1])),
    "fmadd": lambda v: _as_float(v[0]) * _as_float(v[1]) + _as_float(v[2]),
    "fneg": lambda v: -_as_float(v[0]),
    "fabs": lambda v: abs(_as_float(v[0])),
    "fmov": lambda v: _as_float(v[0]),
    "itof": lambda v: float(_as_int(v[0])),
    "ftoi": lambda v: int(_as_float(v[0])),
    "feq": lambda v: int(_as_float(v[0]) == _as_float(v[1])),
    "flt": lambda v: int(_as_float(v[0]) < _as_float(v[1])),
    "fle": lambda v: int(_as_float(v[0]) <= _as_float(v[1])),
}


class ArithmeticFault(Exception):
    """Raised on divide-by-zero; the cluster converts it into a synchronous
    arithmetic exception handled by the exception V-Thread."""


def _raise_div():
    raise ArithmeticFault("division by zero")


def evaluate_operation(operation: Operation, source_values: List[object]):
    """Compute the result value of a register-producing operation.

    Memory, control, send and system operations are not evaluated here.

    Raises
    ------
    OperandError
        If the opcode has no value semantics or the operands are malformed.
    ArithmeticFault
        On division by zero.
    ProtectionError
        On guarded-pointer violations (``lea`` leaving its segment).
    """
    name = operation.opcode.name
    evaluator = _INT_EVAL.get(name) or _FP_EVAL.get(name)
    if evaluator is None:
        raise OperandError(f"operation {name!r} has no value semantics")
    return evaluate(name, evaluator, source_values)


def evaluate(name: str, evaluator, values: List[object]):
    """Apply *evaluator*, the semantics of opcode *name*, to *values*.

    Operands the evaluator cannot combine -- the wrong type or number, a
    negative shift count, a float with no integer value or an integer no
    float can hold -- raise :class:`OperandError`."""
    try:
        return evaluator(values)
    except (TypeError, IndexError, ValueError, OverflowError) as exc:
        raise OperandError(f"bad operands for {name}: {values!r}") from exc


def value_evaluator(name: str):
    """The evaluator callable for *name*, or None when the opcode has no
    value semantics (used by the dispatch compiler to resolve the opcode
    dispatch once per program instead of once per issue)."""
    return _INT_EVAL.get(name) or _FP_EVAL.get(name)
