"""Deterministic checkpoint/restore of complete machine state.

The package has two modules, above the simulator it saves:

* :mod:`repro.snapshot.format` -- the versioned, self-describing snapshot
  document (schema version + complete ``MachineConfig`` + machine state)
  and its atomic file I/O;
* :mod:`repro.snapshot.checkpoint` -- periodic ``--checkpoint-every``
  checkpointing and resume-on-restart for workload runs.

The tagged JSON codec for every value the simulator can hold (guarded
pointers, event records, in-flight messages, memory requests, register
writes, assembled programs, ...) lives elsewhere: it is
:mod:`repro.core.values`, at the bottom of the simulator, since every
stateful component encodes with it.  ``SnapshotError``, ``encode_value``
and ``decode_value`` are re-exported here.

The state itself is captured through the uniform ``state_dict()`` /
``load_state_dict()`` contract of every stateful component (see
:mod:`repro.core.component`): a leaf component names its snapshot
attributes once, in a ``_STATE`` table, and one walk saves and restores
them; the composites (clusters, nodes, the machine) assemble their
children's states.  ``MMachine.save_snapshot`` / ``MMachine.from_snapshot``
are the top-level entry points.

Restore is bit-exact: running to cycle C, snapshotting, restoring in a fresh
process and running to completion produces the same final cycle count,
statistics and trace as the uninterrupted run, under both the ``event`` and
``naive`` kernels (``tests/integration/test_snapshot_equivalence.py``).
"""

from __future__ import annotations

from repro.core.values import SnapshotError, decode_value, encode_value
from repro.snapshot.checkpoint import (
    CheckpointPolicy,
    SnapshotTaken,
    checkpoint_context,
)
from repro.snapshot.format import (
    ConfigMismatchError,
    SNAPSHOT_SCHEMA_VERSION,
    config_from_dict,
    config_to_dict,
    read_snapshot,
    write_snapshot,
)

__all__ = [
    "SNAPSHOT_SCHEMA_VERSION",
    "SnapshotError",
    "ConfigMismatchError",
    "SnapshotTaken",
    "CheckpointPolicy",
    "checkpoint_context",
    "config_to_dict",
    "config_from_dict",
    "encode_value",
    "decode_value",
    "read_snapshot",
    "write_snapshot",
]
