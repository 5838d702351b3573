"""The on-disk snapshot format.

A snapshot is one self-describing JSON document (gzip-compressed when the
path ends in ``.gz``)::

    {
      "format":         "repro-mmachine-snapshot",
      "schema_version": 1,
      "config":         { ... complete MachineConfig ... },
      "machine":        { ... state_dict of the whole machine ... }
    }

The embedded configuration makes the file free-standing: ``restore`` builds
a fresh machine from it and then loads the state, so no wiring (callbacks,
handler objects, switch topology) ever needs to be serialised.  Loading a
snapshot *into* an existing machine (the checkpoint-resume path) first
verifies that the machine's configuration equals the embedded one and
refuses with :class:`ConfigMismatchError` otherwise — resuming a run on a
differently-shaped machine would silently corrupt the simulation.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import os
from typing import Dict, FrozenSet

from repro.core.config import (
    ClusterConfig,
    MachineConfig,
    MemoryConfig,
    NetworkConfig,
    NodeConfig,
    RuntimeConfig,
    SimConfig,
)
from repro.snapshot.values import SnapshotError

#: Format marker of a snapshot document.
FORMAT_NAME = "repro-mmachine-snapshot"
#: Version of the snapshot schema; bumped on any incompatible layout change.
SNAPSHOT_SCHEMA_VERSION = 1


class ConfigMismatchError(SnapshotError):
    """Raised when a snapshot is loaded into a machine whose configuration
    differs from the one the snapshot was taken with."""


_SECTIONS = {
    "cluster": ClusterConfig,
    "memory": MemoryConfig,
    "network": NetworkConfig,
    "node": NodeConfig,
    "runtime": RuntimeConfig,
    "sim": SimConfig,
}

#: Config fields that older versions wrote and this one no longer has, per
#: section.  Snapshots that carry them still load: they are dropped when
#: their config is read.
#:
#: * ``sim.compile_dispatch`` (up to 0.9.0) chose between two implementations
#:   of the issue stage that behaved identically; only one remains.
#: * ``node.event_slot`` / ``node.exception_slot`` (up to 1.0.1) were read by
#:   nothing but validation; the slots are the constants ``EVENT_SLOT`` and
#:   ``EXCEPTION_SLOT``.
_RETIRED_FIELDS: Dict[str, FrozenSet[str]] = {
    "sim": frozenset({"compile_dispatch"}),
    "node": frozenset({"event_slot", "exception_slot"}),
}


def _without_retired_fields(document: Dict[str, object]) -> Dict[str, object]:
    """A snapshot config *document* without the retired fields."""
    for section_name, retired in _RETIRED_FIELDS.items():
        section = document.get(section_name)
        if isinstance(section, dict) and not retired.isdisjoint(section):
            section = {key: value for key, value in section.items() if key not in retired}
            document = {**document, section_name: section}
    return document


def config_to_dict(config: MachineConfig) -> Dict[str, object]:
    """Serialise a complete :class:`MachineConfig` to plain JSON data."""
    document: Dict[str, object] = {}
    for section_name in _SECTIONS:
        section = dataclasses.asdict(getattr(config, section_name))
        for key, value in section.items():
            if isinstance(value, tuple):
                section[key] = list(value)
        document[section_name] = section
    document["trace_enabled"] = config.trace_enabled
    document["trace_dir"] = config.trace_dir
    document["trace_chunk_events"] = config.trace_chunk_events
    return document


def config_from_dict(document: Dict[str, object]) -> MachineConfig:
    """Rebuild a :class:`MachineConfig` from :func:`config_to_dict` output."""
    document = _without_retired_fields(document)
    sections = {}
    for section_name, section_class in _SECTIONS.items():
        data = dict(document.get(section_name) or {})
        known = {field.name for field in dataclasses.fields(section_class)}
        unknown = set(data) - known
        if unknown:
            raise SnapshotError(
                f"snapshot config section {section_name!r} has unknown "
                f"fields: {sorted(unknown)} (schema mismatch?)"
            )
        if section_name == "network" and "mesh_shape" in data:
            data["mesh_shape"] = tuple(data["mesh_shape"])
        sections[section_name] = section_class(**data)
    trace_dir = document.get("trace_dir")
    config = MachineConfig(
        trace_enabled=bool(document.get("trace_enabled", True)),
        trace_dir=None if trace_dir is None else str(trace_dir),
        trace_chunk_events=int(document.get("trace_chunk_events", 4096)),
        **sections,
    )
    config.validate()
    return config


def check_config_matches(config: MachineConfig, document: Dict[str, object]) -> None:
    """Raise :class:`ConfigMismatchError` unless *config* equals the
    configuration embedded in a snapshot *document*."""
    ours = config_to_dict(config)
    theirs = document.get("config")
    if isinstance(theirs, dict):
        theirs = _without_retired_fields(theirs)
    if ours == theirs:
        return
    differences = []
    for section_name in list(_SECTIONS) + [
        "trace_enabled", "trace_dir", "trace_chunk_events"
    ]:
        if ours.get(section_name) != (theirs or {}).get(section_name):
            differences.append(section_name)
    raise ConfigMismatchError(
        "snapshot was taken on a differently-configured machine "
        f"(differing sections: {', '.join(differences) or 'document malformed'})"
    )


def make_document(config: MachineConfig, machine_state: Dict[str, object]) -> Dict[str, object]:
    return {
        "format": FORMAT_NAME,
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "config": config_to_dict(config),
        "machine": machine_state,
    }


def validate_document(document: Dict[str, object]) -> None:
    """Structural sanity check of a loaded snapshot document."""
    if not isinstance(document, dict):
        raise SnapshotError("snapshot document must be a JSON object")
    if document.get("format") != FORMAT_NAME:
        raise SnapshotError(
            f"not a {FORMAT_NAME} document (format={document.get('format')!r})"
        )
    version = document.get("schema_version")
    if version != SNAPSHOT_SCHEMA_VERSION:
        raise SnapshotError(
            f"snapshot schema version {version!r} is not supported "
            f"(this build reads version {SNAPSHOT_SCHEMA_VERSION})"
        )
    for key in ("config", "machine"):
        if not isinstance(document.get(key), dict):
            raise SnapshotError(f"snapshot document is missing the {key!r} section")


def write_snapshot(document: Dict[str, object], path: str) -> str:
    """Write a snapshot document atomically (write-then-rename, so a killed
    process never leaves a truncated snapshot behind); returns *path*."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    payload = json.dumps(document, separators=(",", ":"), allow_nan=False)
    tmp_path = path + ".tmp"
    if path.endswith(".gz"):
        with gzip.open(tmp_path, "wt", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(payload)
    os.replace(tmp_path, path)
    return path


def read_snapshot(path: str) -> Dict[str, object]:
    """Load and validate a snapshot document from *path*."""
    try:
        if path.endswith(".gz"):
            with gzip.open(path, "rt", encoding="utf-8") as handle:
                document = json.load(handle)
        else:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
    except (OSError, json.JSONDecodeError, EOFError) as error:
        raise SnapshotError(f"cannot read snapshot {path}: {error}") from error
    validate_document(document)
    return document
