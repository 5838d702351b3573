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
verifies that the machine's configuration equals the embedded one, and its
trace location the one the tracer state records, and refuses with
:class:`ConfigMismatchError` otherwise — resuming a run on a
differently-shaped machine would silently corrupt the simulation.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import os
import zlib
from typing import Any, Dict

from repro.cluster import icache
from repro.core.config import _SECTIONS, _TOP_LEVEL_KEYS, NUM_VTHREAD_SLOTS, MachineConfig
from repro.core.values import SnapshotError
from repro.isa import registers
from repro.memory import cache, ltlb, memory_system, page_table, sdram
from repro.network import mesh
from repro.node import node
from repro.runtime import native
from repro.switches import crossbar

#: Format marker of a snapshot document.
FORMAT_NAME = "repro-mmachine-snapshot"
#: Version of the snapshot schema; bumped on any incompatible layout change.
SNAPSHOT_SCHEMA_VERSION = 1


class ConfigMismatchError(SnapshotError):
    """Raised when a snapshot is loaded into a machine whose configuration
    differs from the one the snapshot was taken with."""


#: Marks a retired field that never changed the machine: any value is dropped.
_ANY_VALUE = object()

#: Top-level config keys up to 5.0.0 wrote, dropped whatever their value:
#: where the trace went, which the tracer state records.
_RETIRED_TOP_LEVEL_KEYS = ("trace_dir", "trace_chunk_events")


#: Config fields that older versions wrote and this one no longer has, per
#: section, each with the one value this build runs.
#:
#: ``sim.compile_dispatch`` (up to 0.9.0) and ``node.event_slot`` /
#: ``node.exception_slot`` (up to 1.0.1) never changed the machine, so any
#: value is dropped.  The rest (up to 3.0.0) sized or timed the machine; they
#: are now constants of the modules that use them.  The C-Switch's transfer
#: bound is its one delivery per cluster port.
_RETIRED_FIELDS: Dict[str, Dict[str, object]] = {
    "cluster": {
        "num_int_regs": registers.NUM_INT_REGS,
        "num_fp_regs": registers.NUM_FP_REGS,
        "num_cc_regs": registers.NUM_CC_REGS,
        "num_gcc_regs": registers.NUM_GCC_REGS,
        "num_mc_regs": registers.NUM_MC_REGS,
        "icache_words": icache.ICACHE_WORDS,
        "words_per_instruction": icache.WORDS_PER_INSTRUCTION,
        "enforce_gcc_pairs": True,
    },
    "memory": {
        "cache_banks": cache.NUM_BANKS,
        "bank_size_words": cache.BANK_SIZE_WORDS,
        "line_size_words": page_table.BLOCK_SIZE_WORDS,
        "cache_associativity": cache.ASSOCIATIVITY,
        "ltlb_entries": ltlb.LTLB_ENTRIES,
        "lpt_entries": page_table.LPT_ENTRIES,
        "sdram_size_words": sdram.SDRAM_SIZE_WORDS,
        "sdram_row_activate": sdram.ROW_ACTIVATE_CYCLES,
        "sdram_cas": sdram.CAS_CYCLES,
        "sdram_cycles_per_word": sdram.CYCLES_PER_WORD,
        "sdram_row_size_words": sdram.ROW_SIZE_WORDS,
        "secded_enabled": True,
        "bank_latency": memory_system.BANK_LATENCY,
        "mif_latency": memory_system.MIF_LATENCY,
        "ltlb_latency": memory_system.LTLB_LATENCY,
        "fill_latency": memory_system.FILL_LATENCY,
        "event_enqueue_latency": memory_system.EVENT_ENQUEUE_LATENCY,
    },
    "network": {
        "router_latency": mesh.ROUTER_LATENCY,
        "channel_latency": mesh.CHANNEL_LATENCY,
        "inject_latency": mesh.INJECT_LATENCY,
        "eject_latency": mesh.EJECT_LATENCY,
        "max_body_words": registers.NUM_MC_REGS,
    },
    "node": {
        "num_vthread_slots": NUM_VTHREAD_SLOTS,
        "event_queue_records": node.EVENT_QUEUE_RECORDS,
        "exception_queue_records": node.EXCEPTION_QUEUE_RECORDS,
        "switch_transfers_per_cycle": registers.NUM_CLUSTERS,
        "mswitch_latency": node.MSWITCH_LATENCY,
        "cswitch_latency": crossbar.CSWITCH_LATENCY,
        "event_slot": _ANY_VALUE,
        "exception_slot": _ANY_VALUE,
    },
    "runtime": {
        "native_handler_dispatch_cycles": native.NATIVE_HANDLER_DISPATCH_CYCLES,
        "native_handler_cycles_per_word": native.NATIVE_HANDLER_CYCLES_PER_WORD,
        "sync_fault_retry_cycles": native.SYNC_FAULT_RETRY_CYCLES,
    },
    "sim": {"compile_dispatch": _ANY_VALUE},
}


def _without_retired_fields(document: Dict[str, object]) -> Dict[str, object]:
    """A snapshot config *document* without the retired fields and keys.
    Raises ``ValueError`` naming a retired field that holds another value
    than the one this build runs."""
    document = {
        key: value for key, value in document.items() if key not in _RETIRED_TOP_LEVEL_KEYS
    }
    for section_name, retired in _RETIRED_FIELDS.items():
        section = document.get(section_name)
        if not isinstance(section, dict) or retired.keys().isdisjoint(section):
            continue
        for name, value in section.items():
            expected = retired.get(name, _ANY_VALUE)
            if expected is not _ANY_VALUE and (type(value), value) != (type(expected), expected):
                raise ValueError(
                    f"{section_name}.{name} must be {expected!r}, the value this "
                    f"build runs, got {value!r}"
                )
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
    for key in _TOP_LEVEL_KEYS:
        document[key] = getattr(config, key)
    return document


def config_from_dict(document: Dict[str, object]) -> MachineConfig:
    """Rebuild a :class:`MachineConfig` from :func:`config_to_dict` output."""
    document = _without_retired_fields(document)
    unknown = sorted(set(document) - set(_SECTIONS) - set(_TOP_LEVEL_KEYS))
    if unknown:
        raise SnapshotError(f"snapshot config has unknown keys: {unknown} (schema mismatch?)")
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
    top_level = {key: document[key] for key in _TOP_LEVEL_KEYS if key in document}
    config = MachineConfig(**sections, **top_level)
    config.validate()
    return config


def check_config_matches(config: MachineConfig, document: Dict[str, object]) -> None:
    """Raise :class:`ConfigMismatchError` unless *config* equals the
    configuration embedded in a snapshot *document*."""
    ours = config_to_dict(config)
    theirs = document.get("config")
    if isinstance(theirs, dict):
        try:
            theirs = _without_retired_fields(theirs)
        except ValueError as error:
            raise ConfigMismatchError(
                f"snapshot was taken on a differently-configured machine ({error})"
            ) from error
        unknown = sorted(set(theirs) - set(_SECTIONS) - set(_TOP_LEVEL_KEYS))
        if unknown:
            raise ConfigMismatchError(f"snapshot config has unknown keys: {unknown}")
    if ours == theirs:
        return
    differences = []
    for section_name in list(_SECTIONS) + list(_TOP_LEVEL_KEYS):
        if ours.get(section_name) != (theirs or {}).get(section_name):
            differences.append(section_name)
    raise ConfigMismatchError(
        "snapshot was taken on a differently-configured machine "
        f"(differing sections: {', '.join(differences) or 'document malformed'})"
    )


def _trace_location(kind: object, directory: object, chunk_events: object) -> str:
    return f"{directory!r} ({chunk_events}-event chunks)" if kind == "disk" else "memory"


def check_trace_matches(sink: Any, document: Dict[str, Any]) -> None:
    """Raise :class:`ConfigMismatchError` unless the trace *sink* of the
    machine a snapshot *document* is loaded into keeps its events where the
    snapshot's tracer state does, so that a resume never splits a run's
    trace over two places.  A malformed tracer state is left to the load."""
    state = document["machine"].get("tracer")
    if not isinstance(state, dict):
        return
    theirs = _trace_location(state.get("sink"), state.get("trace_dir"), state.get("chunk_events"))
    ours = _trace_location(sink.kind, getattr(sink, "directory", None),
                           getattr(sink, "chunk_events", None))
    if ours != theirs:
        raise ConfigMismatchError(
            f"snapshot's trace is in {theirs}, but this machine's trace is in {ours}"
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
    except (OSError, ValueError, EOFError, zlib.error) as error:
        raise SnapshotError(f"cannot read snapshot {path}: {error}") from error
    validate_document(document)
    return document
