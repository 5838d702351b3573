"""Declarative sweep specifications.

A :class:`SweepSpec` names a set of simulation runs as a list of *axes
groups*: each group picks one workload, a dict of fixed parameters, and a
dict of parameter axes whose cross-product is expanded into individual
:class:`RunSpec` descriptors.  Expansion is deterministic: the same spec
always yields the same run ids in the same order, which is what makes
resume (skip runs whose result file already exists) safe.

Specs are plain data and round-trip through dicts, so they can be written
inline in Python or loaded from a JSON file::

    {"name": "quick",
     "groups": [{"workload": "stencil",
                 "params": {"max_cycles": 30000},
                 "axes": {"kind": ["7pt", "27pt"], "n_hthreads": [1, 2, 4]}}]}
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.api.schema import run_id_for


@dataclass(frozen=True)
class RunSpec:
    """One fully-resolved simulation run."""

    workload: str
    params: Dict[str, object] = field(default_factory=dict)
    tags: Dict[str, str] = field(default_factory=dict)

    @property
    def run_id(self) -> str:
        """Deterministic, human-readable, filesystem-safe identifier.

        The readable prefix names the workload and the axis values; the hash
        suffix disambiguates runs whose readable parts collide (and covers
        parameters whose slugs collapse).
        """
        return run_id_for(self.workload, self.params)

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "params": dict(self.params),
            "tags": dict(self.tags),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunSpec":
        return cls(
            workload=str(data["workload"]),
            params=dict(data.get("params") or {}),
            tags={str(k): str(v) for k, v in (data.get("tags") or {}).items()},
        )


@dataclass
class AxesGroup:
    """One workload with fixed params plus a cross-product of axes."""

    workload: str
    params: Dict[str, object] = field(default_factory=dict)
    axes: Dict[str, Sequence[object]] = field(default_factory=dict)
    tags: Dict[str, str] = field(default_factory=dict)

    def expand(self) -> Iterator[RunSpec]:
        keys = sorted(self.axes)
        value_lists = [list(self.axes[key]) for key in keys]
        for combination in itertools.product(*value_lists):
            params = dict(self.params)
            params.update(zip(keys, combination))
            yield RunSpec(workload=self.workload, params=params, tags=dict(self.tags))

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "params": dict(self.params),
            "axes": {key: list(values) for key, values in self.axes.items()},
            "tags": dict(self.tags),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "AxesGroup":
        return cls(
            workload=str(data["workload"]),
            params=dict(data.get("params") or {}),
            axes={str(k): list(v) for k, v in (data.get("axes") or {}).items()},
            tags={str(k): str(v) for k, v in (data.get("tags") or {}).items()},
        )


@dataclass
class SweepSpec:
    """A named collection of axes groups."""

    name: str
    description: str = ""
    groups: List[AxesGroup] = field(default_factory=list)

    def expand(self) -> List[RunSpec]:
        """All runs of the sweep, duplicates removed, order deterministic.

        When two groups expand to the same (workload, params) run, the
        duplicate is dropped but its tags are merged into the survivor (first
        group wins on conflicting keys), so tag-based filtering still finds
        the run.
        """
        runs: List[RunSpec] = []
        seen: Dict[str, RunSpec] = {}
        for group in self.groups:
            for run in group.expand():
                if run.run_id not in seen:
                    seen[run.run_id] = run
                    runs.append(run)
                else:
                    for key, value in run.tags.items():
                        seen[run.run_id].tags.setdefault(key, value)
        return runs

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "description": self.description,
            "groups": [group.to_dict() for group in self.groups],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SweepSpec":
        return cls(
            name=str(data.get("name", "unnamed")),
            description=str(data.get("description", "")),
            groups=[AxesGroup.from_dict(group) for group in data.get("groups") or []],
        )

    @classmethod
    def from_file(cls, path: str) -> "SweepSpec":
        """Load a spec from a JSON file."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except ValueError as error:
            raise ValueError(f"sweep spec {path} is not valid JSON: {error}") from error
        if not isinstance(data, dict):
            raise ValueError(f"sweep spec {path} must contain a mapping")
        return cls.from_dict(data)

    def validate(self, known_workloads: Optional[Sequence[str]] = None) -> List[str]:
        """Structural problems with the spec (empty list when fine)."""
        problems = []
        if not self.groups:
            problems.append(f"spec {self.name!r} has no groups")
        for index, group in enumerate(self.groups):
            if known_workloads is not None and group.workload not in known_workloads:
                problems.append(f"group {index}: unknown workload {group.workload!r}")
            for key, values in group.axes.items():
                if not values:
                    problems.append(f"group {index}: axis {key!r} is empty")
                if key in group.params:
                    problems.append(f"group {index}: {key!r} is both a fixed param and an axis")
        return problems
