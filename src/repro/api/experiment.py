"""The fluent ``Experiment`` facade: configure, run, get a ``RunResult``.

This is the documented way to define and run one experiment::

    from repro import Experiment

    with (
        Experiment.builder()
        .workload("flood", messages=16, send_credits=4)
        .mesh(2, 2, 1)
        .kernel("event")
        .tag(figure="a4")
        .build()
    ) as experiment:
        result = experiment.run()
    assert result.verified

The builder validates everything eagerly — unknown workload names, unknown
parameter names (listed against the workload's signature), unknown dotted
config-override keys (:func:`repro.core.config.validate_override_key`) —
so a typo fails at build time, not as a dead attribute on a live machine.
``build()`` also refuses an override of a key that one of the workload's
parameters sets (:data:`repro.core.config.PARAM_KEYS`), naming the
parameter to set instead, and of a key that the workload fixes itself
(``coherence``'s shared-memory mode).

Because workload factories construct their machines internally, builder
features that need the machine itself (config overrides, disk traces, probes) are
threaded underneath via :func:`repro.core.machine.construction_hooks`, the
same pattern the checkpoint subsystem uses: every ``MMachine`` built while
``run()`` is executing has the overrides applied to its config before
validation and each probe called on the constructed machine.
"""

from __future__ import annotations

import itertools
import os
import time
from contextlib import ExitStack
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.result import RunResult
from repro.api.schema import run_id_for
from repro.api.workload import WorkloadSpec, get_workload
from repro.core.config import PARAM_KEYS, apply_overrides, validate_override_key
from repro.core.machine import MMachine, construction_hooks
from repro.core.scheduler import DRIVERS

#: A probe: called with every machine constructed during ``Experiment.run``.
Probe = Callable[[MMachine], None]

WorkloadRef = Union[str, WorkloadSpec]

class ExperimentBuilder:
    """Accumulates an experiment definition; ``build()`` freezes it.

    Every setter returns the builder, so definitions read as one fluent
    chain.  Validation is eager where possible (override keys, kernel
    names) and completed at :meth:`build` (workload binding, parameter
    names, mesh/kernel applicability).
    """

    def __init__(self) -> None:
        self._workload: Optional[WorkloadSpec] = None
        self._params: Dict[str, object] = {}
        self._mesh: Optional[Tuple[int, ...]] = None
        self._kernel: Optional[str] = None
        self._overrides: Dict[str, object] = {}
        self._probes: List[Probe] = []
        self._tags: Dict[str, str] = {}
        self._seed: Optional[int] = None
        self._trace_dir: Optional[str] = None
        self._trace_chunk_events: Optional[int] = None
        self._checkpoint_dir: Optional[str] = None
        self._checkpoint_every: Optional[int] = None

    # -- workload binding --------------------------------------------------------

    def workload(self, ref: WorkloadRef, **params: object) -> "ExperimentBuilder":
        """Bind the workload: a registered name or a :class:`WorkloadSpec`."""
        spec = get_workload(ref) if isinstance(ref, str) else ref
        if not isinstance(spec, WorkloadSpec):
            raise TypeError(
                f"workload must be a registered name or a WorkloadSpec, "
                f"not {type(ref).__name__} (decorate plain callables with "
                f"@repro.workload)"
            )
        self._workload = spec
        return self.params(**params)

    def params(self, **params: object) -> "ExperimentBuilder":
        """Set workload parameters (validated against its signature at build)."""
        self._params.update(params)
        return self

    # -- machine shape -----------------------------------------------------------

    def mesh(self, x: Union[int, Sequence[int]], y: int = 1, z: int = 1) -> "ExperimentBuilder":
        """Set the mesh shape: ``mesh(4, 4, 1)`` or ``mesh((4, 4, 1))``."""
        shape = tuple(x) if isinstance(x, (tuple, list)) else (x, y, z)
        if len(shape) != 3 or any(not isinstance(dim, int) or dim <= 0 for dim in shape):
            raise ValueError(f"mesh shape must be three positive ints, got {shape!r}")
        self._mesh = shape
        return self

    def kernel(self, name: str) -> "ExperimentBuilder":
        """Select the simulation kernel (``"event"`` or ``"naive"``)."""
        if name not in DRIVERS:
            raise ValueError(f"unknown simulation kernel {name!r}; valid: {', '.join(DRIVERS)}")
        self._kernel = name
        return self

    def override(self, key: str, value: object) -> "ExperimentBuilder":
        """Set one dotted config override (``"network.send_credits"``).

        The key is validated immediately against the real configuration
        dataclasses; unknown keys raise ``ValueError`` listing the valid
        ones.
        """
        validate_override_key(key)
        self._overrides[key] = value
        return self

    def config(self, overrides: Mapping[str, object]) -> "ExperimentBuilder":
        """Set several dotted config overrides at once."""
        for key, value in overrides.items():
            self.override(key, value)
        return self

    # -- instrumentation and policy ----------------------------------------------

    def probe(self, probe: Probe) -> "ExperimentBuilder":
        """Attach a probe called with every machine the workload constructs."""
        if not callable(probe):
            raise TypeError("probe must be callable")
        self._probes.append(probe)
        return self

    def tag(self, **tags: str) -> "ExperimentBuilder":
        """Attach provenance tags carried verbatim into the ``RunResult``."""
        for key, value in tags.items():
            self._tags[key] = str(value)
        return self

    def seed(self, seed: int) -> "ExperimentBuilder":
        """Record a workload seed in the result's provenance."""
        self._seed = int(seed)
        return self

    def trace(
        self, directory: str, chunk_events: Optional[int] = None
    ) -> "ExperimentBuilder":
        """Stream the trace of the N-th machine each run builds, from 0, to
        ``machine-N`` of *directory* (chunked JSONL+gzip, see
        ``docs/traces.md``) instead of holding it in memory — bounded RSS.

        *chunk_events* sets the events-per-chunk buffer size (default
        4096); smaller chunks mean finer-grained index skipping and a lower
        memory cap, at the cost of more files.
        """
        if chunk_events is not None and chunk_events <= 0:
            raise ValueError("chunk_events must be a positive event count")
        self._trace_dir = os.fspath(directory)
        self._trace_chunk_events = None if chunk_events is None else int(chunk_events)
        return self

    def checkpoint(
        self, directory: str, every: Optional[int] = None
    ) -> "ExperimentBuilder":
        """Checkpoint the run's machines to *directory* every *every* cycles
        and resume from the latest checkpoint on re-execution
        (:mod:`repro.snapshot.checkpoint`).

        With *every* omitted the run is **resume-only**: nothing is saved,
        but a checkpoint already present in *directory* (e.g. left by a
        killed run that did save) is still restored at run start.
        """
        if every is not None and every <= 0:
            raise ValueError("checkpoint interval must be a positive cycle count")
        self._checkpoint_dir = directory
        self._checkpoint_every = every
        return self

    # -- build -------------------------------------------------------------------

    def _resolved_params(self, spec: WorkloadSpec) -> Dict[str, object]:
        """Merge builder-level mesh/kernel into the explicit params."""
        # An override of a key that a parameter sets would run a machine
        # that the parameters and run id do not describe.
        for name, key in PARAM_KEYS.items():
            if key in self._overrides and name in spec.fixed_params:
                raise ValueError(
                    f"workload {spec.name!r} fixes its {name!r}, which sets {key}; "
                    f"{key!r} cannot be overridden"
                )
            if key in self._overrides and name in spec.defaults:
                method = f".{name}()" if name in ("mesh", "kernel") else f".params({name}=...)"
                raise ValueError(
                    f"workload {spec.name!r} takes a {name!r} parameter, which "
                    f"sets {key}; use {method} instead of overriding {key!r}"
                )
        params = dict(self._params)
        for name, value in (("mesh", self._mesh), ("kernel", self._kernel)):
            if value is None:
                continue
            if name not in spec.defaults:
                raise ValueError(
                    f"workload {spec.name!r} does not accept a {name!r} "
                    f"parameter; its parameters are: "
                    f"{', '.join(spec.param_names()) or '(none)'}"
                )
            if name in params:
                raise ValueError(
                    f"{name!r} was set both as a workload parameter and via "
                    f"the builder's .{name}() — pick one"
                )
            params[name] = list(value) if name == "mesh" else value
        spec.validate_params(params)
        return params

    def build(self) -> "Experiment":
        """Validate the definition and freeze it into an :class:`Experiment`."""
        if self._workload is None:
            raise ValueError("no workload bound; call .workload(name_or_spec) first")
        spec = self._workload
        params = self._resolved_params(spec)
        tags = dict(self._tags)
        if self._seed is not None:
            tags["seed"] = str(self._seed)
        return Experiment(
            spec=spec,
            params=params,
            overrides=dict(self._overrides),
            probes=list(self._probes),
            tags=tags,
            trace_dir=self._trace_dir,
            trace_chunk_events=self._trace_chunk_events,
            checkpoint_dir=self._checkpoint_dir,
            checkpoint_every=self._checkpoint_every,
        )


class Experiment:
    """A fully-validated, runnable experiment (build via :meth:`builder`).

    Context-manager lifecycle: ``with experiment: experiment.run()``.  The
    experiment is reusable until closed — each :meth:`run` re-executes the
    workload deterministically; after the ``with`` block exits, further runs
    raise ``RuntimeError``.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        params: Dict[str, object],
        overrides: Optional[Dict[str, object]] = None,
        probes: Optional[List[Probe]] = None,
        tags: Optional[Dict[str, str]] = None,
        trace_dir: Optional[str] = None,
        trace_chunk_events: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: Optional[int] = None,
    ) -> None:
        self.spec = spec
        self.params = dict(params)
        self.overrides = dict(overrides or {})
        self.probes = list(probes or [])
        self.tags = dict(tags or {})
        self.trace_dir = trace_dir
        self.trace_chunk_events = trace_chunk_events
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self._closed = False
        #: Results of every :meth:`run` on this experiment, in order.
        self.results: List[RunResult] = []

    @staticmethod
    def builder() -> ExperimentBuilder:
        """A fresh :class:`ExperimentBuilder`."""
        return ExperimentBuilder()

    # -- lifecycle ---------------------------------------------------------------

    def __enter__(self) -> "Experiment":
        if self._closed:
            raise RuntimeError("experiment is closed (the with-block exited)")
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._closed = True

    @property
    def closed(self) -> bool:
        """Whether the experiment's with-block has exited."""
        return self._closed

    @property
    def run_id(self) -> str:
        """The deterministic run id of this experiment's configuration."""
        return run_id_for(self.spec.name, self.params)

    # -- execution ---------------------------------------------------------------

    def run(self) -> RunResult:
        """Execute the workload once and return its :class:`RunResult`."""
        if self._closed:
            raise RuntimeError("experiment is closed (the with-block exited)")
        start = time.perf_counter()
        resumed_from: Optional[int] = None
        with ExitStack() as stack:
            if self.trace_dir is not None:
                # Installed first, so that probes see the disk sink.
                stack.enter_context(
                    construction_hooks(machine_hook=self._stream_traces(self.trace_dir))
                )
            if self.overrides or self.probes:
                stack.enter_context(
                    construction_hooks(
                        config_hook=self._apply_overrides if self.overrides else None,
                        machine_hook=self._run_probes if self.probes else None,
                    )
                )
            policy = None
            if self.checkpoint_dir is not None:
                # The snapshot layer is loaded only by checkpointed runs.
                from repro.snapshot.checkpoint import checkpoint_context  # noqa: PLC0415

                policy = stack.enter_context(
                    checkpoint_context(self.checkpoint_dir, every=self.checkpoint_every)
                )
            metrics = self.spec.call(self.params)
            if policy is not None and policy.resumes:
                resumed_from = policy.resumes[0][1]
        result = RunResult.from_metrics(
            workload=self.spec.name,
            params=self.params,
            metrics=metrics,
            wall_seconds=time.perf_counter() - start,
            tags=self.tags,
            resumed_from_cycle=resumed_from,
        )
        self.results.append(result)
        return result

    def _stream_traces(self, trace_dir: str) -> Callable[[MMachine], None]:
        ordinals = itertools.count()

        def stream(machine: MMachine) -> None:
            directory = os.path.join(trace_dir, f"machine-{next(ordinals)}")
            machine.tracer.stream_to(directory, self.trace_chunk_events)

        return stream

    def _apply_overrides(self, config: Any) -> None:
        apply_overrides(config, self.overrides)

    def _run_probes(self, machine: MMachine) -> None:
        for probe in self.probes:
            probe(machine)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"Experiment({self.spec.name!r}, params={self.params!r}, {state})"


def run_workload(
    ref: WorkloadRef,
    params: Optional[Mapping[str, object]] = None,
    *,
    tags: Optional[Mapping[str, str]] = None,
    **kwparams: object,
) -> RunResult:
    """Run one workload and return its :class:`RunResult` (the functional
    spelling of a one-shot :class:`Experiment`)::

        from repro import run_workload

        result = run_workload("stencil", kind="27pt", n_hthreads=4)
        assert result.verified
    """
    merged = dict(params or {})
    merged.update(kwparams)
    builder = Experiment.builder().workload(ref).params(**merged)
    if tags:
        builder.tag(**tags)
    return builder.build().run()
