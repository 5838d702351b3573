"""The typed workload registry: ``Workload`` protocol and ``WorkloadSpec``.

A *workload* is a callable taking only keyword arguments (all with
defaults) and returning a flat JSON-scalar metrics dict — the contract the
paper-figure factories in :mod:`repro.workloads.factories` have always
followed.  This module gives that contract a first-class shape:

* :class:`Workload` is the structural protocol a workload callable
  satisfies;
* :class:`WorkloadSpec` wraps one workload with its registry name,
  introspected parameter defaults, a description and the paper-section tag
  it reproduces;
* :func:`workload` is the decorator that builds and (by default) registers
  a spec.

Lookup functions (:func:`get_workload`, :func:`workload_names`,
:func:`workload_defaults`) lazily import the built-in factory module, so
the registry is populated on first use without an import cycle.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Protocol, Tuple

Metrics = Dict[str, object]


class Workload(Protocol):
    """The structural contract of a workload callable.

    Accepts only keyword parameters (all defaulted) and returns a flat dict
    of JSON-serialisable scalar metrics; machine-driving workloads report
    ``cycles`` and ``verified``.
    """

    def __call__(self, **params: Any) -> Metrics:
        """Run the workload with *params* and return its metrics."""
        ...


#: The typed registry: workload name -> spec.
_REGISTRY: Dict[str, "WorkloadSpec"] = {}

#: Set once the built-in factory module has been imported (it registers all
#: paper-figure workloads as a side effect).
_BUILTINS_LOADED = False


def _ensure_builtins() -> None:
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        _BUILTINS_LOADED = True
        import repro.workloads.factories  # noqa: F401, PLC0415  (registers on import)


def _signature_defaults(func: Callable[..., Metrics]) -> Dict[str, object]:
    """The keyword defaults of *func*, in signature order."""
    return {
        param.name: param.default
        for param in inspect.signature(func).parameters.values()
        if param.default is not inspect.Parameter.empty
    }


@dataclass(frozen=True)
class WorkloadSpec:
    """One registered workload: its callable, defaults and metadata."""

    name: str
    func: Callable[..., Metrics]
    defaults: Dict[str, object]
    description: str = ""
    #: Which part of the paper the workload reproduces (e.g. ``"Figure 5"``).
    section: str = ""
    #: :data:`~repro.core.config.PARAM_KEYS` parameters that the workload
    #: sets to a value of its own instead of taking them.
    fixed_params: Tuple[str, ...] = ()

    def __call__(self, **params: Any) -> Metrics:
        """Run the underlying callable directly (satisfies :class:`Workload`)."""
        return self.func(**params)

    @classmethod
    def from_callable(
        cls,
        name: str,
        func: Callable[..., Metrics],
        description: Optional[str] = None,
        section: str = "",
        fixed_params: Tuple[str, ...] = (),
    ) -> "WorkloadSpec":
        """Build a spec by introspecting *func* (defaults, docstring)."""
        if description is None:
            doc = inspect.getdoc(func) or ""
            description = doc.splitlines()[0].strip() if doc else ""
        return cls(
            name=name,
            func=func,
            defaults=_signature_defaults(func),
            description=description,
            section=section,
            fixed_params=fixed_params,
        )

    def param_names(self) -> List[str]:
        """Parameter names, in signature order."""
        return list(self.defaults)

    def validate_params(self, params: Mapping[str, object]) -> None:
        """Raise ``ValueError`` on parameter names the workload does not take."""
        unknown = sorted(set(params) - set(self.defaults))
        if unknown:
            valid = ", ".join(self.param_names()) or "(none)"
            raise ValueError(
                f"workload {self.name!r} has no parameter(s) "
                f"{', '.join(repr(name) for name in unknown)}; valid: {valid}"
            )

    def effective_params(self, params: Mapping[str, object]) -> Dict[str, object]:
        """The explicit *params* overlaid on this workload's defaults."""
        effective = dict(self.defaults)
        effective.update(params)
        return effective

    def call(self, params: Optional[Mapping[str, object]] = None) -> Metrics:
        """Run the workload with a params mapping and return its raw metrics."""
        return self.func(**dict(params or {}))


def register_spec(spec: WorkloadSpec, replace: bool = False) -> WorkloadSpec:
    """Add *spec* to the registry; duplicate names raise unless *replace*.

    The built-in workloads load first, so a name that clashes with one of
    them is rejected here rather than when the built-ins are next looked up.
    """
    _ensure_builtins()
    if not replace and spec.name in _REGISTRY:
        raise ValueError(f"duplicate workload name {spec.name!r}")
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    """Remove workload *name* from the registry (missing names are ignored)."""
    _REGISTRY.pop(name, None)


def workload(
    name: Optional[str] = None,
    *,
    description: Optional[str] = None,
    section: str = "",
    fixed_params: Tuple[str, ...] = (),
    register: bool = True,
) -> Callable[[Callable[..., Metrics]], WorkloadSpec]:
    """Decorator: wrap a factory function as a (usually registered) spec.

    ::

        @workload("stencil", section="Figure 5")
        def stencil(kind: str = "7pt", n_hthreads: int = 1, ...) -> Dict[str, object]:
            ...

    The decorated name is bound to the :class:`WorkloadSpec` (which is itself
    callable with the original signature).  ``register=False`` builds a
    stand-alone spec — handy for scripts and examples that define a local
    workload for one :class:`~repro.api.experiment.Experiment` without
    touching the global registry.
    """

    def wrap(func: Callable[..., Metrics]) -> WorkloadSpec:
        spec_name = name if name is not None else func.__name__.replace("_", "-")
        spec = WorkloadSpec.from_callable(
            spec_name, func, description=description, section=section,
            fixed_params=fixed_params,
        )
        if register:
            register_spec(spec)
        return spec

    return wrap


def get_workload(name: str) -> WorkloadSpec:
    """The registered spec for *name*; unknown names raise ``KeyError``."""
    _ensure_builtins()
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown workload {name!r}; known: {', '.join(workload_names())}"
        )
    return _REGISTRY[name]


def workload_names() -> List[str]:
    """All registered workload names, sorted."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def workload_defaults(name: str) -> Dict[str, object]:
    """Default parameters of workload *name*, in signature order."""
    return dict(get_workload(name).defaults)


def workload_specs() -> List[WorkloadSpec]:
    """All registered specs, sorted by name."""
    _ensure_builtins()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]
