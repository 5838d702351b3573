"""Built-in sweep specifications.

``paper-figures`` runs every figure, table and ablation of the paper
through the shared workload factories: its records are what
``repro report --check`` holds against the paper's claims
(:mod:`repro.report.expected`).  ``scenario-matrix`` is the expanded grid
of mesh sizes 2x2 to 8x8, five communication workloads and the
fault-injection family, event vs naive kernel.  ``smoke`` is a CI-sized
mini-matrix.
"""

from __future__ import annotations

from typing import Dict, List

from repro.sweep.spec import AxesGroup, SweepSpec

_MESHES: List[List[int]] = [[2, 2, 1], [4, 4, 1], [6, 6, 1], [8, 8, 1]]

_KERNELS: List[str] = ["event", "naive"]


def _smoke() -> SweepSpec:
    return SweepSpec(
        name="smoke",
        description=(
            "A fast mini-matrix for CI: one representative of every "
            "workload family, both simulation kernels."
        ),
        groups=[
            AxesGroup(
                "stencil",
                axes={"kind": ["7pt"], "n_hthreads": [1, 2], "kernel": _KERNELS},
            ),
            AxesGroup("cc-sync", params={"iterations": 10}),
            AxesGroup("ping-pong", params={"rounds": 4}),
            AxesGroup(
                "remote-memory",
                params={"repeats": 6},
                axes={"mode": ["remote", "coherent"]},
            ),
            AxesGroup("flood", params={"messages": 8}),
            AxesGroup("gtlb-mapping", params={"lookups": 500}),
            AxesGroup("area-model"),
        ],
    )


def _paper_figures() -> SweepSpec:
    return SweepSpec(
        name="paper-figures",
        description=(
            "Every figure, table and ablation of the paper "
            "(Figures 5-9, Table 1, Sections 1/5, A1-A4)."
        ),
        groups=[
            # Figure 5: stencil static depth and dynamic cycles.
            AxesGroup(
                "stencil",
                tags={"figure": "fig5"},
                axes={"kind": ["7pt", "27pt"], "n_hthreads": [1, 2, 4]},
            ),
            # Figure 6: CC-register synchronisation.
            AxesGroup("cc-sync", params={"iterations": 50}, tags={"figure": "fig6"}),
            AxesGroup(
                "cc-barrier",
                params={"iterations": 50, "clusters": 4},
                tags={"figure": "fig6"},
            ),
            # Figure 7: user-level message passing.
            AxesGroup("remote-store-latency", tags={"figure": "fig7"}),
            AxesGroup("message-stream", params={"count": 64}, tags={"figure": "fig7"}),
            AxesGroup("ping-pong", params={"rounds": 16}, tags={"figure": "fig7"}),
            # Figure 8: GTLB page-group interleaving.
            AxesGroup(
                "gtlb-mapping",
                tags={"figure": "fig8"},
                axes={"pages_per_node": [1, 2, 8]},
            ),
            # Figure 9: remote access timelines.
            AxesGroup(
                "remote-access-timeline",
                tags={"figure": "fig9"},
                axes={"kind": ["read", "write"]},
            ),
            # Table 1: the access-time matrix.
            AxesGroup("table1-access-times", tags={"figure": "table1"}),
            # Ablation A1: V-Thread latency tolerance.
            AxesGroup(
                "vthread-interleave",
                tags={"figure": "ablation-a1"},
                axes={"num_threads": [1, 2, 3, 4]},
            ),
            # Ablation A2: thread-selection policy.
            AxesGroup(
                "issue-policy",
                tags={"figure": "ablation-a2"},
                axes={"policy": ["event-priority", "round-robin", "hep"]},
            ),
            # Ablation A3: non-cached remote access vs DRAM caching.
            AxesGroup(
                "remote-memory",
                params={"repeats": 16},
                tags={"figure": "ablation-a3"},
                axes={"mode": ["remote", "coherent"]},
            ),
            # Ablation A4: return-to-sender throttling.
            AxesGroup(
                "flood",
                params={"messages": 24},
                tags={"figure": "ablation-a4"},
                axes={"send_credits": [16, 2]},
            ),
            AxesGroup(
                "many-to-one-flood",
                tags={"figure": "ablation-a4"},
                axes={"queue_words": [6, 128]},
            ),
            # Sections 1/5: the area model.
            AxesGroup("area-model", params={"num_nodes": 32}, tags={"figure": "sec1"}),
        ],
    )


def _scenario_matrix() -> SweepSpec:
    return SweepSpec(
        name="scenario-matrix",
        description=(
            "Expanded grid: mesh sizes 2x2 to 8x8 x five communication "
            "workloads plus the fault-injection/multiprogramming family, "
            "event vs naive kernel (minutes of host time; the naive "
            "kernel on 64 nodes dominates)."
        ),
        groups=[
            AxesGroup(
                "stencil",
                params={"kind": "7pt", "n_hthreads": 2},
                axes={"mesh": _MESHES, "kernel": _KERNELS},
            ),
            AxesGroup(
                "ping-pong",
                params={"rounds": 8},
                axes={"mesh": _MESHES, "kernel": _KERNELS},
            ),
            AxesGroup(
                "flood",
                params={"messages": 16},
                axes={"mesh": _MESHES, "kernel": _KERNELS},
            ),
            AxesGroup(
                "remote-memory",
                params={"mode": "remote", "repeats": 12},
                axes={"mesh": _MESHES, "kernel": _KERNELS},
            ),
            AxesGroup(
                "coherence",
                params={"repeats": 12},
                axes={"mesh": _MESHES, "kernel": _KERNELS},
            ),
            # Fault-injection & multiprogramming family.
            AxesGroup(
                "multitenant-timeshare",
                params={"seed": 0, "jobs": 8},
                axes={"mesh": _MESHES, "kernel": _KERNELS},
            ),
            AxesGroup(
                "protection-storm",
                params={"violators": 9},
                axes={"mesh": [[2, 2, 1]], "kernel": _KERNELS},
            ),
            AxesGroup(
                "secded-soak",
                params={"words": 32, "single_flips": 8, "double_flips": 4},
                axes={"kernel": _KERNELS},
            ),
            AxesGroup(
                "nack-flood",
                params={"senders": 3, "messages_each": 12},
                axes={"mesh": [[2, 2, 1], [4, 4, 1]], "kernel": _KERNELS},
            ),
        ],
    )


_BUILDERS = {
    "smoke": _smoke,
    "paper-figures": _paper_figures,
    "scenario-matrix": _scenario_matrix,
}


def builtin_spec_names() -> List[str]:
    return sorted(_BUILDERS)


def builtin_specs() -> Dict[str, SweepSpec]:
    return {name: builder() for name, builder in _BUILDERS.items()}


def get_spec(name: str) -> SweepSpec:
    if name not in _BUILDERS:
        raise KeyError(
            f"unknown sweep spec {name!r}; built-ins: {', '.join(builtin_spec_names())}"
        )
    return _BUILDERS[name]()
