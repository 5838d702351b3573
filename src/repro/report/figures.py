"""Figures 5-9 of the paper, rendered from sweep records.

Each ``build_*`` function returns ``(markdown_lines, charts)`` or ``None``
when the manifest holds no matching runs (see :mod:`repro.report.tables` for
the shared conventions).  Figures 5-8 are grouped bar charts; Figure 9 is a
Gantt-style waterfall reconstructed from the milestone timeline the
``remote-access-timeline`` workload embeds in its metrics
(:mod:`repro.analysis.timeline`).
"""

from __future__ import annotations

from typing import Optional

from repro.report.expected import PAPER_DEPTHS
from repro.report.manifest import Manifest
from repro.report.svg import gantt_chart, grouped_bar_chart
from repro.report.tables import Charts, Section, dedupe_by, markdown_table


def build_fig5(manifest: Manifest) -> Optional[Section]:
    """Stencil smoothing: static instruction depth and dynamic cycles."""
    records = dedupe_by(manifest.find("stencil"), "kind", "n_hthreads")
    if not records:
        return None
    # 7pt before 27pt (paper order), then by thread count.
    keys = sorted(records, key=lambda key: (len(str(key[0])), str(key[0]), key[1]))
    rows = []
    for kind, threads in keys:
        metrics = records[(kind, threads)].metrics
        rows.append([
            kind, threads,
            metrics.get("static_depth"),
            PAPER_DEPTHS.get((kind, threads), "-"),
            metrics.get("cycles"),
            metrics.get("workload_operations"),
        ])
    lines = [
        "## Figure 5: stencil smoothing on 1, 2 and 4 H-Threads",
        "",
        "Static instruction depth of the hand-scheduled 7-point and 27-point",
        "stencils, plus the dynamic cycle counts the paper leaves to 'the",
        "pipeline and memory latencies'.",
        "",
    ]
    lines.extend(markdown_table(
        ["stencil", "H-Threads", "static depth", "paper depth", "dynamic cycles", "ops"],
        rows,
    ))
    categories = [f"{kind} / {threads}T" for kind, threads in keys]
    charts: Charts = [
        (
            "fig5-static-depth.svg",
            grouped_bar_chart(
                "Figure 5: static instruction depth",
                categories,
                [
                    ("measured", [records[key].metrics.get("static_depth") for key in keys]),
                    ("paper", [PAPER_DEPTHS.get(key) for key in keys]),
                ],
                y_label="instructions on the critical path",
            ),
        ),
        (
            "fig5-dynamic-cycles.svg",
            grouped_bar_chart(
                "Figure 5: dynamic cycles on the simulator",
                categories,
                [("cycles", [records[key].metrics.get("cycles") for key in keys])],
                y_label="cycles",
            ),
        ),
    ]
    return lines, charts


def build_fig6(manifest: Manifest) -> Optional[Section]:
    """CC-register synchronisation: interlocked loop and 4-way barrier."""
    sync = dedupe_by(manifest.find("cc-sync"), "iterations")
    barrier = dedupe_by(manifest.find("cc-barrier"), "iterations", "clusters")
    if not sync and not barrier:
        return None
    rows = []
    labels = []
    values = []
    for key in sorted(sync):
        record = sync[key]
        rows.append(["2 H-Thread interlocked loop", key[0], record.metrics["cycles"],
                     record.metrics.get("cycles_per_iteration")])
        labels.append(f"interlocked loop ({key[0]} iters)")
        values.append(record.metrics.get("cycles_per_iteration"))
    for key in sorted(barrier):
        record = barrier[key]
        rows.append([f"{key[1]} H-Thread CC barrier", key[0], record.metrics["cycles"],
                     record.metrics.get("cycles_per_iteration")])
        labels.append(f"{key[1]}-way barrier ({key[0]} iters)")
        values.append(record.metrics.get("cycles_per_iteration"))
    lines = [
        "## Figure 6: CC-register loop synchronisation",
        "",
        "Broadcast + consume + notify through the global condition-code",
        "registers costs a handful of cycles per iteration — far less than a",
        "memory barrier — and extends to a 4-way barrier without combining",
        "trees.",
        "",
    ]
    lines.extend(markdown_table(
        ["kernel", "iterations", "cycles", "cycles/iteration"], rows,
    ))
    charts: Charts = [(
        "fig6-cc-sync.svg",
        grouped_bar_chart(
            "Figure 6: CC-register synchronisation cost",
            labels,
            [("cycles/iteration", values)],
        ),
    )]
    return lines, charts


def build_fig7(manifest: Manifest) -> Optional[Section]:
    """User-level message passing: latency, stream rate, ping-pong."""
    single = manifest.first("remote-store-latency")
    stream = dedupe_by(manifest.find("message-stream"), "count")
    pingpong = dedupe_by(manifest.find("ping-pong"), "rounds")
    if single is None and not stream and not pingpong:
        return None
    rows = []
    labels = []
    values = []
    if single is not None:
        rows.append(["SEND -> remote store complete (1-word body)",
                     single.metrics.get("latency")])
        labels.append("single store latency")
        values.append(single.metrics.get("latency"))
    for key in sorted(stream):
        record = stream[key]
        rows.append([f"pipelined message stream, {key[0]} messages (cycles/message)",
                     record.metrics.get("cycles_per_message")])
        labels.append(f"stream ({key[0]} msgs)")
        values.append(record.metrics.get("cycles_per_message"))
    for key in sorted(pingpong):
        record = pingpong[key]
        rows.append([f"user-level ping-pong, {key[0]} rounds (cycles/round trip)",
                     record.metrics.get("cycles_per_round_trip")])
        labels.append(f"ping-pong ({key[0]} rounds)")
        values.append(record.metrics.get("cycles_per_round_trip"))
    lines = [
        "## Figure 7: user-level message send/receive",
        "",
        "Direct SEND messaging skips the LTLB-miss handler, so a remote",
        "store lands in well under the Table 1 remote-write latency (74",
        "cycles in the paper).",
        "",
    ]
    lines.extend(markdown_table(["metric", "cycles"], rows))
    charts: Charts = [(
        "fig7-messaging.svg",
        grouped_bar_chart(
            "Figure 7: user-level message passing",
            labels,
            [("cycles", values)],
        ),
    )]
    return lines, charts


def build_fig8(manifest: Manifest) -> Optional[Section]:
    """GTLB page-group interleaving and translation hit rate."""
    records = dedupe_by(manifest.find("gtlb-mapping"), "pages_per_node")
    if not records:
        return None
    keys = sorted(records)
    rows = []
    for key in keys:
        metrics = records[key].metrics
        rows.append([
            key[0],
            metrics.get("nodes_used"),
            metrics.get("min_pages_per_node"),
            metrics.get("max_pages_per_node"),
            metrics.get("gtlb_hit_rate"),
        ])
    lines = [
        "## Figure 8: GTLB page-group mapping",
        "",
        "A single GTLB entry spreads a page group over a sub-mesh; block and",
        "cyclic interleavings keep the placement balanced while the",
        "translation stays cached.",
        "",
    ]
    lines.extend(markdown_table(
        ["pages/node", "nodes used", "min pages", "max pages", "GTLB hit rate"],
        rows,
    ))
    charts: Charts = [(
        "fig8-interleaving.svg",
        grouped_bar_chart(
            "Figure 8: pages per node across the interleaved region",
            [f"{key[0]} pages/node" for key in keys],
            [
                ("min pages", [records[key].metrics.get("min_pages_per_node")
                               for key in keys]),
                ("max pages", [records[key].metrics.get("max_pages_per_node")
                               for key in keys]),
            ],
        ),
    )]
    return lines, charts


def build_fig9(manifest: Manifest) -> Optional[Section]:
    """Remote read/write milestone timelines as Gantt waterfalls."""
    records = dedupe_by(manifest.find("remote-access-timeline"), "kind")
    if not records:
        return None
    lines = [
        "## Figure 9: remote access timelines",
        "",
        "The cycle at which each hardware and software milestone of a single",
        "remote access occurs on the requesting node and on the home node.",
        "",
    ]
    charts: Charts = []
    for key in sorted(records):
        kind = str(key[0])
        record = records[key]
        timeline = record.timeline
        lines.append(f"### Remote {kind} ({record.metrics.get('total_cycles')} cycles)")
        lines.append("")
        if timeline is None:
            lines.append("Milestone detail was not recorded in this manifest "
                         "(re-run the sweep to embed it).")
            lines.append("")
            continue
        events = [(int(cycle), int(node), str(label)) for cycle, node, label in timeline]
        lines.extend(markdown_table(
            ["cycle", "node", "milestone"],
            [[cycle, node, label] for cycle, node, label in events],
        ))
        lines.append("")
        charts.append((
            f"fig9-remote-{kind}.svg",
            gantt_chart(
                f"Figure 9: remote {kind} milestones",
                events,
                lane_names=["node 0 (requesting)", "node 1 (home)"],
            ),
        ))
    while lines and lines[-1] == "":
        lines.pop()
    return lines, charts
