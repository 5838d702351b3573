"""The silicon-area / peak-performance model of Sections 1 and 5.

The paper's technology argument is quantitative:

* the normalised area of a VLSI chip grows ~50%/year while gate speed and
  communication bandwidth grow ~20%/year;
* a 64-bit processor with a pipelined FPU occupies ~400 Mlambda^2, which is
  11% of a 3.6 Glambda^2 1993 (0.5 um) chip and 4% of a 10 Glambda^2 1996
  (0.35 um) chip, and only 0.52% (1993, 64 MB) or 0.13% (1996, 256 MB) of the
  silicon area of a whole system;
* the MAP chip is ~5 Glambda^2 of which the four clusters are 32%, and the
  clusters are 11% of an 8 MB six-chip node;
* a 32-node M-Machine with 256 MB has 128x the peak performance of a 1996
  uniprocessor with the same memory at ~1.5x the area -- an ~85:1 improvement
  in peak performance per unit area.

This module encodes those numbers as an explicit model so the claims can be
recomputed (benchmark E7) and perturbed (what-if sweeps in the examples).
Areas are expressed in Mlambda^2 (10^6 lambda^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: Area of a 64-bit processor with pipelined FPU (Mlambda^2), from Section 1.
PROCESSOR_AREA_MLAMBDA2 = 400.0

#: DRAM system area per MByte in Mlambda^2, derived from the paper's numbers:
#: the processor's 400 Mlambda^2 is 0.52% of a 64 MB 1993 system and 0.13% of
#: a 256 MB 1996 system, both of which give ~1.2 Glambda^2 per MByte.
DRAM_AREA_PER_MBYTE_MLAMBDA2 = 1200.0

#: MAP chip area (Mlambda^2) and the fraction occupied by the four clusters.
MAP_CHIP_AREA_MLAMBDA2 = 5000.0
MAP_CLUSTER_FRACTION = 0.32

#: Issue width used for peak-performance accounting (operations per cycle per
#: cluster and per conventional processor).
OPERATIONS_PER_CLUSTER = 3
CLUSTERS_PER_NODE = 4
NODE_MEMORY_MBYTES = 8


@dataclass(frozen=True)
class TechnologyPoint:
    """One technology generation as characterised in Section 1."""

    year: int
    feature_size_um: float
    chip_area_mlambda2: float
    system_memory_mbytes: int

    @property
    def processor_fraction_of_chip(self) -> float:
        return PROCESSOR_AREA_MLAMBDA2 / self.chip_area_mlambda2

    @property
    def system_area_mlambda2(self) -> float:
        return PROCESSOR_AREA_MLAMBDA2 + self.system_memory_mbytes * DRAM_AREA_PER_MBYTE_MLAMBDA2

    @property
    def processor_fraction_of_system(self) -> float:
        return PROCESSOR_AREA_MLAMBDA2 / self.system_area_mlambda2


#: The two technology points the paper quotes.
TECH_1993 = TechnologyPoint(year=1993, feature_size_um=0.5, chip_area_mlambda2=3600.0,
                            system_memory_mbytes=64)
TECH_1996 = TechnologyPoint(year=1996, feature_size_um=0.35, chip_area_mlambda2=10000.0,
                            system_memory_mbytes=256)


class AreaModel:
    """Recomputes the paper's area and peak-performance/area claims."""

    def __init__(
        self,
        processor_area: float = PROCESSOR_AREA_MLAMBDA2,
        dram_area_per_mbyte: float = DRAM_AREA_PER_MBYTE_MLAMBDA2,
        map_chip_area: float = MAP_CHIP_AREA_MLAMBDA2,
        cluster_fraction: float = MAP_CLUSTER_FRACTION,
        node_memory_mbytes: int = NODE_MEMORY_MBYTES,
        clusters_per_node: int = CLUSTERS_PER_NODE,
        operations_per_cluster: int = OPERATIONS_PER_CLUSTER,
    ):
        self.processor_area = processor_area
        self.dram_area_per_mbyte = dram_area_per_mbyte
        self.map_chip_area = map_chip_area
        self.cluster_fraction = cluster_fraction
        self.node_memory_mbytes = node_memory_mbytes
        self.clusters_per_node = clusters_per_node
        self.operations_per_cluster = operations_per_cluster

    # -- node-level figures --------------------------------------------------------

    @property
    def cluster_area(self) -> float:
        """Area of the four execution clusters of one MAP chip."""
        return self.map_chip_area * self.cluster_fraction

    @property
    def node_area(self) -> float:
        """Area of one node: the MAP chip plus its SDRAM."""
        return self.map_chip_area + self.node_memory_mbytes * self.dram_area_per_mbyte

    @property
    def cluster_fraction_of_node(self) -> float:
        """Fraction of a node's silicon devoted to the execution clusters
        (the paper's "11% of an 8 MByte (six-chip) node")."""
        return self.cluster_area / self.node_area

    # -- machine-level figures -------------------------------------------------------

    def machine_area(self, num_nodes: int) -> float:
        return num_nodes * self.node_area

    def machine_memory_mbytes(self, num_nodes: int) -> int:
        return num_nodes * self.node_memory_mbytes

    def machine_peak_operations(self, num_nodes: int) -> int:
        """Peak operations per cycle of an M-Machine."""
        return num_nodes * self.clusters_per_node * self.operations_per_cluster

    def uniprocessor_area(self, memory_mbytes: int) -> float:
        """Area of a conventional uniprocessor system with the same memory."""
        return self.processor_area + memory_mbytes * self.dram_area_per_mbyte

    def uniprocessor_peak_operations(self) -> int:
        return self.operations_per_cluster

    # -- the paper's headline comparison ---------------------------------------------

    def comparison(self, num_nodes: int = 32) -> Dict[str, float]:
        """The Section 1 / Section 5 comparison of an M-Machine against a
        uniprocessor with the same memory capacity."""
        memory = self.machine_memory_mbytes(num_nodes)
        m_area = self.machine_area(num_nodes)
        u_area = self.uniprocessor_area(memory)
        m_peak = self.machine_peak_operations(num_nodes)
        u_peak = self.uniprocessor_peak_operations()
        area_ratio = m_area / u_area
        peak_ratio = m_peak / u_peak
        return {
            "num_nodes": num_nodes,
            "memory_mbytes": memory,
            "mmachine_area_mlambda2": m_area,
            "uniprocessor_area_mlambda2": u_area,
            "area_ratio": area_ratio,
            "peak_ratio": peak_ratio,
            "peak_per_area_improvement": peak_ratio / area_ratio,
            "cluster_fraction_of_node": self.cluster_fraction_of_node,
            "uniprocessor_fraction_of_system": self.processor_area / u_area,
        }
