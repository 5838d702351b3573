"""Core package: machine configuration, the top-level machine model,
statistics, and the analytical area model used by the paper's technology
argument."""

from repro.core.config import (
    ClusterConfig,
    MachineConfig,
    MemoryConfig,
    NetworkConfig,
    NodeConfig,
    RuntimeConfig,
)
from repro.core.machine import MMachine
from repro.core.stats import MachineStats
from repro.core.area_model import TechnologyPoint, AreaModel

__all__ = [
    "ClusterConfig",
    "MachineConfig",
    "MemoryConfig",
    "NetworkConfig",
    "NodeConfig",
    "RuntimeConfig",
    "MMachine",
    "MachineStats",
    "TechnologyPoint",
    "AreaModel",
]
