"""PEARL — Power-Efficient photonic Architecture with Reconfiguration via Learning.

A reproduction of Van Winkle et al., "Extending the Power-Efficiency and
Performance of Photonic Interconnects for Heterogeneous Multicores with
Machine Learning" (HPCA 2018).

Quickstart::

    from repro import PearlConfig, PearlNetwork, PowerPolicyKind
    from repro.traffic import generate_pair_trace, get_benchmark

    config = PearlConfig()
    trace = generate_pair_trace(
        get_benchmark("fluidanimate"), get_benchmark("dct"),
        duration=config.simulation.total_cycles,
    )
    network = PearlNetwork(config, power_policy=PowerPolicyKind.REACTIVE)
    result = network.run(trace)
    print(result.throughput(), result.mean_laser_power_w)
"""

from .config import (
    ArchitectureConfig,
    AreaConfig,
    CMeshConfig,
    DBAConfig,
    DEFAULT_CONFIG,
    ElectricalPowerConfig,
    MLConfig,
    OpticalConfig,
    PearlConfig,
    PhotonicConfig,
    PowerScalingConfig,
    SimulationConfig,
)
from .noc.cmesh import CMeshNetwork
from .noc.network import PearlNetwork, PearlRunResult
from .noc.packet import CacheLevel, CoreType, Packet, PacketClass
from .noc.responder import ResponderConfig
from .noc.router import PowerPolicyKind
from .noc.stats import NetworkStats

__version__ = "1.1.0"

__all__ = [
    "ArchitectureConfig",
    "AreaConfig",
    "CMeshConfig",
    "CMeshNetwork",
    "CacheLevel",
    "CoreType",
    "DBAConfig",
    "DEFAULT_CONFIG",
    "ElectricalPowerConfig",
    "MLConfig",
    "NetworkStats",
    "OpticalConfig",
    "Packet",
    "PacketClass",
    "PearlConfig",
    "PearlNetwork",
    "PearlRunResult",
    "PhotonicConfig",
    "PowerPolicyKind",
    "PowerScalingConfig",
    "ResponderConfig",
    "SimulationConfig",
]
