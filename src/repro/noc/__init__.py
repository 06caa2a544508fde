"""Network-on-chip simulators: the PEARL photonic crossbar and CMESH."""

from .buffer import BufferFullError, InputBuffer, PartitionedBuffer, VirtualChannelBuffer
from .cmesh import CMeshNetwork, CMeshRouter
from .mwsr import MwsrNetwork, TokenChannel
from .thermal import (
    HeaterController,
    RingThermalModel,
    ThermalParams,
    ThermalTrimmingModel,
)
from .topology import ChipFloorplan, Placement, per_router_link_budget
from .network import PearlNetwork, PearlRunResult
from .packet import CacheLevel, CoreType, Flit, Packet, PacketClass, make_request, make_response
from .photonic import LinkBudget, PhotonicLinkModel, dbm_to_mw, mw_to_dbm
from .responder import ResponderConfig
from .router import PearlRouter, PowerPolicyKind
from .stats import NetworkStats

__all__ = [
    "BufferFullError",
    "CMeshNetwork",
    "ChipFloorplan",
    "HeaterController",
    "MwsrNetwork",
    "Placement",
    "RingThermalModel",
    "ThermalParams",
    "ThermalTrimmingModel",
    "TokenChannel",
    "CMeshRouter",
    "CacheLevel",
    "CoreType",
    "Flit",
    "InputBuffer",
    "LinkBudget",
    "NetworkStats",
    "Packet",
    "PacketClass",
    "PartitionedBuffer",
    "PearlNetwork",
    "PearlRouter",
    "PearlRunResult",
    "PhotonicLinkModel",
    "PowerPolicyKind",
    "ResponderConfig",
    "VirtualChannelBuffer",
    "dbm_to_mw",
    "make_request",
    "make_response",
    "mw_to_dbm",
    "per_router_link_budget",
]
