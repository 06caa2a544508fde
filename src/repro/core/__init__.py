"""PEARL's primary contribution: bandwidth, power and ML scaling."""

from .adaptive import AdaptiveReactiveScaler
from .dba import DynamicBandwidthAllocator, FCFSAllocator, OccupancySample
from .ml_scaling import MLPowerScaler, StateSelector
from .power_scaling import LaserBank, ReactivePowerScaler, StaticPowerPolicy
from .reservation import reservation_packet_bits, reservation_wavelengths
from .wavelength import (
    BandwidthAllocation,
    WavelengthLadder,
    mean_power_w,
    transmission_cycles,
    wavelengths_for_share,
)

__all__ = [
    "AdaptiveReactiveScaler",
    "BandwidthAllocation",
    "DynamicBandwidthAllocator",
    "FCFSAllocator",
    "LaserBank",
    "MLPowerScaler",
    "OccupancySample",
    "ReactivePowerScaler",
    "StateSelector",
    "StaticPowerPolicy",
    "WavelengthLadder",
    "mean_power_w",
    "reservation_packet_bits",
    "reservation_wavelengths",
    "transmission_cycles",
    "wavelengths_for_share",
]
