"""Closed-loop response generation, the one implementation.

All three network models (PEARL R-SWMR, token-MWSR, CMESH) answer
delivered requests through :func:`build_response`: the L3 bank serves
after a hit/miss latency (misses queue at the memory controllers), peer
clusters forward after a small fixed latency, and local L2s answer
intra-cluster requests.  Each network keeps its own response heap; only
the policy lives here, so the baselines answer exactly as PEARL does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..cache.memory import MemoryController
from .packet import CacheLevel, CoreType, Packet, PacketClass

#: Flits in a data-bearing response (64-byte line + header).
RESPONSE_FLITS = 5


@dataclass(frozen=True)
class ResponderConfig:
    """Closed-loop response generation parameters."""

    l3_hit_latency: int = 8
    local_l2_latency: int = 4
    peer_latency: int = 6
    cpu_l3_miss_rate: float = 0.25
    gpu_l3_miss_rate: float = 0.30
    response_flits: int = RESPONSE_FLITS

    def __post_init__(self) -> None:
        for rate in (self.cpu_l3_miss_rate, self.gpu_l3_miss_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("miss rates must be in [0, 1]")
        if min(self.l3_hit_latency, self.local_l2_latency, self.peer_latency) < 0:
            raise ValueError("latencies cannot be negative")


def build_response(
    request: Packet,
    cycle: int,
    config: ResponderConfig,
    rng: np.random.Generator,
    memory: MemoryController,
    l3_router_id: int,
) -> Tuple[int, Packet]:
    """The (ready_cycle, response packet) for a delivered request.

    The response's source is ``request.destination`` (the L3 router id
    for L3 requests); ``rng`` is drawn once, and only for L3 requests.
    """
    requester = request.source
    source = request.destination
    local = requester == source
    cpu = request.core_type is CoreType.CPU
    if source == l3_router_id:
        ready = cycle + config.l3_hit_latency
        miss_rate = config.cpu_l3_miss_rate if cpu else config.gpu_l3_miss_rate
        if rng.random() < miss_rate:
            line = requester * 131 + request.created_cycle
            ready = memory.request(line * memory.line_bytes, ready)
        level = CacheLevel.L3
    else:
        ready = cycle + (config.local_l2_latency if local else config.peer_latency)
        level = CacheLevel.CPU_L2_UP if cpu else CacheLevel.GPU_L2_UP
    response = Packet(
        source,
        requester,
        request.core_type,
        PacketClass.RESPONSE,
        level,
        1 if local else config.response_flits,
        ready,
    )
    return ready, response
