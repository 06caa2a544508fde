"""Tests for repro.noc.responder — the one closed-loop response policy."""

import numpy as np
import pytest

from repro.cache.memory import MemoryController
from repro.noc.packet import CacheLevel, CoreType, PacketClass, make_request
from repro.noc.responder import ResponderConfig, build_response

L3 = 16


def _respond(request, cycle=100, config=None, seed=0, memory=None):
    return build_response(
        request,
        cycle,
        config or ResponderConfig(),
        np.random.default_rng(seed),
        memory or MemoryController(),
        l3_router_id=L3,
    )


class TestL3Responses:
    def test_l3_hit_latency(self):
        request = make_request(0, L3, CoreType.CPU, CacheLevel.CPU_L2_DOWN)
        config = ResponderConfig(cpu_l3_miss_rate=0.0)
        ready, response = _respond(request, cycle=100, config=config)
        assert ready == 100 + config.l3_hit_latency
        assert response.cache_level is CacheLevel.L3
        assert response.source == L3
        assert response.destination == 0
        assert response.size_flits == config.response_flits

    def test_l3_miss_adds_memory_latency(self):
        request = make_request(0, L3, CoreType.CPU, CacheLevel.CPU_L2_DOWN)
        config = ResponderConfig(cpu_l3_miss_rate=1.0)
        memory = MemoryController()
        ready, _ = _respond(request, cycle=100, config=config, memory=memory)
        assert ready > 100 + config.l3_hit_latency
        assert memory.stats.requests == 1

    def test_response_preserves_core_type(self):
        request = make_request(3, L3, CoreType.GPU, CacheLevel.GPU_L2_DOWN)
        _, response = _respond(request)
        assert response.core_type is CoreType.GPU


class TestPeerResponses:
    def test_peer_latency_and_level(self):
        request = make_request(0, 5, CoreType.CPU, CacheLevel.CPU_L2_DOWN)
        config = ResponderConfig()
        ready, response = _respond(request, cycle=50, config=config)
        assert ready == 50 + config.peer_latency
        assert response.cache_level is CacheLevel.CPU_L2_UP
        assert response.source == 5
        assert response.size_flits == config.response_flits


class TestLocalResponses:
    def test_local_l2_response(self):
        request = make_request(4, 4, CoreType.GPU, CacheLevel.GPU_L1)
        config = ResponderConfig()
        ready, response = _respond(request, cycle=10, config=config)
        assert ready == 10 + config.local_l2_latency
        assert response.cache_level is CacheLevel.GPU_L2_UP
        assert response.is_local
        assert response.size_flits == 1  # local responses stay small

    def test_all_responses_are_responses(self):
        for destination in (L3, 5, 0):
            source = 0 if destination != 0 else 2
            request = make_request(
                source, destination, CoreType.CPU,
                CacheLevel.CPU_L2_DOWN if destination != source else CacheLevel.CPU_L1_DATA,
            )
            _, response = _respond(request)
            assert response.packet_class is PacketClass.RESPONSE
            assert response.created_cycle >= 0
