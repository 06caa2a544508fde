"""Trace contract of every benchmark profile.

The synthetic generator is the only source of request traces: it emits
cache-level-labelled requests directly, and ``noc/responder.py`` answers
them closed-loop.  The labels feed ML features 14-29 (Table III), so
every one of the 24 profiles must keep the same contract, not only the
few that the generator's unit tests sample.
"""

from functools import lru_cache

import pytest

from repro.config import ArchitectureConfig
from repro.noc.packet import CacheLevel, CoreType, PacketClass
from repro.traffic.benchmarks import CPU_BENCHMARKS, GPU_BENCHMARKS, get_benchmark
from repro.traffic.synthetic import REQUEST_FLITS, generate_trace
from repro.traffic.trace import Trace

ARCH = ArchitectureConfig()
DURATION = 3_000
PROFILES = sorted(CPU_BENCHMARKS) + sorted(GPU_BENCHMARKS)

LOCAL_LEVELS = {
    CoreType.CPU: {CacheLevel.CPU_L1_INSTR, CacheLevel.CPU_L1_DATA},
    CoreType.GPU: {CacheLevel.GPU_L1},
}
NETWORK_LEVEL = {
    CoreType.CPU: CacheLevel.CPU_L2_DOWN,
    CoreType.GPU: CacheLevel.GPU_L2_DOWN,
}


@lru_cache(maxsize=None)
def _trace(name: str, seed: int = 1) -> Trace:
    return generate_trace(get_benchmark(name), ARCH, duration=DURATION, seed=seed)


@pytest.mark.parametrize("name", PROFILES)
def test_events_are_single_flit_requests_in_window(name):
    profile = get_benchmark(name)
    trace = _trace(name)
    assert len(trace) > 0
    for event in trace:
        assert event.packet_class is PacketClass.REQUEST
        assert event.size_flits == REQUEST_FLITS
        assert event.core_type is profile.core_type
        assert 0 <= event.cycle < DURATION
        assert 0 <= event.source < ARCH.num_clusters


@pytest.mark.parametrize("name", PROFILES)
def test_cache_level_follows_destination(name):
    core_type = get_benchmark(name).core_type
    for event in _trace(name):
        assert event.cache_level.core_type is core_type
        if event.destination == event.source:
            assert event.cache_level in LOCAL_LEVELS[core_type]
        else:
            assert event.cache_level is NETWORK_LEVEL[core_type]


@pytest.mark.parametrize("name", PROFILES)
def test_network_requests_target_l3_or_a_peer(name):
    for event in _trace(name):
        if event.destination != event.source:
            assert 0 <= event.destination <= ARCH.l3_router_id


@pytest.mark.parametrize("name", PROFILES)
def test_trace_is_seeded(name):
    profile = get_benchmark(name)
    again = generate_trace(profile, ARCH, duration=DURATION, seed=1)
    assert again.events == _trace(name).events
    assert _trace(name, seed=2).events != _trace(name).events


@pytest.mark.parametrize("name", PROFILES)
def test_save_load_preserves_labels(name, tmp_path):
    trace = _trace(name)
    path = tmp_path / f"{name}.trace"
    trace.save(path)
    loaded = Trace.load(path)
    assert loaded.name == name
    assert loaded.events == trace.events
