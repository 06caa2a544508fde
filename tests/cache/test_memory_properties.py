"""Invariants of repro.cache.memory over controller counts and timings."""

import numpy as np
import pytest

from repro.cache.memory import MemoryController

CONTROLLER_COUNTS = [1, 2, 3, 4, 8]


@pytest.mark.parametrize("channels", CONTROLLER_COUNTS)
def test_consecutive_lines_round_robin(channels):
    memory = MemoryController(num_controllers=channels, line_bytes=64)
    for line in range(3 * channels):
        assert memory.channel_for(line * 64) == line % channels


@pytest.mark.parametrize("channels", CONTROLLER_COUNTS)
def test_one_request_per_channel_never_queues(channels):
    memory = MemoryController(
        num_controllers=channels, access_latency_cycles=90, service_cycles=12
    )
    done = [memory.request(line * 64, 40) for line in range(channels)]
    assert done == [40 + 90] * channels
    assert memory.stats.mean_latency == 90


@pytest.mark.parametrize("line_bytes", [32, 64, 128])
def test_addresses_within_a_line_share_a_channel(line_bytes):
    memory = MemoryController(num_controllers=4, line_bytes=line_bytes)
    for line in range(8):
        base = line * line_bytes
        channels = {memory.channel_for(base + o) for o in range(line_bytes)}
        assert channels == {memory.channel_for(base)}


@pytest.mark.parametrize("service", [1, 4, 8, 16])
def test_same_channel_burst_serialises(service):
    memory = MemoryController(
        num_controllers=2, access_latency_cycles=100, service_cycles=service
    )
    # Even lines all map to channel 0 of 2.
    done = [memory.request(2 * i * 64, 0) for i in range(6)]
    assert done == [100 + i * service for i in range(6)]
    assert memory.stats.busy_cycles == 6 * service


@pytest.mark.parametrize("seed", range(5))
def test_random_stream_accounting(seed):
    rng = np.random.default_rng(seed)
    memory = MemoryController(
        num_controllers=int(rng.integers(1, 5)),
        access_latency_cycles=int(rng.integers(0, 200)),
        service_cycles=int(rng.integers(1, 20)),
    )
    cycles = np.sort(rng.integers(0, 2_000, size=200))
    addresses = rng.integers(0, 1 << 20, size=200)
    latencies = []
    last_done = 0
    for address, cycle in zip(addresses, cycles):
        done = memory.request(int(address), int(cycle))
        assert done >= cycle + memory.access_latency_cycles
        latencies.append(done - int(cycle))
        last_done = max(last_done, done)
    stats = memory.stats
    assert stats.requests == 200
    assert stats.busy_cycles == 200 * memory.service_cycles
    assert stats.total_latency == sum(latencies)
    assert stats.mean_latency == pytest.approx(np.mean(latencies))
    # Every channel is free by the last start plus one service slot.
    elapsed = last_done - memory.access_latency_cycles + memory.service_cycles
    assert 0.0 < memory.utilization(elapsed) <= 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_controllers": -1},
        {"access_latency_cycles": -1},
        {"service_cycles": -2},
    ],
)
def test_invalid_construction_rejected(kwargs):
    with pytest.raises(ValueError):
        MemoryController(**kwargs)
