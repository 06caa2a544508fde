"""Tests for repro.noc.cmesh — the electrical wormhole-mesh baseline."""

from collections import Counter

import pytest

from repro.config import CMeshConfig, SimulationConfig
from repro.noc.cmesh import (
    EAST,
    L3_BANK_ROUTERS,
    LOCAL,
    NORTH,
    SOUTH,
    WEST,
    CMeshNetwork,
    CMeshRouter,
    l3_bank_for,
)
from repro.noc.packet import CacheLevel, CoreType, PacketClass, make_request
from repro.traffic.synthetic import uniform_random_trace
from repro.traffic.trace import InjectionEvent, Trace


def _sim(measure=1_500, warmup=100):
    return SimulationConfig(warmup_cycles=warmup, measure_cycles=measure)


class TestRouting:
    @pytest.fixture
    def router5(self):
        # Router 5 is at (x=1, y=1).
        return CMeshRouter(5, CMeshConfig())

    def test_xy_east_first(self, router5):
        assert router5.route(7) == EAST  # (3,1)
        assert router5.route(6) == EAST

    def test_xy_west(self, router5):
        assert router5.route(4) == WEST

    def test_y_after_x(self, router5):
        assert router5.route(13) == SOUTH  # (1,3): same column
        assert router5.route(1) == NORTH

    def test_x_has_priority_over_y(self, router5):
        assert router5.route(15) == EAST  # (3,3): move X first

    def test_local(self, router5):
        assert router5.route(5) == LOCAL

    def test_neighbors(self, router5):
        assert router5.neighbor(NORTH) == 1
        assert router5.neighbor(SOUTH) == 9
        assert router5.neighbor(EAST) == 6
        assert router5.neighbor(WEST) == 4

    def test_edge_neighbors_none(self):
        corner = CMeshRouter(0, CMeshConfig())
        assert corner.neighbor(NORTH) is None
        assert corner.neighbor(WEST) is None
        assert corner.neighbor(EAST) == 1
        assert corner.neighbor(SOUTH) == 4

    def test_tables_match_methods(self):
        """The allocator's lookup tables agree with route()/neighbor()."""
        config = CMeshConfig()
        for router_id in range(config.num_routers):
            router = CMeshRouter(router_id, config)
            assert router.neighbors == [
                router.neighbor(port) for port in range(5)
            ]
            assert router.route_table == [
                router.route(dest) for dest in range(config.num_routers)
            ]


class TestL3Mapping:
    def test_banks_are_centre_routers(self):
        assert set(L3_BANK_ROUTERS) == {5, 6, 9, 10}

    def test_bank_deterministic_per_packet(self):
        packet = make_request(0, 16, CoreType.CPU, CacheLevel.CPU_L2_DOWN)
        assert l3_bank_for(packet) == l3_bank_for(packet)
        assert l3_bank_for(packet) in L3_BANK_ROUTERS


class TestSimulation:
    def test_delivers_uniform_traffic(self):
        trace = uniform_random_trace(rate=0.02, duration=1_600, seed=1)
        network = CMeshNetwork(simulation=_sim())
        stats = network.run(trace)
        assert stats.packets_delivered > 0
        assert stats.mean_latency() > 0

    def test_closed_loop_responses(self):
        trace = uniform_random_trace(rate=0.02, duration=1_600, seed=1)
        stats = CMeshNetwork(simulation=_sim()).run(trace)
        # 5-flit responses inflate flits over packets.
        assert stats.flits_delivered > stats.packets_delivered

    def test_deterministic(self):
        trace = uniform_random_trace(rate=0.02, duration=1_600, seed=2)
        a = CMeshNetwork(simulation=_sim(), seed=5).run(trace)
        b = CMeshNetwork(simulation=_sim(), seed=5).run(trace)
        assert a.throughput_flits_per_cycle() == b.throughput_flits_per_cycle()

    def test_narrow_links_reduce_throughput(self):
        """Under saturation, halving link bandwidth costs throughput."""
        trace = uniform_random_trace(rate=0.2, duration=1_600, seed=3)
        wide = CMeshNetwork(simulation=_sim(), bandwidth_divisor=1).run(trace)
        narrow = CMeshNetwork(simulation=_sim(), bandwidth_divisor=4).run(trace)
        assert (
            narrow.throughput_flits_per_cycle()
            < wide.throughput_flits_per_cycle()
        )

    def test_electrical_energy_integrated(self):
        trace = uniform_random_trace(rate=0.02, duration=1_600, seed=1)
        stats = CMeshNetwork(simulation=_sim()).run(trace)
        assert stats.electrical_energy_j > 0
        assert stats.laser_energy_j == 0.0

    def test_local_packets_bypass_mesh(self):
        events = uniform_random_trace(rate=0.02, duration=1_600, seed=1).events
        local = Trace(
            [e.__class__(**{**e.__dict__, "destination": e.source}) for e in events]
        )
        stats = CMeshNetwork(simulation=_sim()).run(local)
        assert stats.local_packets_delivered > 0

    def test_invalid_divisor_rejected(self):
        with pytest.raises(ValueError):
            CMeshNetwork(bandwidth_divisor=0)

    def test_packet_conservation_at_low_load(self):
        """Everything offered before the horizon is eventually delivered."""
        sim = SimulationConfig(warmup_cycles=0, measure_cycles=4_000)
        trace = uniform_random_trace(rate=0.005, duration=1_000, seed=6)
        network = CMeshNetwork(simulation=sim)
        stats = network.run(trace)
        injected = sum(c.packets_injected for c in stats.counters.values())
        assert stats.packets_delivered == injected


class TestEjection:
    def test_one_flit_ejected_per_router_per_cycle(self):
        """Two 5-flit packets converge on router 5 from its west and east
        neighbours; their heads arrive together, and the local port
        drains them one flit per cycle, back to back."""
        events = [
            InjectionEvent(
                cycle=0,
                source=source,
                destination=5,
                core_type=CoreType.CPU,
                packet_class=PacketClass.REQUEST,
                cache_level=CacheLevel.CPU_L2_DOWN,
                size_flits=5,
            )
            for source in (4, 6)
        ]
        network = CMeshNetwork(
            simulation=SimulationConfig(warmup_cycles=0, measure_cycles=200),
            bandwidth_divisor=1,
        )
        ejected = Counter()
        apply_move = network._apply_move

        def recording(router, out_port, flit, downstream, down_vc, cycle):
            if out_port == LOCAL:
                ejected[(router.router_id, cycle)] += 1
            apply_move(router, out_port, flit, downstream, down_vc, cycle)

        network._apply_move = recording
        network.run(Trace(events))
        assert max(ejected.values()) == 1
        cycles = sorted(cycle for router, cycle in ejected if router == 5)
        assert len(cycles) == 10
        assert cycles == list(range(cycles[0], cycles[0] + 10))
