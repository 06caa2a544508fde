"""Property-based invariants of the fault-injection subsystem.

Three families:

* **no-op schedules** — a schedule whose faults never activate during
  the run produces statistics bit-identical to running with no
  schedule at all (the subsystem is free when unused);
* **conservation** — under arbitrary fault schedules with a generous
  retry budget, no packet is ever permanently lost: every injected
  packet is delivered, dropped (never, with the big budget) or still
  accounted for somewhere in the network;
* **wavelength remapping** — the re-run DBA split over surviving rings
  never assigns a disabled wavelength, keeps the CPU and GPU shares
  disjoint, and covers every survivor.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    MLConfig,
    PearlConfig,
    PowerScalingConfig,
    ResilienceConfig,
    SimulationConfig,
)
from repro.core.dba import remap_wavelengths
from repro.core.wavelength import BandwidthAllocation
from repro.faults import (
    BitErrorFault,
    FaultSchedule,
    LaserDroopFault,
    WavelengthFault,
)
from repro.noc.network import PearlNetwork
from repro.noc.packet import CacheLevel, CoreType, PacketClass
from repro.noc.router import PowerPolicyKind
from repro.traffic.trace import InjectionEvent, Trace

CYCLES = 400


def _config(retry_limit: int = 4) -> PearlConfig:
    return PearlConfig(
        simulation=SimulationConfig(warmup_cycles=0, measure_cycles=CYCLES),
        power_scaling=PowerScalingConfig(reservation_window=100),
        ml=MLConfig(reservation_window=100),
        resilience=ResilienceConfig(
            retry_limit=retry_limit,
            nack_latency_cycles=2,
            retry_backoff_cycles=4,
        ),
    )


@st.composite
def traces(draw):
    """Small random request traces over the 17-node PEARL network."""
    n = draw(st.integers(min_value=1, max_value=40))
    events = []
    for _ in range(n):
        source = draw(st.integers(min_value=0, max_value=15))
        destination = draw(st.integers(min_value=0, max_value=16))
        core = draw(st.sampled_from([CoreType.CPU, CoreType.GPU]))
        if source == destination:
            level = (
                CacheLevel.CPU_L1_DATA
                if core is CoreType.CPU
                else CacheLevel.GPU_L1
            )
        else:
            level = (
                CacheLevel.CPU_L2_DOWN
                if core is CoreType.CPU
                else CacheLevel.GPU_L2_DOWN
            )
        events.append(
            InjectionEvent(
                cycle=draw(st.integers(min_value=0, max_value=200)),
                source=source,
                destination=destination,
                core_type=core,
                packet_class=PacketClass.REQUEST,
                cache_level=level,
            )
        )
    return Trace(events, name="random")


@st.composite
def fault_schedules(draw, min_start=0, max_rate=0.8):
    """Arbitrary small fault schedules with spans inside [0, 2*CYCLES)."""
    routers = st.one_of(st.none(), st.integers(min_value=0, max_value=16))

    def span():
        start = draw(st.integers(min_value=min_start, max_value=min_start + 300))
        end = draw(
            st.one_of(
                st.none(),
                st.integers(min_value=start + 1, max_value=start + 500),
            )
        )
        return start, end

    wavelength_faults = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        start, end = span()
        wavelength_faults.append(
            WavelengthFault(
                wavelengths=draw(st.integers(min_value=1, max_value=56)),
                router=draw(routers),
                start=start,
                end=end,
            )
        )
    droop_faults = []
    for _ in range(draw(st.integers(min_value=0, max_value=1))):
        start, end = span()
        droop_faults.append(
            LaserDroopFault(
                max_state=draw(st.sampled_from([8, 16, 32, 48])),
                router=draw(routers),
                start=start,
                end=end,
            )
        )
    bit_error_faults = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        start, end = span()
        bit_error_faults.append(
            BitErrorFault(
                rate=draw(
                    st.floats(
                        min_value=0.0,
                        max_value=max_rate,
                        allow_nan=False,
                        allow_infinity=False,
                    )
                ),
                router=draw(routers),
                start=start,
                end=end,
            )
        )
    return FaultSchedule(
        wavelength_faults=tuple(wavelength_faults),
        droop_faults=tuple(droop_faults),
        bit_error_faults=tuple(bit_error_faults),
        seed=draw(st.integers(min_value=0, max_value=2**31)),
    )


class TestNoOpSchedules:
    @settings(max_examples=10, deadline=None)
    @given(trace=traces(), data=st.data())
    def test_never_active_schedule_is_bit_identical(self, trace, data):
        """Faults scheduled after the run ends must change nothing."""
        schedule = data.draw(
            fault_schedules(min_start=CYCLES)  # every span starts post-run
        )
        baseline = PearlNetwork(
            _config(), power_policy=PowerPolicyKind.REACTIVE, seed=3
        )
        base = baseline.run(trace, engine="reference")
        faulted = PearlNetwork(
            _config(),
            power_policy=PowerPolicyKind.REACTIVE,
            seed=3,
            faults=schedule,
        )
        got = faulted.run(trace, engine="reference")
        assert got.stats.to_dict() == base.stats.to_dict()
        assert got.state_residency == base.state_residency

    def test_empty_schedule_is_bit_identical(self):
        trace = Trace(
            [
                InjectionEvent(
                    cycle=5,
                    source=0,
                    destination=16,
                    core_type=CoreType.CPU,
                    packet_class=PacketClass.REQUEST,
                    cache_level=CacheLevel.CPU_L2_DOWN,
                )
            ],
            name="one",
        )
        base = PearlNetwork(_config(), seed=3).run(trace)
        got = PearlNetwork(_config(), seed=3, faults=FaultSchedule()).run(
            trace
        )
        assert got.stats.to_dict() == base.stats.to_dict()


class TestConservation:
    @settings(max_examples=12, deadline=None)
    @given(trace=traces(), schedule=fault_schedules())
    def test_no_packet_permanently_lost(self, trace, schedule):
        """injected == delivered + dropped + still-in-network, always."""
        network = PearlNetwork(
            _config(retry_limit=4),
            power_policy=PowerPolicyKind.REACTIVE,
            seed=3,
            faults=schedule,
        )
        result = network.run(trace, engine="reference")
        stats = result.stats
        injected = sum(
            c.packets_injected for c in stats.counters.values()
        )
        delivered = sum(
            c.packets_delivered for c in stats.counters.values()
        )
        census = network.pending_packet_census()
        assert injected == delivered + stats.packets_dropped + sum(
            census.values()
        ), census
        assert (
            stats.crc_errors
            == stats.retransmissions + stats.packets_dropped
        )

    @settings(max_examples=8, deadline=None)
    @given(trace=traces(), schedule=fault_schedules(max_rate=0.5))
    def test_large_retry_budget_never_drops(self, trace, schedule):
        """While retry budget remains, no packet is ever dropped."""
        network = PearlNetwork(
            _config(retry_limit=10_000),
            seed=3,
            faults=schedule,
        )
        result = network.run(trace, engine="reference")
        assert result.stats.packets_dropped == 0
        assert (
            result.stats.crc_errors == result.stats.retransmissions
        )


class TestWavelengthRemap:
    @settings(max_examples=200, deadline=None)
    @given(
        cpu_fraction=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
        surviving=st.sets(
            st.integers(min_value=0, max_value=63), max_size=64
        ),
    )
    def test_remap_only_assigns_survivors(self, cpu_fraction, surviving):
        allocation = BandwidthAllocation(
            cpu_fraction=cpu_fraction, gpu_fraction=1.0 - cpu_fraction
        )
        assignment = remap_wavelengths(allocation, tuple(surviving))
        cpu = set(assignment[CoreType.CPU])
        gpu = set(assignment[CoreType.GPU])
        # Never assigns a disabled (non-surviving) ring:
        assert cpu <= surviving
        assert gpu <= surviving
        # Disjoint shares covering every survivor:
        assert not (cpu & gpu)
        assert cpu | gpu == surviving
        # Both sides keep at least one ring while their fraction is
        # nonzero and there are rings enough to share.
        if len(surviving) >= 2 and 0.0 < cpu_fraction < 1.0:
            assert cpu and gpu

    def test_end_to_end_assignment_avoids_disabled_rings(self):
        schedule = FaultSchedule(
            wavelength_faults=(
                WavelengthFault(indices=tuple(range(0, 24, 2)), start=0),
            )
        )
        trace = Trace(
            [
                InjectionEvent(
                    cycle=c,
                    source=0,
                    destination=16,
                    core_type=core,
                    packet_class=PacketClass.REQUEST,
                    cache_level=level,
                )
                for c in range(0, 100, 2)
                for core, level in (
                    (CoreType.CPU, CacheLevel.CPU_L2_DOWN),
                    (CoreType.GPU, CacheLevel.GPU_L2_DOWN),
                )
            ],
            name="mixed",
        )
        network = PearlNetwork(_config(), seed=3, faults=schedule)
        network.run(trace, engine="reference")
        for router in network.routers:
            disabled = router._fault_injector.disabled_wavelengths
            assignment = router.wavelength_assignment()
            for rings in assignment.values():
                assert not (set(rings) & disabled)
