"""Array-engine equivalence under fault injection, plus a latent-bug
regression the fault work uncovered.

A mid-run fault onset/clear is a state transition the array core's
idle skipping must not jump over.  These tests pin ``engine="array"``
== ``engine="reference"`` byte-for-byte while faults fire, including on
idle-heavy traces whose quiescent spans straddle fault boundaries, and
they pin the bug fix directly: ``LaserBank.request_state`` must cancel
a pending *upward* transition when the same (or a lower) state is
re-requested — the fault clamp re-requests the current state at fault
onset, which used to leave a stale pending transition stalling the
link.  The array core's event horizon is also pinned directly: an idle
skip must stop at every fault onset and clear.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    MLConfig,
    PearlConfig,
    PhotonicConfig,
    PowerScalingConfig,
    ResilienceConfig,
    SimulationConfig,
)
from repro.core.power_scaling import LaserBank
from repro.faults import (
    BitErrorFault,
    FaultSchedule,
    LaserDroopFault,
    WavelengthFault,
)
from repro.ml.features import NUM_FEATURES
from repro.ml.ridge import RidgeRegression
from repro.noc.array_core import ArrayCore
from repro.noc.network import PearlNetwork
from repro.noc.router import PowerPolicyKind
from repro.traffic.benchmarks import CPU_BENCHMARKS, GPU_BENCHMARKS
from repro.traffic.synthetic import generate_pair_trace, uniform_random_trace
from repro.noc.packet import CoreType


def _config(measure=1_500, warmup=100, window=200, retry_limit=4):
    return PearlConfig(
        simulation=SimulationConfig(
            warmup_cycles=warmup, measure_cycles=measure
        ),
        power_scaling=PowerScalingConfig(reservation_window=window),
        ml=MLConfig(reservation_window=window),
        resilience=ResilienceConfig(retry_limit=retry_limit),
    )


def _mixed_schedule(config):
    """Wavelength loss + droop + bit errors, all onsetting mid-run."""
    total = config.simulation.total_cycles
    return FaultSchedule(
        wavelength_faults=(
            WavelengthFault(
                wavelengths=20, start=total // 4, end=3 * total // 4
            ),
            WavelengthFault(indices=(4, 9), router=2, start=total // 3),
        ),
        droop_faults=(
            LaserDroopFault(max_state=32, router=16, start=total // 2),
        ),
        bit_error_faults=(
            BitErrorFault(rate=0.002, start=total // 5, end=4 * total // 5),
        ),
        seed=7,
    )


@pytest.fixture(scope="module")
def toy_model():
    rng = np.random.default_rng(0)
    model = RidgeRegression(lam=1.0)
    model.fit(rng.normal(size=(64, NUM_FEATURES)), rng.normal(size=64))
    return model


def _canonical(network, result):
    return {
        "stats": result.stats.to_dict(),
        "residency": result.state_residency,
        "mean_laser_power_w": result.mean_laser_power_w,
        "laser_stall_cycles": result.laser_stall_cycles,
        "ml_predictions": result.ml_predictions,
        "sequence": network._sequence,
        "backlog": network.injection_backlog_size,
        "retransmit_queue": network.retransmit_queue_size,
        "census": network.pending_packet_census(),
        "laser_energy": [r.laser.energy_j for r in network.routers],
        "cycles_in_state": [
            r.laser.cycles_in_state for r in network.routers
        ],
        "clamp_events": [r.fault_clamp_events for r in network.routers],
    }


def _run_both(config, trace, policy, faults, model=None, seed=3):
    out = {}
    for engine in ("reference", "array"):
        network = PearlNetwork(
            config=config,
            power_policy=policy,
            ml_model=model if policy is PowerPolicyKind.ML else None,
            seed=seed,
            faults=faults,
        )
        out[engine] = _canonical(network, network.run(trace, engine=engine))
    return out


class TestFaultedEngineEquivalence:
    @pytest.mark.parametrize("policy", list(PowerPolicyKind))
    def test_all_policies_under_mixed_faults(self, policy, toy_model):
        config = _config()
        schedule = _mixed_schedule(config)
        trace = generate_pair_trace(
            CPU_BENCHMARKS["fluidanimate"],
            GPU_BENCHMARKS["dct"],
            config.architecture,
            config.simulation.total_cycles // 2,
            seed=3,
        )
        out = _run_both(config, trace, policy, schedule, toy_model)
        assert out["reference"] == out["array"]
        # The schedule actually did something:
        assert out["array"]["stats"]["crc_errors"] >= 0

    def test_idle_heavy_trace_skips_across_fault_boundaries(self):
        """Quiescent spans straddle fault onset/clear; skips must stop
        at the boundary, not jump it."""
        config = _config()
        trace = uniform_random_trace(
            CoreType.CPU,
            rate=0.05,
            architecture=config.architecture,
            duration=config.simulation.total_cycles // 4,
            seed=5,
        )
        # Faults fire deep in the idle tail, where the array engine
        # would otherwise skip hundreds of cycles at a time.
        total = config.simulation.total_cycles
        schedule = FaultSchedule(
            wavelength_faults=(
                WavelengthFault(
                    wavelengths=32, start=total // 2, end=total // 2 + 333
                ),
            ),
            droop_faults=(
                LaserDroopFault(max_state=16, start=3 * total // 4),
            ),
        )
        out = _run_both(
            config, trace, PowerPolicyKind.REACTIVE, schedule
        )
        assert out["reference"] == out["array"]
        assert sum(out["array"]["clamp_events"]) > 0

    def test_fault_during_long_stabilization(self):
        """Fault onset lands inside a laser turn-on window."""
        config = _config(window=100).with_turn_on_ns(40.0)  # 80-cycle turn-on
        trace = uniform_random_trace(
            CoreType.GPU,
            rate=0.15,
            architecture=config.architecture,
            duration=config.simulation.total_cycles // 2,
            seed=9,
        )
        total = config.simulation.total_cycles
        schedule = FaultSchedule(
            droop_faults=(
                LaserDroopFault(
                    max_state=16, start=total // 3, end=2 * total // 3
                ),
            ),
        )
        out = _run_both(
            config, trace, PowerPolicyKind.REACTIVE, schedule
        )
        assert out["reference"] == out["array"]

    def test_total_corruption_small_retry_budget(self):
        """rate=1.0 bit errors with retry_limit=1: every packet drops,
        invariants hold, neither engine livelocks."""
        config = _config(measure=800, warmup=0, retry_limit=1)
        trace = uniform_random_trace(
            CoreType.CPU,
            rate=0.1,
            architecture=config.architecture,
            duration=400,
            seed=3,
        )
        schedule = FaultSchedule(
            bit_error_faults=(BitErrorFault(rate=1.0, start=0),)
        )
        out = _run_both(
            config, trace, PowerPolicyKind.STATIC, schedule
        )
        assert out["reference"] == out["array"]
        stats = out["array"]["stats"]
        assert stats["packets_dropped"] > 0
        assert (
            stats["crc_errors"]
            == stats["retransmissions"] + stats["packets_dropped"]
        )


class TestLaserBankRegression:
    def test_equal_state_request_cancels_pending_upshift(self):
        """Re-requesting the current state mid-upshift cancels the
        pending transition and restores transmit immediately (the
        fault clamp relies on this at fault onset)."""
        bank = LaserBank(PhotonicConfig(), initial_state=16)
        bank.request_state(64)
        assert bank.is_stabilizing
        assert not bank.can_transmit
        bank.request_state(16)
        assert bank.state == 16
        assert not bank.is_stabilizing
        assert bank.can_transmit

    def test_downshift_during_upshift_cancels_pending(self):
        bank = LaserBank(PhotonicConfig(), initial_state=32)
        bank.request_state(64)
        bank.request_state(8)
        assert bank.state == 8
        assert bank.can_transmit
        # And the cancelled 64-state never becomes active:
        for _ in range(20):
            bank.tick()
        assert bank.state == 8



def _unstaggered_core(schedule):
    """An array core over an empty network whose only window boundaries
    are cycles 0 and 1000, so fault events alone bound its skips."""
    config = PearlConfig(
        simulation=SimulationConfig(warmup_cycles=0, measure_cycles=400),
        power_scaling=PowerScalingConfig(
            reservation_window=1_000, router_stagger_cycles=0
        ),
        ml=MLConfig(reservation_window=1_000),
    )
    network = PearlNetwork(config=config, seed=3, faults=schedule)
    core = ArrayCore(network)
    core._advance(0, 1, None)
    return core


class TestEventHorizonGuard:
    def test_horizon_stops_at_fault_onset_and_clear(self):
        core = _unstaggered_core(
            FaultSchedule(
                wavelength_faults=(
                    WavelengthFault(wavelengths=8, start=100, end=177),
                )
            )
        )
        assert core._event_horizon(1, 400, None) == 100
        core._advance(1, 120, None)
        assert core._event_horizon(120, 400, None) == 177
        core._advance(120, 200, None)
        assert core._event_horizon(200, 400, None) == 400

    def test_horizon_stops_at_droop_onset(self):
        core = _unstaggered_core(
            FaultSchedule(
                droop_faults=(LaserDroopFault(max_state=32, start=77),)
            )
        )
        assert core._event_horizon(1, 400, None) == 77
