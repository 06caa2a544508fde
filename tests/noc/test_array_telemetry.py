"""Array-engine telemetry identity: instrumentation changes nothing.

The array core is a first-class instrumented path — ``run(engine=
"array")`` under an enabled session executes on the ArrayCore (no
silent downgrade to the reference engine) and must satisfy two
identities:

* **Simulation identity**: an instrumented array run is bit-identical
  to an uninstrumented array run (telemetry is observational).
* **Telemetry identity**: the metrics registry, the window series and
  the deterministic (non-wall) trace events of an array run equal
  those of a reference-engine run — the window-close flow is shared,
  and the array core's lazy DBA settlement replays the scalar
  per-cycle split tallies exactly.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.config import (
    MLConfig,
    PearlConfig,
    PowerScalingConfig,
    SimulationConfig,
)
from repro.faults import (
    BitErrorFault,
    FaultSchedule,
    LaserDroopFault,
    WavelengthFault,
)
from repro.ml.features import NUM_FEATURES
from repro.ml.ridge import RidgeRegression
from repro.noc.network import PearlNetwork
from repro.noc.router import PowerPolicyKind
from repro.traffic.benchmarks import CPU_BENCHMARKS, GPU_BENCHMARKS
from repro.traffic.synthetic import generate_pair_trace


@pytest.fixture(autouse=True)
def _telemetry_off():
    obs.disable()
    yield
    obs.disable()


def _config(window=200):
    return PearlConfig(
        simulation=SimulationConfig(warmup_cycles=100, measure_cycles=1_500),
        power_scaling=PowerScalingConfig(reservation_window=window),
        ml=MLConfig(reservation_window=window),
    )


def _fault_schedule():
    return FaultSchedule(
        wavelength_faults=(
            WavelengthFault(wavelengths=24, router=3, start=300, end=900),
        ),
        droop_faults=(LaserDroopFault(max_state=32, router=7, start=500),),
        bit_error_faults=(BitErrorFault(rate=0.02, start=250, end=1000),),
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
        "ml_labels": result.ml_labels,
        "sequence": network._sequence,
        "backlog": network.injection_backlog_size,
        "laser_energy": [r.laser.energy_j for r in network.routers],
        "crc_errors": result.stats.crc_errors,
        "retransmissions": result.stats.retransmissions,
    }


def _run(config, engine, policy, model=None, faults=None, instrumented=True):
    """One run; returns (canonical result, registry, series, events)."""
    trace = generate_pair_trace(
        CPU_BENCHMARKS["fluidanimate"],
        GPU_BENCHMARKS["dct"],
        config.architecture,
        config.simulation.total_cycles,
        11,
    )
    network = PearlNetwork(
        config=config,
        power_policy=policy,
        ml_model=model if policy is PowerPolicyKind.ML else None,
        seed=3,
        faults=faults,
    )
    if not instrumented:
        result = network.run(trace, engine=engine)
        return _canonical(network, result), None, None, None
    with obs.session():
        result = network.run(trace, engine=engine)
        registry = obs.OBS.registry.snapshot(include_volatile=False)
        series = obs.OBS.series.arrays()
        events = obs.OBS.tracer.snapshot(include_wall=False)
    return _canonical(network, result), registry, series, events


def _assert_series_equal(a, b):
    assert set(a) == set(b)
    for column in a:
        if a[column].dtype.kind == "f":
            assert np.array_equal(a[column], b[column], equal_nan=True), column
        else:
            assert np.array_equal(a[column], b[column]), column


SCENARIOS = {
    "reactive": dict(policy=PowerPolicyKind.REACTIVE),
    "ml-quantized": dict(policy=PowerPolicyKind.ML, quantization="q4.12"),
    "faulted": dict(policy=PowerPolicyKind.STATIC, faulted=True),
    "ml-faulted": dict(policy=PowerPolicyKind.ML, faulted=True),
}


def _scenario(name, toy_model):
    spec = SCENARIOS[name]
    config = _config()
    if spec.get("quantization"):
        config = config.replace(
            ml=replace(config.ml, quantization=spec["quantization"])
        )
    faults = _fault_schedule() if spec.get("faulted") else None
    return config, spec["policy"], toy_model, faults


class TestArrayInstrumentedIdentity:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_instrumented_array_matches_bare_array(self, name, toy_model):
        config, policy, model, faults = _scenario(name, toy_model)
        instrumented, _, _, _ = _run(
            config, "array", policy, model, faults, instrumented=True
        )
        bare, _, _, _ = _run(
            config, "array", policy, model, faults, instrumented=False
        )
        assert instrumented == bare

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_array_telemetry_matches_reference(self, name, toy_model):
        config, policy, model, faults = _scenario(name, toy_model)
        result_a, registry_a, series_a, events_a = _run(
            config, "array", policy, model, faults
        )
        result_r, registry_r, series_r, events_r = _run(
            config, "reference", policy, model, faults
        )
        assert result_a == result_r
        assert registry_a == registry_r
        _assert_series_equal(series_a, series_r)
        assert events_a == events_r

    def test_series_has_rows_and_all_routers(self, toy_model):
        config, policy, model, faults = _scenario("ml-quantized", toy_model)
        _, _, series, _ = _run(config, "array", policy, model, faults)
        assert len(series["cycle"]) > 0
        assert set(series["router"].tolist()) == set(
            range(config.architecture.num_routers)
        )
        # ML runs carry finite predictions in the series.
        assert np.isfinite(series["predicted"]).any()

    def test_faulted_series_carries_fault_counters(self, toy_model):
        config, policy, model, faults = _scenario("ml-faulted", toy_model)
        _, _, series, _ = _run(config, "array", policy, model, faults)
        assert int(series["crc_errors"].max()) > 0


class TestNoSilentDowngrade:
    def test_instrumented_array_never_takes_the_scalar_path(
        self, toy_model, monkeypatch
    ):
        """The old behaviour downgraded array to a scalar engine under
        telemetry; prove an instrumented array run never takes the
        reference engine's per-cycle step."""
        config, policy, model, faults = _scenario("reactive", toy_model)

        def boom(self, cycle, cursor=None):  # pragma: no cover - must not run
            raise AssertionError("array run fell back to the scalar path")

        monkeypatch.setattr(PearlNetwork, "step", boom)
        result, _, _, _ = _run(config, "array", policy, model, faults)
        assert result["stats"]["local_packets_delivered"] > 0

    def test_engine_accounting(self, toy_model):
        config, policy, model, faults = _scenario("reactive", toy_model)
        trace = generate_pair_trace(
            CPU_BENCHMARKS["fluidanimate"],
            GPU_BENCHMARKS["dct"],
            config.architecture,
            config.simulation.total_cycles,
            11,
        )
        network = PearlNetwork(config=config, power_policy=policy, seed=3)
        with obs.session():
            network.run(trace, engine="array")
            network.run(trace, engine="reference")
            engines = dict(obs.OBS.engines)
        assert engines == {"array": 1, "reference": 1}

    def test_requested_equals_used_for_array(self, toy_model):
        config, policy, model, faults = _scenario("reactive", toy_model)
        trace = generate_pair_trace(
            CPU_BENCHMARKS["fluidanimate"],
            GPU_BENCHMARKS["dct"],
            config.architecture,
            config.simulation.total_cycles,
            11,
        )
        network = PearlNetwork(config=config, power_policy=policy, seed=3)
        with obs.session():
            network.run(trace, engine="array")
            assert obs.OBS.engines == {"array": 1}
