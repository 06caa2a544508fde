"""Shared definitions for the golden-run differential harness.

One small workload (fluidanimate+dct, 200 warm-up + 1500 measured
cycles) is simulated under every (power policy × bandwidth allocator)
combination, and the canonical form of each run is pinned as a JSON
snapshot under ``tests/golden/snapshots/``.  Both cycle engines are
checked against the *same* snapshot, so the harness simultaneously
catches unintended behavioural drift and array/reference divergence.
The electrical CMESH baseline is pinned the same way (``CMESH_CASES``).

Regenerate snapshots with ``python scripts/update_golden.py`` after an
*intentional* behaviour change (see ``docs/resilience.md``).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

import numpy as np

from repro.config import PearlConfig, SimulationConfig
from repro.ml.features import NUM_FEATURES
from repro.ml.ridge import RidgeRegression
from repro.noc.cmesh import CMeshNetwork
from repro.noc.network import PearlNetwork, PearlRunResult
from repro.noc.packet import CoreType
from repro.noc.router import PowerPolicyKind
from repro.noc.stats import NetworkStats
from repro.traffic.benchmarks import get_benchmark
from repro.traffic.synthetic import generate_pair_trace, uniform_random_trace

GOLDEN_SEED = 11
POLICIES = (
    "static",
    "reactive",
    "adaptive",
    "ml",
    "random",
    "proteus",
    "d3noc",
)
ALLOCATORS = ("dynamic", "fcfs")
ENGINES = ("reference", "array")

#: Snapshot stem of the drift->retrain->promote->swap mid-run case.
RETRAIN_CASE = "ml_retrain_dynamic"


def golden_config() -> PearlConfig:
    """The (short) run configuration every golden case uses."""
    return PearlConfig(
        simulation=SimulationConfig(
            warmup_cycles=200, measure_cycles=1500, seed=GOLDEN_SEED
        )
    )


def golden_model() -> RidgeRegression:
    """A handcrafted ridge model for the ML-policy cases.

    The weights are set directly instead of fitted: a closed-form
    lstsq/BLAS solve could differ in the last ulp across platforms,
    while a literal weight vector is bit-identical everywhere.  Feature
    8 (packets received from local cores last window) with a 0.5 gain
    plus a constant bias gives predictions that actually vary with
    load, so the selector exercises several ladder states.
    """
    model = RidgeRegression(lam=1.0, standardize=False)
    weights = np.zeros(NUM_FEATURES)
    weights[8] = 0.5
    model.weights = weights
    model.intercept = 4.0
    return model


def case_names() -> List[str]:
    """Snapshot stems, one per (policy × allocator) combination."""
    return [f"{policy}_{alloc}" for policy in POLICIES for alloc in ALLOCATORS]


def canonical_stats(stats: NetworkStats) -> Dict[str, object]:
    """``stats.to_dict()`` with the latency list folded into a digest.

    Per-packet latencies are folded into a digest so snapshots stay
    small while still pinning every individual latency sample.
    """
    latency_digest = hashlib.sha256(
        ",".join(str(value) for value in stats._latencies).encode()
    ).hexdigest()
    return {
        "stats": stats.to_dict(include_latencies=False),
        "latencies_sha256": latency_digest,
    }


def canonical(result: PearlRunResult) -> Dict[str, object]:
    """The JSON-able canonical form of one run, compared exactly."""
    return {
        **canonical_stats(result.stats),
        "state_residency": {
            str(state): fraction
            for state, fraction in sorted(result.state_residency.items())
        },
        "mean_laser_power_w": result.mean_laser_power_w,
        "laser_stall_cycles": result.laser_stall_cycles,
    }


def _pair_trace(config: PearlConfig):
    """The fluidanimate+dct pair trace shared by the golden cases."""
    return generate_pair_trace(
        get_benchmark("fluidanimate"),
        get_benchmark("dct"),
        config.architecture,
        config.simulation.total_cycles,
        GOLDEN_SEED,
    )


def run_case(policy: str, allocator: str, engine: str) -> Dict[str, object]:
    """Simulate one golden case and return its canonical form."""
    config = golden_config()
    trace = _pair_trace(config)
    network = PearlNetwork(
        config,
        power_policy=PowerPolicyKind(policy),
        use_dynamic_bandwidth=(allocator == "dynamic"),
        ml_model=golden_model() if policy == "ml" else None,
        seed=GOLDEN_SEED,
    )
    return canonical(network.run(trace, engine=engine))


def _saturated_trace(config: PearlConfig):
    """Uniform random GPU traffic well past the mesh's saturation point.

    Destinations span the L3 alias, so requests and responses exercise
    the address-interleaved L3 bank routers.
    """
    return uniform_random_trace(
        CoreType.GPU,
        rate=0.4,
        architecture=config.architecture,
        duration=config.simulation.total_cycles,
        seed=GOLDEN_SEED,
    )


#: CMESH golden cases: snapshot stem -> (trace builder, bandwidth divisor).
CMESH_CASES = {
    "cmesh_pair_bw1": (_pair_trace, 1),
    "cmesh_pair_bw2": (_pair_trace, 2),
    "cmesh_pair_bw4": (_pair_trace, 4),
    "cmesh_saturated_bw2": (_saturated_trace, 2),
}


def run_cmesh_case(stem: str) -> Dict[str, object]:
    """Simulate one CMESH golden case and return its canonical form."""
    build_trace, bandwidth_divisor = CMESH_CASES[stem]
    config = golden_config()
    network = CMeshNetwork(
        simulation=config.simulation,
        bandwidth_divisor=bandwidth_divisor,
        seed=GOLDEN_SEED,
    )
    return canonical_stats(network.run(build_trace(config)))


def drifting_model() -> RidgeRegression:
    """The golden model plus a training scaler centred far from any
    deployment feature, so the drift monitor trips deterministically."""
    from repro.ml.ridge import Standardizer

    model = golden_model()
    model._scaler = Standardizer(
        mean=np.full(NUM_FEATURES, -100.0), scale=np.ones(NUM_FEATURES)
    )
    return model


def retrain_config() -> PearlConfig:
    """Golden run length, 200-cycle windows, one guaranteed retrain."""
    from dataclasses import replace

    config = golden_config().with_reservation_window(200)
    return config.replace(
        ml=replace(
            config.ml,
            drift_detection=True,
            drift_action="retrain",
            drift_calibration_windows=2,
            drift_patience=2,
            retrain_min_samples=20,
            retrain_cooldown_windows=10_000,
        )
    )


def run_retrain_case(engine: str) -> Dict[str, object]:
    """The mid-run drift->retrain->promote->swap case.

    The canonical form additionally pins the retrain count and the
    promoted model ids — registry ids are content digests, so a change
    in the pooled training rows or the refit arithmetic shows up here
    as a snapshot diff even if the traffic statistics happen to agree.
    """
    import tempfile

    from repro.ml.lifecycle.registry import ModelRegistry

    config = retrain_config()
    trace = _pair_trace(config)
    with tempfile.TemporaryDirectory() as tmp:
        network = PearlNetwork(
            config,
            power_policy=PowerPolicyKind.ML,
            ml_model=drifting_model(),
            seed=GOLDEN_SEED,
            registry=ModelRegistry(tmp),
        )
        result = network.run(trace, engine=engine)
    out = canonical(result)
    out["retrain_events"] = result.retrain_events
    out["retrained_model_ids"] = list(result.retrained_model_ids)
    return out


#: Snapshot stems of the collective-workload golden cases.
COLLECTIVE_RETRAIN_CASE = "collective_allreduce_ml_retrain"
COLLECTIVE_PAM4_CASE = "collective_alltoall_pam4"


def _collective_trace(config: PearlConfig, algorithm: str):
    from repro.traffic.collectives import generate_collective_trace

    return generate_collective_trace(
        algorithm,
        config.architecture,
        duration=config.simulation.total_cycles,
        seed=GOLDEN_SEED,
    )


def run_collective_retrain_case(engine: str) -> Dict[str, object]:
    """drift -> retrain -> promote -> swap driven by an all-reduce.

    The drifting model (scaler centred at -100) guarantees the monitor
    trips on the collective's feature stream; the canonical form pins
    the promoted registry ids, so the pooled rows the collective's
    bursty windows feed into the refit are under snapshot control.
    """
    import tempfile

    from repro.ml.lifecycle.registry import ModelRegistry

    config = retrain_config()
    trace = _collective_trace(config, "allreduce_ring")
    with tempfile.TemporaryDirectory() as tmp:
        network = PearlNetwork(
            config,
            power_policy=PowerPolicyKind.ML,
            ml_model=drifting_model(),
            seed=GOLDEN_SEED,
            registry=ModelRegistry(tmp),
        )
        result = network.run(trace, engine=engine)
    out = canonical(result)
    out["retrain_events"] = result.retrain_events
    out["retrained_model_ids"] = list(result.retrained_model_ids)
    return out


def run_collective_pam4_case(engine: str) -> Dict[str, object]:
    """An all-to-all exchange under PAM4 multilevel signaling.

    Reactive policy with the default allocator: the snapshot pins the
    halved serialization ladder and the 4.8 dB laser penalty end to
    end (state residencies, per-flit energies, laser power) without
    involving any fitted model.
    """
    from dataclasses import replace

    config = golden_config()
    config = config.replace(
        photonic=replace(config.photonic, signaling="pam4")
    )
    trace = _collective_trace(config, "alltoall")
    network = PearlNetwork(
        config, power_policy=PowerPolicyKind.REACTIVE, seed=GOLDEN_SEED
    )
    return canonical(network.run(trace, engine=engine))
