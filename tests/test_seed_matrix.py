"""Seed-matrix regression: policy × allocator × seed across engines.

The golden suite pins one workload at one seed; this matrix spreads
thinner but wider — every power policy under both bandwidth allocators
across three seeds, asserting the array engine is bit-identical to
the reference engine on each combination, plus a
faulted and a q4.12-quantized configuration per seed on the array
engine.  The ML policy's model is not handed over in memory: it goes
through a registry put/promote/get round trip first, so the deployment
path the workers use is the path under test.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.config import PearlConfig, SimulationConfig
from repro.faults import (
    BitErrorFault,
    FaultSchedule,
    LaserDroopFault,
    WavelengthFault,
)
from repro.ml.features import NUM_FEATURES
from repro.ml.lifecycle.registry import DEFAULT_TAG, ModelRegistry
from repro.ml.ridge import RidgeRegression
from repro.noc.network import PearlNetwork
from repro.noc.router import PowerPolicyKind
from repro.traffic.benchmarks import get_benchmark
from repro.traffic.collectives import (
    COLLECTIVE_ALGORITHMS,
    generate_collective_trace,
)
from repro.traffic.synthetic import generate_pair_trace

# Every case drives the full simulator twice; firmly the slow tier.
pytestmark = pytest.mark.slow

SEEDS = (3, 11, 2018)
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

MATRIX = [
    (policy, alloc, seed)
    for policy in POLICIES
    for alloc in ALLOCATORS
    for seed in SEEDS
]


def _handcrafted_model() -> RidgeRegression:
    """Literal weights (no solver) so every platform agrees bit-for-bit."""
    model = RidgeRegression(lam=1.0, standardize=False)
    weights = np.zeros(NUM_FEATURES)
    weights[8] = 0.5
    model.weights = weights
    model.intercept = 4.0
    return model


@pytest.fixture(scope="module")
def registry_model(tmp_path_factory):
    """The ML-policy model, deployed the way production runs get it."""
    registry = ModelRegistry(tmp_path_factory.mktemp("seed-matrix") / "reg")
    source = _handcrafted_model()
    record = registry.put(
        source, training={"key": {"pipeline": "seed_matrix_literal"}}
    )
    registry.promote(record.model_id)
    model = registry.get(DEFAULT_TAG)
    # The artifact round trip must be lossless before it drives runs.
    assert np.array_equal(model.weights, source.weights)
    assert model.intercept == source.intercept
    return model


def _run(
    policy: str,
    allocator: str,
    seed: int,
    engine: str,
    ml_model,
    quantization: str | None = None,
    faults: FaultSchedule | None = None,
):
    config = PearlConfig(
        simulation=SimulationConfig(
            warmup_cycles=100, measure_cycles=1_000, seed=seed
        )
    )
    if quantization is not None:
        config = config.replace(
            ml=replace(config.ml, quantization=quantization)
        )
    trace = generate_pair_trace(
        get_benchmark("fluidanimate"),
        get_benchmark("dct"),
        config.architecture,
        config.simulation.total_cycles,
        seed,
    )
    network = PearlNetwork(
        config,
        power_policy=PowerPolicyKind(policy),
        use_dynamic_bandwidth=(allocator == "dynamic"),
        ml_model=ml_model if policy == "ml" else None,
        seed=seed,
        faults=faults,
    )
    return network.run(trace, engine=engine)


def _canonical(result) -> dict:
    return {
        "stats": result.stats.to_dict(),
        "state_residency": dict(result.state_residency),
        "mean_laser_power_w": result.mean_laser_power_w,
        "laser_stall_cycles": result.laser_stall_cycles,
        "ml_predictions": list(result.ml_predictions),
    }


@pytest.mark.parametrize(
    "policy,allocator,seed",
    MATRIX,
    ids=[f"{p}-{a}-s{s}" for p, a, s in MATRIX],
)
def test_engines_match_reference(
    policy: str, allocator: str, seed: int, registry_model
) -> None:
    model = registry_model if policy == "ml" else None
    reference = _canonical(
        _run(policy, allocator, seed, "reference", model)
    )
    array = _canonical(_run(policy, allocator, seed, "array", model))
    assert array == reference, "array diverged"


def _seed_faults(seed: int) -> FaultSchedule:
    """A per-seed fault mix (offsets keyed to the seed so the three
    seeds exercise different overlap patterns)."""
    return FaultSchedule(
        wavelength_faults=(
            WavelengthFault(
                wavelengths=24,
                router=seed % 16,
                start=200 + seed % 97,
                end=800 + seed % 97,
            ),
        ),
        droop_faults=(
            LaserDroopFault(max_state=32, router=(seed + 5) % 16, start=400),
        ),
        bit_error_faults=(BitErrorFault(rate=0.02, start=150, end=900),),
    )


#: Hardened variants per seed: quantization only applies to the ML
#: predictor, so the rule-based policies harden under faults instead.
HARDENED = (
    ("ml", "faulted"),
    ("ml", "q4.12"),
    ("proteus", "faulted"),
    ("d3noc", "faulted"),
)


@pytest.mark.parametrize("seed", SEEDS, ids=[f"s{s}" for s in SEEDS])
@pytest.mark.parametrize(
    "policy,variant", HARDENED, ids=[f"{p}-{v}" for p, v in HARDENED]
)
def test_array_engine_hardened_configs(
    policy: str, variant: str, seed: int, registry_model
) -> None:
    """Per-seed faulted and quantized configs on the array engine."""
    quantization = "q4.12" if variant == "q4.12" else None
    faults = _seed_faults(seed) if variant == "faulted" else None
    results = {}
    for engine in ("reference", "array"):
        results[engine] = _canonical(
            _run(
                policy,
                "dynamic",
                seed,
                engine,
                registry_model,
                quantization=quantization,
                faults=faults,
            )
        )
    assert results["array"] == results["reference"]


# ---------------------------------------------------------------------------
# Collective workloads: algorithm × policy × signaling across engines
# ---------------------------------------------------------------------------

COLLECTIVE_SEED = 7
COLLECTIVE_POLICIES = ("reactive", "ml", "proteus", "d3noc")
SIGNALING = ("nrz", "pam4")
COLLECTIVE_MATRIX = [
    (algorithm, policy, signaling)
    for algorithm in COLLECTIVE_ALGORITHMS
    for policy in COLLECTIVE_POLICIES
    for signaling in SIGNALING
]


def _collective_run(
    algorithm: str,
    policy: str,
    signaling: str,
    engine: str,
    ml_model,
    quantization: str | None = None,
    faults: FaultSchedule | None = None,
):
    config = PearlConfig(
        simulation=SimulationConfig(
            warmup_cycles=100, measure_cycles=1_000, seed=COLLECTIVE_SEED
        )
    )
    if signaling != "nrz":
        config = config.replace(
            photonic=replace(config.photonic, signaling=signaling)
        )
    if quantization is not None:
        config = config.replace(
            ml=replace(config.ml, quantization=quantization)
        )
    trace = generate_collective_trace(
        algorithm,
        config.architecture,
        duration=config.simulation.total_cycles,
        seed=COLLECTIVE_SEED,
    )
    network = PearlNetwork(
        config,
        power_policy=PowerPolicyKind(policy),
        ml_model=ml_model if policy == "ml" else None,
        seed=COLLECTIVE_SEED,
        faults=faults,
    )
    return network.run(trace, engine=engine)


@pytest.mark.parametrize(
    "algorithm,policy,signaling",
    COLLECTIVE_MATRIX,
    ids=[f"{a}-{p}-{s}" for a, p, s in COLLECTIVE_MATRIX],
)
def test_collective_engines_match_reference(
    algorithm: str, policy: str, signaling: str, registry_model
) -> None:
    """Every collective × policy × signaling combination is engine-exact."""
    model = registry_model if policy == "ml" else None
    reference = _canonical(
        _collective_run(algorithm, policy, signaling, "reference", model)
    )
    array = _canonical(
        _collective_run(algorithm, policy, signaling, "array", model)
    )
    assert array == reference, "array diverged"


def test_collective_faulted_array(registry_model) -> None:
    """A faulted PAM4 collective run stays engine-exact."""
    results = {
        engine: _canonical(
            _collective_run(
                "alltoall",
                "ml",
                "pam4",
                engine,
                registry_model,
                faults=_seed_faults(COLLECTIVE_SEED),
            )
        )
        for engine in ("reference", "array")
    }
    assert results["array"] == results["reference"]


def test_collective_quantized_array(registry_model) -> None:
    """q4.12 fixed-point inference on a collective stays engine-exact."""
    results = {
        engine: _canonical(
            _collective_run(
                "allreduce_ring",
                "ml",
                "nrz",
                engine,
                registry_model,
                quantization="q4.12",
            )
        )
        for engine in ("reference", "array")
    }
    assert results["array"] == results["reference"]
