"""Array-engine speed trajectory: the production engine must pay off.

The struct-of-arrays engine exists to make simulations cheap without
perturbing results.  These benchmarks time it against the reference
engine on the two ends of the load spectrum and fail when the
trajectory regresses:

* idle-heavy — the array engine must be at least ``IDLE_SPEEDUP_FLOOR``
  times faster (spans of thousands of quiescent cycles collapse into
  one event-horizon jump);
* saturated — it must stay at least ``SATURATED_SPEEDUP_FLOOR`` times
  faster (quiescence never holds; only the vector step pays off).

``scripts/bench.py`` produces the same comparison as a JSON artifact
for CI trending; this module is the local regression canary.
"""

from __future__ import annotations

import time

from repro.config import PearlConfig, SimulationConfig
from repro.noc.network import PearlNetwork
from repro.noc.packet import CoreType
from repro.noc.router import PowerPolicyKind
from repro.traffic.synthetic import uniform_random_trace

#: Minimum idle-heavy reference/array wall-time ratio (measured ~20-70x;
#: the floor leaves headroom for loaded CI machines).
IDLE_SPEEDUP_FLOOR = 2.0

#: Minimum saturated reference/array wall-time ratio (measured ~2.2-2.7x).
SATURATED_SPEEDUP_FLOOR = 1.3

#: Timing repetitions; interleaved best-of-N cancels machine drift.
REPEATS = 3


def _time_engines(config, trace, policy=PowerPolicyKind.REACTIVE, seed=3):
    best = {"reference": float("inf"), "array": float("inf")}
    results = {}
    for _ in range(REPEATS):
        for engine in best:
            network = PearlNetwork(config=config, power_policy=policy, seed=seed)
            start = time.perf_counter()
            results[engine] = network.run(trace, engine=engine)
            best[engine] = min(best[engine], time.perf_counter() - start)
    assert (
        results["reference"].stats.to_dict() == results["array"].stats.to_dict()
    ), "engines diverged — speed is meaningless if results differ"
    return best


def _assert_speedup(label, best, floor):
    speedup = best["reference"] / best["array"]
    print(
        f"{label} ref={best['reference']:.3f}s array={best['array']:.3f}s "
        f"speedup={speedup:.2f}x"
    )
    assert speedup >= floor, (
        f"{label} speedup {speedup:.2f}x below the {floor:.1f}x floor"
    )


def test_idle_heavy_speedup():
    config = PearlConfig().replace(
        simulation=SimulationConfig(warmup_cycles=2_000, measure_cycles=20_000)
    )
    trace = uniform_random_trace(
        CoreType.CPU,
        rate=0.02,
        architecture=config.architecture,
        duration=2_000,
        seed=5,
    )
    _assert_speedup(
        "idle-heavy", _time_engines(config, trace), IDLE_SPEEDUP_FLOOR
    )


def test_saturated_speedup():
    config = PearlConfig().replace(
        simulation=SimulationConfig(warmup_cycles=1_000, measure_cycles=8_000)
    )
    trace = uniform_random_trace(
        CoreType.GPU,
        rate=0.40,
        architecture=config.architecture,
        duration=config.simulation.total_cycles,
        seed=5,
    )
    _assert_speedup(
        "saturated", _time_engines(config, trace), SATURATED_SPEEDUP_FLOOR
    )
