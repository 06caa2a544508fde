#!/usr/bin/env python3
"""Benchmark the cycle engines against each other.

Runs a small workload matrix (idle-heavy, mixed, saturated) under the
reference cycle-by-cycle engine and the struct-of-arrays array engine,
verifies both are bit-identical, and writes ``BENCH_<label>.json``
(into ``--out``, default ``.benchmarks/``) with per-engine wall time,
simulated cycles/second and the array engine's speedup over the
reference.  On the mixed and saturated workloads the electrical CMESH
baseline runs the same trace in the same process; ``cmesh_s`` is its
wall time and ``cmesh_over_reference`` its ratio to the reference
PEARL engine.

Usage::

    PYTHONPATH=src python scripts/bench.py --label $(git rev-parse --short HEAD)
    PYTHONPATH=src python scripts/bench.py --quick --check   # CI gate
    PYTHONPATH=src python scripts/bench.py --sweep --check \
        --label sweep-service --out .        # sweep-service resume gate

``--sweep`` benchmarks the sharded sweep service instead of the cycle
engines: one cold sweep (fresh manifest + empty cache) against a
resumed re-run of the identical sweep on both cache backends.  The
resumed run must re-execute zero jobs, return bit-identical results and
beat the cold run by ``--min-resume-speedup`` (default 5x).

``--check`` exits non-zero when the engines diverge, when the array
engine is slower than the reference on the idle-heavy workload
(``--min-idle-speedup``, default 1.0), or when its saturated speedup
over the reference drops below ``--min-saturated-speedup`` (default
1.3), or when the saturated ``cmesh_over_reference`` exceeds
``MAX_SATURATED_CMESH_OVER_REFERENCE``.  The committed full-run
``BENCH_*.json`` files are the performance trajectory of record (the
array core clears 2x on saturated there); the CI floor is
deliberately conservative so shared-runner timing noise cannot flake
the build while order-of-magnitude regressions still fail it.
See ``docs/performance.md`` for how to read the output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import PearlConfig, SimulationConfig  # noqa: E402
from repro.noc.cmesh import CMeshNetwork  # noqa: E402
from repro.noc.network import PearlNetwork  # noqa: E402
from repro.noc.packet import CoreType  # noqa: E402
from repro.noc.router import PowerPolicyKind  # noqa: E402
from repro.traffic.benchmarks import CPU_BENCHMARKS, GPU_BENCHMARKS  # noqa: E402
from repro.traffic.synthetic import (  # noqa: E402
    generate_pair_trace,
    uniform_random_trace,
)

ENGINES = ("reference", "array")

#: Workloads on which the CMESH baseline is timed beside the engines.
CMESH_WORKLOADS = ("mixed", "saturated")

#: ``--check`` ceiling on saturated CMESH wall time over the reference
#: PEARL engine's: 1.2-1.7 in the committed full-run BENCH json, while a
#: CMESH allocator that re-scans its VCs per output port reads ~2.4.
MAX_SATURATED_CMESH_OVER_REFERENCE = 2.0

POLICIES = {
    "static": PowerPolicyKind.STATIC,
    "reactive": PowerPolicyKind.REACTIVE,
}


def _workloads(quick: bool):
    """(name, config, trace) triples of the benchmark matrix.

    * ``idle_heavy`` — traffic only in the first ~5% of the run: long
      quiescent spans the array core skips in closed form;
    * ``mixed`` — a benchmark-pair trace over the full run;
    * ``saturated`` — high-rate uniform random over the full run, where
      quiescence never holds and only the vector step pays off.
    """
    scale = 1 if quick else 4
    idle_cfg = PearlConfig().replace(
        simulation=SimulationConfig(
            warmup_cycles=2_000, measure_cycles=20_000 * scale
        )
    )
    mixed_cfg = PearlConfig().replace(
        simulation=SimulationConfig(
            warmup_cycles=1_000, measure_cycles=8_000 * scale
        )
    )
    sat_cfg = mixed_cfg
    return (
        (
            "idle_heavy",
            idle_cfg,
            uniform_random_trace(
                CoreType.CPU,
                rate=0.02,
                architecture=idle_cfg.architecture,
                duration=2_000,
                seed=5,
            ),
        ),
        (
            "mixed",
            mixed_cfg,
            generate_pair_trace(
                CPU_BENCHMARKS["fluidanimate"],
                GPU_BENCHMARKS["dct"],
                mixed_cfg.architecture,
                mixed_cfg.simulation.total_cycles,
                seed=7,
            ),
        ),
        (
            "saturated",
            sat_cfg,
            uniform_random_trace(
                CoreType.GPU,
                rate=0.40,
                architecture=sat_cfg.architecture,
                duration=sat_cfg.simulation.total_cycles,
                seed=5,
            ),
        ),
    )


def _canonical(network: PearlNetwork, result) -> dict:
    """Everything that must be bit-identical across engines."""
    return {
        "stats": result.stats.to_dict(),
        "residency": result.state_residency,
        "mean_laser_power_w": result.mean_laser_power_w,
        "laser_stall_cycles": result.laser_stall_cycles,
        "ml_predictions": result.ml_predictions,
        "ml_labels": result.ml_labels,
        "sequence": network._sequence,
        "backlog": network.injection_backlog_size,
    }


def run_matrix(quick: bool, repeats: int) -> dict:
    """Time every workload/policy/engine combination (best-of-N)."""
    entries = {}
    for workload, config, trace in _workloads(quick):
        cycles = config.simulation.total_cycles
        for policy_name, policy in POLICIES.items():
            # Interleave the variants inside each repeat (best-of-N) so
            # machine-load drift hits all of them equally.
            timed = ENGINES
            if workload in CMESH_WORKLOADS:
                timed += ("cmesh",)
            walls = {variant: float("inf") for variant in timed}
            outputs = {}
            for _ in range(repeats):
                for variant in timed:
                    if variant == "cmesh":
                        network = CMeshNetwork(
                            simulation=config.simulation, seed=3
                        )
                        start = time.perf_counter()
                        network.run(trace)
                    else:
                        network = PearlNetwork(
                            config=config, power_policy=policy, seed=3
                        )
                        start = time.perf_counter()
                        result = network.run(trace, engine=variant)
                    wall = time.perf_counter() - start
                    walls[variant] = min(walls[variant], wall)
                    if variant != "cmesh":
                        outputs[variant] = _canonical(network, result)
            identical = outputs["array"] == outputs["reference"]
            entries[f"{workload}/{policy_name}"] = {
                "workload": workload,
                "policy": policy_name,
                "cycles": cycles,
                "identical": identical,
                "speedup": walls["reference"] / walls["array"],
                **{
                    engine: {
                        "wall_s": walls[engine],
                        "cycles_per_s": cycles / walls[engine],
                    }
                    for engine in ENGINES
                },
            }
            entry = entries[f"{workload}/{policy_name}"]
            cmesh = ""
            if "cmesh" in walls:
                entry["cmesh_s"] = walls["cmesh"]
                entry["cmesh_over_reference"] = (
                    walls["cmesh"] / walls["reference"]
                )
                cmesh = (
                    f" cmesh={walls['cmesh']:.3f}s "
                    f"(x{entry['cmesh_over_reference']:.2f} of ref)"
                )
            print(
                f"{workload:11s} {policy_name:9s} "
                f"ref={walls['reference']:.3f}s "
                f"array={walls['array']:.3f}s "
                f"x{entry['speedup']:.2f} "
                f"identical={identical}{cmesh}",
                flush=True,
            )
    return entries


def check(entries: dict, min_idle_speedup: float, min_sat_speedup: float):
    """The CI gate: equivalence always, array-vs-reference speed floors,
    and a ceiling on the saturated CMESH-vs-reference ratio."""
    floors = {"idle_heavy": min_idle_speedup, "saturated": min_sat_speedup}
    failures = []
    for name, entry in entries.items():
        if not entry["identical"]:
            failures.append(f"{name}: engines diverged")
        floor = floors.get(entry["workload"])
        if floor is not None and entry["speedup"] < floor:
            failures.append(
                f"{name}: array speedup {entry['speedup']:.2f} < "
                f"required {floor:.2f}"
            )
        if (
            entry["workload"] == "saturated"
            and entry["cmesh_over_reference"]
            > MAX_SATURATED_CMESH_OVER_REFERENCE
        ):
            failures.append(
                f"{name}: CMESH takes {entry['cmesh_over_reference']:.2f}x "
                f"the reference engine's time (ceiling "
                f"{MAX_SATURATED_CMESH_OVER_REFERENCE:.2f})"
            )
    return failures


# ---------------------------------------------------------------------------
# Sweep-service benchmark (cold vs resumed)
# ---------------------------------------------------------------------------


def _sweep_specs(quick: bool):
    from repro.experiments.parallel import pair_spec, pearl_job
    from repro.experiments.runner import experiment_pairs

    scale = 1 if quick else 4
    config = PearlConfig().replace(
        simulation=SimulationConfig(
            warmup_cycles=500, measure_cycles=4_000 * scale
        )
    )
    specs = []
    for policy in (PowerPolicyKind.STATIC, PowerPolicyKind.REACTIVE):
        for pair in experiment_pairs(quick=True):
            specs.append(
                pearl_job(
                    config,
                    pair_spec(pair, 3),
                    seed=3,
                    power_policy=policy,
                )
            )
    return specs


def _sweep_fingerprints(results):
    return [
        None if r is None else r.stats.to_dict() for r in results
    ]


def run_sweep_matrix(quick: bool) -> dict:
    """Cold-vs-resumed wall time of one sweep, per cache backend."""
    import tempfile

    from repro.experiments.cache import ResultCache
    from repro.experiments.service import SweepRunner
    from repro.experiments.service.stores import LocalDirStore, SqliteStore

    specs = _sweep_specs(quick)
    entries = {}
    for backend in ("dir", "sqlite"):
        with tempfile.TemporaryDirectory() as tmp:
            tmp_path = Path(tmp)
            if backend == "sqlite":
                store = SqliteStore(tmp_path / "cache.db")
            else:
                store = LocalDirStore(tmp_path / "cache")
            manifest_dir = tmp_path / "sweep"

            cold_runner = SweepRunner(
                ResultCache(store=store), jobs=1, shard_size=4
            )
            start = time.perf_counter()
            cold_results, cold_report = cold_runner.run(specs, manifest_dir)
            cold_wall = time.perf_counter() - start

            resumed_runner = SweepRunner(
                ResultCache(store=store), jobs=1, shard_size=4
            )
            start = time.perf_counter()
            warm_results, warm_report = resumed_runner.run(
                specs, manifest_dir, resume=True
            )
            warm_wall = time.perf_counter() - start

        identical = _sweep_fingerprints(cold_results) == _sweep_fingerprints(
            warm_results
        )
        entries[f"sweep_resume/{backend}"] = {
            "workload": "sweep_resume",
            "backend": backend,
            "jobs_total": cold_report.jobs_total,
            "cold": {
                "wall_s": cold_wall,
                "jobs_executed": cold_report.jobs_executed,
                "shards_executed": cold_report.shards_executed,
            },
            "resumed": {
                "wall_s": warm_wall,
                "jobs_executed": warm_report.jobs_executed,
                "shards_skipped": warm_report.shards_skipped,
            },
            "identical": identical,
            "resume_speedup": cold_wall / warm_wall,
        }
        entry = entries[f"sweep_resume/{backend}"]
        print(
            f"sweep_resume {backend:7s} cold={cold_wall:.3f}s "
            f"resumed={warm_wall:.3f}s "
            f"x{entry['resume_speedup']:.1f} "
            f"re-executed={warm_report.jobs_executed} "
            f"identical={identical}",
            flush=True,
        )
    return entries


def check_sweep(entries: dict, min_resume_speedup: float):
    """Gate: bit-identity, zero re-execution, and the resume speedup."""
    failures = []
    for name, entry in entries.items():
        if not entry["identical"]:
            failures.append(f"{name}: resumed results diverged from cold")
        if entry["resumed"]["jobs_executed"] != 0:
            failures.append(
                f"{name}: resumed sweep re-executed "
                f"{entry['resumed']['jobs_executed']} jobs (expected 0)"
            )
        if entry["resume_speedup"] < min_resume_speedup:
            failures.append(
                f"{name}: resume speedup {entry['resume_speedup']:.1f} < "
                f"required {min_resume_speedup:.1f}"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--label", default="local", help="suffix of BENCH_<label>.json"
    )
    parser.add_argument(
        "--out",
        default=".benchmarks",
        metavar="DIR",
        help="output directory, created if missing (default .benchmarks, "
        "which git ignores; pass --out . to write a trajectory record)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repetitions (best-of)"
    )
    parser.add_argument(
        "--quick", action="store_true", help="short runs (the CI matrix)"
    )
    parser.add_argument(
        "--sweep",
        action="store_true",
        help="benchmark the sweep service (cold vs resumed) instead of "
        "the cycle engines",
    )
    parser.add_argument(
        "--min-resume-speedup",
        type=float,
        default=5.0,
        help="resumed-vs-cold floor for --sweep --check (default 5x)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero on divergence or speed-gate failure",
    )
    parser.add_argument(
        "--min-idle-speedup",
        type=float,
        default=1.0,
        help="array-vs-reference floor on the idle-heavy workload",
    )
    parser.add_argument(
        "--min-saturated-speedup",
        type=float,
        default=1.3,
        help="array-vs-reference floor on the saturated workload; kept "
        "below the ~2x shown in the committed full-run BENCH jsons so CI "
        "timing noise cannot flake the gate",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    if args.sweep:
        entries = run_sweep_matrix(quick=args.quick)
    else:
        entries = run_matrix(quick=args.quick, repeats=args.repeats)
    doc = {
        "label": args.label,
        "quick": args.quick,
        "repeats": args.repeats,
        "workloads": entries,
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"BENCH_{args.label}.json"
    out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")

    if args.check:
        if args.sweep:
            failures = check_sweep(entries, args.min_resume_speedup)
        else:
            failures = check(
                entries, args.min_idle_speedup, args.min_saturated_speedup
            )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("all benchmark gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
