"""The benchmark's workloads: inputs from a seed, one timed call, checks.

Each workload runs in a fresh interpreter (see ``unit.py``).  It builds
its inputs from the seed in :meth:`prepare`, makes exactly one timed
call into the program's public entry points in :meth:`run`, and checks
what came back in :meth:`check`.  Every simulation result is reduced to
a digest; at :data:`DEFAULT_SEED` the digests must equal the ones
pinned in ``digests.json``, and on every seed the structural checks
(cache round-trip identity, expected counts, retraining fired) apply.
A job that fails any check counts as failed.

All workloads are serial: one process, ``jobs=1``, no result cache
unless the workload is about the cache, and the default engine (no
``engine=`` argument anywhere).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: The seed whose result digests are pinned in ``digests.json``.
DEFAULT_SEED = 1

#: The paper's PEARL-Dyn (64 WL) throughput gain over CMESH (Fig. 9).
PAPER_DYN_GAIN_PCT = 34.0


def _digest(doc: object) -> str:
    text = json.dumps(doc, sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def job_digest(result) -> str:
    """Digest of everything a :class:`JobResult` carries (floats exact)."""
    return _digest(
        {
            "kind": result.kind,
            "stats": result.stats.to_dict() if result.stats is not None else None,
            "state_residency": {
                str(state): value for state, value in result.state_residency.items()
            },
            "mean_laser_power_w": result.mean_laser_power_w,
            "laser_stall_cycles": result.laser_stall_cycles,
            "ml_predictions": list(result.ml_predictions),
            "ml_labels": list(result.ml_labels),
            "extras": result.extras,
        }
    )


@dataclass
class Outcome:
    """What the checks of one timed call found."""

    attempted: int
    failed_jobs: set = field(default_factory=set)
    digests: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Gap to the paper's headline number, when the workload has one.
    paper_err_pp: Optional[float] = None

    def fail(self, index: int, why: str) -> None:
        self.failed_jobs.add(index)
        self.notes.append(f"job {index}: {why}")

    def compare_pinned(self, pinned: Optional[Sequence[str]]) -> None:
        """Mark every job whose digest differs from the pinned one."""
        if pinned is None:
            return
        if len(pinned) != len(self.digests):
            self.notes.append(
                f"{len(self.digests)} digests, {len(pinned)} pinned"
            )
        for index in range(max(len(pinned), len(self.digests))):
            mine = self.digests[index] if index < len(self.digests) else None
            theirs = pinned[index] if index < len(pinned) else None
            if mine != theirs:
                self.fail(index, "digest differs from the pinned one")


class Fig9Cold:
    """``fig9_comparison.run(quick=True)`` with an empty model registry.

    The ROADMAP's unit of cost: 4 test pairs, 16 PEARL jobs, 4 CMESH
    jobs and the RW500 two-phase training, all uncached.  The only
    workload where CMESH and offline training do real work.
    """

    name = "fig9_cold"
    configs = 5  # PEARL-Dyn, PEARL-FCFS, Dyn RW500, ML RW500, CMESH

    def prepare(self, seed: int, work: Path) -> None:
        from repro.experiments import fig9_comparison, parallel
        from repro.ml.lifecycle import default_registry

        self.seed = seed
        self.module = fig9_comparison
        self.registry = default_registry()
        if len(self.registry):
            raise RuntimeError(f"model registry {self.registry.root} is not empty")
        parallel.configure(jobs=1, use_cache=False)
        self.jobs: list = []

        def recording_run_jobs(specs):
            results = parallel.run_jobs(specs)
            self.jobs.extend(results)
            return results

        fig9_comparison.run_jobs = recording_run_jobs

    def run(self):
        return self.module.run(quick=True, seed=self.seed)

    def check(self, result) -> Outcome:
        import numpy as np
        from repro.experiments.runner import experiment_pairs

        expected = self.configs * len(experiment_pairs(quick=True))
        outcome = Outcome(attempted=max(len(self.jobs), expected))
        outcome.digests = [job_digest(job) for job in self.jobs]
        for index, job in enumerate(self.jobs):
            if job.stats is None or not job.throughput() > 0:
                outcome.fail(index, "no traffic delivered")
        rows = {row["config"]: row for row in result.rows}
        if len(rows) != self.configs or len(self.jobs) != expected:
            outcome.notes.append(f"{len(rows)} rows from {len(self.jobs)} jobs, expected {expected} jobs")
            outcome.failed_jobs.update(range(outcome.attempted))
            return outcome
        for offset, label in enumerate(rows):
            members = range(offset, len(self.jobs), self.configs)
            mean = float(np.mean([self.jobs[i].throughput() for i in members]))
            if rows[label]["throughput_flits_per_cycle"] != mean:
                for index in members:
                    outcome.fail(index, f"row {label!r} is not the mean of its jobs")
        trained = [
            record for record in self.registry.list()
            if record.training.get("key", {}).get("pipeline") == "two_phase_default"
        ]
        if not trained:
            outcome.notes.append("no model was trained into the empty registry")
            outcome.failed_jobs.update(range(len(self.jobs)))
        gain = rows["PEARL-Dyn (64WL)"]["gain_vs_cmesh_pct"]
        outcome.paper_err_pp = abs(float(gain) - PAPER_DYN_GAIN_PCT)
        return outcome


#: Rule policies the sweeps cross (no ML, so no training).
SWEEP_POLICIES = ("static", "reactive", "proteus", "d3noc")
#: (warm-up, measured) cycles of one sweep job: short, so per-job
#: overhead and the cache are a visible share of the time.
SWEEP_CYCLES = (200, 600)
SWEEP_WINDOW = 200
SWEEP_SHARD_SIZE = 4


class SweepOverlap:
    """Two overlapping sweeps on one ``dir:`` store, then a resume.

    Sweep A crosses the rule policies with the quick pairs at seeds
    ``s, s+1``; sweep B at seeds ``s+1, s+2``, so half of B's job keys
    are A's.  B executes only its new half and reads the rest from the
    cache A wrote; resuming A executes nothing.
    """

    name = "sweep_overlap"

    def _specs(self, seeds: Sequence[int]):
        from repro.experiments.parallel import pair_spec, pearl_job
        from repro.experiments.runner import experiment_pairs
        from repro.noc.router import PowerPolicyKind

        specs, labels = [], []
        for policy in SWEEP_POLICIES:
            for number, pair in enumerate(experiment_pairs(quick=True)):
                for seed in seeds:
                    specs.append(
                        pearl_job(
                            self.config,
                            pair_spec(pair, seed),
                            seed=seed,
                            power_policy=PowerPolicyKind(policy),
                        )
                    )
                    labels.append((policy, number, seed))
        return specs, labels

    def prepare(self, seed: int, work: Path) -> None:
        from repro.config import PearlConfig, SimulationConfig
        from repro.experiments.cache import ResultCache
        from repro.experiments.service import SweepRunner

        warmup, measure = SWEEP_CYCLES
        self.config = PearlConfig(
            simulation=SimulationConfig(warmup_cycles=warmup, measure_cycles=measure)
        ).with_reservation_window(SWEEP_WINDOW)
        self.first, self.first_labels = self._specs((seed, seed + 1))
        self.second, self.second_labels = self._specs((seed + 1, seed + 2))
        cache = ResultCache(store=f"dir:{work / 'store'}")
        self.runner = SweepRunner(cache, jobs=1, shard_size=SWEEP_SHARD_SIZE)
        self.first_dir = work / "sweep_a"
        self.second_dir = work / "sweep_b"

    def run(self):
        first = self.runner.run(self.first, self.first_dir)
        second = self.runner.run(self.second, self.second_dir)
        resumed = self.runner.run(self.first, self.first_dir, resume=True)
        return first, second, resumed

    def check(self, result) -> Outcome:
        (first, first_report), (second, second_report), (resumed, resumed_report) = result
        shared = set(self.first_labels) & set(self.second_labels)
        outcome = Outcome(attempted=len(first) + len(second) + len(resumed))
        reference: Dict[tuple, str] = {}
        offset = 0
        for results, report, labels, reused in (
            (first, first_report, self.first_labels, set()),
            (second, second_report, self.second_labels, shared),
            (resumed, resumed_report, self.first_labels, set(self.first_labels)),
        ):
            counts = (report.jobs_executed, report.cache_hits, report.shards_failed)
            expected = (len(labels) - len(reused), len(reused), 0)
            if counts != expected:
                outcome.notes.append(
                    f"sweep {report.sweep_id[:12]}: executed/hits/failed shards "
                    f"{counts}, expected {expected}"
                )
                outcome.failed_jobs.update(range(offset, offset + len(results)))
            for index, (label, job) in enumerate(zip(labels, results), start=offset):
                if job is None or not job.throughput() > 0:
                    outcome.digests.append("")
                    outcome.fail(index, "no result")
                    continue
                digest = job_digest(job)
                outcome.digests.append(digest)
                if label not in reused:
                    reference[label] = digest
                elif reference.get(label) != digest:
                    outcome.fail(index, "cache hit differs from the executed result")
            offset += len(results)
        return outcome


#: (warm-up, measured) cycles of one collective grid cell: long enough
#: for the drift monitor to calibrate, trip and retrain on every
#: algorithm at RW200.
COLLECTIVE_CYCLES = (300, 2500)


class CollectiveDrift:
    """The ``collective_study`` grid over all four collective algorithms.

    Every algorithm × {nrz, pam4} × {reactive, ml/flag, ml/retrain,
    proteus, d3noc} at RW200.  The study's quick mode runs one
    algorithm at the quick cycle count; the benchmark widens it to all
    four at a shorter run length through the module's own settings.
    """

    name = "collective_drift"
    cells_per_algorithm = 10  # {nrz, pam4} x 5 policy rows

    def prepare(self, seed: int, work: Path) -> None:
        from repro.experiments import collective_study, parallel
        from repro.traffic.collectives import COLLECTIVE_ALGORITHMS

        self.seed = seed
        self.module = collective_study
        self.algorithms = tuple(COLLECTIVE_ALGORITHMS)
        collective_study.QUICK_ALGORITHMS = self.algorithms
        collective_study.QUICK_CYCLES = COLLECTIVE_CYCLES
        parallel.configure(jobs=1, use_cache=False)

    def run(self):
        return self.module.run(quick=True, seed=self.seed)

    def check(self, result) -> Outcome:
        rows = result.rows
        expected = self.cells_per_algorithm * len(self.algorithms)
        outcome = Outcome(attempted=max(len(rows), expected))
        outcome.digests = [_digest(row) for row in rows]
        if len(rows) != expected:
            outcome.notes.append(f"{len(rows)} grid rows, expected {expected}")
            outcome.failed_jobs.update(range(outcome.attempted))
        for index, row in enumerate(rows):
            if not row["throughput"] > 0:
                outcome.fail(index, "no traffic delivered")
            if row["drift_action"] == "retrain" and row["retrain_events"] < 1:
                outcome.fail(index, "retrain row promoted no model")
        return outcome


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (Fig9Cold, SweepOverlap, CollectiveDrift)
}


def load_pinned(workload: str, seed: int) -> Optional[List[str]]:
    """Pinned digests for ``workload``, or ``None`` off the default seed."""
    if seed != DEFAULT_SEED:
        return None
    path = Path(__file__).with_name("digests.json")
    pinned = json.loads(path.read_text()) if path.exists() else {}
    return pinned.get(workload)
