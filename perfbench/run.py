"""End-to-end benchmark of the PEARL simulator (see README.md here).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig9_cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload sweep_overlap --trace 1
    python3 perfbench/run.py --workload collective_drift --pin

Every unit of work runs in a fresh interpreter (``unit.py``) inside a
throwaway directory under ``.perfbench_work/``, which is removed at the
end.  A closed loop of one caller: the next unit starts only after the
previous one returned.

``--trace 0`` runs setup-only probes and then timed units while the
next one still fits in ``--seconds`` (at least one), and reports the
end-to-end metrics: the median timed wall time, the median set-up time
and the peak resident memory.  ``--trace 1`` runs one traced unit and
reports its per-layer metrics and the tracing overhead; its spans are
written to ``.perfbench_out/``.
Both print, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--pin`` re-pins the
result digests of the default seed in ``digests.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Setup-only interpreters started per run, besides the timed ones.
SETUP_PROBES = 2
#: A unit that runs longer than this is killed and the run fails.
UNIT_TIMEOUT_S = 170


class UnitFailed(RuntimeError):
    """A unit's interpreter exited with an error or timed out."""


def child_env(work: Path) -> dict:
    """The unit's environment: empty roots, one thread, no inherited knobs."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("PEARL_")}
    for name in ("registry", "models", "results", "tmp"):
        (work / name).mkdir()
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        PEARL_REGISTRY_DIR=str(work / "registry"),
        PEARL_CACHE_DIR=str(work / "models"),
        PEARL_RESULT_CACHE_DIR=str(work / "results"),
        TMPDIR=str(work / "tmp"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_unit(workload: str, seed: int, mode: str, scratch: Path, spans: Path = None) -> dict:
    """Run one unit in a fresh interpreter and return its report."""
    work = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=scratch))
    report = work / "report.json"
    env = child_env(work)
    command = [
        sys.executable, str(HERE / "unit.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--report", str(report),
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            command + ["--spawned", repr(spawned)],
            cwd=work, env=env, capture_output=True, text=True,
            timeout=UNIT_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise UnitFailed(f"{mode} unit timed out after {exc.timeout} s") from exc
    if proc.returncode != 0 or not report.exists():
        raise UnitFailed(f"{mode} unit exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    doc = json.loads(report.read_text())
    doc["elapsed_s"] = time.monotonic() - spawned
    shutil.rmtree(work)
    return doc


def timed_units(args, scratch: Path):
    """Setup probes, then timed units while the next one fits the budget."""
    setups = [run_unit(args.workload, args.seed, "setup", scratch)["setup_s"]
              for _ in range(SETUP_PROBES)]
    units = []
    start = time.monotonic()
    while True:
        unit = run_unit(args.workload, args.seed, "timed", scratch)
        units.append(unit)
        setups.append(unit["setup_s"])
        if time.monotonic() - start + unit["elapsed_s"] > args.seconds:
            return setups, units


def report_checks(units) -> tuple:
    """Print each unit's check results; return (attempted, failed)."""
    attempted = sum(unit["attempted"] for unit in units)
    failed = sum(unit["failed"] for unit in units)
    for unit in units:
        for note in unit["notes"]:
            print(f"  check: {note}")
    print(f"failed_ratio: {failed}/{attempted} = {failed / attempted:.4f} "
          "(failed or output-mismatched simulation results over results checked)")
    gaps = [unit["paper_err_pp"] for unit in units if unit["paper_err_pp"] is not None]
    if gaps:
        print(f"paper_err_pp: {gaps[0]:.4f} pp (PEARL-Dyn 64WL gain over CMESH vs the paper's 34%)")
    else:
        print("paper_err_pp: n/a (this workload has no paper reference; unvalidated)")
    return attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="re-pin the default seed's result digests and exit")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    try:
        return measure(args, scratch)
    except UnitFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass


def measure(args, scratch: Path) -> int:
    if args.pin:
        args.seed = workloads.DEFAULT_SEED
        path = HERE / "digests.json"
        pinned = json.loads(path.read_text()) if path.exists() else {}
        unit = run_unit(args.workload, args.seed, "timed", scratch)
        pinned[args.workload] = unit["digests"]
        path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
        print(f"pinned {len(unit['digests'])} digests for {args.workload}")
        return 0

    if args.trace:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        spans = out / f"{args.workload}-seed{args.seed}.spans.jsonl"
        traced = run_unit(args.workload, args.seed, "traced", scratch, spans)
        units = [traced]
        metrics = traced["layers"]
        print(f"{args.workload} seed {args.seed}: traced unit {traced['wall_s']:.3f} s; "
              f"spans in {spans}")
        for name, value in metrics.items():
            print(f"  {name:40s} {value:14.6f} {tracing.unit_of(name)}")
    else:
        setups, units = timed_units(args, scratch)
        walls = [unit["wall_s"] for unit in units]
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(unit["peak_rss_mb"] for unit in units),
        }
        print(f"{args.workload} seed {args.seed}: {len(units)} timed units, "
              f"wall_s {', '.join(f'{w:.3f}' for w in walls)}; "
              f"{len(setups)} set-ups, setup_s {', '.join(f'{s:.3f}' for s in setups)}")
    attempted, failed = report_checks(units)
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": tracing.unit_of(name)}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
