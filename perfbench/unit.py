"""One benchmark unit: a fresh interpreter runs one workload once.

``run.py`` starts this script once per unit, in a throwaway working
directory whose model registry, result cache and temp roots are empty,
so in-process memos (``runner.cached``, the pipeline's model cache)
start cold and ``peak_rss_mb`` belongs to this one run.  Modes:

* ``setup``  — build the inputs, then stop at the first timed call;
* ``timed``  — also make the timed call and check its outputs;
* ``traced`` — as ``timed``, with spans recorded around every layer
  and the per-layer metrics computed from them.

The unit writes a JSON report to ``--report``; in ``traced`` mode the
spans go to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time
from pathlib import Path

import tracing
import workloads


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() just before this interpreter was started")
    parser.add_argument("--report", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]()
    workload.prepare(args.seed, Path.cwd())
    recorder = None
    if args.mode == "traced":
        recorder = tracing.SpanRecorder(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        recorder.install()
    report = {"setup_s": time.monotonic() - args.spawned}
    if args.mode != "setup":
        start = time.perf_counter()
        result = workload.run()
        wall = time.perf_counter() - start
        spans = list(recorder.spans) if recorder else []
        outcome = workload.check(result)
        outcome.compare_pinned(workloads.load_pinned(args.workload, args.seed))
        report.update(
            wall_s=wall,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            attempted=outcome.attempted,
            failed=len(outcome.failed_jobs),
            notes=outcome.notes,
            digests=outcome.digests,
            paper_err_pp=outcome.paper_err_pp,
        )
        if recorder:
            tracing.write_spans(args.spans, spans)
            report["layers"] = tracing.summarise(spans, wall, tracing.span_cost_s())
    Path(args.report).write_text(json.dumps(report))


if __name__ == "__main__":
    main()
