"""Span recording around the simulator's layers, from the benchmark side.

The traced run wraps the public entry points of eight layers (listed in
``TARGETS``) without touching the program: each wrapper pushes a span
(name, layer, start, end, parent, run id) onto an in-memory list, and
the list is summarised and written out when the unit ends.  A function
imported by name into another module (``select_lambda`` in
``repro.ml.pipeline``, the trace builders in ``repro.experiments``) is
rebound in every loaded ``repro`` module, so callers reach the wrapper
wherever they took the name from.

Spans nest strictly (one thread, one process), so a span's self time
is its duration minus the durations of its direct children, and the
self times of all spans plus the time no span covers add up to the
timed call's wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional

#: Layers whose self time the traced run reports, in report order.
LAYERS = (
    "traffic",
    "ml.pipeline",
    "ml.lifecycle",
    "noc.network",
    "noc.cmesh",
    "experiments.parallel",
    "experiments.cache",
    "experiments.service",
)

#: Ridge fits run inside a PEARL simulation only when the online
#: retraining loop refits a drifted model; elsewhere they are offline
#: training.
_FIT = "ml.ridge.fit"
_PEARL_RUN = "noc.pearl.run"


def _pearl_run_attrs(args, kwargs, out) -> Dict[str, object]:
    network = args[0]
    return {
        "cycles": int(network.config.simulation.total_cycles),
        "drift_events": int(out.drift_events),
        "retrain_events": int(out.retrain_events),
    }


def _cmesh_run_attrs(args, kwargs, out) -> Dict[str, object]:
    return {"cycles": int(args[0].simulation.total_cycles)}


def _dataset_attrs(args, kwargs, out) -> Dict[str, object]:
    return {"samples": len(out)}


def _cache_get_attrs(args, kwargs, out) -> Dict[str, object]:
    return {"hit": out is not None}


def _sweep_attrs(args, kwargs, out) -> Dict[str, object]:
    report = out[1]
    return {
        "jobs_executed": int(report.jobs_executed),
        "cache_hits": int(report.cache_hits),
    }


#: (module, attribute path, span name, layer, attribute hook).  A layer
#: of ``None`` is decided at call time from the enclosing spans.
TARGETS = (
    ("repro.traffic.synthetic", "generate_pair_trace", "traffic.pair", "traffic", None),
    ("repro.traffic.collectives", "generate_collective_trace", "traffic.collective", "traffic", None),
    ("repro.ml.pipeline", "PowerModelTrainer.train", "ml.pipeline.train", "ml.pipeline", None),
    ("repro.ml.pipeline", "collect_pair_dataset", "ml.pipeline.collect", "ml.pipeline", _dataset_attrs),
    ("repro.ml.pipeline", "deployment_fitted_model", "ml.pipeline.deployment_fit", "ml.pipeline", None),
    ("repro.ml.pipeline", "train_default_model", "ml.pipeline.train_default", "ml.pipeline", None),
    ("repro.ml.pipeline", "ensure_model_file", "ml.pipeline.ensure_model", "ml.pipeline", None),
    ("repro.ml.ridge", "select_lambda", "ml.pipeline.select_lambda", "ml.pipeline", None),
    ("repro.ml.ridge", "RidgeRegression.fit", _FIT, None, None),
    ("repro.ml.lifecycle.registry", "ModelRegistry.put", "ml.lifecycle.put", "ml.lifecycle", None),
    ("repro.ml.lifecycle.registry", "ModelRegistry.promote", "ml.lifecycle.promote", "ml.lifecycle", None),
    ("repro.ml.lifecycle.registry", "ModelRegistry.find_by_key", "ml.lifecycle.find", "ml.lifecycle", None),
    ("repro.noc.network", "PearlNetwork.__init__", "noc.pearl.build", "noc.network", None),
    ("repro.noc.network", "PearlNetwork.run", _PEARL_RUN, "noc.network", _pearl_run_attrs),
    ("repro.noc.cmesh", "CMeshNetwork.__init__", "noc.cmesh.build", "noc.cmesh", None),
    ("repro.noc.cmesh", "CMeshNetwork.run", "noc.cmesh.run", "noc.cmesh", _cmesh_run_attrs),
    ("repro.experiments.parallel", "run_jobs", "experiments.run_jobs", "experiments.parallel", None),
    ("repro.experiments.parallel", "ExperimentEngine.run", "experiments.engine", "experiments.parallel", None),
    ("repro.experiments.parallel", "execute_job", "experiments.job", "experiments.parallel", None),
    ("repro.experiments.cache", "ResultCache.get", "experiments.cache.get", "experiments.cache", _cache_get_attrs),
    ("repro.experiments.cache", "ResultCache.put", "experiments.cache.put", "experiments.cache", None),
    ("repro.experiments.service.sweeper", "SweepRunner.run", "service.sweep", "experiments.service", _sweep_attrs),
)


class SpanRecorder:
    """In-memory span list plus the stack of currently open spans."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []

    def _layer_for_fit(self) -> str:
        inside_run = any(self.spans[i]["name"] == _PEARL_RUN for i in self._stack)
        return "ml.lifecycle" if inside_run else "ml.pipeline"

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: Optional[str],
        hook: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording one span per call."""
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "layer": layer or self._layer_for_fit(),
                "start": 0.0,
                "end": 0.0,
                "parent": stack[-1] if stack else None,
                "run": self.run_id,
            }
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if hook is not None:
                span.update(hook(args, kwargs, out))
            return out

        return traced

    def install(self) -> None:
        """Wrap every target and rebind it wherever it was imported."""
        for module_name, path, name, layer, hook in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            wrapped = self.wrap(original, name, layer, hook)
            setattr(owner, attr, wrapped)
            if owner_name:
                continue
            for loaded_name, loaded in list(sys.modules.items()):
                if not loaded_name.startswith("repro") or loaded is None:
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapped)


def write_spans(path, spans: List[Dict[str, object]]) -> None:
    """Write spans as JSON lines; ``parent`` is the parent's ``id``."""
    with open(path, "w") as fh:
        for index, span in enumerate(spans):
            fh.write(json.dumps(dict(span, id=index), sort_keys=True) + "\n")


def unit_of(metric: str) -> str:
    """The unit a metric of this benchmark is reported in."""
    for suffix, unit in (
        ("_s", "s"),
        ("_mb", "MB"),
        ("us_per_cycle", "us"),
        ("sim_cycles", "cycles"),
        ("_ratio", "ratio"),
        ("_pct", "%"),
    ):
        if metric.endswith(suffix):
            return unit
    return "count"


def span_cost_s(calls: int = 20_000) -> float:
    """Seconds one recorded span adds to a call, measured on a no-op.

    The wrappers are the only difference between a traced and an
    untraced unit, so spans times this cost is the tracing overhead.
    Timing a second, untraced unit instead would bury the overhead in
    the host's run-to-run noise, which is far larger.
    """
    recorder = SpanRecorder("span-cost")

    def noop():
        return None

    traced = recorder.wrap(noop, "noop", "noop")
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(time.perf_counter() - start - plain, 0.0) / calls


def summarise(
    spans: List[Dict[str, object]], wall_s: float, span_cost: float
) -> Dict[str, float]:
    """Per-layer metrics of one traced unit whose timed call took ``wall_s``."""
    durations = [float(s["end"]) - float(s["start"]) for s in spans]
    child_time = [0.0] * len(spans)
    for index, span in enumerate(spans):
        if span["parent"] is not None:
            child_time[span["parent"]] += durations[index]
    self_time = [d - c for d, c in zip(durations, child_time)]

    def ancestors(index: int):
        parent = spans[index]["parent"]
        while parent is not None:
            yield spans[parent]
            parent = spans[parent]["parent"]

    def named(name: str) -> List[int]:
        return [i for i, s in enumerate(spans) if s["name"] == name]

    def total(indices, values=durations) -> float:
        return float(sum(values[i] for i in indices))

    def attr_sum(indices, key: str) -> int:
        return int(sum(int(spans[i].get(key, 0)) for i in indices))

    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = total(
            [i for i, s in enumerate(spans) if s["layer"] == layer], self_time
        )
    covered = total([i for i, s in enumerate(spans) if s["parent"] is None])
    metrics["layer.uncovered.self_s"] = wall_s - covered
    metrics["trace.wall_s"] = wall_s
    overhead = len(spans) * span_cost
    metrics["trace.overhead_pct"] = 100.0 * overhead / (wall_s - overhead)

    for prefix, name in (("noc.pearl", _PEARL_RUN), ("noc.cmesh", "noc.cmesh.run")):
        runs = named(name)
        busy = total(runs)
        cycles = attr_sum(runs, "cycles")
        metrics[f"{prefix}.calls"] = len(runs)
        metrics[f"{prefix}.busy_s"] = busy
        if prefix == "noc.pearl":
            metrics[f"{prefix}.sim_cycles"] = cycles
        metrics[f"{prefix}.us_per_cycle"] = 1e6 * busy / cycles if cycles else 0.0

    pearl_runs = named(_PEARL_RUN)
    collect = named("ml.pipeline.collect")
    metrics["ml.pipeline.train.self_s"] = total(named("ml.pipeline.train"), self_time)
    metrics["ml.pipeline.collect.sim_s"] = total(
        [i for i in pearl_runs
         if any(a["name"] == "ml.pipeline.collect" for a in ancestors(i))]
    )
    fit_names = ("ml.pipeline.select_lambda", _FIT)
    metrics["ml.pipeline.fit_s"] = total(
        [i for i, s in enumerate(spans)
         if s["name"] in fit_names and s["layer"] == "ml.pipeline"
         and (s["parent"] is None or spans[s["parent"]]["name"] not in fit_names)]
    )
    metrics["ml.pipeline.samples"] = attr_sum(collect, "samples")
    metrics["ml.lifecycle.fit_s"] = total(
        [i for i, s in enumerate(spans)
         if s["layer"] == "ml.lifecycle" and s["parent"] is not None
         and spans[s["parent"]]["name"] == _PEARL_RUN]
    )
    metrics["ml.lifecycle.drift_events"] = attr_sum(pearl_runs, "drift_events")
    metrics["ml.lifecycle.retrain_events"] = attr_sum(pearl_runs, "retrain_events")

    traffic = [i for i, s in enumerate(spans) if s["layer"] == "traffic"]
    metrics["traffic.build.calls"] = len(traffic)
    metrics["traffic.build.self_s"] = total(traffic, self_time)

    jobs = named("experiments.job")
    metrics["experiments.jobs.attempted"] = len(jobs)
    metrics["experiments.jobs.failed"] = sum(1 for i in jobs if spans[i].get("error"))
    metrics["experiments.dispatch.self_s"] = metrics["layer.experiments.parallel.self_s"]
    gets = named("experiments.cache.get")
    puts = named("experiments.cache.put")
    hits = sum(1 for i in gets if spans[i].get("hit"))
    metrics["experiments.cache.get.calls"] = len(gets)
    metrics["experiments.cache.get.busy_s"] = total(gets)
    metrics["experiments.cache.put.calls"] = len(puts)
    metrics["experiments.cache.put.busy_s"] = total(puts)
    metrics["experiments.cache.hit_ratio"] = hits / len(gets) if gets else 0.0

    sweeps = named("service.sweep")
    metrics["service.sweep.self_s"] = total(sweeps, self_time)
    metrics["service.jobs_executed"] = attr_sum(sweeps, "jobs_executed")
    metrics["service.cache_hits"] = attr_sum(sweeps, "cache_hits")
    return metrics
