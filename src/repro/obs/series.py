"""Per-window, per-router time series: the temporal telemetry record.

The registry aggregates a whole run into counters and histograms; this
module keeps the *trajectory* — one record per router per reservation
window, emitted from the shared window-close path that every cycle
engine (reference, array) funnels through.  Each record captures
what the policy saw and what it did at that boundary:

* realized vs. predicted injection (the ML scaler's target pair),
* input/ejection buffer occupancies,
* the laser wavelength state before/after the decision and its power,
* the DBA bandwidth split in force at the close,
* drift/fallback flags and cumulative fault counters.

Storage is columnar (one Python list per column while recording, one
numpy array per column on export) and the artifact is a ``.series.npz``
written next to the JSONL/Chrome trace pair.  Recording cadence is
``series_every`` windows per router (0 disables the series outright);
the row budget is capped by ``capacity`` — unlike the tracer's ring,
which keeps the newest events, the series keeps the *head* of the run
and counts everything past the cap in ``dropped``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

#: Series schema identifier, bumped when the column set changes.
SERIES_SCHEMA = "pearl-series-1"

#: Default row cap (records, not bytes).  16 routers at a 500-cycle
#: window fill this in ~8.2M simulated cycles.
DEFAULT_SERIES_CAPACITY = 262_144

#: Integer-valued columns (exported as int64).
INT_COLUMNS = (
    "cycle",
    "router",
    "state_before",
    "state_target",
    "drift_active",
    "fallback",
    "clamp_events",
    "crc_errors",
    "retransmissions",
)

#: Float-valued columns (exported as float64; ``predicted`` is NaN for
#: windows decided by a non-ML policy).
FLOAT_COLUMNS = (
    "injected",
    "predicted",
    "occ_cpu",
    "occ_gpu",
    "ej_cpu",
    "ej_gpu",
    "laser_power_w",
    "dba_cpu",
    "dba_gpu",
)

#: Every data column, in artifact order (plus the string ``stream``).
COLUMNS = INT_COLUMNS + FLOAT_COLUMNS


class WindowSeriesRecorder:
    """Columnar per-window recorder with deterministic cadence.

    ``series_every=N`` keeps every Nth window close *per router* (a
    per-router modular counter, no RNG — the same admission discipline
    as the tracer's per-name sampling), so a sparse series is still a
    deterministic function of the simulation.  ``series_every=0``
    disables recording entirely; hot paths guard on :attr:`enabled`.
    """

    def __init__(
        self,
        series_every: int = 1,
        capacity: int = DEFAULT_SERIES_CAPACITY,
    ) -> None:
        if series_every < 0:
            raise ValueError("series_every must be >= 0 (0 disables)")
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.series_every = series_every
        self.capacity = capacity
        self.enabled = series_every > 0
        self.dropped = 0  # records lost to the row cap (never cadence)
        self._counts: Dict[int, int] = {}  # per-router cadence counters
        self._cols: Dict[str, List] = {name: [] for name in COLUMNS}
        self._streams: List[str] = []

    def __len__(self) -> int:
        return len(self._streams)

    def record(
        self,
        cycle: int,
        router: int,
        *,
        injected: float,
        predicted: float,
        occ_cpu: float,
        occ_gpu: float,
        ej_cpu: float,
        ej_gpu: float,
        state_before: int,
        state_target: int,
        laser_power_w: float,
        dba_cpu: float,
        dba_gpu: float,
        drift_active: bool = False,
        fallback: bool = False,
        clamp_events: int = 0,
        crc_errors: int = 0,
        retransmissions: int = 0,
    ) -> None:
        """Append one window-close record (subject to cadence and cap)."""
        if not self.enabled:
            return
        count = self._counts.get(router, 0)
        self._counts[router] = count + 1
        if count % self.series_every:
            return
        if len(self._streams) >= self.capacity:
            self.dropped += 1
            return
        cols = self._cols
        cols["cycle"].append(int(cycle))
        cols["router"].append(int(router))
        cols["state_before"].append(int(state_before))
        cols["state_target"].append(int(state_target))
        cols["drift_active"].append(int(drift_active))
        cols["fallback"].append(int(fallback))
        cols["clamp_events"].append(int(clamp_events))
        cols["crc_errors"].append(int(crc_errors))
        cols["retransmissions"].append(int(retransmissions))
        cols["injected"].append(float(injected))
        cols["predicted"].append(float(predicted))
        cols["occ_cpu"].append(float(occ_cpu))
        cols["occ_gpu"].append(float(occ_gpu))
        cols["ej_cpu"].append(float(ej_cpu))
        cols["ej_gpu"].append(float(ej_gpu))
        cols["laser_power_w"].append(float(laser_power_w))
        cols["dba_cpu"].append(float(dba_cpu))
        cols["dba_gpu"].append(float(dba_gpu))
        self._streams.append("main")

    # -- snapshot / merge ------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Picklable state (what a worker ships to the parent)."""
        return {
            "columns": {name: list(col) for name, col in self._cols.items()},
            "streams": list(self._streams),
            "dropped": self.dropped,
        }

    def merge_snapshot(
        self, snapshot: Optional[Dict[str, object]], stream: str
    ) -> None:
        """Adopt a worker's records, re-tagged under ``stream``.

        Rows are appended in the worker's own order; merging snapshots
        in submission order therefore reproduces the serial recording
        exactly (the determinism contract the parallel engine pins).
        Worker-side drops carry over, and rows past this recorder's own
        cap are dropped-and-counted rather than silently truncated.
        """
        if not snapshot or not self.enabled:
            return
        columns = snapshot.get("columns", {})
        incoming = len(snapshot.get("streams", ()))
        self.dropped += int(snapshot.get("dropped", 0))
        room = self.capacity - len(self._streams)
        keep = min(incoming, max(room, 0))
        self.dropped += incoming - keep
        if keep == 0:
            return
        for name in COLUMNS:
            self._cols[name].extend(columns.get(name, ())[:keep])
        self._streams.extend([stream] * keep)

    # -- export ----------------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        """One numpy array per column (ints, floats, then streams)."""
        out: Dict[str, np.ndarray] = {}
        for name in INT_COLUMNS:
            out[name] = np.asarray(self._cols[name], dtype=np.int64)
        for name in FLOAT_COLUMNS:
            out[name] = np.asarray(self._cols[name], dtype=np.float64)
        out["stream"] = np.asarray(self._streams, dtype=np.str_)
        return out


def save_series(
    path: Union[str, Path],
    series: WindowSeriesRecorder,
    provenance: Optional[Dict[str, object]] = None,
) -> Path:
    """Write a recorder to ``path`` as a ``pearl-series-1`` npz."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = series.arrays()
    payload["schema"] = np.asarray(SERIES_SCHEMA)
    payload["series_every"] = np.asarray(series.series_every, dtype=np.int64)
    payload["dropped"] = np.asarray(series.dropped, dtype=np.int64)
    payload["provenance"] = np.asarray(
        json.dumps(provenance or {}, sort_keys=True)
    )
    with open(path, "wb") as fh:
        np.savez(fh, **payload)
    return path


def load_series(path: Union[str, Path]) -> Dict[str, np.ndarray]:
    """Load and validate a series artifact; returns its arrays.

    Raises ``ValueError`` on a wrong schema marker, a missing column or
    ragged column lengths, so callers (and ``scripts/check_trace.py``)
    get one actionable message instead of downstream index errors.
    """
    with np.load(Path(path), allow_pickle=False) as data:
        if "schema" not in data:
            raise ValueError("not a pearl series artifact (no schema marker)")
        schema = str(data["schema"])
        if schema != SERIES_SCHEMA:
            raise ValueError(f"schema {schema!r} != {SERIES_SCHEMA!r}")
        arrays = {name: data[name] for name in data.files}
    missing = [name for name in COLUMNS + ("stream",) if name not in arrays]
    if missing:
        raise ValueError(f"missing columns: {', '.join(missing)}")
    lengths = {len(arrays[name]) for name in COLUMNS + ("stream",)}
    if len(lengths) > 1:
        raise ValueError(f"ragged column lengths: {sorted(lengths)}")
    return arrays


def series_provenance(arrays: Dict[str, np.ndarray]) -> Dict[str, object]:
    """The provenance document embedded in a loaded artifact."""
    raw = arrays.get("provenance")
    if raw is None:
        return {}
    return json.loads(str(raw))


def series_summary(arrays: Dict[str, np.ndarray]) -> Dict[str, object]:
    """Aggregate a series into the ``obs series`` report document.

    Per-router rows plus two cross-cut breakdowns: prediction error
    (over the windows that carried an ML prediction) and laser duty
    (fraction of recorded windows targeting each wavelength state).
    """
    cycles = arrays["cycle"]
    rows = int(cycles.shape[0])
    doc: Dict[str, object] = {
        "rows": rows,
        "dropped": int(arrays.get("dropped", np.int64(0))),
        "series_every": int(arrays.get("series_every", np.int64(1))),
        "routers": 0,
        "cycle_range": None,
        "per_router": [],
        "prediction": None,
        "laser_duty": [],
        "drift_windows": 0,
        "fallback_windows": 0,
        "faults": {
            "clamp_events": 0,
            "crc_errors": 0,
            "retransmissions": 0,
        },
    }
    if rows == 0:
        return doc
    routers = arrays["router"]
    predicted = arrays["predicted"]
    injected = arrays["injected"]
    doc["cycle_range"] = [int(cycles.min()), int(cycles.max())]
    doc["drift_windows"] = int(arrays["drift_active"].sum())
    doc["fallback_windows"] = int(arrays["fallback"].sum())
    # Fault columns are cumulative run counters sampled at each close;
    # the series-wide total is therefore the last (max) sample.
    doc["faults"] = {
        "clamp_events": int(arrays["clamp_events"].max()),
        "crc_errors": int(arrays["crc_errors"].max()),
        "retransmissions": int(arrays["retransmissions"].max()),
    }

    per_router: List[Dict[str, object]] = []
    for router in np.unique(routers):
        mask = routers == router
        pred = predicted[mask]
        finite = np.isfinite(pred)
        error = (
            float(np.abs(pred[finite] - injected[mask][finite]).mean())
            if finite.any()
            else None
        )
        per_router.append(
            {
                "router": int(router),
                "windows": int(mask.sum()),
                "injected_mean": float(injected[mask].mean()),
                "occ_cpu_mean": float(arrays["occ_cpu"][mask].mean()),
                "occ_gpu_mean": float(arrays["occ_gpu"][mask].mean()),
                "dba_cpu_mean": float(arrays["dba_cpu"][mask].mean()),
                "laser_power_mean_w": float(
                    arrays["laser_power_w"][mask].mean()
                ),
                "prediction_mae": error,
            }
        )
    doc["per_router"] = per_router
    doc["routers"] = len(per_router)

    finite = np.isfinite(predicted)
    if finite.any():
        residual = predicted[finite] - injected[finite]
        doc["prediction"] = {
            "windows": int(finite.sum()),
            "mae": float(np.abs(residual).mean()),
            "rmse": float(np.sqrt((residual**2).mean())),
            "bias": float(residual.mean()),
        }

    states = arrays["state_target"]
    duty: List[Dict[str, object]] = []
    for state in np.unique(states):
        mask = states == state
        duty.append(
            {
                "state": int(state),
                "windows": int(mask.sum()),
                "duty": float(mask.sum() / rows),
                "power_mean_w": float(arrays["laser_power_w"][mask].mean()),
            }
        )
    doc["laser_duty"] = duty
    return doc
