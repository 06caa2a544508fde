"""Persistent, content-keyed experiment result cache.

Completed simulation jobs are memoised so re-running a figure or
resuming an interrupted sweep is near-free.  The key is a stable
SHA-256 over the *content* of the job — the full serialized
:class:`~repro.config.PearlConfig`, the trace parameters, every variant
knob and a code-version salt — so any change to the inputs (or a salt
bump after a simulator change) misses cleanly instead of returning
stale numbers.

Each entry is a ``meta`` JSON document plus a binary ``blob``:

* ``blob`` — the ``.npz`` array payloads (latency samples, ML history);
* ``meta`` — every scalar field plus provenance *and the blob's
  SHA-256*; committed last, so it doubles as the commit record and a
  mixed meta/blob pair (two crashed writers interleaving) is detected
  by digest instead of silently decoded.

Where the bytes live is pluggable
(:mod:`repro.experiments.service.stores`): the default
:class:`~repro.experiments.service.stores.LocalDirStore` keeps the
historical ``<key>.json`` + ``<key>.npz`` directory layout, and
:class:`~repro.experiments.service.stores.SqliteStore` packs a shared
cache into one WAL-journalled file.  Both are safe under concurrent
writers — racing same-key writers carry identical content (results are
deterministic), and a reader always sees a complete pair or a clean
miss.

Corrupted or truncated entries — a killed run, a partial copy, a
digest mismatch — are detected on read, dropped (self-heal) and
recomputed rather than crashed on.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from ..noc.stats import NetworkStats
from ..obs import OBS
from .service.stores import CacheStore, LocalDirStore, StoreStats, open_store

#: Bump when a simulator change invalidates previously cached results.
CODE_VERSION = "pearl-experiments-1"

#: On-disk schema version of one cache entry.  Format 2 added the
#: ``blob_sha256`` commit digest; format-1 entries self-heal on read.
ENTRY_FORMAT = 2


def canonical_json(payload: Any) -> str:
    """Deterministic JSON text for hashing (sorted keys, no whitespace)."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def job_key(payload: Dict[str, Any], salt: str = CODE_VERSION) -> str:
    """Stable content hash of a job payload under a code-version salt."""
    digest = hashlib.sha256()
    digest.update(salt.encode("utf-8"))
    digest.update(b"\0")
    digest.update(canonical_json(payload).encode("utf-8"))
    return digest.hexdigest()


def file_digest(path: Union[str, Path]) -> str:
    """SHA-256 of a file's bytes (keys ML model artifacts by content)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def default_cache_dir() -> Path:
    """Cache directory (override: ``PEARL_RESULT_CACHE_DIR``)."""
    return Path(
        os.environ.get("PEARL_RESULT_CACHE_DIR", ".pearl_result_cache")
    )


def default_store() -> CacheStore:
    """The process-default backend (``PEARL_RESULT_CACHE_BACKEND``).

    The env var accepts the same ``dir:PATH`` / ``sqlite:PATH`` syntax
    as ``--cache-backend``; unset, the historical directory layout
    under :func:`default_cache_dir` is used.
    """
    backend = os.environ.get("PEARL_RESULT_CACHE_BACKEND", "")
    if backend:
        return open_store(backend)
    return LocalDirStore(default_cache_dir())


class ResultCache:
    """Store-backed memoisation of :class:`~.parallel.JobResult` objects.

    ``get``/``put`` take the job spec itself; keys are derived from its
    content payload.  All floats round-trip through JSON ``repr`` and
    all arrays through binary ``.npz``, so a cache hit is bit-identical
    to the original computation.
    """

    def __init__(
        self,
        directory: Union[str, Path, None] = None,
        salt: str = CODE_VERSION,
        store: Union[str, CacheStore, None] = None,
    ) -> None:
        if store is not None:
            self.store = open_store(store)
        elif directory is not None:
            self.store = LocalDirStore(directory)
        else:
            self.store = default_store()
        self.salt = salt
        self.hits = 0
        self.misses = 0
        self.errors = 0

    @property
    def directory(self) -> Path:
        """Location of the backing store (directory backend: its path)."""
        return Path(self.store.location())

    # -- keys and paths -------------------------------------------------------

    def key_for(self, spec) -> str:
        """Content key of one job spec under this cache's salt."""
        return job_key(spec.payload(), salt=self.salt)

    # -- lookup ---------------------------------------------------------------

    def get(self, spec):
        """The cached :class:`JobResult` for ``spec``, or ``None``."""
        return self.get_by_key(self.key_for(spec))

    def get_by_key(self, key: str):
        """Decode the entry stored under ``key``, or ``None``.

        Any unreadable entry (bad JSON, truncated npz, schema drift, a
        meta/blob digest mismatch from a torn pair) counts as a miss:
        the stale entry is deleted (self-heal) and the caller
        recomputes.
        """
        entry = self.store.get(key)
        if entry is None:
            self.misses += 1
            self._count("misses")
            return None
        meta, blob = entry
        try:
            doc = json.loads(meta.decode("utf-8"))
            if doc.get("format") != ENTRY_FORMAT:
                raise ValueError(
                    f"unknown cache entry format: {doc.get('format')!r}"
                )
            expected = doc.get("blob_sha256")
            actual = hashlib.sha256(blob).hexdigest()
            if expected != actual:
                raise ValueError(
                    f"blob digest mismatch: meta names {expected}, "
                    f"stored blob is {actual} (torn entry)"
                )
            arrays: Dict[str, np.ndarray] = {}
            with np.load(io.BytesIO(blob), allow_pickle=False) as archive:
                for name in archive.files:
                    arrays[name] = archive[name]
            result = _decode_result(doc, arrays)
        except Exception:
            self.errors += 1
            self.misses += 1
            self._count("errors")
            self._count("misses")
            self._count("evictions")
            self.store.delete(key)
            return None
        self.hits += 1
        self._count("hits")
        return result

    def put(self, spec, result) -> None:
        """Persist one completed job result."""
        self.put_by_key(self.key_for(spec), result, spec_payload=spec.payload())

    def put_by_key(
        self,
        key: str,
        result,
        spec_payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Persist a result under a precomputed key."""
        doc, arrays = _encode_result(result)
        doc["format"] = ENTRY_FORMAT
        if spec_payload is not None:
            doc["spec"] = spec_payload
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays)
        blob = buffer.getvalue()
        # The digest binds this meta document to exactly this blob, so
        # a reader can reject any meta/blob interleaving from crashed
        # or racing writers.
        doc["blob_sha256"] = hashlib.sha256(blob).hexdigest()
        meta = (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
        self.store.put(key, meta, blob)
        self._count("writes")

    # -- management -----------------------------------------------------------

    def stats(self) -> StoreStats:
        """Shape of the backing store (entries, bytes)."""
        return self.store.stats()

    def prune(
        self,
        max_bytes: Optional[int] = None,
        older_than: Optional[float] = None,
        now: Optional[float] = None,
    ) -> "tuple[int, int]":
        """Delete entries by age and/or size budget.

        ``older_than`` drops every entry whose mtime is more than that
        many seconds before ``now``; ``max_bytes`` then evicts
        oldest-first until the store fits the budget.  Returns
        ``(entries_removed, bytes_removed)``.
        """
        import time as _time

        if now is None:
            now = _time.time()
        entries = []
        for key in list(self.store.keys()):
            info = self.store.entry_info(key)
            if info is None:
                continue
            entries.append((key, info[0], info[1]))
        removed = 0
        removed_bytes = 0
        kept = []
        for key, size, mtime in entries:
            if older_than is not None and (now - mtime) > older_than:
                self.store.delete(key)
                removed += 1
                removed_bytes += size
            else:
                kept.append((key, size, mtime))
        if max_bytes is not None:
            total = sum(size for _, size, _ in kept)
            # Oldest first, so the working set survives the budget cut.
            for key, size, _ in sorted(kept, key=lambda e: e[2]):
                if total <= max_bytes:
                    break
                self.store.delete(key)
                total -= size
                removed += 1
                removed_bytes += size
        if removed:
            self._count("evictions", removed)
        return removed, removed_bytes

    @staticmethod
    def _count(event: str, amount: int = 1) -> None:
        """Mirror a cache event into the telemetry registry (if enabled)."""
        if OBS.enabled:
            OBS.registry.counter(
                f"engine/cache_{event}",
                help="result-cache lookups by outcome",
            ).inc(amount)


def _encode_result(result) -> "tuple[Dict[str, Any], Dict[str, np.ndarray]]":
    """Split a JobResult into a JSON document and binary arrays."""
    doc: Dict[str, Any] = {
        "kind": result.kind,
        "state_residency": {
            str(state): fraction
            for state, fraction in result.state_residency.items()
        },
        "mean_laser_power_w": result.mean_laser_power_w,
        "laser_stall_cycles": result.laser_stall_cycles,
        "extras": result.extras,
        "telemetry": result.telemetry,
        "stats": (
            result.stats.to_dict(include_latencies=False)
            if result.stats is not None
            else None
        ),
    }
    arrays = {
        "latencies": np.asarray(
            result.stats._latencies if result.stats is not None else [],
            dtype=np.int64,
        ),
        "ml_predictions": np.asarray(result.ml_predictions, dtype=np.float64),
        "ml_labels": np.asarray(result.ml_labels, dtype=np.float64),
    }
    return doc, arrays


def _decode_result(doc: Dict[str, Any], arrays: Dict[str, np.ndarray]):
    """Rebuild a JobResult from :func:`_encode_result` output."""
    from .parallel import JobResult

    stats: Optional[NetworkStats] = None
    if doc["stats"] is not None:
        stats = NetworkStats.from_dict(
            doc["stats"], latencies=arrays["latencies"].tolist()
        )
    return JobResult(
        kind=doc["kind"],
        stats=stats,
        state_residency={
            int(state): float(fraction)
            for state, fraction in doc["state_residency"].items()
        },
        mean_laser_power_w=float(doc["mean_laser_power_w"]),
        laser_stall_cycles=int(doc["laser_stall_cycles"]),
        ml_predictions=[float(v) for v in arrays["ml_predictions"]],
        ml_labels=[float(v) for v in arrays["ml_labels"]],
        extras=dict(doc["extras"]),
        # Entries written before telemetry existed have no key: None.
        telemetry=doc.get("telemetry"),
    )
