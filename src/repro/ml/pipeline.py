"""Two-phase ML training pipeline (Sec. IV-A).

Reproduces the paper's data-collection protocol:

1. **Phase 1** — run every training benchmark pair with *randomly*
   chosen wavelength states (8 WL excluded) and collect per-router
   (features, next-window injections) samples.  Random states avoid
   biasing the model towards any predefined switching pattern.
2. Train a first ridge model, tuning lambda on the validation pairs.
3. **Phase 2** — re-collect with the wavelength states *driven by the
   phase-1 model*, which best mimics the deployment distribution.
4. Retrain on the phase-2 data; this final model is what the ML power
   scaling runs use.

Collection runs the real closed-loop simulator, so a full training pass
is expensive; ``quick=True`` shrinks the pair set and run length for
tests while exercising every stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..config import MLConfig, PearlConfig, SimulationConfig
from ..noc.network import PearlNetwork
from ..noc.router import PowerPolicyKind
from ..traffic.benchmarks import (
    BenchmarkProfile,
    training_pairs,
    validation_pairs,
)
from ..traffic.synthetic import generate_pair_trace
from .dataset import FeatureDataset
from .metrics import nrmse
from .ridge import RidgeRegression, select_lambda

Pair = Tuple[BenchmarkProfile, BenchmarkProfile]


@dataclass
class TrainingResult:
    """Outcome of a full pipeline run."""

    model: RidgeRegression
    lam: float
    validation_nrmse: float
    phase1_samples: int
    phase2_samples: int
    phase1_model: Optional[RidgeRegression] = None
    history: List[str] = field(default_factory=list)


def collect_pair_dataset(
    pair: Pair,
    config: PearlConfig,
    seed: int = 1,
    driving_model: Optional[RidgeRegression] = None,
) -> FeatureDataset:
    """Collect (features, label) samples from one benchmark pair.

    With no ``driving_model`` the network runs the RANDOM power policy
    (phase 1); with a model it runs the ML policy using that model but
    with the 8 WL state disabled (phase 2), as in the paper.
    """
    cpu, gpu = pair
    trace = generate_pair_trace(
        cpu, gpu, config.architecture, config.simulation.total_cycles, seed
    )
    network = PearlNetwork(
        config,
        power_policy=(
            PowerPolicyKind.RANDOM
            if driving_model is None
            else PowerPolicyKind.ML
        ),
        ml_model=driving_model,
        allow_8wl=False,
        seed=seed,
    )
    dataset = FeatureDataset(name=f"{cpu.abbreviation}+{gpu.abbreviation}")
    network.enable_collection(
        lambda router_id, features, label: dataset.append(features, label)
    )
    network.run(trace)
    return dataset


def collect_datasets(
    pairs: Sequence[Pair],
    config: PearlConfig,
    seed: int = 1,
    driving_model: Optional[RidgeRegression] = None,
) -> FeatureDataset:
    """Collect and merge datasets over several benchmark pairs."""
    if not pairs:
        raise ValueError("need at least one benchmark pair")
    parts = [
        collect_pair_dataset(pair, config, seed=seed + i, driving_model=driving_model)
        for i, pair in enumerate(pairs)
    ]
    return FeatureDataset.merge(parts)


def _quick_config(config: PearlConfig) -> PearlConfig:
    """Shrink run length for test-speed training."""
    window = config.ml.reservation_window
    cycles = max(10 * window, 4_000)
    return config.replace(
        simulation=SimulationConfig(
            warmup_cycles=min(500, window),
            measure_cycles=cycles,
            seed=config.simulation.seed,
        )
    )


class PowerModelTrainer:
    """Drives the full two-phase collection + training pipeline."""

    def __init__(
        self,
        config: Optional[PearlConfig] = None,
        train_pairs: Optional[Sequence[Pair]] = None,
        val_pairs: Optional[Sequence[Pair]] = None,
        seed: int = 2018,
        quick: bool = False,
    ) -> None:
        self.config = config or PearlConfig()
        if quick:
            self.config = _quick_config(self.config)
        all_train = list(train_pairs) if train_pairs is not None else training_pairs()
        all_val = list(val_pairs) if val_pairs is not None else validation_pairs()
        if quick and train_pairs is None:
            # A diagonal slice keeps every benchmark represented once.
            all_train = [all_train[i * 6 + i] for i in range(6)]
        if quick and val_pairs is None:
            all_val = all_val[:2]
        self.train_pairs = all_train
        self.val_pairs = all_val
        self.seed = seed

    def train(self) -> TrainingResult:
        """Run the full pipeline and return the deployable model."""
        from ..obs import OBS, wall_span

        history: List[str] = []
        ml: MLConfig = self.config.ml

        with wall_span("ml/phase1_collect", "training"):
            phase1 = collect_datasets(
                self.train_pairs, self.config, seed=self.seed
            )
            val_set = collect_datasets(
                self.val_pairs, self.config, seed=self.seed + 1000
            )
        history.append(
            f"phase1: {len(phase1)} train / {len(val_set)} validation samples"
        )
        X1, y1 = phase1.arrays()
        Xv, yv = val_set.arrays()
        with wall_span("ml/phase1_fit", "training"):
            model1, lam1 = select_lambda(
                X1, y1, Xv, yv, ml.lambda_grid, standardize=ml.standardize_features
            )
        history.append(f"phase1 model: lambda={lam1}")

        with wall_span("ml/phase2_collect", "training"):
            phase2 = collect_datasets(
                self.train_pairs,
                self.config,
                seed=self.seed + 2000,
                driving_model=model1,
            )
            val2 = collect_datasets(
                self.val_pairs,
                self.config,
                seed=self.seed + 3000,
                driving_model=model1,
            )
        history.append(f"phase2: {len(phase2)} train / {len(val2)} validation samples")
        X2, y2 = phase2.arrays()
        Xv2, yv2 = val2.arrays()
        with wall_span("ml/phase2_fit", "training"):
            model2, lam2 = select_lambda(
                X2, y2, Xv2, yv2, ml.lambda_grid, standardize=ml.standardize_features
            )
        if OBS.enabled:
            OBS.registry.counter(
                "ml/training_samples", help="(features, label) pairs collected"
            ).inc(len(phase1) + len(phase2))
        validation_score = nrmse(yv2, model2.predict(Xv2))
        history.append(
            f"phase2 model: lambda={lam2}, validation NRMSE={validation_score:.3f}"
        )
        return TrainingResult(
            model=model2,
            lam=lam2,
            validation_nrmse=validation_score,
            phase1_samples=len(phase1),
            phase2_samples=len(phase2),
            phase1_model=model1,
            history=history,
        )


def deployment_fitted_model(
    pair: Optional[Pair] = None,
    config: Optional[PearlConfig] = None,
    seed: int = 2018,
    lam: float = 1.0,
) -> RidgeRegression:
    """Fit a ridge model on one pair's deployment-collected samples.

    A single-pair shortcut for drift studies, run as a miniature of the
    full two-phase pipeline: phase 1 collects under the RANDOM policy
    and fits a bootstrap model; phase 2 re-collects with that model
    *driving* the wavelength states and refits.  Because the final
    model standardizes on the phase-2 samples, its scaler records the
    closed-loop *deployment* feature distribution of that
    PARSEC/SPLASH2-style pair — exactly the baseline the drift monitor
    compares against.  Replaying the same family of traffic keeps the
    monitor quiet; phase-structured collective traffic walks the
    feature EWMA away from this baseline and trips it (see
    ``pearl-sim experiment collective_study``).
    """
    from ..traffic.benchmarks import test_pairs

    if pair is None:
        pair = test_pairs()[0]
    config = _quick_config(config or PearlConfig().with_reservation_window(200))
    bootstrap_data = collect_pair_dataset(pair, config, seed=seed)
    bootstrap = RidgeRegression(lam=lam, standardize=True)
    bootstrap.fit(*bootstrap_data.arrays())
    dataset = collect_pair_dataset(
        pair, config, seed=seed, driving_model=bootstrap
    )
    model = RidgeRegression(lam=lam, standardize=True)
    model.fit(*dataset.arrays())
    return model


_MODEL_CACHE: dict = {}


def _training_key(
    reservation_window: int, quick: bool, seed: int
) -> dict:
    """The registry lookup key for a default-pipeline training."""
    return {
        "pipeline": "two_phase_default",
        "reservation_window": int(reservation_window),
        "quick": bool(quick),
        "seed": int(seed),
    }


def _result_from_record(record, model: RidgeRegression) -> TrainingResult:
    """Rebuild a :class:`TrainingResult` from a registry record."""
    training = record.training
    metrics = record.metrics
    return TrainingResult(
        model=model,
        lam=float(training.get("lambda", model.lam)),
        validation_nrmse=float(metrics.get("validation_nrmse", float("nan"))),
        phase1_samples=int(training.get("phase1_samples", 0)),
        phase2_samples=int(training.get("phase2_samples", 0)),
        history=list(training.get("history", [])),
    )


def _register_training(
    registry, result: TrainingResult, key: dict, config: PearlConfig, seed: int
):
    """Store a default-pipeline training in the model registry.

    The model id digests only the weights, feature schema and training
    key, so every caller storing the same training gets the same id.
    """
    from ..obs.provenance import collect_provenance
    from .lifecycle.registry import feature_schema

    return registry.put(
        result.model,
        training={
            "key": key,
            "lambda": result.lam,
            "phase1_samples": result.phase1_samples,
            "phase2_samples": result.phase2_samples,
            "history": result.history,
        },
        metrics={"validation_nrmse": result.validation_nrmse},
        schema=feature_schema(config.ml),
        provenance=collect_provenance(config=config, seed=seed),
    )


def train_default_model(
    reservation_window: int = 500,
    quick: bool = True,
    seed: int = 2018,
    use_disk_cache: bool = True,
) -> TrainingResult:
    """Train (and memoise) the deployable model for a window size.

    Heavy callers (benchmarks regenerating several figures) share one
    trained model per window size through the in-process cache; the
    content-addressed :class:`~repro.ml.lifecycle.registry
    .ModelRegistry` (root governed by ``$PEARL_REGISTRY_DIR`` /
    ``$PEARL_CACHE_DIR``) lets separate processes — the report
    generator and the benchmark run — share trainings too.  Collection
    is deterministic, so a cached model is bit-identical to a
    retrained one.

    A registry hit must match both the training key *and* the current
    feature-schema hash: changing ``MLConfig`` feature flags
    (``num_features``, ``standardize_features``) changes what the
    stored weights mean, so such a hit is skipped and the model is
    retrained under the new schema.  Fresh trainings are promoted to
    the ``production`` tag.
    """
    from .lifecycle.registry import (
        DEFAULT_TAG,
        default_registry,
        feature_schema,
        schema_hash,
    )

    config = PearlConfig().with_reservation_window(reservation_window)
    expected_hash = schema_hash(feature_schema(config.ml))
    key = _training_key(reservation_window, quick, seed)
    registry = default_registry()
    memo_key = (str(registry.root), reservation_window, quick, seed)
    if memo_key in _MODEL_CACHE:
        return _MODEL_CACHE[memo_key]

    if use_disk_cache:
        record = registry.find_by_key(key, with_schema_hash=expected_hash)
        if record is not None:
            try:
                model = registry.get(record.model_id)
            except Exception:
                # Corrupted/truncated artifact: retrain and re-put
                # rather than crash (training is deterministic, so the
                # rewritten version is identical to an uncorrupted one).
                pass
            else:
                result = _result_from_record(record, model)
                _MODEL_CACHE[memo_key] = result
                return result

    trainer = PowerModelTrainer(config=config, seed=seed, quick=quick)
    result = trainer.train()
    _MODEL_CACHE[memo_key] = result
    if use_disk_cache:
        record = _register_training(registry, result, key, config, seed)
        registry.promote(record.model_id, DEFAULT_TAG)
    return result


def ensure_model_file(
    reservation_window: int = 500, quick: bool = True, seed: int = 2018
):
    """Train (or fetch) the default model and return its ``.npz`` path.

    The parallel experiment engine ships models to worker processes by
    file path instead of pickling them, so the expensive training runs
    exactly once in the parent; :meth:`RidgeRegression.save`/``load``
    round-trips the float64 arrays bit-for-bit, making worker
    predictions identical to the parent's.  The returned path points
    into the model registry's object store and is only handed out
    after the archive loads cleanly and its feature-schema hash
    matches the current ``MLConfig`` contract.
    """
    from .lifecycle.registry import (
        default_registry,
        feature_schema,
        schema_hash,
    )

    result = train_default_model(reservation_window, quick=quick, seed=seed)
    registry = default_registry()
    config = PearlConfig().with_reservation_window(reservation_window)
    expected_hash = schema_hash(feature_schema(config.ml))
    key = _training_key(reservation_window, quick, seed)
    record = registry.find_by_key(key, with_schema_hash=expected_hash)
    if record is not None:
        model_path = registry.model_path(record.model_id)
        try:
            RidgeRegression.load(model_path)
        except Exception:
            # Corrupt on disk: drop the damaged version so the re-put
            # below rebuilds it from the in-memory model.
            import shutil

            shutil.rmtree(model_path.parent, ignore_errors=True)
        else:
            return model_path
    # The memoised training skipped the registry write (or the artifact
    # was damaged): store the in-memory model now so the path exists.
    record = _register_training(registry, result, key, config, seed)
    return registry.model_path(record.model_id)
