"""Differential golden-run tests: every policy × allocator × engine,
plus the electrical CMESH baseline.

Each case is also run with telemetry enabled, which routes the run
through the instrumented warm-up/measure/energy path of each engine;
telemetry is strictly observational, so it must reproduce the same
snapshot.

A failure here means the simulated behaviour changed.  If the change
is intentional, regenerate the snapshots with
``python scripts/update_golden.py`` and commit the diff alongside the
code; if not, it just caught a regression.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import obs
from repro.obs import OBS

from .golden_cases import (
    ALLOCATORS,
    CMESH_CASES,
    COLLECTIVE_PAM4_CASE,
    COLLECTIVE_RETRAIN_CASE,
    ENGINES,
    POLICIES,
    RETRAIN_CASE,
    run_case,
    run_cmesh_case,
    run_collective_pam4_case,
    run_collective_retrain_case,
    run_retrain_case,
)

pytestmark = pytest.mark.golden

SNAPSHOT_DIR = Path(__file__).parent / "snapshots"

CASES = [(policy, alloc) for policy in POLICIES for alloc in ALLOCATORS]


def _diff(expected: dict, actual: dict, prefix: str = "") -> list:
    """Human-readable list of leaf-level differences."""
    lines = []
    for key in sorted(set(expected) | set(actual)):
        path = f"{prefix}{key}"
        if key not in expected:
            lines.append(f"  {path}: unexpected key (= {actual[key]!r})")
        elif key not in actual:
            lines.append(f"  {path}: missing (expected {expected[key]!r})")
        elif isinstance(expected[key], dict) and isinstance(actual[key], dict):
            lines.extend(_diff(expected[key], actual[key], prefix=f"{path}."))
        elif expected[key] != actual[key]:
            lines.append(
                f"  {path}: expected {expected[key]!r}, got {actual[key]!r}"
            )
    return lines


def _assert_matches_snapshot(stem: str, actual: dict, label: str) -> None:
    path = SNAPSHOT_DIR / f"{stem}.json"
    assert path.exists(), (
        f"missing snapshot {path.name}; run scripts/update_golden.py"
    )
    expected = json.loads(path.read_text())
    if actual != expected:
        differences = "\n".join(_diff(expected, actual))
        pytest.fail(
            f"golden mismatch for {label}:\n{differences}\n"
            "If this change is intentional, regenerate with "
            "scripts/update_golden.py."
        )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "policy,allocator", CASES, ids=[f"{p}-{a}" for p, a in CASES]
)
def test_golden_run(policy: str, allocator: str, engine: str) -> None:
    _assert_matches_snapshot(
        f"{policy}_{allocator}",
        run_case(policy, allocator, engine),
        f"{policy}/{allocator} on the {engine} engine",
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "policy,allocator", CASES, ids=[f"{p}-{a}" for p, a in CASES]
)
def test_golden_run_instrumented(
    policy: str, allocator: str, engine: str
) -> None:
    """Telemetry on: the instrumented path pins the same snapshot."""
    with obs.session():
        actual = run_case(policy, allocator, engine)
        assert OBS.engines == {engine: 1}
        spans = {e.name for e in OBS.tracer.events() if e.wall}
        assert {"sim/warmup", "sim/measure", "sim/integrate_energy"} <= spans
    _assert_matches_snapshot(
        f"{policy}_{allocator}",
        actual,
        f"{policy}/{allocator} on the instrumented {engine} engine",
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_golden_retrain_mid_run(engine: str) -> None:
    """The drift->retrain->promote->swap case, pinned per engine.

    Beyond the traffic statistics this pins the promoted registry model
    ids (content digests of the refit weights + training key), so the
    online retraining arithmetic itself is under snapshot control.
    """
    actual = run_retrain_case(engine)
    assert actual["retrain_events"] >= 1, "the golden case must retrain"
    _assert_matches_snapshot(
        RETRAIN_CASE, actual, f"{RETRAIN_CASE} on the {engine} engine"
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_golden_retrain_mid_run_instrumented(engine: str) -> None:
    """Telemetry on: the retrain is traced and the snapshot holds."""
    with obs.session():
        actual = run_retrain_case(engine)
        instants = [e for e in OBS.tracer.events() if e.name == "ml_retrain"]
        retrains = OBS.registry.counter("ml/retrain_events").value
    assert actual["retrain_events"] >= 1, "the golden case must retrain"
    assert len(instants) == retrains == actual["retrain_events"]
    _assert_matches_snapshot(
        RETRAIN_CASE,
        actual,
        f"{RETRAIN_CASE} on the instrumented {engine} engine",
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_golden_collective_retrain(engine: str) -> None:
    """The collective-driven drift->retrain->promote case, per engine."""
    actual = run_collective_retrain_case(engine)
    assert actual["retrain_events"] >= 1, "the golden case must retrain"
    _assert_matches_snapshot(
        COLLECTIVE_RETRAIN_CASE,
        actual,
        f"{COLLECTIVE_RETRAIN_CASE} on the {engine} engine",
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_golden_collective_pam4(engine: str) -> None:
    """The PAM4 all-to-all case: multilevel signaling under snapshot."""
    _assert_matches_snapshot(
        COLLECTIVE_PAM4_CASE,
        run_collective_pam4_case(engine),
        f"{COLLECTIVE_PAM4_CASE} on the {engine} engine",
    )


@pytest.mark.parametrize("stem", list(CMESH_CASES))
def test_golden_cmesh(stem: str) -> None:
    """The CMESH baseline: stats, latencies and electrical energy."""
    _assert_matches_snapshot(stem, run_cmesh_case(stem), f"CMESH {stem}")
