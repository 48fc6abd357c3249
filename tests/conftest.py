"""Shared fixtures: certified spectral data, the planned deformation,
and the acceptance-summary reporter."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from nilcert import (
    AutomorphismSpec,
    DeformedMap,
    EigenData,
    IntegerMatrixSpec,
    LatticeSpec,
    LocalRotationMap,
    RotationPlane,
    make_profile,
    plan_center_collapse,
)
from nilcert.spectral_planner import AnnulusSpec, LabeledSpectrum
from nilcert.pipeline_cli import PipelineConfig, run_pipeline

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def eigendata() -> EigenData:
    return EigenData.from_matrix(
        IntegerMatrixSpec.from_rows([[2, -3, 1], [-3, 6, -2], [1, -2, 1]])
    )


@pytest.fixture(scope="session")
def auto(eigendata) -> AutomorphismSpec:
    return AutomorphismSpec.from_eigendata(eigendata)


@pytest.fixture(scope="session")
def lattice(eigendata) -> LatticeSpec:
    return LatticeSpec.from_eigendata(eigendata)


@pytest.fixture(scope="session")
def annuli(eigendata) -> tuple[AnnulusSpec, AnnulusSpec]:
    l1, l2, l3 = eigendata.values
    s = 0.05
    g1 = (l2 / l1) ** (1.0 / 3.0)
    g2 = (l3 / (1.0 + s)) ** (1.0 / 3.0)
    return (AnnulusSpec(l1 * g1, l2 / g1), AnnulusSpec((1.0 + s) * g2, l3 / g2))


@pytest.fixture(scope="session")
def labeled(auto, annuli) -> LabeledSpectrum:
    return LabeledSpectrum.from_diagonal(auto.diag, annuli[0], annuli[1])


@pytest.fixture(scope="session")
def plan(labeled, annuli):
    return plan_center_collapse(labeled, s=0.05, annuli=annuli, grid=1024)


@pytest.fixture(scope="session")
def collapse_angle(plan) -> float:
    return plan.steps[-1].angle


@pytest.fixture(scope="session")
def plane_axes(plan) -> tuple[int, int]:
    return plan.steps[-1].axes


@pytest.fixture(scope="session")
def rotation_plane() -> RotationPlane:
    return RotationPlane(3, 8)


@pytest.fixture(scope="session")
def profile(collapse_angle):
    return make_profile(collapse_angle, 0.05)


@pytest.fixture(scope="session")
def deformed(auto, lattice, profile, rotation_plane) -> DeformedMap:
    return DeformedMap(
        auto=auto,
        rotation=LocalRotationMap(profile=profile, plane=rotation_plane),
        lattice=lattice,
        chart_radius=0.3,
    )


def _strip_timestamp(report: dict) -> dict:
    out = dict(report)
    out.pop("timestamp", None)
    return out


def _serialize(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="session")
def pipeline_reports():
    """Two independent default-config pipeline runs, as dicts and bytes.

    The second run takes its config from the first report's echo, so the
    pair also shows that the echoed config re-runs to the same report.
    """
    config = PipelineConfig()
    first = run_pipeline(config)
    echoed = PipelineConfig.from_dict(first["config"])
    assert echoed == config
    second = run_pipeline(echoed)
    return {
        "config": config,
        "reports": (first, second),
        "serialized": (_serialize(first), _serialize(second)),
        "normalized": (
            _serialize(_strip_timestamp(first)),
            _serialize(_strip_timestamp(second)),
        ),
    }


# ---------------------------------------------------------------------------
# Acceptance-summary reporting
# ---------------------------------------------------------------------------

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def criterion_reporter():
    """Record one pass/fail line per acceptance criterion for the summary."""

    def record(number: int, ok: bool, detail: str) -> None:
        state = "PASS" if ok else "FAIL"
        _ACCEPTANCE_LINES.append(f"acceptance {number}: {state} — {detail}")

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def rng_factory():
    def make(seed: int) -> np.random.Generator:
        return np.random.default_rng(seed)

    return make
