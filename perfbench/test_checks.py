"""Each benchmark check accepts real nilcert output and rejects that output
corrupted in the one field the check guards.

Run with ``python3 -m pytest perfbench/test_checks.py``.  The fixtures
are outputs of the benchmark's own workloads: a ``certify`` report (seed
3), the plan of x^3 - 19x^2 + 9x - 1, a ``sweep-support`` ladder and a
``verify-matrix`` fragment.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

import checks
import run
import tracing

FIXTURES = Path(__file__).parent / "fixtures"
PLAN_MATRIX = [[0, 0, 1], [1, 0, -9], [0, 1, 19]]


def load(name: str):
    return json.loads((FIXTURES / name).read_text())


@pytest.fixture
def report() -> dict:
    return load("certify_report.json")


@pytest.fixture
def plan() -> dict:
    return load("plan_t19_s9.json")


@pytest.fixture
def ladder() -> list[list[float]]:
    lines = (FIXTURES / "support_sweep.csv").read_text().split()
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def test_fixtures_pass_every_check(report, plan, ladder):
    checks.check_certify_report(report, report["config"])
    checks.check_roots(run.DEFAULT_MATRIX, load("verify_matrix.json")["roots"])
    checks.check_plan(PLAN_MATRIX, plan, 0.05)
    checks.check_avoidance(PLAN_MATRIX, plan)
    checks.check_sweep(ladder, run.SWEEP_SUPPORTS)


def test_roots_reject_shifted_root():
    roots = load("verify_matrix.json")["roots"]
    roots[1] += 1e-6
    with pytest.raises(checks.CheckFailure, match="differ from numpy"):
        checks.check_roots(run.DEFAULT_MATRIX, roots)


def test_plan_rejects_changed_modulus(plan):
    plan["planned_moduli"][-1] *= 1.0 + 1e-7
    with pytest.raises(checks.CheckFailure, match="planned moduli differ"):
        checks.check_plan(PLAN_MATRIX, plan, 0.05)


def test_plan_rejects_wrong_surplus_target(plan):
    with pytest.raises(checks.CheckFailure, match="no planned modulus within 1e-8"):
        checks.check_plan(PLAN_MATRIX, plan, 0.06)


def test_avoidance_rejects_uncertified_result(plan):
    plan["plan"]["avoidance"][0]["certified"] = False
    with pytest.raises(checks.CheckFailure, match="not certified"):
        checks.check_avoidance(PLAN_MATRIX, plan)


def test_avoidance_rejects_modulus_inside_annulus(plan):
    # An annulus around the planned modulus 1 + s, reached at the end of the range.
    plan["annuli"][0] = [1.0, 1.1]
    with pytest.raises(checks.CheckFailure, match="inside annulus"):
        checks.check_avoidance(PLAN_MATRIX, plan)


@pytest.mark.parametrize("annulus", [0, 1])
def test_domination_rejects_changed_multiplier(report, annulus):
    stages = report["stages"]
    stages["certification"]["witness"]["multipliers"][annulus] *= 1.1
    with pytest.raises(checks.CheckFailure, match="recomputed margin"):
        checks.check_domination(report["config"]["matrix"], stages["planner"], stages["certification"])


def test_domination_rejects_margin_below_floor(report):
    stages = report["stages"]
    stages["certification"]["witness"]["margin_floor"] = 1.0
    with pytest.raises(checks.CheckFailure, match="below floor"):
        checks.check_domination(report["config"]["matrix"], stages["planner"], stages["certification"])


def test_robustness_rejects_failure(report):
    cert = report["stages"]["certification"]
    cert["robustness"]["failures"] = 1
    with pytest.raises(checks.CheckFailure, match="1 failures"):
        checks.check_robustness(cert, report["config"]["mc_trials"])


def test_undeformed_rates_reject_shifted_nu(report):
    rates = report["stages"]["rates"]
    rates["undeformed_oracle"]["nu_hat_measured"] += 2e-6
    with pytest.raises(checks.CheckFailure, match="nu_hat_measured"):
        checks.check_undeformed_rates(report["config"]["matrix"], rates)


def test_sweep_rejects_swapped_points(ladder):
    ladder[1][1], ladder[2][1] = ladder[2][1], ladder[1][1]
    with pytest.raises(checks.CheckFailure, match="not strictly decreasing"):
        checks.check_sweep(ladder, run.SWEEP_SUPPORTS)


def test_sweep_rejects_nonzero_control(ladder):
    ladder[-1][1] = 1e-300
    with pytest.raises(checks.CheckFailure, match="control"):
        checks.check_sweep(ladder, run.SWEEP_SUPPORTS)


def test_certify_report_rejects_failed_stage(report):
    bad = copy.deepcopy(report)
    bad["stages"]["rates"]["status"] = "fail"
    with pytest.raises(checks.CheckFailure, match="stage rates"):
        checks.check_certify_report(bad, bad["config"])


def test_benchmark_json_lists_every_metric():
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [
        *(name for name, _, _ in tracing.LAYER_METRICS),
        "process.cpu_s", "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
        "trace.host_slowdown",
    ]
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == ["certify", "plan", "sweep"]


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer()
    clock = iter(range(100))
    tracing.time.perf_counter, real = (lambda: float(next(clock))), tracing.time.perf_counter
    try:
        inner = tracer.wrap("inner", lambda: None, None)
        outer = tracer.wrap("outer", lambda: [inner(), inner()], None)
        outer()
    finally:
        tracing.time.perf_counter = real
    groups = tracer.summary()["groups"]
    # outer spans ticks 0..5; inner calls take ticks 1..2 and 3..4.
    assert groups["outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert groups["inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
