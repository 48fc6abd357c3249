"""Tests for the pipeline configuration, report, and CLI contract."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nilcert
from nilcert import cone_certifier
from nilcert.pipeline_cli import (
    ConfigError,
    EXIT_BROKEN_PIPE,
    EXIT_CERTIFICATION_FAILURE,
    EXIT_INVALID_INPUT,
    EXIT_PASS,
    PipelineConfig,
    build_construction,
    main,
    run_pipeline,
)

GOLDEN = Path(__file__).parent / "data" / "golden_report.json"

# A reduced-cost configuration for file-level CLI tests; certification
# content is exercised at full scale by the default-config fixtures.
LIGHT = {
    "sample_count": 96,
    "mc_trials": 100,
    "theta_grid": 256,
    "robustness_grid": 128,
    "probe_count": 8,
    "sweep_supports": [0.05, 6.25e-3, 7.8125e-4],
}


def _write_config(tmp_path, extra=None, name="config.json"):
    data = dict(LIGHT)
    if extra:
        data.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# -- configuration ----------------------------------------------------------


def test_default_config_is_valid_and_echo_round_trips():
    config = PipelineConfig()
    echo = config.echo_dict()
    again = PipelineConfig.from_dict(echo)
    assert again == config.replace(out_dir=".")
    assert echo["matrix"] == [[2, -3, 1], [-3, 6, -2], [1, -2, 1]]


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"bogus": 1})
    with pytest.raises(ConfigError):
        PipelineConfig(theta_grid=10)
    with pytest.raises(ConfigError):
        PipelineConfig(margin_floor=0.0)
    with pytest.raises(ConfigError):
        PipelineConfig(support_eps=-0.05)
    with pytest.raises(ConfigError):
        PipelineConfig(sweep_supports=())
    with pytest.raises(ConfigError):
        PipelineConfig(annuli=((0.5, 0.4), (2.0, 4.0)))


def test_config_file_errors_are_config_errors(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(ConfigError):
        PipelineConfig.from_file(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(ConfigError):
        PipelineConfig.from_file(bad)
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        PipelineConfig.from_file(array)


# -- report/verdict behaviour -------------------------------------------------


def test_default_pipeline_passes_every_stage(pipeline_reports):
    report = pipeline_reports["reports"][0]
    assert report["verdict"] == "PASS"
    assert report["failures"] == []
    for name in (
        "matrix",
        "nilmanifold",
        "planner",
        "deformation",
        "certification",
        "rates",
        "sweep",
    ):
        assert report["stages"][name]["status"] == "pass", name
    assert report["schema_version"] == "5"
    assert report["tool"]["name"] == "nilcert"
    assert report["erratum_notes"]


def test_reports_are_deterministic_modulo_timestamp(pipeline_reports):
    norm_a, norm_b = pipeline_reports["normalized"]
    assert norm_a == norm_b
    raw_a, raw_b = pipeline_reports["serialized"]
    diff = [
        (la, lb)
        for la, lb in zip(raw_a.splitlines(), raw_b.splitlines())
        if la != lb
    ]
    assert len(diff) <= 1
    for la, lb in diff:
        assert '"timestamp"' in la and '"timestamp"' in lb


def test_report_matches_committed_golden_file(pipeline_reports):
    report = dict(pipeline_reports["reports"][0])
    golden = json.loads(GOLDEN.read_text())
    report.pop("timestamp")
    golden.pop("timestamp")
    assert report == golden


def test_echoed_config_reruns_identically(pipeline_reports):
    # The fixture's second run is configured from the first one's echo.
    original, rerun = (dict(r) for r in pipeline_reports["reports"])
    assert PipelineConfig.from_dict(original["config"]) == PipelineConfig()
    rerun.pop("timestamp")
    original.pop("timestamp")
    assert rerun == original


# -- CLI commands and exit codes ----------------------------------------------


def test_verify_matrix_default_passes(capsys):
    assert main(["verify-matrix"]) == EXIT_PASS
    out = capsys.readouterr().out
    frag = json.loads(out)
    assert frag["status"] == "pass"
    assert frag["char_poly_coeffs"] == [-1, 6, -9, 1]


def test_verify_matrix_identity_fails_reducible(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    )
    assert main(["verify-matrix", "--config", cfg]) == EXIT_INVALID_INPUT
    frag = json.loads(capsys.readouterr().out)
    assert frag["status"] == "fail"
    assert not frag["irreducible_over_rationals"]


def test_verify_matrix_permutation_fails(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, {"matrix": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]}
    )
    assert main(["verify-matrix", "--config", cfg]) == EXIT_INVALID_INPUT
    frag = json.loads(capsys.readouterr().out)
    assert frag["status"] == "fail"


def test_certify_writes_report_and_curves(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out_dir = tmp_path / "out"
    code = main(["certify", "--config", cfg, "--out", str(out_dir)])
    stdout = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "verdict: PASS" in stdout
    report = json.loads((out_dir / "report.json").read_text())
    assert report["verdict"] == "PASS"
    # Echoed config is normalized for location-independence.
    assert report["config"]["out_dir"] == "."
    for name in ("margin_vs_n.csv", "support_sweep.csv", "psi_profile.csv"):
        path = out_dir / "curves" / name
        assert path.exists(), name
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert len(header) >= 2
        for line in lines[1:]:
            for cell in line.split(","):
                float(cell)  # comma-separated, '.' decimal


def test_certify_rejects_annulus_containing_eigenvalue(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {"annuli": [[0.40, 0.45], [2.0908652701627473, 4.163540550450228]]},
    )
    out_dir = tmp_path / "out"
    code = main(["certify", "--config", cfg, "--out", str(out_dir)])
    stdout = capsys.readouterr().out
    assert code == EXIT_CERTIFICATION_FAILURE
    assert "planner: fail" in stdout
    report = json.loads((out_dir / "report.json").read_text())
    assert report["verdict"] == "FAIL"
    assert "planner" in report["failures"]


def test_certify_reports_domination_exhaustion(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"n_max": 1})
    out_dir = tmp_path / "out"
    code = main(["certify", "--config", cfg, "--out", str(out_dir)])
    capsys.readouterr()
    assert code == EXIT_CERTIFICATION_FAILURE
    report = json.loads((out_dir / "report.json").read_text())
    assert "certification" in report["failures"]
    frag = report["stages"]["certification"]
    assert frag["status"] == "fail"
    assert "n_max=1" in frag["error"]
    assert frag["margin_history"]  # the attempted exponent is recorded


def test_certify_invalid_matrix_exits_two(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    )
    code = main(["certify", "--config", cfg, "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert code == EXIT_INVALID_INPUT


def test_invalid_config_exits_two(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"theta_grid": 10})
    code = main(["certify", "--config", cfg])
    assert code == EXIT_INVALID_INPUT
    assert "invalid config" in capsys.readouterr().err


def test_removed_extraction_depth_key_exits_two(tmp_path, capsys):
    # The extraction depth is measured, not configured.
    cfg = _write_config(tmp_path, {"extraction_steps": 80})
    code = main(["certify", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_INVALID_INPUT
    assert "unknown config keys: ['extraction_steps']" in capsys.readouterr().err


def test_unconverged_extraction_fails_its_stage(tmp_path, capsys, monkeypatch):
    extract = cone_certifier.extract_splitting

    def single_round(*args, **kwargs):
        return extract(*args, **kwargs, k_start=15, k_max=15)

    monkeypatch.setattr(cone_certifier, "extract_splitting", single_round)
    cfg = _write_config(tmp_path)
    out_dir = tmp_path / "out"
    code = main(["certify", "--config", cfg, "--out", str(out_dir)])
    capsys.readouterr()
    assert code == EXIT_CERTIFICATION_FAILURE

    def strict(name):
        raise ValueError(f"{name} is not strict JSON")

    report = json.loads((out_dir / "report.json").read_text(), parse_constant=strict)
    assert report["verdict"] == "FAIL"
    assert report["failures"] == ["rates", "sweep"]
    rates, sweep = report["stages"]["rates"], report["stages"]["sweep"]
    unconverged = {"steps_used": 15, "gap": None, "converged": False}
    for ext in (rates["extraction"], rates["undeformed_oracle"]["extraction"], sweep["extraction"]):
        assert ext == unconverged
    # The frames still give passing rates and ladder; only convergence fails.
    for frag, names in ((rates, ("deformed", "undeformed")), (sweep, ("stacked",))):
        assert frag["status"] == "fail"
        assert frag["error"] == "; ".join(
            f"{name} extraction did not converge in 15 steps: gap inf" for name in names
        )
    assert main(["report", "--out", str(out_dir)]) == EXIT_PASS
    assert "    extraction: 15 steps, gap none, converged False" in capsys.readouterr().out


@pytest.mark.parametrize(
    "extra",
    [
        {"annuli": [[1, 2]]},
        {"seed": -1},
        {"seed": 1.5},
        {"surplus": 1e308},
        {"surplus": float("inf")},
        {"surplus": 1e-300},
        {"annuli": [[0.3, 0.35], [0.36, 0.4]]},
        {"matrix": [[2.5, -3, 1], [-3, 6, -2], [1, -2, 1]]},
    ],
    ids=["one-annulus", "negative-seed", "float-seed", "huge-surplus",
         "infinite-surplus", "surplus-below-rounding", "annuli-below-one",
         "float-matrix-entry"],
)
def test_invalid_config_values_exit_two(tmp_path, capsys, extra):
    # A huge surplus is checked against the certified top eigenvalue, so
    # it is rejected after the matrix stage ("invalid input"), not on
    # loading.
    cfg = _write_config(tmp_path, extra)
    code = main(["certify", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_INVALID_INPUT
    assert "invalid" in capsys.readouterr().err


def test_sweep_support_command(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out_dir = tmp_path / "out"
    code = main(["sweep-support", "--config", cfg, "--out", str(out_dir)])
    stdout = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "strictly decreasing: True" in stdout
    csv_lines = (
        (out_dir / "curves" / "support_sweep.csv").read_text().splitlines()
    )
    assert csv_lines[0] == "support_scale,deviation"
    rows = [tuple(map(float, l.split(","))) for l in csv_lines[1:]]
    # Ladder rows descend; the final control row is exactly zero.
    deviations = [r[1] for r in rows[:-1]]
    assert deviations == sorted(deviations, reverse=True)
    assert rows[-1] == (0.0, 0.0)


def test_sweep_support_warns_when_probes_touch_support(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, {"probe_radius": 0.01, "sweep_supports": [0.05]}
    )
    code = main(["sweep-support", "--config", cfg, "--out", str(tmp_path / "o")])
    stdout = capsys.readouterr().out
    assert "warning:" in stdout
    assert "intersects the support ball" in stdout
    assert code in (EXIT_PASS, EXIT_CERTIFICATION_FAILURE)


def _certify_planner_failure(tmp_path, extra):
    """The report of a certify run that the planner stage ends."""
    cfg = _write_config(tmp_path, extra)
    out_dir = tmp_path / "out"
    code = main(["certify", "--config", cfg, "--out", str(out_dir)])
    assert code == EXIT_CERTIFICATION_FAILURE
    report = json.loads((out_dir / "report.json").read_text())
    assert report["verdict"] == "FAIL"
    assert report["failures"] == ["planner"]
    assert list(report["stages"]) == ["matrix", "nilmanifold", "planner"]
    assert "plan" not in report["stages"]["planner"]
    return report


def test_rejected_plan_ends_the_report(tmp_path, capsys):
    # These annuli put a center modulus on either side of one.  One step
    # would have to plan a modulus of exactly one, so the planner raises
    # and no later stage runs.
    report = _certify_planner_failure(
        tmp_path, {"surplus": 0.29, "annuli": [[0.087, 0.179], [40.8, 41.7]]}
    )
    capsys.readouterr()
    assert report["stages"]["planner"]["error"] == (
        "planning failed: the center straddles one: moduli 0.426022 and "
        "8.29086; one step plans only a center below one"
    )


def test_surplus_beyond_one_step_ends_the_report(tmp_path, capsys):
    # l2 l3^2 / 4 = 7.32 no longer exceeds l3 = 8.29, so the spectrum
    # would need more than one rotation.
    report = _certify_planner_failure(tmp_path, {"surplus": 3.0})
    capsys.readouterr()
    assert report["stages"]["planner"]["error"] == (
        "planning failed: one step cannot plan the spectrum: c u/(1 + s) = "
        "7.32101 does not exceed max(rest, 1 + s) = 8.29086"
    )


PLAN_FAMILY = Path(__file__).parent / "data" / "plan_family.json"


def test_plan_family_fragments_are_pinned():
    # The planner fragments of the benchmark's four companion matrices
    # and of (20, 9), recorded beside the golden report.
    for entry in json.loads(PLAN_FAMILY.read_text()):
        stages, con = build_construction(
            PipelineConfig(matrix=tuple(map(tuple, entry["matrix"])))
        )
        assert con is not None
        assert json.loads(json.dumps(stages["planner"])) == entry["planner"]


def test_plan_command_prints_plan(capsys):
    assert main(["plan"]) == EXIT_PASS
    frag = json.loads(capsys.readouterr().out)
    assert frag["status"] == "pass"
    assert frag["plan"]["branch"] == "single_step"
    assert frag["expanding_eigenspace"]["dimension"] == 4


def test_plan_certifies_the_20_9_lower_annulus(tmp_path, capsys):
    # x^3 - 20x^2 + 9x - 1: the lower annulus is avoided with margin 0.0212,
    # set by a fixed modulus, which the closed form certifies exactly.
    cfg = _write_config(
        tmp_path, {"matrix": [[0, 0, 1], [1, 0, -9], [0, 1, 20]]}
    )
    assert main(["plan", "--config", cfg]) == EXIT_PASS
    frag = json.loads(capsys.readouterr().out)
    assert frag["status"] == "pass"
    lower = frag["plan"]["avoidance"][0]
    assert lower["ok"] and lower["certified"]
    assert lower["margin"] == pytest.approx(0.02118936875, rel=1e-9)


def test_plan_without_certificate_fails(tmp_path, capsys):
    # The lower annulus starts one ulp above the stable modulus 0.2831 of
    # the default matrix: clear in floating point, but not beyond rounding.
    alpha = math.nextafter(0.28311858285794855, 1.0)
    annuli = [[alpha, 0.37177271152453256], [2.0908652701627473, 4.163540550450228]]
    cfg = _write_config(tmp_path, {"annuli": annuli})
    assert main(["plan", "--config", cfg]) == EXIT_CERTIFICATION_FAILURE
    frag = json.loads(capsys.readouterr().out)
    assert frag["status"] == "fail"
    lower = frag["plan"]["avoidance"][0]
    assert lower["ok"] and not lower["certified"]
    assert 0 < lower["margin"] <= lower["error_bound"]
    assert f"lower annulus [{alpha:.6g}, 0.371773]" in frag["error"]
    bound = f"error bound {lower['error_bound']:.3e} >= margin {lower['margin']:.3e}"
    assert bound in frag["error"]


def test_report_command_pretty_prints(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out_dir = tmp_path / "out"
    main(["certify", "--config", cfg, "--out", str(out_dir)])
    capsys.readouterr()
    assert main(["report", "--out", str(out_dir)]) == EXIT_PASS
    stdout = capsys.readouterr().out
    assert "verdict: PASS" in stdout
    assert "schema 5" in stdout
    assert "multiplier cap 8, reached per annulus: [False, False]" in stdout
    assert "Monte Carlo: 0 failures in 100 trials, 0 Cholesky fallbacks" in stdout


def test_report_command_prints_rates_and_sweep_diagnostics(tmp_path, capsys):
    (tmp_path / "report.json").write_text(GOLDEN.read_text())
    assert main(["report", "--out", str(tmp_path)]) == EXIT_PASS
    lines = capsys.readouterr().out.splitlines()
    rates = lines.index("  rates: pass")
    assert lines[rates + 1 : rates + 3] == [
        "    bunching margin 0.302237 (nu 0.283119, nu_hat 0.120631)",
        "    extraction: 30 steps, gap 2.195e-14, converged True",
    ]
    sweep = lines.index("  sweep: pass")
    assert lines[sweep + 1 : sweep + 9] == [
        "    support_scale 5.000000e-02 -> deviation 6.430315e-04",
        "    support_scale 6.250000e-03 -> deviation 7.144333e-05",
        "    support_scale 7.812500e-04 -> deviation 7.477899e-08",
        "    support_scale 9.765625e-05 -> deviation 5.826197e-11",
        "    support_scale 1.220703e-05 -> deviation 4.516434e-14",
        "    support_scale 0.000000e+00 -> deviation 0.000000e+00",
        "    strictly decreasing: True",
        "    extraction: 30 steps, gap 7.306e-16, converged True",
    ]


def test_report_command_missing_file(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == EXIT_INVALID_INPUT


_NULL_GAP = {"stages": {"rates": {"status": "fail", "extraction": {
    "steps_used": 15, "gap": None, "converged": False}}}}


@pytest.mark.parametrize(
    "text, code, line",
    [
        ("[]", EXIT_INVALID_INPUT, "not a nilcert report: the top level is not an object"),
        ('{"stages": []}', EXIT_INVALID_INPUT, "not a nilcert report: 'stages' is not an object"),
        (json.dumps(_NULL_GAP), EXIT_PASS, "    extraction: 15 steps, gap none, converged False"),
        (json.dumps(_NULL_GAP).replace("null", '"0"'), EXIT_INVALID_INPUT,
         "not a nilcert report: 'gap' is not a number"),
        ("[" * 5000 + "]" * 5000, EXIT_INVALID_INPUT, "nested too deeply to read"),
    ],
    ids=["array", "stages-array", "null-gap", "string-gap", "deep-nesting"],
)
def test_report_command_rejects_json_that_is_not_a_report(tmp_path, capsys, text, code, line):
    (tmp_path / "report.json").write_text(text)
    assert main(["report", "--out", str(tmp_path)]) == code
    captured = capsys.readouterr()
    assert line in (captured.out if code == EXIT_PASS else captured.err)


_REPORT_KEYS = st.sampled_from([
    "schema_version", "tool", "name", "version", "stages", "status", "error",
    "certification", "witness", "lambda_cap", "lambda_at_cap", "robustness",
    "failures", "trials", "fallbacks", "rates", "bunching", "margin", "nu",
    "nu_hat", "sweep", "points", "support_scale", "deviation",
    "strictly_decreasing", "extraction", "steps_used", "gap", "converged",
])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_REPORT_KEYS | st.text(max_size=2), inner, max_size=5),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(report=_JSON)
def test_report_command_never_exits_internal_error(report):
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "report.json").write_text(json.dumps(report))
        code = main(["report", "--out", tmp])
    assert code in (EXIT_PASS, EXIT_INVALID_INPUT)


def test_seed_and_grid_flags_override_config(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    code = main(["plan", "--config", cfg, "--seed", "7", "--grid", "512"])
    capsys.readouterr()
    assert code == EXIT_PASS


def test_closed_stdout_exits_without_traceback():
    # The read end of stdout's pipe is closed before the command starts,
    # as when ``nilcert verify-matrix | true`` has already finished.
    env = dict(os.environ)
    src = str(Path(nilcert.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nilcert.pipeline_cli", "verify-matrix"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_BROKEN_PIPE
    assert proc.stderr == b""


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**4), 10**4),
    st.floats(),
    st.text(max_size=3),
)
_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=3),
    st.lists(st.lists(_SCALARS, max_size=3), max_size=3),
)
_CONFIGS = st.fixed_dictionaries(
    {},
    optional={
        **{f.name: _VALUES for f in dataclasses.fields(PipelineConfig)},
        "matrix": st.one_of(
            st.lists(
                st.lists(st.integers(-20, 20), min_size=3, max_size=3),
                min_size=3,
                max_size=3,
            ),
            _VALUES,
        ),
        "unknown_key": _VALUES,
    },
)


@given(data=_CONFIGS)
def test_verify_matrix_fuzzed_configs_never_exit_internal_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(data))
        code = main(["verify-matrix", "--config", str(path)])
    assert code in (EXIT_PASS, EXIT_INVALID_INPUT, EXIT_CERTIFICATION_FAILURE)


def _companion(t: int, s: int) -> list[list[int]]:
    """Companion matrix of x^3 - t x^2 + s x - 1."""
    return [[0, 0, 1], [1, 0, -s], [0, 1, t]]


def _pair(lo: float, hi: float):
    return st.lists(st.floats(lo, hi), min_size=2, max_size=2).map(sorted)


_PLAN_CONFIGS = st.fixed_dictionaries(
    {},
    optional={
        # Every companion with t, s in [-25, 25] that passes the matrix
        # stage has t in [9, 25] and s in [6, 11].
        "matrix": st.builds(_companion, st.integers(9, 25), st.integers(6, 11)),
        "surplus": st.one_of(st.floats(0.0, 10.0), st.floats()),
        "annuli": st.one_of(
            st.none(), st.tuples(_pair(0.01, 1.5), _pair(0.5, 60.0))
        ),
    },
)


@example(data={"annuli": [[0.3, 0.35], [0.36, 0.4]]})
@example(data={"surplus": 1e-300})
@settings(max_examples=100, deadline=None)
@given(data=_PLAN_CONFIGS)
def test_plan_fuzzed_configs_never_exit_internal_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(data))
        code = main(["plan", "--config", str(path)])
    assert code in (EXIT_PASS, EXIT_INVALID_INPUT, EXIT_CERTIFICATION_FAILURE)


# Negative, small, boundary (the grid's floor is 100) and very large flags.
_FLAG_INTS = st.one_of(
    st.integers(-(10**6), -1),
    st.integers(0, 200),
    st.sampled_from([99, 100]),
    st.integers(10**9, 10**40),
)


@example(command="plan", seed=0, grid=99)
@example(command="plan", seed=10**40, grid=10**40)
@example(command="verify-matrix", seed=-1, grid=100)
@settings(deadline=None)
@given(command=st.sampled_from(["verify-matrix", "plan"]), seed=_FLAG_INTS, grid=_FLAG_INTS)
def test_fuzzed_seed_and_grid_flags_never_exit_internal_error(command, seed, grid):
    with tempfile.TemporaryDirectory() as tmp:
        code = main([command, "--seed", str(seed), "--grid", str(grid), "--out", tmp])
    assert code in (EXIT_PASS, EXIT_INVALID_INPUT, EXIT_CERTIFICATION_FAILURE)


# The benchmark's reduced certify config.
_REDUCED = {"theta_grid": 128, "robustness_grid": 100, "mc_trials": 50}


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sample_count=st.integers(1, 64),
    probe_count=st.integers(1, 12),
)
def test_fuzzed_reduced_certify_passes_with_converged_extractions(seed, sample_count, probe_count):
    config = PipelineConfig(
        **_REDUCED, seed=seed, sample_count=sample_count, probe_count=probe_count
    )
    report = run_pipeline(config)
    assert report["verdict"] == "PASS", report["failures"]
    rates, sweep = report["stages"]["rates"], report["stages"]["sweep"]
    for ext in (rates["extraction"], rates["undeformed_oracle"]["extraction"], sweep["extraction"]):
        assert ext["converged"] and ext["gap"] < 1e-12
