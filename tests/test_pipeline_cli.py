"""Tests for the pipeline configuration, report, and CLI contract."""

import json
from pathlib import Path

import pytest

from nilcert.pipeline_cli import (
    ConfigError,
    EXIT_CERTIFICATION_FAILURE,
    EXIT_INVALID_INPUT,
    EXIT_PASS,
    PipelineConfig,
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
    "extraction_steps": 70,
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
    assert report["schema_version"] == "1"
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
    echoed = pipeline_reports["reports"][0]["config"]
    rerun = run_pipeline(PipelineConfig.from_dict(echoed))
    rerun.pop("timestamp")
    original = dict(pipeline_reports["reports"][0])
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


@pytest.mark.parametrize(
    "extra",
    [
        {"annuli": [[1, 2]]},
        {"seed": -1},
        {"seed": 1.5},
        {"surplus": 1e308},
        {"surplus": float("inf")},
        {"matrix": [[2.5, -3, 1], [-3, 6, -2], [1, -2, 1]]},
    ],
    ids=["one-annulus", "negative-seed", "float-seed", "huge-surplus",
         "infinite-surplus", "float-matrix-entry"],
)
def test_invalid_config_values_exit_two(tmp_path, capsys, extra):
    # A surplus is checked against the certified top eigenvalue, so it is
    # rejected after the matrix stage ("invalid input"), not on loading.
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


def test_plan_command_prints_plan(capsys):
    assert main(["plan"]) == EXIT_PASS
    frag = json.loads(capsys.readouterr().out)
    assert frag["status"] == "pass"
    assert frag["plan"]["branch"] == "single_step"
    assert frag["expanding_eigenspace"]["dimension"] == 4


def test_plan_without_certificate_fails(tmp_path, capsys):
    # x^3 - 20x^2 + 9x - 1: every grid point clears the lower annulus, but
    # the Bauer-Fike bound still exceeds the margin after six doublings.
    cfg = _write_config(
        tmp_path, {"matrix": [[0, 0, 1], [1, 0, -9], [0, 1, 20]]}
    )
    assert main(["plan", "--config", cfg]) == EXIT_CERTIFICATION_FAILURE
    frag = json.loads(capsys.readouterr().out)
    assert frag["status"] == "fail"
    lower = frag["plan"]["avoidance"][0]
    assert lower["ok"] and not lower["certified"]
    assert "lower annulus" in frag["error"]
    bound = f"{lower['lip_bound']:.3e} >= margin {lower['margin']:.3e}"
    assert bound in frag["error"]


def test_report_command_pretty_prints(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out_dir = tmp_path / "out"
    main(["certify", "--config", cfg, "--out", str(out_dir)])
    capsys.readouterr()
    assert main(["report", "--out", str(out_dir)]) == EXIT_PASS
    stdout = capsys.readouterr().out
    assert "verdict: PASS" in stdout
    assert "schema 1" in stdout


def test_report_command_missing_file(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == EXIT_INVALID_INPUT


def test_seed_and_grid_flags_override_config(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    code = main(["plan", "--config", cfg, "--seed", "7", "--grid", "512"])
    capsys.readouterr()
    assert code == EXIT_PASS
