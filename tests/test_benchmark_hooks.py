"""Every function the benchmark tracer hooks must exist where it looks,
and a traced run must finish.

``perfbench/tracing.py`` wraps each ``TARGETS`` entry by name: a method
through ``vars(cls)[attr]``, a function through its module global.  A
rename or deletion in ``src/`` would otherwise surface only as a failed
``--trace 1`` benchmark run.  The targets are resolved here without
installing the tracer; one traced ``certify`` of the benchmark's reduced
config then runs the hooks on what the pipeline passes them.
"""

import dataclasses
import importlib
import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

from nilcert.spectral_planner import AvoidanceResult

_ROOT = Path(__file__).resolve().parents[1]
_BENCH = _ROOT / "perfbench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("_perfbench_tracing", _BENCH / "tracing.py")


@pytest.mark.parametrize(
    "module, path", [(module, path) for _, module, path, _ in tracing.TARGETS]
)
def test_tracer_target_resolves(module, path):
    owner = importlib.import_module(f"nilcert.{module}")
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    found = vars(owner).get(attr) if cls_path else getattr(owner, attr, None)
    assert found is not None, f"nilcert.{module}.{path} is gone"


def test_tracer_modules_import():
    for module in tracing.MODULES:
        importlib.import_module(f"nilcert.{module}")


def test_avoidance_fields_the_tracer_reads():
    # The annulus_avoidance hook reads these fields of its result.
    names = {f.name for f in dataclasses.fields(AvoidanceResult)}
    assert {"grid", "densifications"} <= names


def test_traced_certify_run_passes(tmp_path, monkeypatch):
    # run.py imports its sibling modules by their bare names, as perfbench's tests do.
    monkeypatch.syspath_prepend(str(_BENCH))
    run = importlib.import_module("run")
    op = run.Op("certify", run.CERTIFY_CONFIG, tmp_path / "certify")
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    done = subprocess.run(
        run.nilcert_argv(op, 1, trace), cwd=tmp_path, env=env, capture_output=True, timeout=120
    )
    assert done.returncode == 0, done.stderr.decode()
    assert json.loads((op.out / "report.json").read_text())["verdict"] == "PASS"
    run.check_output(op)
    metrics = tracing.layer_metrics([trace])
    assert set(metrics) == {name for name, _, _ in tracing.LAYER_METRICS}
