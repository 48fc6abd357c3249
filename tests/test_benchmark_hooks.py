"""Every function the benchmark tracer hooks must exist where it looks.

``perfbench/tracing.py`` wraps each ``TARGETS`` entry by name: a method
through ``vars(cls)[attr]``, a function through its module global.  A
rename or deletion in ``src/`` would otherwise surface only as a failed
``--trace 1`` benchmark run.  The targets are resolved here without
installing the tracer.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from nilcert.spectral_planner import AvoidanceResult

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


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
