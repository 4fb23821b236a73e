"""Every callable the benchmark's traced run wraps still exists under its name.

``bench/tracer.py`` looks each target up with ``owner.__dict__[attr]``; a
name deleted or moved out of its owner fails here instead of in the
traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize(
    "module, path",
    [(module, path) for module, paths in tracer.TARGETS.items() for path in paths],
    ids=lambda x: x,
)
def test_traced_target_resolves(module, path):
    owner = importlib.import_module(f"realdim.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in owner.__dict__
