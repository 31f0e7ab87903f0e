"""The names the benchmark tracer rebinds still exist in the library.

``perfbench/tracer.py`` wraps each ``(module, attribute, class)`` of its
``TARGETS`` for the traced run (``perfbench/run.py --trace 1``); a name
that a change removes or renames breaks that run, and so does a target
timed per ``"yield"`` that is no generator function.  The list is read
from the tracer itself, so it is checked as the benchmark uses it.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


TARGETS = tracer_targets()
PER_YIELD = {target[:3] for target in TARGETS if target[4] == "yield"}


@pytest.mark.parametrize(
    "module, attr, cls", [target[:3] for target in TARGETS],
    ids=lambda x: x if isinstance(x, str) else "-")
def test_tracer_target_resolves(module, attr, cls):
    owner = importlib.import_module(f"resamplekit.{module}")
    if cls is not None:
        owner = getattr(owner, cls)
    target = getattr(owner, attr)
    assert callable(target)
    if (module, attr, cls) in PER_YIELD:
        assert inspect.isgeneratorfunction(target)
