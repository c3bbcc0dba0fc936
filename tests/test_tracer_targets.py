"""The benchmark's tracer patches names in tkgqa modules; each must still exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.TARGETS


@pytest.mark.parametrize("target", _tracer_targets(), ids=lambda t: f"{t.module}.{t.attr}")
def test_traced_name_resolves(target):
    module_name, _, class_name = target.module.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    assert callable(getattr(owner, target.attr))
