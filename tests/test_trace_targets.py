"""The callables that ``perfbench/run.py --trace`` wraps all exist in the library."""

import importlib.util
from pathlib import Path

import pytest

import logconvex
import logconvex.acceptance  # noqa: F401 - binds logconvex.acceptance
import logconvex.cli  # noqa: F401 - binds logconvex.cli

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module,path", tracing.TARGETS, ids=[".".join(t) for t in tracing.TARGETS])
def test_target_resolves(module, path):
    mod = getattr(logconvex, module)
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(mod, cls_name))  # install wraps the class's own attribute
    else:
        assert callable(getattr(mod, path))


def test_every_layer_is_a_module_of_the_package():
    for layer in tracing.LAYERS:
        assert getattr(logconvex, layer).__name__ == f"logconvex.{layer}"
