"""The benchmark's tracer wraps dcbf functions by name (perfbench/tracer.py).

Every name it lists must still resolve to a callable, or `perfbench/run.py
--trace 1` breaks. The tracer file is read, not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_constants() -> dict:
    tree = ast.parse(TRACER.read_text())
    return {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("LAYER_FUNCTIONS", "VALIDATION")
    }


_CONSTANTS = _tracer_constants()
TRACED = (*_CONSTANTS["LAYER_FUNCTIONS"], _CONSTANTS["VALIDATION"])


@pytest.mark.parametrize("path", TRACED)
def test_traced_name_resolves(path):
    module, *attrs = path.split(".")
    obj = importlib.import_module(f"dcbf.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj)
