"""What the benchmark (perfbench/) relies on in dcbf from outside.

Its tracer wraps dcbf functions by name (perfbench/tracer.py): every name it
lists must still resolve to a callable, or `perfbench/run.py --trace 1`
breaks. The tracer file is read, not imported. Its workloads count cycles
through scenario.CycleRecord.
"""

import ast
import importlib
from pathlib import Path

import pytest

from dcbf import scenario
from dcbf.core import MeshConfig
from dcbf.scenario import ScenarioConfig

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


@pytest.mark.parametrize(
    "cfg",
    [
        ScenarioConfig(experiment="RX_BF", n_cycles=2),
        ScenarioConfig(experiment="TX_BF", n_cycles=2, mesh=MeshConfig(cycle_period_s=0.25)),
    ],
    ids=lambda cfg: cfg.experiment,
)
def test_every_cycle_builds_one_record_through_the_module_name(monkeypatch, cfg):
    # perfbench/workloads.py marks step boundaries (and stops its long runs) by
    # swapping scenario.CycleRecord; a record built through any other binding
    # would never reach that hook
    real = scenario.CycleRecord
    made = []

    def counting(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(scenario, "CycleRecord", counting)
    records = scenario.run_scenario(cfg)
    assert len(made) == cfg.n_cycles == len(records)
    assert all(a is b for a, b in zip(made, records))
