"""What the benchmark (perfbench/) relies on in dcbf from outside.

Its tracer wraps dcbf functions by name (perfbench/tracer.py): every name it
lists must still resolve to a callable, or `perfbench/run.py --trace 1`
breaks, and a stage reaches its per-layer metrics only when the runners call
it through such a binding. The tracer file is read, not imported. Its
workloads count cycles through scenario.CycleRecord.
"""

import ast
import importlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from dcbf import scenario, timesync
from dcbf.core import MeshConfig, NodeState, substream
from dcbf.impairments import ChannelModel, NoiseSpec
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


# The receive chain's traced stages: channel, LO, noise and DC removal.
STAGES = tuple(
    f for f in _CONSTANTS["LAYER_FUNCTIONS"] if f.startswith("impairments.") or f == "estimation.remove_dc"
)


def _count_stage_calls(monkeypatch) -> Counter:
    """Wrap every dcbf binding of each traced stage, as the tracer does, in a
    wrapper that counts its calls."""
    calls = Counter()
    modules = [m for n, m in list(sys.modules.items()) if n == "dcbf" or n.startswith("dcbf.")]
    for qual in STAGES:
        module, name = qual.split(".")
        original = getattr(importlib.import_module(f"dcbf.{module}"), name)

        def counted(*args, _qual=qual, _original=original, **kwargs):
            calls[_qual] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize(
    "cfg, receivers, transmitters",
    [
        # the 3 mesh nodes hear the source and the interferer
        (ScenarioConfig(experiment="RX_BF_INTERF", n_cycles=1, interferer_power=1.0), 3, 2),
        # B and C hear the 3 mesh nodes
        (ScenarioConfig(experiment="TX_NULL", n_cycles=1), 2, 3),
    ],
    ids=["RX_BF_INTERF", "TX_NULL"],
)
def test_every_receive_stage_runs_through_its_traced_name(monkeypatch, cfg, receivers, transmitters):
    calls = _count_stage_calls(monkeypatch)
    scenario.run_scenario(cfg)
    assert calls == {
        "impairments.apply_channel": receivers * transmitters,
        "impairments.apply_node_imperfections": transmitters + receivers,
        "impairments.add_noise": receivers,
        "estimation.remove_dc": receivers,
    }


@pytest.mark.parametrize("power", [0.1, 0.0])
def test_sync_hops_run_through_the_traced_names(monkeypatch, power):
    # add_noise is called at zero power too: it draws nothing there itself
    calls = _count_stage_calls(monkeypatch)
    link = ChannelModel(taps=np.array([1.0 + 0j]), tof_delay=20)
    follower = NodeState(node_id="F", timestamp_offset_s=1.25e-3)
    rng = substream(0, "sync", "contract")
    res = timesync.run_sync_round(NodeState(node_id="L"), follower, link, link, NoiseSpec(power), rng)
    assert res.success
    assert calls == {"impairments.apply_channel": 2, "impairments.add_noise": 2}
