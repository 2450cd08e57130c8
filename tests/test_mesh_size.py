"""Coherent gain against mesh size N at zero phase error.

Receive beamforming adds N equal-SNR branches, a gain of N (10·log10 N dB);
transmit beamforming adds N equal amplitudes coherently at the receiver, a
gain of N² over one node (20·log10 N dB), the φ = 0 ceiling of
(N² − N)e^{−φ²} + N. The transmit frame holds N = 8 with 1,024-sample ambles
and payloads, which need eight distinct MLS polynomials of order 10.
"""

import numpy as np
import pytest

from dcbf.core import MeshConfig
from dcbf.scenario import ScenarioConfig, run_scenario

N_CYCLES = 10
TOLERANCE_DB = 0.5


def _lin_avg_db(vals):
    vals = [v for v in vals if np.isfinite(v)]
    assert vals, "no finite gain"
    return float(10 * np.log10(np.mean([10 ** (v / 10) for v in vals])))


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_receive_gain_is_n(n):
    recs = run_scenario(ScenarioConfig(experiment="RX_BF", n_cycles=N_CYCLES, seed=11, mesh=MeshConfig(n_nodes=n)))
    assert not any(r.flags for r in recs)
    assert abs(_lin_avg_db([r.gain_snr_db for r in recs]) - 10 * np.log10(n)) <= TOLERANCE_DB


@pytest.mark.parametrize("n", range(2, 9))
def test_transmit_gain_is_n_squared(n):
    mesh = MeshConfig(n_nodes=n, amble_len=1024, payload_len=1024)
    recs = run_scenario(ScenarioConfig(experiment="TX_BF", n_cycles=N_CYCLES, seed=13, mesh=mesh))
    steady = [r for r in recs if "warmup" not in r.flags]
    assert len(steady) == N_CYCLES - 1 and not any(r.flags for r in steady)
    assert abs(_lin_avg_db([r.gain_snr_db for r in steady]) - 20 * np.log10(n)) <= TOLERANCE_DB
