"""Transmit beamforming gain under per-cycle OTS jitter against the
phase-error bound.

With `ots_jitter_rad` = σ every mesh node draws a fresh N(0, σ²) phase
each cycle. The weights a TX cycle applies were estimated through the
previous cycle's draw, and the channel they meet carries this cycle's, so
each node is off by the difference of two independent draws, of variance
2σ². The expected linear gain is then power_gain_bound(N, 2σ²) =
(N² − N)e^{−2σ²} + N, not the bound at σ².

The same stale weights fill the null at C. Nulling weights w put
Σ aᵢ = 0 for aᵢ = wᵢhᵢ over the links h to C, and with independent phase
errors φᵢ of variance 2σ², E|Σ aᵢe^{jφᵢ}|² = Σ|aᵢ|²(1 − e^{−2σ²}). Over
unit-gain links and weights scaled to Σ|wᵢ|² = N, the expected linear gain
at C is N(1 − e^{−2σ²}).

Receive beamforming does not see the jitter: its MMSE weights come from the
same buffers they are applied to and absorb any per-cycle constant phase.
"""

import math

import numpy as np
import pytest

from dcbf import metrics
from dcbf.core import MeshConfig
from dcbf.scenario import ScenarioConfig, run_scenario

N_NODES = 3
N_CYCLES = 20  # 19 steady, after the first cycle's warm-up
SEEDS = range(4)

# Standard deviation over seeds of one seed's linear gain (the mean of its 19
# steady cycles), relative to the bound: measured on seeds 0-39 at the
# bundled TX mesh. The pooled mean of len(SEEDS) seeds may stray three
# standard deviations of such a mean. The tolerance stays below the gap to
# the bound at σ² (5.9% at 0.3 rad, 21% at 0.6 rad), so the test tells the
# 2σ² rule from the σ² one.
SEED_SPREAD = {0.3: 0.030, 0.6: 0.109}


def _steady_gains(experiment: str, sigma: float, column: str) -> list[float]:
    """The linear gains in column of every steady cycle of SEEDS' runs."""
    gains = []
    for seed in SEEDS:
        cfg = ScenarioConfig(
            experiment=experiment, n_cycles=N_CYCLES, seed=seed, mesh=MeshConfig(cycle_period_s=0.25),
            ots_jitter_rad=sigma,
        )
        steady = [r for r in run_scenario(cfg) if "warmup" not in r.flags]
        assert len(steady) == N_CYCLES - 1 and not any(r.flags for r in steady)
        gains += [10 ** (getattr(r, column) / 10) for r in steady]
    return gains


@pytest.mark.parametrize("sigma", sorted(SEED_SPREAD))
def test_tx_gain_follows_bound_at_twice_jitter_variance(sigma):
    gains = _steady_gains("TX_BF", sigma, "gain_snr_db")
    bound = metrics.power_gain_bound(N_NODES, 2 * sigma**2)
    tolerance = 3 * SEED_SPREAD[sigma] / math.sqrt(len(SEEDS))
    assert abs(np.mean(gains) / bound - 1) <= tolerance
    assert np.mean(gains) < metrics.power_gain_bound(N_NODES, sigma**2) * (1 - tolerance)


# The same for the linear gain at C, relative to N(1 − e^{−2σ²}), measured on
# seeds 0-39 with unit-gain random-phase links. One cycle's gain at C is the
# power of a sum that cancels without jitter, so it spreads about as widely
# as its mean, and one seed's mean strays far more than at B. The pooled mean
# of len(SEEDS) seeds read 1.049 and 1.045 of the expected gain (−12.05 and
# +2.07 dB against −12.26 and +1.87 dB), and 1.039 and 1.036 over all 40
# seeds. The σ² rule, N(1 − e^{−σ²}), lies 3.2 and 2.5 dB below those 4-seed
# means, 0.50 and 0.59 of the expected gain.
NULL_SEED_SPREAD = {0.1: 0.313, 0.6: 0.283}


@pytest.mark.parametrize("sigma", sorted(NULL_SEED_SPREAD))
def test_null_depth_follows_twice_jitter_variance(sigma):
    gains = _steady_gains("TX_NULL", sigma, "gain_c_db")
    expected = N_NODES * (1 - math.exp(-2 * sigma**2))
    tolerance = 3 * NULL_SEED_SPREAD[sigma] / math.sqrt(len(SEEDS))
    assert abs(np.mean(gains) / expected - 1) <= tolerance


def test_rx_gain_does_not_see_jitter():
    # the same seed at σ = 0 and 0.6 rad: only the rotation of each node's
    # signal against the same noise differs, 0.04 dB per cycle at most here,
    # where rx_snr_gain_bound(3, σ²) would put the gain 0.98 dB lower
    def run(sigma):
        return run_scenario(ScenarioConfig(experiment="RX_BF", n_cycles=3, seed=5, ots_jitter_rad=sigma))

    for still, jittered in zip(run(0.0), run(0.6)):
        assert abs(jittered.gain_snr_db - still.gain_snr_db) <= 0.1
        assert abs(jittered.sinr_improvement_db - still.sinr_improvement_db) <= 0.1
