"""Tests for power estimators, link metric ratios, and performance bounds."""

import numpy as np
import pytest

from dcbf import metrics
from dcbf.cli import load_config
from dcbf.core import Segment, substream
from dcbf.metrics import (
    DB_FLOOR,
    inr_reduction_bound,
    link_metrics,
    null_gain_expected,
    power_gain_bound,
    rx_snr_gain_bound,
    segment_power,
    snr_gain,
    to_db,
)
from dcbf.scenario import run_scenario


class TestSegmentPower:
    def test_all_ones(self):
        x = np.ones(200, dtype=complex)
        assert segment_power(x, Segment("a", 50, 100)) == 1.0

    def test_zero_segment(self):
        x = np.concatenate([np.ones(10), np.zeros(10)]).astype(complex)
        assert segment_power(x, Segment("z", 10, 10)) == 0.0

    def test_noise_power_monte_carlo(self):
        rng = substream(0, "t", "p")
        sigma2 = 0.7
        x = np.sqrt(sigma2 / 2) * (rng.normal(size=100_000) + 1j * rng.normal(size=100_000))
        assert segment_power(x, Segment("n", 0, 100_000)) == pytest.approx(sigma2, rel=0.02)

    def test_out_of_bounds(self):
        x = np.ones(10, dtype=complex)
        with pytest.raises(ValueError, match="outside"):
            segment_power(x, Segment("a", 5, 10))


class TestLinkMetrics:
    def test_no_interference_case(self):
        lm = link_metrics(11.0, 1.0, 1.0)
        assert lm.snr_db == pytest.approx(10.0)
        assert lm.inr_db == DB_FLOOR  # zero interference clamps
        assert lm.sinr_db == pytest.approx(10.0)

    def test_equal_interference_case(self):
        lm = link_metrics(21.0, 11.0, 1.0)
        assert lm.snr_db == pytest.approx(10.0)
        assert lm.inr_db == pytest.approx(10.0)
        assert lm.sinr_db == pytest.approx(10 * np.log10(10 / 11))  # ~ -0.414 dB

    def test_absent_signal_clamps(self):
        lm = link_metrics(5.0, 5.0, 1.0)
        assert lm.snr_db == DB_FLOOR
        assert lm.sinr_db == DB_FLOOR

    def test_sinr_identity_before_clamp(self):
        # SINR = SNR * P_N / P_in in linear, to 1e-12
        p_sin, p_in, p_n = 8.5, 2.25, 0.5
        lm = link_metrics(p_sin, p_in, p_n)
        snr_lin = 10 ** (lm.snr_db / 10)
        sinr_lin = 10 ** (lm.sinr_db / 10)
        assert sinr_lin == pytest.approx(snr_lin * p_n / p_in, abs=1e-12)

    def test_linear_ratios_keep_their_sign(self):
        lm = link_metrics(4.0, 5.0, 2.0)
        assert (lm.snr, lm.inr, lm.sinr) == (-0.5, 1.5, -0.2)
        assert lm.snr_db == lm.sinr_db == DB_FLOOR
        assert lm.inr_db == pytest.approx(10 * np.log10(1.5))

    def test_zero_noise_rejected(self):
        with pytest.raises(ValueError):
            link_metrics(1.0, 1.0, 0.0)


class TestSnrGain:
    def test_three_x_is_4_77_db(self):
        assert snr_gain(3.0, [1.0, 1.0, 1.0]) == pytest.approx(4.771, abs=0.001)

    def test_nine_x_is_9_54_db(self):
        assert snr_gain(9.0, [1.0, 1.0, 1.0]) == pytest.approx(9.542, abs=0.001)

    def test_equal_is_zero_db(self):
        assert snr_gain(2.0, [1.0, 2.0, 3.0]) == pytest.approx(0.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            snr_gain(1.0, [])

    def test_nonpositive_estimates_stay_in_the_mean(self):
        # mean of [1, 0] is 0.5: 1 / 0.5 is 3.01 dB, where dropping the 0 would read 0 dB
        assert snr_gain(1.0, [1.0, 0.0]) == pytest.approx(3.0103, abs=1e-4)
        assert snr_gain(1.0, [1.5, -0.5]) == pytest.approx(3.0103, abs=1e-4)

    def test_nonpositive_mean_is_nan(self):
        assert np.isnan(snr_gain(1.0, [0.0, 0.0]))
        assert np.isnan(snr_gain(1.0, [0.5, -0.75]))

    def test_nonpositive_beamformed_snr_clamps(self):
        assert snr_gain(0.0, [1.0, 1.0]) == DB_FLOOR
        assert snr_gain(-0.3, [1.0, 1.0]) == DB_FLOOR


class TestBounds:
    def test_spot_values_n3(self):
        assert power_gain_bound(3, 0.0) == 9.0
        assert to_db(power_gain_bound(3, 0.0)) == pytest.approx(9.542, abs=0.001)
        assert inr_reduction_bound(3, 0.0) == 0.0
        assert rx_snr_gain_bound(3, 0.0) == 3.0

    def test_limits_at_large_phase_error(self):
        assert power_gain_bound(3, 1e9) == pytest.approx(3.0)
        assert inr_reduction_bound(3, 1e9) == pytest.approx(2.0 / 3.0)

    def test_single_node(self):
        for phi in (0.0, 0.5, 10.0):
            assert power_gain_bound(1, phi) == 1.0
            assert inr_reduction_bound(1, phi) == 0.0

    def test_monotonicity(self):
        grid = np.linspace(0, 5, 100)
        pg = [power_gain_bound(3, p) for p in grid]
        ir = [inr_reduction_bound(3, p) for p in grid]
        assert all(b <= a for a, b in zip(pg, pg[1:]))
        assert all(b >= a for a, b in zip(ir, ir[1:]))
        # non-decreasing in N
        for phi in (0.0, 0.3, 2.0):
            gains = [power_gain_bound(n, phi) for n in (1, 2, 3, 5, 8)]
            assert all(b >= a for a, b in zip(gains, gains[1:]))

    def test_null_gain(self):
        # a perfect null at no phase error, N incoherent powers at large error
        assert null_gain_expected(3, 0.0) == 0.0
        assert null_gain_expected(3, 1e9) == pytest.approx(3.0)
        # the INR-reduction expression scaled by N^2 / (N - 1)
        for phi in (0.02, 0.18, 0.72):
            assert null_gain_expected(3, phi) == pytest.approx(4.5 * inr_reduction_bound(3, phi), rel=1e-12)
        with pytest.raises(ValueError):
            null_gain_expected(0, 0.0)
        with pytest.raises(ValueError):
            null_gain_expected(3, -0.1)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            power_gain_bound(0, 0.0)
        with pytest.raises(ValueError):
            inr_reduction_bound(3, -0.1)


class TestCoherentCombiningPenalty:
    def test_receive_gain_is_n_not_n_squared(self):
        # N phase-aligned unit-SNR receptions with independent noise: SNR
        # gain within 0.3 dB of N (noise adds incoherently)
        rng = substream(1, "t", "comb")
        n, length = 3, 200_000
        s = (rng.normal(size=length) + 1j * rng.normal(size=length)) / np.sqrt(2)
        noises = [(rng.normal(size=length) + 1j * rng.normal(size=length)) / np.sqrt(2)
                  for _ in range(n)]
        combined = sum(s + w for w in noises)
        sig_power = np.mean(np.abs(n * s) ** 2)
        noise_power = np.mean(np.abs(sum(noises)) ** 2)
        snr_bf = sig_power / noise_power
        snr_siso = 1.0
        gain_db = 10 * np.log10(snr_bf / snr_siso)
        assert abs(gain_db - 10 * np.log10(n)) < 0.3


class TestNoInterfererInr:
    """The INR estimate (P_lt − P_n)/P_n of a link that no interferer reaches
    is centred on 0: its look-through holds noise alone, so P_lt scatters
    about the modelled noise power P_n. Checked on the bundled rx_bf run (100
    cycles, no interferer) for every SISO link and for the mesh: the mean
    estimate lies within 3 standard errors of 0.

    Half of the SISO estimates at or below 0 is then what the estimator
    alone gives. With a fraction p ≈ 0.44 of them positive (here 133 of
    300), a cycle holds a non-positive SISO INR at one of its three nodes
    with probability 1 − p³ ≈ 0.91: that is where rx_bf's 92 of 100 such
    cycles come from, not from a null.

    The check resolves the mean to about 1e-3 (SISO) and 2e-3 (mesh). Below
    that the estimate leans negative: the MMSE weights are fitted to the
    noise of the first COV_MAX_LEN look-through samples, and 1000 cycles of
    the same run put the means at −3.5e-4 and −1.1e-3, 3.0 and 5.6 standard
    errors below 0, about a sixth of one estimate's spread (6.4e-3).
    """

    def test_estimate_centred_on_zero(self, monkeypatch):
        computed = []
        real = metrics.link_metrics

        def spy(*args):
            computed.append(real(*args))
            return computed[-1]

        monkeypatch.setattr(metrics, "link_metrics", spy)
        cfg = load_config("rx_bf")
        records = run_scenario(cfg)
        n = cfg.mesh.n_nodes
        # every node detected in every cycle: n SISO links, then the mesh
        assert len(computed) == (n + 1) * cfg.n_cycles and not any(r.flags for r in records)
        per_cycle = [computed[k * (n + 1) : (k + 1) * (n + 1)] for k in range(cfg.n_cycles)]
        for rec, (*siso, mesh) in zip(records, per_cycle):
            assert rec.siso_inr_db == [lm.inr_db for lm in siso] and rec.bf_inr_db == mesh.inr_db
        rows = {
            "SISO": [lm.inr for *siso, _ in per_cycle for lm in siso],
            "mesh": [mesh.inr for *_, mesh in per_cycle],
        }
        for row, inrs in rows.items():
            mean, se = np.mean(inrs), np.std(inrs, ddof=1) / np.sqrt(len(inrs))
            assert abs(mean) <= 3 * se, f"{row}: mean INR {mean:.3g}, standard error {se:.3g}"
