"""Tests for channel, clock, and noise models."""

import numpy as np
import pytest

import copy

from dcbf import impairments, scenario, waveform
from dcbf.core import MeshConfig, NodeState, substream
from dcbf.impairments import (
    ChannelModel,
    NoiseSpec,
    _cover,
    add_noise,
    advance_clock,
    apply_channel,
    apply_node_imperfections,
)
from dcbf.scenario import CycleRecord, ScenarioConfig, _RxRunner, _TxRunner

FS = 2e6


def _sig(samples):
    return np.array(samples, dtype=complex)


def _channel(x, ch):
    """x through ch into a buffer that holds its whole output."""
    return apply_channel(np.zeros(len(x) + ch.n_taps - 1 + ch.tof_delay, dtype=complex), x, ch)


def _lo(x, node, sign=1):
    """A rotated copy of x; x itself is left as it is."""
    return apply_node_imperfections(x.copy(), node, FS, sign)


class TestApplyChannel:
    def test_identity(self):
        x = _sig([1, 2j, 3])
        y = _channel(x, ChannelModel(np.array([1.0 + 0j])))
        assert np.array_equal(y, x)

    def test_pure_delay_composition(self):
        x = _sig([1, 2, 3])
        y = _channel(x, ChannelModel(np.array([0, 1.0]), tof_delay=3))
        assert len(y) == 3 + 2 - 1 + 3
        assert np.array_equal(y[:4], np.zeros(4))
        assert np.array_equal(y[4:7], x)

    def test_adds_into_out_and_cuts_at_its_end(self):
        out = np.full(6, 1 + 1j)
        y = apply_channel(out, _sig([1, 2, 3, 4]), ChannelModel(np.array([2.0 + 0j]), tof_delay=3))
        assert y is out
        assert np.array_equal(out, [1 + 1j, 1 + 1j, 1 + 1j, 3 + 1j, 5 + 1j, 7 + 1j])

    def test_matches_direct_convolution_oracle(self):
        rng = substream(0, "test", "conv")
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        h = rng.normal(size=4) + 1j * rng.normal(size=4)
        y = _channel(x, ChannelModel(h, tof_delay=2))
        # brute-force O(n*T_h) convolution sum
        expect = np.zeros(64 + 3 + 2, dtype=complex)
        for n in range(len(expect)):
            acc = 0
            for k in range(4):
                idx = n - 2 - k
                if 0 <= idx < 64:
                    acc += h[k] * x[idx]
            expect[n] = acc
        assert np.allclose(y, expect, atol=1e-12)

    def test_linearity_to_machine_precision(self):
        rng = substream(1, "test", "lin")
        x = rng.normal(size=32) + 1j * rng.normal(size=32)
        y = rng.normal(size=32) + 1j * rng.normal(size=32)
        ch = ChannelModel(rng.normal(size=3) + 1j * rng.normal(size=3), tof_delay=1)
        a, b = 2.5 - 1j, -0.125j
        lhs = _channel(a * x + b * y, ch)
        rhs = a * _channel(x, ch) + b * _channel(y, ch)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_requires_nonzero_tap(self):
        with pytest.raises(ValueError, match="nonzero"):
            ChannelModel(np.zeros(3, complex))

    @pytest.mark.parametrize("tap", [np.nan, np.inf, complex(0, -np.inf)])
    def test_rejects_non_finite_tap(self, tap):
        with pytest.raises(ValueError, match="finite"):
            ChannelModel(np.array([1.0, tap]))

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError, match="tof_delay"):
            ChannelModel(np.array([1.0 + 0j]), tof_delay=-1)

    @pytest.mark.parametrize("tof", [2.5, True])
    def test_rejects_non_integer_delay(self, tof):
        with pytest.raises(ValueError, match="tof_delay must be an integer"):
            ChannelModel(np.array([1.0 + 0j]), tof_delay=tof)


class TestAdvanceClock:
    def test_ideal_clock_unchanged(self):
        node = NodeState("n1")
        advance_clock(node, 123.0)
        assert node.phase_rad == 0.0

    def test_deterministic_rotation(self):
        node = NodeState("n1", cfo_hz=100.0)
        advance_clock(node, 0.01)
        assert node.phase_rad == pytest.approx(2 * np.pi)
        assert np.mod(node.phase_rad, 2 * np.pi) == pytest.approx(0.0, abs=1e-9)

    def test_walk_variance_monte_carlo(self):
        # sample variance of increments within 5% of v*dt over 1e4 steps
        v, dt = 0.3, 0.05
        node = NodeState("n1", phase_walk_var_per_s=v, rng=substream(2, "n1", "walk"))
        increments = []
        for _ in range(10_000):
            before = node.phase_rad
            advance_clock(node, dt)
            increments.append(node.phase_rad - before)
        assert np.var(increments) == pytest.approx(v * dt, rel=0.05)

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            advance_clock(NodeState("n1"), -1.0)


class TestNodeImperfections:
    def test_ideal_node_identity(self):
        x = _sig(np.ones(128))
        node = NodeState("n1")
        y = apply_node_imperfections(x, node, FS, 1)
        assert y is x
        assert np.allclose(y, 1.0)
        assert node.phase_rad == 0.0

    def test_pure_cfo_is_complex_exponential(self):
        f0 = 5000.0
        n = 4000
        node = NodeState("n1", cfo_hz=f0)
        y = _lo(_sig(np.ones(n)), node)
        spec = np.abs(np.fft.fft(y))
        freqs = np.fft.fftfreq(n, 1 / FS)
        assert freqs[np.argmax(spec)] == pytest.approx(f0, abs=FS / n)

    def test_rx_sign_conjugates(self):
        node_tx = NodeState("a", cfo_hz=777.0)
        node_rx = NodeState("b", cfo_hz=777.0)
        x = _sig(np.ones(64))
        up = _lo(x, node_tx, sign=1)
        back = _lo(up, node_rx, sign=-1)
        assert np.allclose(back, x, atol=1e-12)

    def test_phase_difference_grows_sqrt_t(self):
        # RMS inter-node phase difference should scale ~sqrt(t): compare RMS
        # at two signal depths over 200 trials, expect ratio ~sqrt(4) = 2
        v = 0.5
        n = 512
        diffs_early, diffs_late = [], []
        for trial in range(200):
            a = NodeState("a", phase_walk_var_per_s=v, rng=substream(trial, "a", "w"))
            b = NodeState("b", phase_walk_var_per_s=v, rng=substream(trial, "b", "w"))
            ya = _lo(_sig(np.ones(n)), a)
            yb = _lo(_sig(np.ones(n)), b)
            dphi = np.unwrap(np.angle(ya * np.conj(yb)))
            diffs_early.append(dphi[n // 4])
            diffs_late.append(dphi[-1])
        rms_early = np.sqrt(np.mean(np.square(diffs_early)))
        rms_late = np.sqrt(np.mean(np.square(diffs_late)))
        assert rms_late / rms_early == pytest.approx(2.0, rel=0.25)

    # The walk between two 2-sample spans whose starts lie k samples apart:
    # the k increments between them sum to a Normal(0, k·σ²) draw, σ² the
    # per-sample walk variance, so over GAP_DRAWS fixed seeds the sum of the
    # squared phase differences over k·σ² is χ² with GAP_DRAWS degrees of
    # freedom. Its interval at a two-sided false-alarm rate of GAP_ALPHA
    # comes from the Wilson-Hilferty approximation; at 4,000 degrees of
    # freedom it spans −8.5% to +8.9% of k·σ², so a gap drawn with (k ± 1)·σ²
    # fails at k = 7. Drawing each gap's sum as one normal keeps the
    # distribution and passes as well. k·σ² is 0.01 rad², so a difference reaches ±π only
    # 31 standard deviations out and wrapping cannot matter.
    GAP_DRAWS = 4000
    GAP_ALPHA = 1e-4

    @pytest.mark.parametrize("k", [2, 7, 1000])
    def test_walk_over_a_gap_has_variance_k_sigma2(self, k):
        from statistics import NormalDist

        var = 0.01 / k  # σ², the walk variance per sample
        x = np.zeros(k + 2, dtype=complex)
        x[[0, 1, k, k + 1]] = 1.0
        diffs = np.empty(self.GAP_DRAWS)
        for seed in range(self.GAP_DRAWS):
            node = NodeState("n", phase_walk_var_per_s=var * FS, rng=substream(seed, "n", "walk-gap"))
            y = apply_node_imperfections(x.copy(), node, FS, 1, spans=[(0, 2), (k, k + 2)])
            diffs[seed] = np.angle(y[k] * np.conj(y[0]))
        m = self.GAP_DRAWS
        lo, hi = (
            m * (1 - 2 / (9 * m) + NormalDist().inv_cdf(p) * np.sqrt(2 / (9 * m))) ** 3
            for p in (self.GAP_ALPHA / 2, 1 - self.GAP_ALPHA / 2)
        )
        assert lo <= np.sum(diffs**2) / (k * var) <= hi

    def test_channel_then_lo_ordering_regression(self):
        # with a multi-tap channel, channel->LO differs from LO->channel;
        # the receive chain applies the channel first
        rng = substream(5, "test", "order")
        x = _sig(rng.normal(size=64) + 1j * rng.normal(size=64))
        ch = ChannelModel(np.array([1.0, 0.0, -0.7j]))
        node1 = NodeState("n", cfo_hz=40e3)
        node2 = NodeState("n", cfo_hz=40e3)
        chain_a = _lo(_channel(x, ch), node1, sign=-1)
        chain_b = _channel(_lo(x, node2, sign=-1), ch)
        assert not np.allclose(chain_a, chain_b, atol=1e-6)

    def test_single_tap_commutes(self):
        rng = substream(6, "test", "commute")
        x = _sig(rng.normal(size=64) + 1j * rng.normal(size=64))
        ch = ChannelModel(np.array([0.3 - 0.4j]))
        node1 = NodeState("n", cfo_hz=40e3)
        node2 = NodeState("n", cfo_hz=40e3)
        chain_a = _lo(_channel(x, ch), node1, sign=-1)
        chain_b = _channel(_lo(x, node2, sign=-1), ch)
        assert np.allclose(chain_a, chain_b, atol=1e-12)


class TestAddNoise:
    def test_zero_power_identity(self):
        # zero power adds nothing and draws nothing
        x, rng = _sig(np.ones(32)), substream(0, "t", "n")
        state = rng.bit_generator.state
        y = add_noise(x, 0.0, rng)
        assert y is x
        assert np.array_equal(y, np.ones(32))
        assert rng.bit_generator.state == state

    def test_measured_power(self):
        n = 100_000
        y = add_noise(_sig(np.zeros(n)), 1.0, substream(1, "t", "n"))
        assert np.mean(np.abs(y) ** 2) == pytest.approx(1.0, rel=0.02)

    def test_moments_circular_gaussian(self):
        # real/imag each ~ Normal(0, P/2): check mean, variance, skew, kurtosis
        n = 100_000
        p = 0.5
        y = add_noise(_sig(np.zeros(n)), p, substream(2, "t", "n"))
        for part in (y.real, y.imag):
            assert np.mean(part) == pytest.approx(0.0, abs=4 * np.sqrt(p / 2 / n))
            assert np.var(part) == pytest.approx(p / 2, rel=0.03)
            std = np.std(part)
            skew = np.mean((part / std) ** 3)
            kurt = np.mean((part / std) ** 4)
            assert abs(skew) < 0.05
            assert kurt == pytest.approx(3.0, abs=0.1)
        # circular symmetry: pseudo-variance ~ 0
        assert abs(np.mean(y * y)) < 4 * p / np.sqrt(n)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            NoiseSpec(-0.1)

    @pytest.mark.parametrize("power", [np.nan, np.inf])
    def test_rejects_non_finite_power(self, power):
        with pytest.raises(ValueError, match="finite"):
            NoiseSpec(power)


# The in-place stages against the formulas they replaced, written out here.
# Equal means bitwise: numpy's complex multiply is not commutative in the
# last bit, so an operand order that differs from the kernel's shows up as
# a mismatch on ~16% of samples. Each formula names its operand order with
# np.multiply, so the order is the same at every length.


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _old_node_imperfections(x, node, sign):
    n = len(x)
    if node.cfo_hz == 0 and node.phase_walk_var_per_s == 0:
        return x * np.exp(1j * sign * node.phase_rad)
    t = np.arange(n) / FS
    phase = node.phase_rad + 2 * np.pi * node.cfo_hz * t
    if node.phase_walk_var_per_s > 0:
        steps = node.rng.normal(0.0, np.sqrt(node.phase_walk_var_per_s / FS), n - 1)
        walk = np.concatenate([[0.0], np.cumsum(steps)])
        phase = phase + walk
    out = np.multiply(np.exp(1j * sign * phase), x)
    node.phase_rad = float(phase[-1]) + 2 * np.pi * node.cfo_hz / FS
    if node.phase_walk_var_per_s > 0:
        node.phase_rad += node.rng.normal(0.0, np.sqrt(node.phase_walk_var_per_s / FS))
    return out


def _twin_nodes(cfo_hz, walk):
    """Two nodes in the same state with the same RNG stream."""
    return [
        NodeState("n", cfo_hz=cfo_hz, phase_rad=1234.5, phase_walk_var_per_s=walk, rng=substream(9, "n", "walk"))
        for _ in range(2)
    ]


def _same_state(a, b):
    """Same phase, and the same stream state when both nodes have a stream; a
    node that never walks has none, and then neither may have one."""
    if a.rng is None or b.rng is None:
        return a.phase_rad == b.phase_rad and a.rng is b.rng
    return a.phase_rad == b.phase_rad and a.rng.bit_generator.state == b.rng.bit_generator.state


CLOCKS = [(0.0, 0.0), (437.0, 0.0), (0.0, 0.3), (-613.0, 0.05)]  # (cfo_hz, phase walk per s)
_DEROTATOR = _RxRunner(ScenarioConfig())  # its sample rate is FS


# Lengths the in-place kernels are checked at: the shortest ones, odd ones, and
# the bundled configs' frames and receive buffers (source and interferer frame
# 75,560 and 75,641, mesh-node frame 91,472, receive buffers 75,641 and 91,553).
KERNEL_LENGTHS = [1, 2, 3, 1000, 1001, 75560, 75641, 91472, 91553]


class TestArrayKernels:
    # one operand order at every length but 1: on a one-sample array numpy's
    # complex multiply into its second operand differs in the last bit from the
    # same multiply into a fresh array, which the formula makes
    @pytest.mark.parametrize("n", [n for n in KERNEL_LENGTHS if n > 1])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("cfo_hz, walk", CLOCKS)
    def test_node_imperfections_match_old_formula(self, n, sign, cfo_hz, walk):
        rng = substream(n, "test", "lo")
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        new, old = _twin_nodes(cfo_hz, walk)
        y = _lo(x, new, sign=sign)
        assert np.array_equal(_bits(y), _bits(_old_node_imperfections(x, old, sign)))
        assert _same_state(new, old)

    # the walk drawn and summed in place against the formula's rng.normal(0.0,
    # sigma, n - 1) and cumsum, at every length: rotating ones, the output is
    # the LO phasor itself, exact under either operand order
    @pytest.mark.parametrize("n", KERNEL_LENGTHS)
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("cfo_hz, walk", [clock for clock in CLOCKS if clock[1] > 0])
    def test_phase_walk_matches_normal_draws(self, n, sign, cfo_hz, walk):
        new, old = _twin_nodes(cfo_hz, walk)
        y = _lo(np.ones(n, complex), new, sign=sign)
        assert np.array_equal(_bits(y), _bits(_old_node_imperfections(np.ones(n, complex), old, sign)))
        assert _same_state(new, old)

    def test_kernel_lengths_are_the_bundled_ones(self):
        rx, tx = _RxRunner(ScenarioConfig()), _TxRunner(ScenarioConfig(experiment="TX_BF"))
        bundled = {rx.layout.total_length, rx.interferer_layout.total_length, rx.buf_len,
                   tx.layout.total_length, tx.buf_len}
        assert bundled <= set(KERNEL_LENGTHS)

    # the draws of rng.normal(0.0, sigma, n), real parts first, at every length
    @pytest.mark.parametrize("n", KERNEL_LENGTHS)
    def test_add_noise_matches_old_formula(self, n):
        rng = substream(n, "test", "noise")
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        new, old = substream(3, "t", "n"), substream(3, "t", "n")
        y = add_noise(x.copy(), 0.3, new)
        sigma = np.sqrt(0.3 / 2.0)
        expect = x + (old.normal(0.0, sigma, n) + 1j * old.normal(0.0, sigma, n))
        assert np.array_equal(_bits(y), _bits(expect))
        assert new.bit_generator.state == old.bit_generator.state

    @pytest.mark.parametrize("walk", [0.0, 0.3])
    def test_prefix_rotation_matches_full_buffer(self, walk):
        # the bits of a sample do not depend on the length of the buffer it
        # sits in: the first 1,000 samples rotated on their own, against the
        # same samples of a 91,472-sample rotation from the same node state
        rng = substream(2, "test", "prefix")
        x = rng.normal(size=91472) + 1j * rng.normal(size=91472)
        short, full = _twin_nodes(437.0, walk)
        head = _lo(x[:1000], short)
        assert np.array_equal(_bits(head), _bits(_lo(x, full)[:1000]))

    @pytest.mark.parametrize("shape", [(1000,), (91472,), (3, 8192), (3, 75641)])
    def test_lo_product_matches_exp_product(self, shape):
        # the runner's derotation: a buffer from the phasor's side into the
        # phasor's array, a stack of rows from the rows' side in the rows
        # themselves, at every length; samples outside [lo, hi) stay as they are
        rng = substream(1, "test", "derotate")
        before = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for lo, hi in [(0, None), (37, 811), (600, None)]:
            z = before.copy()
            part = before[..., lo:hi]
            phasor = np.exp(-2j * np.pi * 437.3 * (np.arange(lo, lo + part.shape[-1]) / FS))
            expect = np.multiply(phasor, part) if len(shape) == 1 else np.multiply(part, phasor)
            y = _DEROTATOR._derotate(z, 437.3, lo, hi)
            assert np.array_equal(_bits(y), _bits(expect))
            assert np.shares_memory(y, z) == (len(shape) > 1)
            outside = np.ones(shape[-1], dtype=bool)
            outside[lo:hi] = False
            assert np.array_equal(_bits(z[..., outside]), _bits(before[..., outside]))
            if len(shape) == 1:
                assert np.array_equal(_bits(z), _bits(before))

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize(
        "experiment, cfo_hz, walk",
        [("COHERENCE", 0.0, 0.3), ("COHERENCE", 300.0, 0.3), ("TX_BF", 0.0, 0.0), ("RX_BF", 437.0, 0.0)],
    )
    def test_occupied_segments_match_full_frame(self, sign, experiment, cfo_hz, walk):
        # the runner's spans of a frame: the segments its contents fill
        if experiment == "RX_BF":
            runner = _RxRunner(ScenarioConfig(experiment=experiment))
            frames = [waveform.source_frame(runner.mesh, 5)]
        else:
            runner = _TxRunner(ScenarioConfig(experiment=experiment, mesh=MeshConfig(cycle_period_s=0.25)))
            frames = waveform.node_frames(runner.mesh, 5)
        for contents in frames:
            x, spans = runner._frame(runner.layout, contents, 1.0)
            new, old = _twin_nodes(cfo_hz, walk)
            y = apply_node_imperfections(x.copy(), new, FS, sign, spans)
            expect = _old_node_imperfections(x, old, sign)
            assert np.array_equal(y, expect)  # outside the spans: zeros, of either sign in the old
            inside = np.zeros(len(x), dtype=bool)
            for lo, hi in spans:
                inside[lo:hi] = True
            assert np.array_equal(_bits(y[inside]), _bits(expect[inside]))
            assert not np.any(x[~inside]) and not np.any(y[~inside])
            assert _same_state(new, old)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("stage", ["frame", "noise"])
    def test_non_finite_received_sample_raises(self, monkeypatch, bad, stage):
        runner = _TxRunner(ScenarioConfig(experiment="TX_BF", mesh=MeshConfig(cycle_period_s=0.25)))
        sent = runner._transmit(0, CycleRecord(cycle=0, t_virtual_s=0.0), [])
        if stage == "frame":
            sent[1][1][10000] = bad  # in node 2's beamformed payload
        else:
            real = impairments.add_noise

            def add_then_spoil(x, power, rng):
                real(x, power, rng)[777] = bad
                return x

            monkeypatch.setattr(scenario, "add_noise", add_then_spoil)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="NaN or Inf"):
            runner._receive(0, runner._arrivals(sent, 0))


class TestSpanKernels:
    """The channel and the receiver's LO over the spans that hold a frame's
    signal, bitwise against the whole-frame forms."""

    # spans at the frame's start and end, two 3 samples apart (closer than
    # n_taps - 1 from 5 taps up), and one alone in the middle
    SPANS = [(0, 120), (500, 700), (703, 900), (1200, 1300), (1880, 2000)]

    @staticmethod
    def _frame(spans, n=2000):
        rng = substream(len(spans), "test", "span_frame")
        x = np.zeros(n, dtype=complex)
        for lo, hi in spans:
            x[lo:hi] = rng.normal(size=hi - lo) + 1j * rng.normal(size=hi - lo)
        return x

    @pytest.mark.parametrize("cut", [0, 60], ids=["whole", "cut"])
    @pytest.mark.parametrize("tof", [0, 37])
    @pytest.mark.parametrize("n_taps", [1, 3, 8, 17, 33])
    def test_span_channel_matches_whole_frame(self, n_taps, tof, cut):
        rng = substream(n_taps, "test", "span_taps")
        ch = ChannelModel(rng.normal(size=n_taps) + 1j * rng.normal(size=n_taps), tof_delay=tof)
        x = self._frame(self.SPANS)
        # another arrival already in the buffer; cut drops the end of the output
        out = rng.normal(size=len(x) + n_taps - 1 + tof - cut) + 1j * rng.normal(size=len(x) + n_taps - 1 + tof - cut)
        conv = np.convolve(x, ch.taps, mode="full")[: len(out) - tof]
        expect = out.copy()
        expect[tof : tof + len(conv)] += conv
        got = apply_channel(out.copy(), x, ch, self.SPANS)
        assert np.array_equal(_bits(got), _bits(expect))

    def test_cover_widens_clips_and_merges(self):
        assert _cover(self.SPANS, 0, 2000) == self.SPANS
        assert _cover(self.SPANS[::-1], 2, 2000) == [(0, 122), (498, 702), (701, 902), (1198, 1302), (1878, 2000)]
        assert _cover(self.SPANS, 3, 2000)[1:3] == [(497, 703), (700, 903)]  # 3 apart: kept apart
        assert _cover(self.SPANS, 4, 2000) == [(0, 124), (496, 904), (1196, 1304), (1876, 2000)]
        assert _cover([(0, 10), (5, 8), (9, 30)], 0, 20) == [(0, 20)]

    @pytest.mark.parametrize(
        "experiment, overrides",
        [
            ("TX_NULL", dict(channel_kind="rayleigh", channel_taps=3)),
            ("TX_BF", dict(channels={"n2->B": {"taps": [[0.8, 0.1], [0.3, -0.2], [0.1, 0.05]], "tof": 40}})),
            ("RX_BF", dict(phase_walk_var_per_s=0.3,
                           channels={"A->n2": {"taps": [[0.8, 0.1], [0.3, -0.2], [0.1, 0.05]], "tof": 40}})),
        ],
    )
    def test_receiver_spans_match_whole_buffer(self, monkeypatch, experiment, overrides):
        # every receiver LO of one cycle: the runner's spans against the old
        # whole-buffer formula, from the same node state
        seen = []
        real = impairments.apply_node_imperfections

        def spy(x, node, fs, sign, spans=None):
            if sign == 1:
                return real(x, node, fs, sign, spans)
            before, twin = x.copy(), copy.deepcopy(node)
            y = real(x, node, fs, sign, spans)
            seen.append((before, spans, y.copy(), copy.deepcopy(node), twin))
            return y

        monkeypatch.setattr(scenario, "apply_node_imperfections", spy)
        mesh = MeshConfig() if experiment == "RX_BF" else MeshConfig(cycle_period_s=0.25)
        scenario.run_scenario(ScenarioConfig(experiment=experiment, n_cycles=1, seed=3, mesh=mesh, **overrides))
        assert len(seen) == (3 if experiment == "RX_BF" else 1 + (experiment == "TX_NULL"))
        for x, spans, y, node, twin in seen:
            expect = _old_node_imperfections(x, twin, -1)
            inside = np.zeros(len(x), dtype=bool)
            for lo, hi in spans:
                inside[lo:hi] = True
            assert np.array_equal(y, expect)
            assert np.array_equal(_bits(y[inside]), _bits(expect[inside]))
            assert not np.any(x[~inside]) and not np.any(_bits(y[~inside]))  # +0 only
            assert _same_state(node, twin)
