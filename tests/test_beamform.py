"""Tests for delay matrices and the three beamformer constructions."""

import numpy as np
import pytest

from dcbf.beamform import (
    Beamformer,
    _mmse_solve,
    apply_rx_beamformer,
    build_delay_matrix,
    mmse_rx_beamformer,
    mmse_rx_beamformers,
    rx_output_powers,
    stmf_beamformer,
    tx_null_beamformer,
)
from dcbf.core import ComplexSignal, Segment, substream
from dcbf.metrics import segment_power
from dcbf.scenario import ScenarioConfig, _RxRunner

FS = 2e6


def _sig(x):
    return ComplexSignal(np.asarray(x, dtype=complex), FS)


def _rand(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _look_through_mmse(train, cov, s, eps):
    """(weights, delta) of the MMSE filter on the training windows' delay
    matrices train, with the covariance taken over the delay matrices cov
    (look-through windows): a dense solve of (C + delta I) w = Z s_bar^H,
    C the Gram of cov and delta = eps * trace(C) / dim."""
    z = np.vstack([m.data for m in train])
    c = np.vstack([m.data for m in cov])
    t_w = train[0].t_w
    s_bar = np.zeros(z.shape[1], dtype=complex)
    s_bar[t_w // 2 : t_w // 2 + len(s)] = s
    gram = c @ c.conj().T
    delta = eps * np.trace(gram).real / len(gram)
    w = np.linalg.solve(gram + delta * np.eye(len(gram)), z @ np.conj(s_bar))
    return w.reshape(len(train), t_w), delta


class TestDelayMatrix:
    def test_structure_example(self):
        dm = build_delay_matrix(_sig([1, 2, 3]), 0, 3, 2)
        expect = np.array([[1, 2, 3, 0], [0, 1, 2, 3]], dtype=complex)
        assert np.array_equal(dm.data, expect)

    def test_single_row_is_window(self):
        dm = build_delay_matrix(_sig([5, 6, 7, 8]), 1, 3, 1)
        assert np.array_equal(dm.data, np.array([[6, 7, 8]], dtype=complex))

    def test_filtering_matches_direct_convolution(self):
        # w^H Z equals sum_k w*[k] z[t-k] on the interior (where the matrix
        # window and the full convolution see the same samples)
        rng = substream(0, "t", "dm")
        z = _rand(rng, 64)
        w = _rand(rng, 5)
        t_z = 40
        dm = build_delay_matrix(_sig(z), 10, t_z, 5)
        via_matrix = np.conj(w) @ dm.data
        direct = np.array(
            [sum(np.conj(w[k]) * z[10 + c - k] for k in range(5) if 0 <= c - k < t_z)
             for c in range(t_z + 4)]
        )
        assert np.allclose(via_matrix, direct, atol=1e-12)

    def test_window_bounds_checked(self):
        with pytest.raises(ValueError, match="window"):
            build_delay_matrix(_sig([1, 2, 3]), 2, 3, 2)


class TestMmse:
    def test_scalar_case_w_equals_h_over_h2(self):
        rng = substream(1, "t", "mmse")
        s = _rand(rng, 256) / np.sqrt(2)
        h = 0.7 - 0.3j
        dm = build_delay_matrix(_sig(h * s), 0, 256, 1)
        bf = mmse_rx_beamformer([dm], s, delta=0.0)
        assert bf.weights[0, 0] == pytest.approx(h / abs(h) ** 2)
        out = np.conj(bf.weights[0, 0]) * h * s
        assert np.allclose(out, s, atol=1e-10)

    def test_two_node_aligned_snr_doubles(self):
        # two equal-gain aligned nodes, white noise: w proportional to the
        # channel vector, output SNR twice the single-node SNR
        rng = substream(2, "t", "mmse")
        s = _rand(rng, 4096) / np.sqrt(2)
        h = np.array([np.exp(0.3j), np.exp(-1.1j)])
        sigma = 0.3
        noise = [sigma * _rand(rng, 4096) / np.sqrt(2) for _ in range(2)]
        zs = [h[i] * s + noise[i] for i in range(2)]
        mats = [build_delay_matrix(_sig(zs[i]), 0, 4096, 1) for i in range(2)]
        bf = mmse_rx_beamformer(mats, s)
        w = bf.weights[:, 0]
        # direction matches h (up to scale)
        cos2 = abs(np.vdot(w, h)) ** 2 / (np.linalg.norm(w) ** 2 * np.linalg.norm(h) ** 2)
        assert cos2 > 0.999
        out_sig = np.conj(w) @ np.vstack([h[0] * s, h[1] * s])
        out_noise = np.conj(w) @ np.vstack(noise)
        snr_bf = np.mean(np.abs(out_sig) ** 2) / np.mean(np.abs(out_noise) ** 2)
        snr_single = np.mean(np.abs(s) ** 2) / sigma**2 * 2  # unit |h|, E|n|^2 = sigma^2/...
        snr_single = np.mean(np.abs(h[0] * s) ** 2) / np.mean(np.abs(noise[0]) ** 2)
        assert snr_bf / snr_single == pytest.approx(2.0, rel=0.05)

    def test_matches_dense_solver_oracle(self):
        # explicit regularized normal equations via a dense solve
        rng = substream(3, "t", "mmse")
        for trial in range(5):
            n, t_w, t_z = 3, 8, 256
            s = _rand(rng, t_z)
            mats = [build_delay_matrix(_sig(_rand(rng, t_z + 16)), 4, t_z, t_w, f"n{i}") for i in range(n)]
            bf = mmse_rx_beamformer(mats, s)
            z = np.vstack([m.data for m in mats])
            s_bar = np.zeros(t_z + t_w - 1, dtype=complex)
            s_bar[t_w // 2 : t_w // 2 + t_z] = s
            a = z @ z.conj().T + bf.delta * np.eye(n * t_w)
            w_oracle = np.linalg.solve(a, z @ np.conj(s_bar))
            rel = np.linalg.norm(bf.weights.ravel() - w_oracle) / np.linalg.norm(w_oracle)
            assert rel < 1e-8

    def test_self_consistency_reproduces_training_row(self):
        # zero noise/interference, tiny delta: w^H Z reproduces the training
        # row on the signal support (full covariance; with an all-zero
        # look-through the interference-only route degenerates to a matched
        # filter, whose PN sidelobes floor the error at ~1%)
        rng = substream(4, "t", "mmse")
        t_z, t_w = 512, 4
        s = _rand(rng, t_z)
        train = build_delay_matrix(_sig(s), 0, t_z, t_w)
        trace_scale = np.sum(np.abs(train.data) ** 2) / (t_w)
        bf = mmse_rx_beamformer([train], s, delta=1e-6 * trace_scale / t_z)
        out = np.conj(bf.weights[0]) @ train.data
        lead = bf.output_delay
        s_bar = np.zeros(t_z + t_w - 1, dtype=complex)
        s_bar[lead : lead + t_z] = s
        support = slice(lead, lead + t_z)
        rel = np.linalg.norm(out[support] - s_bar[support]) / np.linalg.norm(s)
        assert rel < 1e-6

    def test_null_depth_non_increasing_as_delta_shrinks(self):
        # fixed noiseless channels: interference output power after MMSE
        # never increases as delta decreases (6 decades)
        rng = substream(5, "t", "mmse")
        t_z = 1024
        s = _rand(rng, t_z) / np.sqrt(2)
        j = _rand(rng, t_z + 128) / np.sqrt(2) * 3
        h_s = np.array([1.0, np.exp(1.2j), np.exp(-0.4j)])
        h_j = np.array([np.exp(0.5j), np.exp(-2.0j), 1.0])
        zs, covs = [], []
        for i in range(3):
            full = h_s[i] * np.pad(s, (0, 128)) + h_j[i] * j
            sig = _sig(full)
            zs.append(build_delay_matrix(sig, 0, t_z, 4, f"n{i}"))
            covs.append(build_delay_matrix(sig, t_z, 128, 4, f"n{i}"))
        trace_scale = None
        powers = []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            w, _ = _look_through_mmse(zs, covs, s, eps)
            out = sum(np.convolve(h_j[i] * j, np.conj(w[i]))[: len(j)] for i in range(3))
            powers.append(np.mean(np.abs(out) ** 2) / np.sum(np.abs(w) ** 2))
        for a, b in zip(powers, powers[1:]):
            assert b <= a * (1 + 1e-9)

    def test_condition_safety_residual(self):
        # near-rank-deficient covariance with cond ~ 1e10: solver succeeds
        # and reports a small achieved residual
        rng = substream(6, "t", "mmse")
        t_z, t_w = 64, 4
        base = _rand(rng, t_z)
        # two nearly identical nodes -> strongly correlated stacked rows
        z1 = base
        z2 = base * (1 + 1e-6) + 1e-6 * _rand(rng, t_z)
        mats = [build_delay_matrix(_sig(z1), 0, t_z, t_w), build_delay_matrix(_sig(z2), 0, t_z, t_w)]
        zstack = np.vstack([m.data for m in mats])
        cov = zstack @ zstack.conj().T
        delta = np.linalg.eigvalsh(cov)[-1] / 1e10
        bf = mmse_rx_beamformer(mats, base, delta=float(delta))
        assert np.all(np.isfinite(bf.weights))
        assert bf.solve_residual <= 1e-6

    def test_zero_delta_singular_raises(self):
        # two identical nodes make the stacked covariance exactly rank-deficient
        rng = substream(16, "t", "mmse")
        z = _rand(rng, 16)
        mats = [build_delay_matrix(_sig(z), 0, 16, 4, "a"),
                build_delay_matrix(_sig(z), 0, 16, 4, "b")]
        with pytest.raises(ValueError, match="delta"):
            mmse_rx_beamformer(mats, z, delta=0.0)

    def test_zero_delta_rank_deficient_raises(self):
        # 3 nodes x t_w = 8 unknowns over t_z = 6 training samples: Z Z^H has
        # rank 13 of 24 but no exact zero pivot, so only its condition number shows it
        rng = substream(17, "t", "mmse")
        s = _rand(rng, 6)
        mats = [build_delay_matrix(_sig(_rand(rng, 6)), 0, 6, 8, f"n{i}") for i in range(3)]
        zstack = np.vstack([m.data for m in mats])
        assert np.linalg.matrix_rank(zstack @ zstack.conj().T) == 13
        with pytest.raises(ValueError, match="delta"):
            mmse_rx_beamformer(mats, s, delta=0.0)
        assert mmse_rx_beamformer(mats, s).solve_residual < 1e-9  # the default loading solves it


class TestMmseSolve:
    """_mmse_solve (one stacked solve, one refinement step) against dense
    solvers, on stacks of Hermitian positive-definite systems."""

    DIMS = [1, 2, 8, 24, 133]  # the last past the bundled sizes (at most 24 unknowns)

    @staticmethod
    def _systems(dim, k=3):
        rng = substream(dim, "t", "mmse_solve")
        x = rng.normal(size=(k, dim, 2 * dim)) + 1j * rng.normal(size=(k, dim, 2 * dim))
        return x @ x.conj().swapaxes(-1, -2), rng.normal(size=(k, dim)) + 1j * rng.normal(size=(k, dim))

    @pytest.mark.parametrize("dim", DIMS)
    def test_matches_dense_solve(self, dim):
        cov, b = self._systems(dim)
        w, deltas, resids = _mmse_solve(cov, b, None, 1e-3)
        for k in range(len(cov)):
            assert deltas[k] == pytest.approx(1e-3 * np.trace(cov[k]).real / dim, rel=1e-15)
            w_ref = np.linalg.solve(cov[k] + deltas[k] * np.eye(dim), b[k])
            assert np.linalg.norm(w[k] - w_ref) <= 1e-12 * np.linalg.norm(w_ref)
            assert resids[k] < 1e-12

    @pytest.mark.parametrize("dim", DIMS)
    def test_matches_scipy_cho_solve(self, dim):
        linalg = pytest.importorskip("scipy.linalg")
        cov, b = self._systems(dim)
        w, deltas, _ = _mmse_solve(cov, b, 0.5, 1e-3)
        for k in range(len(cov)):
            w_ref = linalg.cho_solve(linalg.cho_factor(cov[k] + 0.5 * np.eye(dim)), b[k])
            assert np.linalg.norm(w[k] - w_ref) <= 1e-12 * np.linalg.norm(w_ref)

    @pytest.mark.parametrize("delta", [None, 0.5])
    @pytest.mark.parametrize("dim", DIMS)
    def test_stack_matches_per_system_calls(self, dim, delta):
        cov, b = self._systems(dim)
        stacked = _mmse_solve(cov, b, delta, 1e-3)
        for k in range(len(cov)):
            alone = _mmse_solve(cov[k : k + 1], b[k : k + 1], delta, 1e-3)
            for got, ref in zip(stacked, alone):
                assert np.array_equal(got[k], ref[0])

    @pytest.mark.parametrize("where", ["gram", "cross"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_input_raises(self, where, value):
        cov, b = self._systems(8)
        (cov if where == "gram" else b)[1, 3] = value
        with pytest.raises(ValueError, match="finite"):
            _mmse_solve(cov, b, None, 1e-3)


class TestApplyRx:
    def test_single_node_identity(self):
        rng = substream(7, "t", "apply")
        z = _rand(rng, 64)
        bf = Beamformer(weights=np.array([[1.0 + 0j]]), method="MMSE_RX")
        out = apply_rx_beamformer(bf, [z], 0)
        assert np.allclose(out, z)

    def test_all_ones_coherent_sum(self):
        rng = substream(8, "t", "apply")
        z = _rand(rng, 64)
        bf = Beamformer(weights=np.ones((3, 1), dtype=complex), method="MMSE_RX")
        out = apply_rx_beamformer(bf, [z] * 3, 0)
        assert np.allclose(out, 3 * z)

    def test_matches_delay_matrix_path(self):
        rng = substream(9, "t", "apply")
        z = _rand(rng, 128)
        w = _rand(rng, 5)
        t_z = 100
        dm = build_delay_matrix(_sig(z), 8, t_z, 5)
        via_matrix = np.conj(w) @ dm.data
        bf = Beamformer(weights=w[None, :], method="MMSE_RX")
        out = apply_rx_beamformer(bf, [z], 8, length=t_z)
        # interior columns where the zero-filled window and the live signal agree
        assert np.allclose(out[4:t_z], via_matrix[4:t_z], atol=1e-12)

    def test_per_node_lag_alignment(self):
        rng = substream(10, "t", "apply")
        z = _rand(rng, 64)
        a = np.concatenate([np.zeros(3, complex), z])
        b = np.concatenate([np.zeros(7, complex), z])
        bf = Beamformer(weights=np.ones((2, 1), dtype=complex), method="MMSE_RX")
        out = apply_rx_beamformer(bf, [a, b], [3, 7], length=64)
        assert np.allclose(out, 2 * z)


class TestCycleKernelOracle:
    """mmse_rx_beamformers and rx_output_powers against the delay-matrix path:
    build_delay_matrix -> mmse_rx_beamformer -> apply_rx_beamformer ->
    segment_power, and the noise gain as sum_n ||pulse * w_n||^2."""

    N_SAMPLES, LENGTH, T_Z = 900, 820, 128
    COV_WINDOW = (400, 300)  # (offset, length) after each node's lag
    # "head" starts within t_w of the lag, where apply_rx_beamformer zero-fills
    SEGMENTS = (Segment("head", 0, 60), Segment("payload", 200, 150), Segment("look_through", 400, 350))
    # (mesh size, nodes lost to an acquisition failure)
    MESHES = [(1, ()), (2, ()), (3, ()), (4, ()), (4, (2,))]
    RTOL = 1e-9

    def _case(self, n, lost, seed):
        """Detected nodes' buffers, distinct lags and training row."""
        rng = substream(seed, "t", "cycle_kernel")
        keep = [i for i in range(n) if i not in lost]
        z = np.array([_rand(rng, self.N_SAMPLES) for _ in keep])
        taus = [int(t) for t in rng.permutation(self.N_SAMPLES - self.LENGTH)[: len(keep)]]
        return z, taus, _rand(rng, self.T_Z)

    def _oracle_bfs(self, z, taus, s, t_w, cov_source, eps):
        """(weights, delta) of each node alone, then of every node: the
        delay-matrix solve, over the look-through Gram when cov_source is
        "interference_only"."""
        sigs = [_sig(zi) for zi in z]
        train = [build_delay_matrix(zi, tau, self.T_Z, t_w) for zi, tau in zip(sigs, taus)]
        off, length = self.COV_WINDOW
        cov = [build_delay_matrix(zi, tau + off, length, t_w) for zi, tau in zip(sigs, taus)]

        def solve(nodes):
            if cov_source == "interference_only":
                return _look_through_mmse([train[i] for i in nodes], [cov[i] for i in nodes], s, eps)
            bf = mmse_rx_beamformer([train[i] for i in nodes], s, eps=eps)
            assert bf.output_delay == t_w // 2 and bf.solve_residual <= self.RTOL
            return bf.weights, bf.delta

        return [solve([i]) for i in range(len(z))] + [solve(range(len(z)))]

    def _oracle_powers(self, w, z, taus):
        """The filter-and-sum of weights w (one row per node of z), read over
        the segments after the MMSE output delay."""
        bf = Beamformer(w, "MMSE_RX")
        x = apply_rx_beamformer(bf, list(z), taus, length=self.LENGTH)
        return [segment_power(x, seg, shift=w.shape[1] // 2) for seg in self.SEGMENTS]

    def _check_powers(self, weights, z, taus, t_w):
        runner = _RxRunner(ScenarioConfig(t_w=t_w))
        powers, gains = rx_output_powers(weights, z, taus, self.SEGMENTS, runner.noise_gram)
        assert powers.shape == (len(weights), len(self.SEGMENTS))
        for w, p, g in zip(weights, powers, gains):
            np.testing.assert_allclose(p, self._oracle_powers(w, z, taus), rtol=self.RTOL)
            conv_gain = sum(np.sum(np.abs(np.convolve(runner.pulse, wn)) ** 2) for wn in w)
            assert g == pytest.approx(conv_gain, rel=self.RTOL)

    # t_w = 130 outlasts the 128-sample training window: its outer lags overlap no samples
    @pytest.mark.parametrize("cov_source", ["full", "interference_only"])
    @pytest.mark.parametrize("t_w", [1, 2, 7, 8, T_Z + 2])
    @pytest.mark.parametrize("n, lost", MESHES)
    def test_mmse_beamformers_and_powers(self, n, lost, t_w, cov_source):
        z, taus, s = self._case(n, lost, seed=10 * n + t_w)
        eps = 1e-2
        cov_window = self.COV_WINDOW if cov_source == "interference_only" else None
        weights, deltas, resids = mmse_rx_beamformers(z, taus, s, t_w, cov_window=cov_window, eps=eps)
        expect = self._oracle_bfs(z, taus, s, t_w, cov_source, eps)
        m = len(z)
        assert weights.shape == (m + 1, m, t_w)
        assert deltas.shape == resids.shape == (m + 1,)
        for b, (ref_w, ref_delta) in enumerate(expect):
            # a single-node row is exactly zero off its node; the mesh row spans all of them
            nodes = [b] if b < m else list(range(m))
            assert not np.any(np.delete(weights[b], nodes, axis=0))
            scale = np.abs(ref_w).max()
            np.testing.assert_allclose(weights[b, nodes], ref_w, rtol=self.RTOL, atol=self.RTOL * scale)
            assert deltas[b] == pytest.approx(ref_delta, rel=self.RTOL)
            # the refined solve ends at rounding level
            assert resids[b] <= self.RTOL
        self._check_powers(weights, z, taus, t_w)

    @pytest.mark.parametrize("t_w", [1, 2, 7, 8])
    @pytest.mark.parametrize("n, lost", MESHES)
    def test_identity_weights_powers(self, n, lost, t_w):
        # the warm-up weights: one tap at the centre, each node alone, then every node summed
        z, taus, _ = self._case(n, lost, seed=100 + 10 * n + t_w)
        m = len(z)
        weights = np.zeros((m + 1, m, t_w), dtype=complex)
        weights[:, :, t_w // 2] = np.vstack([np.eye(m), np.ones(m)])
        self._check_powers(weights, z, taus, t_w)

    def test_segment_outside_signals_rejected(self):
        z, taus, s = self._case(2, (), seed=7)
        weights, _, _ = mmse_rx_beamformers(z, taus, s, 4)
        late = (Segment("late", self.N_SAMPLES - min(taus), 10),)
        with pytest.raises(ValueError, match="late"):
            rx_output_powers(weights, z, taus, late, np.eye(4))


class TestStmf:
    def test_reversal_and_norm(self):
        w = stmf_beamformer(np.array([0, 1j]))
        assert np.array_equal(w, np.array([1j, 0]))
        assert np.linalg.norm(w) == pytest.approx(1.0)

    def test_single_tap_passthrough(self):
        assert np.array_equal(stmf_beamformer(np.array([1.0 + 0j])), np.array([1.0 + 0j]))

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            stmf_beamformer(np.zeros(3, complex))

    def test_matched_filter_peak_snr_optimal(self):
        # the received peak SNR with the STMF must beat 1e4 random unit-norm
        # filters of the same length
        rng = substream(11, "t", "stmf")
        h = _rand(rng, 4)
        w_mf = stmf_beamformer(h)

        def peak_power(w):
            # transmit conv(conj(w), s)=delta chain: received pulse h*conj(w)
            pulse = np.convolve(h, np.conj(w))
            return np.max(np.abs(pulse) ** 2)

        best_random = 0.0
        for _ in range(10_000):
            w = _rand(rng, 4)
            w /= np.linalg.norm(w)
            best_random = max(best_random, peak_power(w))
        assert peak_power(w_mf) >= best_random


class TestTxNull:
    def test_orthogonal_two_node_closed_form(self):
        h_b = np.array([1.0, 1.0], dtype=complex)
        h_c = np.array([1.0, -1.0], dtype=complex)
        for delta in (1e-3, 0.1, 5.0):
            w = tx_null_beamformer(h_b, h_c, delta)
            # direction [1, 1], exact null toward C
            assert np.allclose(w / w[0], [1, 1])
            assert abs(h_c @ np.conj(w)) < 1e-12
            assert np.sum(np.abs(w) ** 2) == pytest.approx(2.0)

    def test_no_interferer_reduces_to_conjugate_bf(self):
        rng = substream(12, "t", "null")
        h_b = _rand(rng, 3)
        w = tx_null_beamformer(h_b, np.zeros(3, complex), 0.01)
        cos2 = abs(np.vdot(w, h_b)) ** 2 / (np.linalg.norm(w) ** 2 * np.linalg.norm(h_b) ** 2)
        assert cos2 == pytest.approx(1.0)

    def test_scale_invariance_of_direction(self):
        rng = substream(13, "t", "null")
        h_b = _rand(rng, 3)
        h_c = _rand(rng, 3)
        w1 = tx_null_beamformer(h_b, h_c, 1e-3)
        w2 = tx_null_beamformer(h_b * (2.5 - 1j), h_c, 1e-3)
        corr = abs(np.vdot(w1, w2)) / (np.linalg.norm(w1) * np.linalg.norm(w2))
        assert corr == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_channels_null_exact_at_any_delta(self):
        # with h_b orthogonal to h_c the solution is h_b itself: the null at
        # C is analytic-zero regardless of loading
        rng = substream(14, "t", "null")
        h_b = _rand(rng, 3)
        h_c = _rand(rng, 3)
        h_c -= h_b * (np.vdot(h_b, h_c) / np.vdot(h_b, h_b))
        for delta in (1e-1, 1e-3, 1e-5, 1e-7):
            w = tx_null_beamformer(h_b, h_c, delta)
            p_b = abs(h_b @ np.conj(w)) ** 2
            p_c = abs(h_c @ np.conj(w)) ** 2
            assert p_c / p_b < 1e-20

    def test_null_deepens_monotonically_as_delta_shrinks(self):
        rng = substream(17, "t", "null")
        h_b = _rand(rng, 3)
        h_c = _rand(rng, 3)
        ratios = []
        for delta_rel in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
            w = tx_null_beamformer(h_b, h_c, delta_rel * float(np.vdot(h_c, h_c).real))
            p_b = abs(h_b @ np.conj(w)) ** 2
            p_c = abs(h_c @ np.conj(w)) ** 2
            ratios.append(p_c / p_b)
        for a, b in zip(ratios, ratios[1:]):
            assert b < a
        assert ratios[-1] < 1e-7 * ratios[0]

    def test_bad_delta_rejected(self):
        with pytest.raises(ValueError, match="delta"):
            tx_null_beamformer(np.ones(2, complex), np.ones(2, complex), 0.0)
