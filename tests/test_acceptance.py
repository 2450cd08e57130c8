"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from dcbf import metrics
from dcbf.beamform import build_delay_matrix, mmse_rx_beamformer
from dcbf.core import ComplexSignal, MeshConfig, substream
from dcbf.estimation import estimate_channel, ml_cfo
from dcbf.scenario import ScenarioConfig, run_scenario
from dcbf.timesync import Timestamp, estimate_offset, golay_encode

TX_MESH = MeshConfig(cycle_period_s=0.25)


def _lin_avg_db(vals):
    vals = [v for v in vals if np.isfinite(v)]
    assert vals, "no finite values to average"
    return float(10 * np.log10(np.mean([10 ** (v / 10) for v in vals])))


def _report(criterion: str, detail: str, ok: bool) -> None:
    print(f"[{criterion}] {detail}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"{criterion} failed: {detail}"


class TestAcceptance:
    def test_criterion_1_receive_bf_gain_bound(self):
        """N=3, no interference, matched SISO SNRs, zero drift: time-averaged
        SNR gain in [4.3, 4.8] dB, within 0.5 dB of the 4.77 dB ceiling."""
        t0 = time.perf_counter()
        recs = run_scenario(ScenarioConfig(experiment="RX_BF", n_cycles=100, seed=11))
        elapsed = time.perf_counter() - t0
        gain = _lin_avg_db([r.gain_snr_db for r in recs])
        _report(
            "criterion 1",
            f"receive SNR gain {gain:.3f} dB in [4.3, 4.8], runtime {elapsed:.1f}s < 30s",
            4.3 <= gain <= 4.8 and abs(gain - 4.771) <= 0.5 and elapsed < 30.0,
        )

    def test_criterion_2_transmit_bf_gain_bound(self):
        """N=3, static channels: steady-state transmit SNR gain within
        0.5 dB of 9.54 dB."""
        t0 = time.perf_counter()
        recs = run_scenario(
            ScenarioConfig(experiment="TX_BF", n_cycles=100, seed=13, mesh=TX_MESH)
        )
        elapsed = time.perf_counter() - t0
        steady = [r for r in recs if "warmup" not in r.flags]
        gain = _lin_avg_db([r.gain_snr_db for r in steady])
        _report(
            "criterion 2",
            f"transmit SNR gain {gain:.3f} dB within 0.5 of 9.542, runtime {elapsed:.1f}s < 60s",
            abs(gain - 9.542) <= 0.5 and elapsed < 60.0,
        )

    def test_criterion_3_interference_rejection(self):
        """Single interferer at ~15 dB SISO INR, interference-only covariance:
        beamformed INR >= 10 dB below the SISO average and SINR improvement
        >= 10 dB, time-averaged over 100 cycles."""
        recs = run_scenario(
            ScenarioConfig(
                experiment="RX_BF_INTERF",
                n_cycles=100,
                interferer_power=1.78,
                cov_source="interference_only",
                seed=12,
            )
        )
        siso_inr = _lin_avg_db([v for r in recs for v in r.siso_inr_db])
        inr_red = _lin_avg_db([r.inr_reduction_db for r in recs])
        sinr_impr = _lin_avg_db([r.sinr_improvement_db for r in recs])
        _report(
            "criterion 3",
            f"SISO INR {siso_inr:.1f} dB, INR reduction {inr_red:.1f} dB >= 10, "
            f"SINR improvement {sinr_impr:.1f} dB >= 10",
            13.0 <= siso_inr <= 17.0 and inr_red >= 10.0 and sinr_impr >= 10.0,
        )

    def test_criterion_4_transmit_nulling(self):
        """Independent random channels: simultaneous gain >= +6 dB at B and
        <= -6 dB at C, separation >= 12 dB, time-averaged."""
        recs = run_scenario(
            ScenarioConfig(
                experiment="TX_NULL", n_cycles=100, seed=14, channel_kind="rayleigh", mesh=TX_MESH
            )
        )
        steady = [r for r in recs if "warmup" not in r.flags]
        gain_b = _lin_avg_db([r.gain_snr_db for r in steady])
        gain_c = _lin_avg_db([r.gain_c_db for r in steady])
        _report(
            "criterion 4",
            f"gain at B {gain_b:.2f} dB >= +6, gain at C {gain_c:.2f} dB <= -6, "
            f"separation {gain_b - gain_c:.1f} dB >= 12",
            gain_b >= 6.0 and gain_c <= -6.0 and (gain_b - gain_c) >= 12.0,
        )

    def test_criterion_5_coherence_stability(self):
        """Feedback halted at 2.5 s with drift calibrated to terminal
        phi^2 ~ 0.2 rad^2: the 20-seed average decays monotonically after the
        halt and the final gain lies within 1.5 dB of the bound trajectory."""
        n_cycles, halt, period = 48, 2.5, 0.25
        t_end = n_cycles * period
        walk_var = 0.2 / (t_end - halt)
        gains = []
        halt_cycle = None
        for seed in range(20):
            cfg = ScenarioConfig(
                experiment="COHERENCE",
                n_cycles=n_cycles,
                seed=1000 + seed,
                phase_walk_var_per_s=walk_var,
                feedback_halt_time_s=halt,
                mesh=TX_MESH,
            )
            recs = run_scenario(cfg)
            gains.append([10 ** (r.gain_snr_db / 10) for r in recs])
            halt_cycle = next(i for i, r in enumerate(recs) if "halted" in r.flags)
        avg = np.mean(np.array(gains), axis=0)
        post = avg[halt_cycle:]
        block_means = [float(np.mean(b)) for b in np.array_split(post, 5)]
        monotone = all(b2 <= b1 for b1, b2 in zip(block_means, block_means[1:]))
        final_db = 10 * np.log10(avg[-1])
        phi_final = walk_var * ((n_cycles - 1) * period - halt)
        bound_db = metrics.to_db(metrics.power_gain_bound(3, phi_final))
        peak_db = 10 * np.log10(np.max(avg))
        _report(
            "criterion 5",
            f"post-halt block means {['%.2f' % (10 * np.log10(b)) for b in block_means]} dB "
            f"monotone; final {final_db:.2f} dB within 1.5 of bound {bound_db:.2f} dB "
            f"(peak {peak_db:.2f})",
            monotone and abs(final_db - bound_db) <= 1.5,
        )

    def test_criterion_6_bounds_spot_checks(self):
        """Closed-form bound values and monotonicity, in under a second."""
        t0 = time.perf_counter()
        exact_9 = metrics.power_gain_bound(3, 0.0) == 9.0
        limit_3 = metrics.power_gain_bound(3, 1e9) == pytest.approx(3.0, abs=1e-12)
        inr_two_thirds = metrics.inr_reduction_bound(3, 1e9) == pytest.approx(2.0 / 3.0, abs=1e-12)
        grid = np.linspace(0.0, 6.0, 100)
        pg = [metrics.power_gain_bound(3, p) for p in grid]
        ir = [metrics.inr_reduction_bound(3, p) for p in grid]
        mono = all(b <= a for a, b in zip(pg, pg[1:])) and all(
            b >= a for a, b in zip(ir, ir[1:])
        )
        elapsed = time.perf_counter() - t0
        _report(
            "criterion 6",
            f"power_gain(3,0)={pg[0]}, limits and 100-point monotonicity, runtime {elapsed:.3f}s",
            exact_9 and limit_3 and inr_two_thirds and mono and elapsed < 1.0,
        )

    def test_criterion_7_oracle_equivalence_suite(self):
        t0 = time.perf_counter()
        rng = substream(0xACCE97, "acceptance", "oracles")

        # (a) MMSE weights vs dense normal-equation oracle, 50 random instances
        worst_mmse = 0.0
        for _ in range(50):
            n = int(rng.integers(1, 4))
            t_w = int(rng.integers(1, 9))
            t_z = int(rng.integers(48, 200))
            s = rng.normal(size=t_z) + 1j * rng.normal(size=t_z)
            mats = []
            for i in range(n):
                z = rng.normal(size=t_z + 8) + 1j * rng.normal(size=t_z + 8)
                mats.append(build_delay_matrix(ComplexSignal(z, 1.0), 3, t_z, t_w, f"n{i}"))
            bf = mmse_rx_beamformer(mats, s)
            zst = np.vstack([m.data for m in mats])
            s_bar = np.zeros(t_z + t_w - 1, dtype=complex)
            s_bar[t_w // 2 : t_w // 2 + t_z] = s
            a = zst @ zst.conj().T + bf.delta * np.eye(n * t_w)
            w_oracle = np.linalg.solve(a, zst @ np.conj(s_bar))
            rel = np.linalg.norm(bf.weights.ravel() - w_oracle) / np.linalg.norm(w_oracle)
            worst_mmse = max(worst_mmse, rel)
        ok_a = worst_mmse <= 1e-8

        # (b) delay-matrix filtering vs direct convolution: exact up to
        # summation order (different associativity shifts the last ulp)
        ok_b = True
        for _ in range(10):
            t_w = int(rng.integers(1, 9))
            t_z = int(rng.integers(16, 64))
            z = rng.normal(size=t_z + 8) + 1j * rng.normal(size=t_z + 8)
            w = rng.normal(size=t_w) + 1j * rng.normal(size=t_w)
            dm = build_delay_matrix(ComplexSignal(z, 1.0), 2, t_z, t_w)
            via = np.conj(w) @ dm.data
            direct = np.array(
                [
                    sum(np.conj(w[k]) * z[2 + c - k] for k in range(t_w) if 0 <= c - k < t_z)
                    for c in range(t_z + t_w - 1)
                ]
            )
            ok_b = ok_b and bool(np.allclose(via, direct, rtol=1e-12, atol=1e-12))

        # (c) channel LS vs pseudoinverse oracle
        worst_ls = 0.0
        for _ in range(20):
            t_h = int(rng.integers(1, 9))
            ref = rng.normal(size=128) + 1j * rng.normal(size=128)
            h = rng.normal(size=t_h) + 1j * rng.normal(size=t_h)
            y = np.convolve(ref, h) + 0.05 * (
                rng.normal(size=128 + t_h - 1) + 1j * rng.normal(size=128 + t_h - 1)
            )
            est = estimate_channel(ComplexSignal(y, 1.0), ComplexSignal(ref, 1.0), 0, t_h)
            design = np.zeros((128 + t_h - 1, t_h), dtype=complex)
            for k in range(t_h):
                design[k : k + 128, k] = ref
            oracle = np.linalg.pinv(design) @ y
            worst_ls = max(worst_ls, float(np.linalg.norm(est.taps - oracle) / np.linalg.norm(oracle)))
        ok_c = worst_ls <= 1e-8

        # (d) Golay minimum distance by exhaustive enumeration of all 4096
        # codewords (linear code: min distance = min nonzero weight)
        weights = [bin(golay_encode(u)).count("1") for u in range(1, 4096)]
        ok_d = min(weights) == 8

        # (e) two-way offset estimate exact under symmetric ToF, 1e4 tuples
        ok_e = True
        denoms = 2 ** rng.integers(0, 30, size=10_000)
        for i in range(10_000):
            d = int(denoms[i])
            delta = Fraction(int(rng.integers(-(2**30), 2**30)), d)
            tof = Fraction(int(rng.integers(0, 2**30)), d)
            t0_f = Fraction(int(rng.integers(2**31, 2**33)), 1) + 2 * abs(delta)
            gap = Fraction(int(rng.integers(1, 2**20)), d)
            est = estimate_offset(
                Timestamp.from_fraction(t0_f - delta),
                Timestamp.from_fraction(t0_f + tof),
                Timestamp.from_fraction(t0_f + tof + gap),
                Timestamp.from_fraction(t0_f + tof + gap + tof - delta),
            )
            if est != delta:
                ok_e = False
                break
        elapsed = time.perf_counter() - t0
        _report(
            "criterion 7",
            f"oracle suite: mmse rel {worst_mmse:.1e}, conv exact, ls rel {worst_ls:.1e}, "
            f"golay d=8, 1e4 offset tuples exact; runtime {elapsed:.1f}s < 120s",
            ok_a and ok_b and ok_c and ok_d and ok_e and elapsed < 120.0,
        )

    def test_criterion_8_ml_cfo_accuracy(self):
        """Noiseless off-grid CFO with 8192-sample integration: refined
        estimate within grid_step/10 of a 100x-finer brute-force search,
        100 random trials."""
        rng = substream(0xACCE98, "acceptance", "cfo")
        fs = 2e6
        n = 8192
        ref = ComplexSignal((rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2), fs)
        t = np.arange(n) / fs
        step = 1.0
        grid = np.arange(-100.0, 100.0 + step / 2, step)
        worst = 0.0
        for _ in range(100):
            f_true = float(rng.uniform(-80, 80))
            z = ComplexSignal(ref.samples * np.exp(2j * np.pi * f_true * t), fs)
            est = ml_cfo(z, ref, 0, grid)
            fine = np.arange(f_true - 1.5, f_true + 1.5, step / 100)
            oracle = ml_cfo(z, ref, 0, fine, refine=False)
            worst = max(worst, abs(est.f_hat_hz - oracle.f_hat_hz))
        _report(
            "criterion 8",
            f"worst |f_hat - oracle| {worst:.4f} Hz <= {step / 10} Hz over 100 trials",
            worst <= step / 10,
        )

    def test_criterion_9_determinism(self, tmp_path):
        """Rerunning an acceptance scenario with the same seed produces a
        byte-identical cycles.csv."""
        from dcbf.cli import main

        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["run", "--config", "rx_bf_interf", "--override", "n_cycles=6"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        same = (out1 / "cycles.csv").read_bytes() == (out2 / "cycles.csv").read_bytes()
        _report("criterion 9", "byte-identical cycles.csv on rerun", same)
