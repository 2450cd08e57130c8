"""Tests for acquisition, ML CFO estimation, and LS channel estimation."""

import numpy as np
import pytest

from dcbf import waveform
from dcbf.core import ComplexSignal, MeshConfig, substream
from dcbf.estimation import (
    AcquisitionError,
    _dtft,
    _dtft_factors,
    _factor_set,
    acquire,
    cfo_reference_table,
    estimate_channel,
    estimate_channels_joint,
    joint_ls_system,
    ml_cfo,
    ml_cfo_table,
    ml_cfo_windows,
    remove_dc,
)
from dcbf.scenario import FINE_CFO_LOBE_FRACTION, ScenarioConfig, _fine_grid

FS = 2e6


def _sig(x):
    return ComplexSignal(np.asarray(x, dtype=complex), FS)


def _pn_ref(rng, n=512):
    return (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2)


# references that acquire and estimate_channels_joint refuse: a non-finite sample, a 2-D shape
BAD_REFERENCES = {
    "nan": np.where(np.arange(64) == 9, np.nan, 1.0).astype(complex),
    "inf": np.where(np.arange(64) == 9, np.inf, 1.0).astype(complex),
    "2-D": np.ones((2, 32), complex),
}


class TestAcquire:
    def test_pure_delay(self):
        rng = substream(0, "t", "acq")
        ref = _pn_ref(rng)
        z = np.concatenate([np.zeros(37, complex), ref, np.zeros(20, complex)])
        res = acquire(_sig(z), [ref], lag_range=(0, 60), cfo_grid_hz=np.array([0.0]))
        assert res.lag == 37
        assert res.detection_stat == pytest.approx(1.0)

    def test_grid_aligned_cfo(self):
        rng = substream(1, "t", "acq")
        ref = _pn_ref(rng)
        t = np.arange(512) / FS
        z = np.concatenate([ref * np.exp(2j * np.pi * 250 * t), np.zeros(8, complex)])
        res = acquire(_sig(z), [ref], cfo_grid_hz=np.arange(-500, 501, 50))
        assert res.lag == 0
        assert res.coarse_cfo_hz == 250.0
        assert res.detection_stat == pytest.approx(1.0)

    def test_scale_invariance(self):
        rng = substream(2, "t", "acq")
        ref = _pn_ref(rng)
        z = np.concatenate([np.zeros(5, complex), ref, np.zeros(5, complex)])
        r1 = acquire(_sig(z), [ref], cfo_grid_hz=np.array([0.0]))
        r2 = acquire(_sig(z * (3.7 - 2j)), [ref], cfo_grid_hz=np.array([0.0]))
        assert r1.lag == r2.lag
        assert r1.detection_stat == pytest.approx(r2.detection_stat)

    def test_noise_only_false_alarm_rate(self):
        # 100 noise-only trials with an 8192-sample reference: detection
        # statistic must stay below 0.1 in at least 95 of them
        rng = substream(3, "t", "acq")
        ref = _pn_ref(rng, 8192)
        grid = np.arange(-200, 201, 100.0)
        false_alarms = 0
        for _ in range(100):
            z = (rng.normal(size=8192 + 16) + 1j * rng.normal(size=8192 + 16)) / np.sqrt(2)
            try:
                acquire(_sig(z), [ref], lag_range=(0, 16), cfo_grid_hz=grid, threshold=0.1)
                false_alarms += 1
            except AcquisitionError:
                pass
        assert false_alarms <= 5

    def test_stat_bounded_by_one(self):
        rng = substream(4, "t", "acq")
        ref = _pn_ref(rng, 256)
        z = (rng.normal(size=512) + 1j * rng.normal(size=512))
        res = acquire(_sig(z), [ref], cfo_grid_hz=np.arange(-2000, 2001, 50.0), threshold=0.0)
        assert 0.0 <= res.detection_stat <= 1.0

    def test_strongest_of_several_references(self):
        rng = substream(22, "t", "acq")
        refs = [_pn_ref(rng, 256) for _ in range(3)]
        z = np.zeros(300, complex)
        z[37 : 37 + 256] = refs[1] + 0.3 * refs[2]
        z[5 : 5 + 256] += 0.2 * refs[0]
        grid = np.arange(-500, 501, 50.0)
        each = [acquire(_sig(z), [ref], cfo_grid_hz=grid, threshold=0.0) for ref in refs]
        res = acquire(_sig(z), refs, cfo_grid_hz=grid, threshold=0.0)
        assert res == each[1] == max(each, key=lambda a: a.detection_stat)
        assert res.lag == 37

    def test_failure_reports_the_best_reference(self):
        rng = substream(23, "t", "acq")
        refs = [_pn_ref(rng, 256) for _ in range(3)]
        z = _sig(rng.normal(size=300) + 1j * rng.normal(size=300))
        grid = np.arange(-500, 501, 50.0)
        stats = [acquire(z, [ref], cfo_grid_hz=grid, threshold=0.0).detection_stat for ref in refs]
        with pytest.raises(AcquisitionError) as err:
            acquire(z, refs, cfo_grid_hz=grid, threshold=0.9)
        assert err.value.best_stat == max(stats)

    @pytest.mark.parametrize("lengths", [(), (64, 32)])
    def test_references_need_one_length(self, lengths):
        rng = substream(24, "t", "acq")
        with pytest.raises(ValueError, match="one length"):
            acquire(_sig(np.zeros(128, complex)), [_pn_ref(rng, n) for n in lengths], cfo_grid_hz=np.array([0.0]))

    def test_reference_longer_than_signal(self):
        rng = substream(5, "t", "acq")
        ref = _pn_ref(rng, 64)
        with pytest.raises(ValueError, match="longer"):
            acquire(_sig(np.zeros(32, complex)), [ref], cfo_grid_hz=np.array([0.0]))

    @pytest.mark.parametrize("bad", BAD_REFERENCES.values(), ids=BAD_REFERENCES.keys())
    def test_malformed_reference_rejected(self, bad):
        z = _sig(np.ones(128, complex))
        with pytest.raises(ValueError, match="1-D with finite samples"):
            acquire(z, [np.ones(64, complex), bad], cfo_grid_hz=np.array([0.0]), threshold=0.0)


class TestMlCfo:
    def test_zero_cfo(self):
        rng = substream(6, "t", "cfo")
        ref = _sig(_pn_ref(rng, 2048))
        res = ml_cfo(ref, ref, 0, np.arange(-100, 101, 1.0))
        assert res.f_hat_hz == pytest.approx(0.0, abs=1e-6)
        assert not res.at_boundary

    def test_grid_aligned_cfo_noiseless(self):
        rng = substream(7, "t", "cfo")
        ref = _sig(_pn_ref(rng, 2048))
        t = np.arange(2048) / FS
        z = _sig(ref.samples * np.exp(2j * np.pi * 40.0 * t))
        res = ml_cfo(z, ref, 0, np.arange(-100, 101, 1.0), refine=False)
        assert res.f_hat_hz == 40.0

    def test_off_grid_refinement_vs_fine_grid_oracle(self):
        # quadratic refinement must land within grid_step/10 of the value a
        # 100x finer brute-force grid would find
        rng = substream(8, "t", "cfo")
        ref = _sig(_pn_ref(rng, 8192))
        t = np.arange(8192) / FS
        step = 1.0
        for f_true in (13.37, -71.62, 44.09):
            z = _sig(ref.samples * np.exp(2j * np.pi * f_true * t))
            coarse = ml_cfo(z, ref, 0, np.arange(-100, 100.5, step))
            fine_grid = np.arange(f_true - 2, f_true + 2, step / 100)
            oracle = ml_cfo(z, ref, 0, fine_grid, refine=False)
            assert abs(coarse.f_hat_hz - oracle.f_hat_hz) <= step / 10

    def test_boundary_flag(self):
        rng = substream(9, "t", "cfo")
        ref = _sig(_pn_ref(rng, 1024))
        t = np.arange(1024) / FS
        z = _sig(ref.samples * np.exp(2j * np.pi * 500.0 * t))
        res = ml_cfo(z, ref, 0, np.arange(-100, 101, 1.0))
        assert res.at_boundary

    def test_peak_dominance_at_true_cfo(self):
        # the metric at the true grid-aligned CFO dominates every other point
        rng = substream(10, "t", "cfo")
        ref = _sig(_pn_ref(rng, 2048))
        t = np.arange(2048) / FS
        f0 = 60.0
        z = _sig(ref.samples * np.exp(2j * np.pi * f0 * t))
        grid = np.arange(-100, 101, 20.0)
        metrics = []
        for f in grid:
            r = np.sum(z.samples * np.conj(ref.samples) * np.exp(-2j * np.pi * f * t))
            metrics.append(abs(r) ** 2)
        assert grid[int(np.argmax(metrics))] == f0


class TestFineStepBias:
    """The quadratic refinement's bias over the fine steps validate_scenario
    admits, on the runners' fine grid and the matched source preamble."""

    def test_bias_bounded_across_admitted_steps(self):
        mesh = MeshConfig()
        ref = waveform._centered_convolve(waveform.source_ambles(mesh)["preamble"], waveform.PULSE)
        lobe = mesh.sample_rate_hz / len(ref)
        t = np.arange(len(ref)) / mesh.sample_rate_hz
        offsets = np.linspace(-45.0, 45.0, 91)  # noiseless, within two coarse steps of the coarse estimate
        windows = np.array([ref * np.exp(2j * np.pi * f * t) for f in offsets])
        worst = []
        for fraction in (0.01, 0.04, 0.07, FINE_CFO_LOBE_FRACTION):
            grid = _fine_grid(ScenarioConfig(fine_cfo_step_hz=fraction * lobe))
            estimates = ml_cfo_windows(windows, [ref] * len(offsets), grid, mesh.sample_rate_hz)
            assert not any(e.at_boundary for e in estimates)
            worst.append(np.max(np.abs([e.f_hat_hz for e in estimates] - offsets)))
        assert max(worst) <= 3e-4 * lobe  # 0.073 Hz of the 244 Hz lobe
        assert worst == sorted(worst)  # coarser steps, larger bias: the limit is where the budget binds


# lengths for the DTFT kernel's sqrt(n) split: a square (no padding), powers of
# two, and neither; grids: coarse, fine, one point, and unevenly spaced
ORACLE_LENGTHS = (512, 1000, 1024, 8191, 8192)
ORACLE_GRIDS = {
    "coarse": np.arange(-2000, 2001, 50.0),
    "fine": np.arange(-100, 100.5, 1.0),
    "one_point": np.array([137.0]),
    "uneven": np.sort(substream(19, "t", "grid").uniform(-3000, 3000, 23)),
}
ORACLE_RTOL = 1e-9


def _close(a, b):
    """Equal to ORACLE_RTOL relative to the largest magnitude of the dense result."""
    return np.max(np.abs(a - b)) <= ORACLE_RTOL * np.max(np.abs(b))


class TestDenseOracle:
    """acquire's statistic and ml_cfo's metric against dense evaluation through
    cfo_reference_table / ml_cfo_table, on random inputs."""

    @pytest.mark.parametrize("grid", ORACLE_GRIDS.values(), ids=ORACLE_GRIDS.keys())
    @pytest.mark.parametrize("n", ORACLE_LENGTHS)
    def test_acquire_statistic(self, n, grid):
        rng = substream(20, "t", f"acq{n}")
        ref = _pn_ref(rng, n)
        z = _sig(rng.normal(size=n + 12) + 1j * rng.normal(size=n + 12))
        windows = np.lib.stride_tricks.sliding_window_view(z.samples, n)[2:12]
        dense = windows @ cfo_reference_table(ref, grid, FS)
        assert _close(_dtft(windows, np.conj(ref), _dtft_factors(n, grid, FS)), dense)

        energies = np.sum(np.abs(windows) ** 2, axis=1)[:, None] * np.sum(np.abs(ref) ** 2)
        stats = np.abs(dense) ** 2 / energies
        li, fi = np.unravel_index(np.argmax(stats), stats.shape)
        res = acquire(z, [ref], lag_range=(2, 12), cfo_grid_hz=grid, threshold=0.0)
        assert (res.lag, res.coarse_cfo_hz) == (2 + li, grid[fi])
        assert res.detection_stat == pytest.approx(stats[li, fi], rel=ORACLE_RTOL)

    @pytest.mark.parametrize("grid", ORACLE_GRIDS.values(), ids=ORACLE_GRIDS.keys())
    @pytest.mark.parametrize("n", ORACLE_LENGTHS)
    def test_ml_cfo_metric(self, n, grid):
        rng = substream(21, "t", f"cfo{n}")
        ref = _sig(_pn_ref(rng, n))
        z = _sig(_pn_ref(rng, n + 3))
        r = z.samples[3:] * np.conj(ref.samples)
        dense = np.abs(ml_cfo_table(grid, n, FS) @ r) ** 2
        got = _dtft(z.samples[3:][None], np.conj(ref.samples)[None], _dtft_factors(n, grid, FS))
        assert _close(np.abs(got[0]) ** 2, dense)

        res = ml_cfo(z, ref, 3, grid, refine=False)
        assert res.f_hat_hz == grid[np.argmax(dense)]
        assert res.peak_metric == pytest.approx(np.max(dense), rel=ORACLE_RTOL)


def _one_line_dtft(x, w, grid_hz, fs):
    """The DTFT with each factor product written out in full, its operand
    order named: the one-point product from w's side, the a-factor product
    from the factor's side for one window (x 1-D) and from the inner sums'
    side for a stack of lag windows. The form the shared factors must keep
    the bits of."""
    n = x.shape[-1]
    if len(grid_hz) == 1:
        return (x @ np.multiply(w, np.exp(-2j * np.pi * (np.arange(n) / fs) * grid_hz[0])))[..., None]
    n_b = int(np.ceil(np.sqrt(n)))
    n_a = -(-n // n_b)
    xw = np.zeros(x.shape[:-1] + (n_a * n_b,), dtype=np.complex128)
    xw[..., :n] = x * w
    phase = -2j * np.pi * grid_hz / fs
    inner = xw.reshape(-1, n_b) @ np.exp(np.outer(np.arange(n_b), phase))
    inner = inner.reshape(x.shape[:-1] + (n_a, len(grid_hz)))
    e_a = np.exp(np.outer(np.arange(n_a) * n_b, phase))
    return np.sum(np.multiply(e_a, inner) if x.ndim == 1 else np.multiply(inner, e_a), axis=-2)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


FINE_GRID = np.arange(-100, 100.5, 1.0)


class TestSharedFactors:
    """The DTFT's factors evaluated once and shared, bitwise against the
    written-out form. numpy's complex multiply is not bitwise commutative,
    so the form names each product's operand order, one order at every
    size."""

    # 1,040 and 8,208 samples: the matched 1,024- and 8,192-sample ambles, whose
    # (n_a, 201) factor holds 32 x 201 x 16 B (100 KiB) and 91 x 201 x 16 B
    # (286 KiB); 20,000 samples make a 313 KiB one-point factor
    @pytest.mark.parametrize("grid", [FINE_GRID, np.array([37.0])], ids=["fine", "one_point"])
    @pytest.mark.parametrize("n", [1040, 8208, 20000])
    def test_rows_match_one_window_calls(self, n, grid):
        rng = substream(25, "t", f"rows{n}")
        x = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        w = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        got = _dtft(x, w, _dtft_factors(n, grid, FS))
        for i in range(3):
            assert np.array_equal(_bits(got[i]), _bits(_one_line_dtft(x[i], w[i], grid, FS)))

    # 2,048 samples: the (45, G) factor holds 58 KiB at the bundled 81-point
    # coarse grid and 282 KiB at 401 points
    @pytest.mark.parametrize("points", [1, 81, 401])
    def test_lag_windows_match_the_one_line_form(self, points):
        rng = substream(26, "t", f"lags{points}")
        z = rng.normal(size=2048 + 16) + 1j * rng.normal(size=2048 + 16)
        windows = np.lib.stride_tricks.sliding_window_view(z, 2048)
        w = rng.normal(size=2048) + 1j * rng.normal(size=2048)
        grid = np.linspace(-2000, 2000, points) if points > 1 else np.array([0.0])
        got = _dtft(windows, w, _dtft_factors(2048, grid, FS))
        assert np.array_equal(_bits(got), _bits(_one_line_dtft(windows, w, grid, FS)))

    @pytest.mark.parametrize("n", [1040, 8208])
    def test_ml_cfo_windows_match_one_window_calls(self, n):
        rng = substream(27, "t", f"cfo_rows{n}")
        refs = [_pn_ref(rng, n) for _ in range(3)]
        t = np.arange(n) / FS
        wins = np.array([ref * np.exp(2j * np.pi * f * t) for ref, f in zip(refs, (13.37, -71.6, 99.9))])
        wins += 0.1 * (rng.normal(size=wins.shape) + 1j * rng.normal(size=wins.shape))
        got = ml_cfo_windows(wins, refs, FINE_GRID, FS)
        assert got == [ml_cfo(_sig(win), _sig(ref), 0, FINE_GRID) for win, ref in zip(wins, refs)]
        assert [e.at_boundary for e in got] == [False, False, True]


def _acquire_per_window(z, references, lag_range, grid):
    """acquire's search with each lag window's energy summed from that
    window's own |z|^2 values: (lag, coarse CFO, statistic) of the strongest
    reference, the first on ties. The bits that acquire must keep."""
    zs, t_ref = z.samples, len(references[0])
    lag_lo, lag_hi = lag_range[0], min(lag_range[1], len(zs) - t_ref + 1)
    windows = np.lib.stride_tricks.sliding_window_view(zs, t_ref)[lag_lo:lag_hi]
    win_energy = np.sum(np.abs(windows) ** 2, axis=1)
    factors = _dtft_factors(t_ref, grid, FS)
    best = None
    for ref in references:
        inner = _dtft(windows, np.conj(ref), factors)
        denom = np.maximum(win_energy * float(np.sum(np.abs(ref) ** 2)), 1e-300)
        stats = np.abs(inner) ** 2 / denom[:, None]
        li, fi = np.unravel_index(int(np.argmax(stats)), stats.shape)
        if best is None or stats[li, fi] > best[2]:
            best = (lag_lo + int(li), float(grid[fi]), float(stats[li, fi]))
    return best


class TestAcquireEnergyBits:
    """acquire squares each sample its lag windows cover once and sums each
    window over its own samples: lag, coarse CFO and statistic equal the
    per-window form's exactly, on either side of numpy's 8-element pairwise
    blocks and 128-element pairwise base case."""

    @pytest.mark.parametrize("grid", [np.array([0.0]), np.arange(-2000, 2001, 50.0)], ids=["one_point", "coarse"])
    @pytest.mark.parametrize("t_ref", [1, 7, 8, 9, 127, 128, 129, 512, 2048])
    def test_matches_per_window_energies(self, t_ref, grid):
        rng = substream(29, "t", f"energy{t_ref}")
        refs = [_pn_ref(rng, t_ref) for _ in range(2)]
        n = t_ref + 40
        zs = rng.normal(size=n) + 1j * rng.normal(size=n)
        zs[11 : 11 + t_ref] += 3 * refs[1] * np.exp(2j * np.pi * 400.0 * np.arange(t_ref) / FS)
        z = _sig(zs)
        # lag_lo > 0 with lag_hi inside the signal, then lag_hi clipped at n - t_ref + 1
        for lag_range in [(3, 20), (3, n - t_ref + 9)]:
            res = acquire(z, refs, lag_range, cfo_grid_hz=grid, threshold=0.0)
            assert (res.lag, res.coarse_cfo_hz, res.detection_stat) == _acquire_per_window(z, refs, lag_range, grid)


class TestFactorCache:
    """The DTFT factor sets are kept for the process, keyed on n, the grid's
    values and fs."""

    @pytest.mark.parametrize(
        "n, grid", [(2048, np.arange(-2000, 2001, 50.0)), (8192, FINE_GRID), (700, np.array([0.0]))]
    )
    def test_hits_are_read_only_and_bitwise_fresh(self, n, grid):
        factors = _dtft_factors(n, grid, FS)
        assert _dtft_factors(n, grid.copy(), FS) is factors  # another array of the same values
        fresh = _factor_set.__wrapped__(n, grid.tobytes(), FS)
        assert len(factors) == len(fresh)
        for cached, new in zip(factors, fresh):
            assert np.array_equal(_bits(cached), _bits(new))
            with pytest.raises(ValueError, match="read-only"):
                cached *= 1

    def test_bounded_over_a_sweep_of_grids(self):
        rng = substream(28, "t", "sweep")
        ref = _pn_ref(rng, 256)
        z = _sig(np.concatenate([np.zeros(5), ref, np.zeros(5)]))
        for step in range(10, 60, 5):
            acquire(z, [ref], cfo_grid_hz=np.arange(-500, 500.5, step), threshold=0.0)
            ml_cfo(z, _sig(ref), 5, np.arange(-2 * step, 2 * step + 0.5, 1.0))
        info = _factor_set.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize <= 4


class TestEstimateChannel:
    def test_known_two_tap_channel(self):
        rng = substream(11, "t", "ls")
        ref = _sig(_pn_ref(rng, 256))
        h = np.array([1.0, 0.5j])
        y = np.convolve(ref.samples, h)
        est = estimate_channel(_sig(y), ref, 0, 2)
        assert np.max(np.abs(est.taps - h)) < 1e-10
        assert est.residual_power < 1e-20

    def test_pure_delay_channel(self):
        rng = substream(12, "t", "ls")
        ref = _sig(_pn_ref(rng, 256))
        h = np.array([0, 0, 1.0, 0])
        y = np.convolve(ref.samples, h)
        est = estimate_channel(_sig(y), ref, 0, 4)
        assert np.max(np.abs(est.taps - h)) < 1e-10

    def test_matches_pseudoinverse_oracle_and_unbiased(self):
        rng = substream(13, "t", "ls")
        ref = _sig(_pn_ref(rng, 512))
        h = np.array([0.8, -0.3 + 0.4j, 0.1j])
        snr_lin = 100.0  # 20 dB
        sigma = np.sqrt(1.0 / snr_lin / 2)
        taps = []
        for _ in range(50):
            clean = np.convolve(ref.samples, h)
            y = clean + sigma * (rng.normal(size=len(clean)) + 1j * rng.normal(size=len(clean)))
            est = estimate_channel(_sig(y), ref, 0, 3)
            # dense pseudoinverse oracle on the same data
            rows = len(ref.samples) + 2
            design = np.zeros((rows, 3), dtype=complex)
            for k in range(3):
                design[k : k + len(ref.samples), k] = ref.samples
            oracle = np.linalg.pinv(design) @ y
            assert np.max(np.abs(est.taps - oracle)) < 1e-8
            taps.append(est.taps)
        mean_taps = np.mean(taps, axis=0)
        per_tap_sigma = sigma / np.linalg.norm(ref.samples) * np.sqrt(2)
        assert np.all(np.abs(mean_taps - h) < 3 * per_tap_sigma / np.sqrt(50) + 1e-9)

    def test_reconstruction_residual_zero_noiseless(self):
        rng = substream(14, "t", "ls")
        for t_h in (1, 2, 4, 8):
            ref = _sig(_pn_ref(rng, 256))
            h = rng.normal(size=t_h) + 1j * rng.normal(size=t_h)
            y = np.convolve(ref.samples, h)
            est = estimate_channel(_sig(y), ref, 0, t_h)
            recon = np.convolve(ref.samples, est.taps)
            rel = np.sum(np.abs(y - recon) ** 2) / np.sum(np.abs(y) ** 2)
            assert rel < 1e-12

    def test_short_reference_rejected(self):
        rng = substream(15, "t", "ls")
        ref = _sig(_pn_ref(rng, 8))
        with pytest.raises(ValueError, match="reference length"):
            estimate_channel(_sig(np.zeros(32, complex)), ref, 0, 4)

    def test_degenerate_reference_rejected(self):
        ref = _sig(np.zeros(64))  # no excitation: normal matrix is singular
        y = np.ones(65, dtype=complex)
        with pytest.raises(ValueError, match="degenerate|singular"):
            estimate_channel(_sig(y), ref, 0, 2)


class TestJointEstimation:
    def test_separates_overlapping_references(self):
        rng = substream(16, "t", "joint")
        refs = [_pn_ref(rng, 512) for _ in range(3)]
        hs = [np.array([1.0, 0.2j]), np.array([-0.5, 0.7]), np.array([0.3 - 0.3j, 0.9j])]
        y = np.zeros(513, dtype=complex)
        for ref, h in zip(refs, hs):
            y += np.convolve(ref, h)
        ests = estimate_channels_joint(_sig(y), refs, 0, 2)
        for est, h in zip(ests, hs):
            assert np.max(np.abs(est.taps - h)) < 1e-10

    def test_mismatched_lengths_rejected(self):
        rng = substream(17, "t", "joint")
        refs = [_pn_ref(rng, 64), _pn_ref(rng, 32)]
        with pytest.raises(ValueError, match="share a length"):
            estimate_channels_joint(_sig(np.zeros(128, complex)), refs, 0, 2)

    @pytest.mark.parametrize("bad", BAD_REFERENCES.values(), ids=BAD_REFERENCES.keys())
    def test_malformed_reference_rejected(self, bad):
        with pytest.raises(ValueError, match="1-D with finite samples"):
            estimate_channels_joint(_sig(np.ones(128, complex)), [np.ones(64, complex), bad], 0, 2)

    @staticmethod
    def _per_call_fit(y, refs, t_h):
        """The fit as it was written before the system was kept: design,
        normal matrix and conditioning rebuilt on every call."""
        design = np.zeros((len(refs[0]) + t_h - 1, len(refs) * t_h), dtype=np.complex128)
        for i, r in enumerate(refs):
            for k in range(t_h):
                design[k : k + len(r), i * t_h + k] = r
        a = design.conj().T @ design
        b = design.conj().T @ y
        assert np.linalg.cond(a) <= 1e12
        h = np.linalg.solve(a, b)
        return h, float(np.mean(np.abs(y - design @ h) ** 2))

    # the bundled TX fit (three 8,192-sample references, 4 taps each) and smaller ones
    @pytest.mark.parametrize("n_refs, t_ref, t_h", [(1, 8, 1), (1, 64, 4), (2, 129, 3), (3, 512, 2), (3, 8192, 4)])
    def test_kept_system_matches_per_call_fit(self, n_refs, t_ref, t_h):
        rng = substream(t_ref, "t", "joint_system")
        refs = [_pn_ref(rng, t_ref) for _ in range(n_refs)]
        y = _pn_ref(rng, t_ref + t_h - 1 + 5)
        system = joint_ls_system(refs, t_h)
        h, resid = self._per_call_fit(y[5 : 5 + t_ref + t_h - 1], refs, t_h)
        for ests in (estimate_channels_joint(_sig(y), refs, 5, t_h),
                     estimate_channels_joint(_sig(y), refs, 5, t_h, system)):
            assert np.concatenate([e.taps for e in ests]).tobytes() == h.tobytes()
            assert all(e.residual_power == resid for e in ests)
        for part in system:
            assert not part.flags.writeable

    def test_system_of_other_shape_rejected(self):
        rng = substream(19, "t", "joint")
        refs = [_pn_ref(rng, 64) for _ in range(2)]
        y = _sig(np.ones(128, complex))
        systems = joint_ls_system(refs, 3), joint_ls_system(refs[:1], 2), joint_ls_system([r[:32] for r in refs], 2)
        for system in systems:
            with pytest.raises(ValueError, match="does not fit"):
                estimate_channels_joint(y, refs, 0, 2, system)

    def test_singular_system_rejected_when_built(self):
        with pytest.raises(ValueError, match="numerically singular"):
            joint_ls_system([np.zeros(64, complex)], 2)


class TestRemoveDc:
    def test_removes_constant_offset(self):
        rng = substream(18, "t", "dc")
        x = rng.normal(size=256) + 1j * rng.normal(size=256) + (3 - 2j)
        y = remove_dc(x)
        assert y is x
        assert abs(np.mean(x)) < 1e-12
