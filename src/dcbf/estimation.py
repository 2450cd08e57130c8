"""Signal acquisition, fine CFO estimation, and LS channel estimation."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import ComplexSignal, _conv_matrix

__all__ = [
    "AcquisitionError",
    "AcquisitionResult",
    "CfoEstimate",
    "ChannelEstimate",
    "acquire",
    "cfo_reference_table",
    "ml_cfo",
    "ml_cfo_table",
    "ml_cfo_windows",
    "estimate_channel",
    "estimate_channels_joint",
    "joint_ls_system",
    "remove_dc",
]


class AcquisitionError(RuntimeError):
    """No lag/CFO hypothesis cleared the detection threshold."""

    def __init__(self, best_stat: float, threshold: float):
        self.best_stat = best_stat
        self.threshold = threshold
        super().__init__(f"no detection: best stat {best_stat:.4f} < threshold {threshold}")


@dataclass(frozen=True)
class AcquisitionResult:
    lag: int
    coarse_cfo_hz: float
    detection_stat: float  # |normalized inner product|^2, in [0, 1]


@dataclass(frozen=True)
class CfoEstimate:
    f_hat_hz: float
    at_boundary: bool  # peak sat on the grid edge; range likely too small
    peak_metric: float


@dataclass(frozen=True)
class ChannelEstimate:
    taps: np.ndarray
    residual_power: float


def _dtft_factors(n: int, grid_hz: np.ndarray, fs: float) -> tuple[np.ndarray, ...]:
    """The phasor factors of an n-sample DTFT on the float grid_hz, for _dtft;
    read-only, and the same arrays for every call with the same n, grid
    values and fs.

    A one-point grid has one factor, the n samples of exp(-i*2*pi*f*t/fs).
    Otherwise t = a*n_b + b, n_b = ceil(sqrt(n)), and exp(-i*2*pi*f*t/fs)
    factors as exp(-i*2*pi*f*b/fs) * exp(-i*2*pi*f*a*n_b/fs): an (n_b, G) and
    an (n_a, G) array, (n_a + n_b) exponentials per frequency instead of n.
    """
    return _factor_set(n, np.ascontiguousarray(grid_hz, dtype=float).tobytes(), fs)


@lru_cache(maxsize=4)
def _factor_set(n: int, grid: bytes, fs: float) -> tuple[np.ndarray, ...]:
    """_dtft_factors of the grid whose float64 values are the bytes grid.

    Cached for the whole process, keyed on the values: a runner asks for the
    same two sets (coarse and fine grid) in every cycle and every runner of
    a sweep for the same ones again. Each call recomputes exactly these
    arrays, so a hit keeps the bits. scenario.MAX_CFO_GRID_POINTS states
    the largest set a runner can ask for.
    """
    grid_hz = np.frombuffer(grid)
    if len(grid_hz) == 1:
        factors = (np.exp(-2j * np.pi * (np.arange(n) / fs) * grid_hz[0]),)
    else:
        n_b = int(np.ceil(np.sqrt(n)))
        n_a = -(-n // n_b)
        phase = -2j * np.pi * grid_hz / fs
        factors = np.exp(np.outer(np.arange(n_b), phase)), np.exp(np.outer(np.arange(n_a) * n_b, phase))
    for f in factors:
        f.setflags(write=False)
    return factors


def _dtft(x: np.ndarray, w: np.ndarray, factors: tuple[np.ndarray, ...]) -> np.ndarray:
    """sum_t x[..., t] * w[..., t] * exp(-i*2*pi*f*t/fs) for every f of the
    grid that factors (_dtft_factors) were evaluated on.

    Returns shape x.shape[:-1] + (len(grid),). It only reads the factors,
    so one set serves any number of calls. A one-point grid is a single
    inner product; otherwise the sum is one matmul against the b factor,
    then a product with the a factor summed over a.

    numpy's complex multiply is not bitwise commutative, so each factor
    product takes one fixed operand side at every size: the one-point
    product is w * e; the a-factor product is e_a * inner when w is 2-D,
    x and w then being (N, n) stacks of one-window transforms, each row with
    the bits of its own call, and inner * e_a for a stack of lag windows
    against one 1-D w.
    """
    n = x.shape[-1]
    if len(factors) == 1:
        we = w * factors[0]
        if w.ndim == 2:
            return np.array([xi @ wi for xi, wi in zip(x, we)])[:, None]
        return (x @ we)[..., None]
    e_b, e_a = factors
    n_b, n_a = len(e_b), len(e_a)
    xw = np.zeros(x.shape[:-1] + (n_a * n_b,), dtype=np.complex128)
    xw[..., :n] = x * w
    inner = (xw.reshape(-1, n_b) @ e_b).reshape(x.shape[:-1] + e_a.shape)
    if w.ndim == 2:
        np.multiply(e_a, inner, out=inner)
    else:
        inner *= e_a
    return np.sum(inner, axis=-2)


def cfo_reference_table(reference: np.ndarray, cfo_grid_hz: np.ndarray, fs: float) -> np.ndarray:
    """Dense conj(ref[t] * exp(i*2*pi*f*t/fs)) for every grid frequency, shape
    (len(ref), len(grid)).

    Not used by acquire(); kept as the reference that tests compare its
    statistic against (window @ table).
    """
    t = np.arange(len(reference)) / fs
    return np.conj(reference)[:, None] * np.exp(-2j * np.pi * np.outer(t, cfo_grid_hz))


def _check_references(refs) -> None:
    """Raise ValueError unless every reference is 1-D with finite samples."""
    if any(np.ndim(r) != 1 or not np.all(np.isfinite(r)) for r in refs):
        raise ValueError("references must be 1-D with finite samples")


def acquire(
    z: ComplexSignal,
    references: list[np.ndarray],
    lag_range: tuple[int, int] | None = None,
    *,
    cfo_grid_hz: np.ndarray,
    threshold: float = 0.1,
) -> AcquisitionResult:
    """Joint lag/CFO search with a normalized inner product detector, over
    one or more references of one length.

    For each reference, maximizes |<z[lag:], ref * exp(i*2*pi*f*t/fs)>|^2 /
    (||z window||^2 * ||ref||^2) over lags in lag_range (half-open) and
    frequencies on the grid (any spacing; a one-point grid is a lag-only
    search), and returns the strongest reference's result, the first on
    ties. The reception z sets the sample rate; the references are arrays
    (_check_references). The statistic is scale invariant in z and bounded
    by 1. The references share the lag windows, their energies (bitwise the
    per-window sums) and the DTFT phasor factors; each takes one DTFT call.

    Raises AcquisitionError, with the best statistic of any reference, when
    it falls below threshold.
    """
    zs = z.samples
    _check_references(references)
    if len({len(r) for r in references}) != 1:
        raise ValueError("need one or more references of one length")
    n, t_ref = len(zs), len(references[0])
    if t_ref > n:
        raise ValueError(f"reference ({t_ref}) longer than signal ({n})")
    cfo_grid_hz = np.atleast_1d(np.asarray(cfo_grid_hz, dtype=float))
    lag_lo, lag_hi = lag_range if lag_range is not None else (0, n - t_ref + 1)
    lag_hi = min(lag_hi, n - t_ref + 1)
    if lag_lo < 0 or lag_lo >= lag_hi:
        raise ValueError(f"empty lag range [{lag_lo}, {lag_hi})")

    span = zs[lag_lo : lag_hi + t_ref - 1]  # |z|^2 once per sample; each window sums its own run
    windows = sliding_window_view(span, t_ref)
    win_energy = np.sum(sliding_window_view(np.abs(span) ** 2, t_ref), axis=1)
    factors = _dtft_factors(t_ref, cfo_grid_hz, z.sample_rate_hz)
    best = None
    for ref in references:
        inner = _dtft(windows, np.conj(ref), factors)  # (n_lags, n_freqs)
        ref_energy = float(np.sum(np.abs(ref) ** 2))
        denom = np.maximum(win_energy * ref_energy, 1e-300)
        stats = np.abs(inner) ** 2 / denom[:, None]
        li, fi = np.unravel_index(int(np.argmax(stats)), stats.shape)
        if best is None or stats[li, fi] > best.detection_stat:
            best = AcquisitionResult(
                lag=lag_lo + int(li), coarse_cfo_hz=float(cfo_grid_hz[fi]), detection_stat=float(stats[li, fi])
            )
    if best.detection_stat < threshold:
        raise AcquisitionError(best.detection_stat, threshold)
    return best


def ml_cfo_table(grid_hz: np.ndarray, n_samples: int, fs: float) -> np.ndarray:
    """Dense exp(-i*2*pi*f*t/fs) rows, shape (len(grid), n_samples).

    Not used by ml_cfo(); kept as the reference that tests compare its
    metric against (|table @ (window * conj(ref))|^2).
    """
    t = np.arange(n_samples) / fs
    return np.exp(-2j * np.pi * np.outer(np.asarray(grid_hz, dtype=float), t))


def ml_cfo(
    z: ComplexSignal,
    s_ref: ComplexSignal,
    tau_hat: int,
    grid_hz: np.ndarray,
    refine: bool = True,
) -> CfoEstimate:
    """Maximum-likelihood CFO on a grid: argmax_f |sum_t z[tau+t] s*[t] e^{-i2pift/fs}|^2.

    The one-window form of ml_cfo_windows, on the window of z that starts at
    tau_hat.
    """
    t_ref = len(s_ref.samples)
    window = z.samples[tau_hat : tau_hat + t_ref]
    if len(window) != t_ref:
        raise ValueError("window [tau_hat, tau_hat+T) not inside signal")
    return ml_cfo_windows(window[None], [s_ref.samples], grid_hz, z.sample_rate_hz, refine)[0]


def ml_cfo_windows(
    windows: np.ndarray, refs: list[np.ndarray], grid_hz: np.ndarray, fs: float, refine: bool = True
) -> list[CfoEstimate]:
    """ml_cfo of every row of the (N, T) windows against the T-sample
    reference refs[row], at sample rate fs; the rows share the DTFT phasor
    factors.

    Each row's metric on the whole grid (any spacing) is one row of a DTFT
    call, with the bits of a one-window call at every window length: its
    products take _dtft's fixed sides for rows (w * e on a one-point grid,
    the a factor times the inner sums otherwise). After the grid argmax, the
    estimate is refined once by quadratic interpolation of the metric
    through the peak and its two neighbors (skipped, with at_boundary set,
    when the peak sits on the grid edge).
    """
    grid_hz = np.atleast_1d(np.asarray(grid_hz, dtype=float))
    factors = _dtft_factors(windows.shape[-1], grid_hz, fs)
    metrics = np.abs(_dtft(windows, np.conj(refs), factors)) ** 2
    estimates = []
    for metric in metrics:
        k = int(np.argmax(metric))
        f_hat = float(grid_hz[k])
        at_boundary = k == 0 or k == len(grid_hz) - 1
        if refine and not at_boundary:
            m0, m1, m2 = metric[k - 1], metric[k], metric[k + 1]
            denom = m0 - 2 * m1 + m2
            if abs(denom) > 1e-300:
                step = grid_hz[k] - grid_hz[k - 1]
                f_hat += 0.5 * step * float((m0 - m2) / denom)
        estimates.append(CfoEstimate(f_hat_hz=f_hat, at_boundary=at_boundary, peak_metric=float(metric[k])))
    return estimates


def joint_ls_system(refs: list[np.ndarray], t_h: int) -> tuple[np.ndarray, np.ndarray]:
    """(dh, a), read-only: the conjugate transpose of the design matrix of
    estimate_channels_joint's fit, one t_h-column convolution matrix per
    reference side by side, and its normal matrix a = dh @ design.

    They depend on the references and t_h alone, so one pair serves every
    fit against the same references. Raises ValueError when a is numerically
    singular (condition number above 1e12).
    """
    t_ref = len(refs[0])
    design = np.zeros((t_ref + t_h - 1, len(refs) * t_h), dtype=np.complex128)
    for i, r in enumerate(refs):
        _conv_matrix(r, t_h, out=design[:, i * t_h : (i + 1) * t_h])
    dh = design.conj().T
    a = dh @ design
    if np.linalg.cond(a) > 1e12:
        raise ValueError("degenerate reference: normal matrix is numerically singular")
    dh.setflags(write=False)
    a.setflags(write=False)
    return dh, a


def estimate_channel(
    z: ComplexSignal,
    s_ref: ComplexSignal,
    tau_hat: int,
    t_h: int,
) -> ChannelEstimate:
    """Least-squares tapped-delay-line fit of the window starting at tau_hat.

    Minimizes ||z_window - conv(s_ref, h)||^2 over h of length t_h via the
    normal equations. CFO must already be corrected on the window.
    """
    return estimate_channels_joint(z, [s_ref.samples], tau_hat, t_h)[0]


def estimate_channels_joint(
    z: ComplexSignal,
    refs: list[np.ndarray],
    tau_hat: int,
    t_h: int,
    system: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[ChannelEstimate]:
    """Jointly fit one tapped delay line per reference to a composite reception.

    All references must share a length and be time-aligned at tau_hat (the
    concurrent CDMA preamble case); the joint solve separates overlapping
    transmissions exactly rather than treating cross-correlation as noise.
    The references are arrays (_check_references). system is their
    joint_ls_system(refs, t_h), built here when not given.
    """
    if not refs:
        raise ValueError("need at least one reference")
    _check_references(refs)
    lens = {len(r) for r in refs}
    if len(lens) != 1:
        raise ValueError("references must share a length")
    (t_ref,) = lens
    if t_ref < 4 * t_h * len(refs):
        raise ValueError(f"reference length {t_ref} < 4*t_h*{len(refs)} = {4 * t_h * len(refs)}")
    rows = t_ref + t_h - 1
    y = z.samples[tau_hat : tau_hat + rows]
    if len(y) != rows:
        raise ValueError("observation window not inside signal")
    dh, a = joint_ls_system(refs, t_h) if system is None else system
    if dh.shape != (len(refs) * t_h, rows):
        raise ValueError(f"system of shape {dh.shape} does not fit {len(refs)} references and t_h = {t_h}")
    h_all = np.linalg.solve(a, dh @ y)
    # design @ h_all as the conjugate of conj(design) @ conj(h_all): dh.T is conj(design) in
    # design's layout, and negating imaginary parts commutes with every rounding, so the
    # bits are design @ h_all's without a conjugated copy of the design
    resid = float(np.mean(np.abs(y - np.conj(dh.T @ np.conj(h_all))) ** 2))
    return [ChannelEstimate(taps=h_all[i * t_h : (i + 1) * t_h], residual_power=resid) for i in range(len(refs))]


def remove_dc(x: np.ndarray) -> np.ndarray:
    """Subtract the mean of x over the whole signal, in place; returns x."""
    x -= np.mean(x)
    return x
