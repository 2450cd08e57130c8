"""Power/SNR/INR/SINR estimators and the phase-error performance bounds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Segment

__all__ = [
    "DB_FLOOR",
    "LinkMetrics",
    "to_db",
    "segment_power",
    "link_metrics",
    "snr_gain",
    "power_gain_bound",
    "rx_snr_gain_bound",
    "inr_reduction_bound",
]

# Non-positive linear ratios clamp here so emitted dB columns stay finite.
DB_FLOOR = -60.0


def to_db(linear: float) -> float:
    if linear <= 10 ** (DB_FLOOR / 10):
        return DB_FLOOR
    return 10.0 * np.log10(linear)


@dataclass(frozen=True)
class LinkMetrics:
    """One link's SNR, INR and SINR: linear, and in dB clamped at DB_FLOOR."""

    snr: float
    inr: float
    sinr: float
    snr_db: float
    inr_db: float
    sinr_db: float


def segment_power(x: np.ndarray, seg: Segment, shift: int = 0) -> float:
    """Mean per-sample power over one layout segment (optionally shifted)."""
    start = seg.offset + shift
    stop = start + seg.length
    if start < 0 or stop > len(x):
        raise ValueError(f"segment {seg.name!r} [{start}, {stop}) outside signal of len {len(x)}")
    if seg.length == 0:
        return 0.0
    return float(np.mean(np.abs(x[start:stop]) ** 2))


def link_metrics(p_sin: float, p_in: float, p_n: float) -> LinkMetrics:
    """SNR = (P_sin - P_in)/P_n, INR = (P_in - P_n)/P_n, SINR = (P_sin - P_in)/P_in,
    computed once; the linear ratios keep their sign, and the dB values clamp
    at the dB floor when the subtraction goes non-positive."""
    if p_n <= 0:
        raise ValueError("p_n must be > 0")
    snr = (p_sin - p_in) / p_n
    inr = (p_in - p_n) / p_n
    sinr = (p_sin - p_in) / p_in if p_in > 0 else 0.0
    return LinkMetrics(snr, inr, sinr, to_db(snr), to_db(inr), to_db(sinr))


def snr_gain(bf_snr: float, siso_snrs: list[float]) -> float:
    """Beamformed SNR over the arithmetic mean of the SISO SNRs, in dB.

    Every SISO estimate counts as measured, ≤ 0 too, so their noise averages
    out rather than being truncated. A beamformed SNR ≤ 0 (a nulled receiver)
    clamps at the dB floor; a mean ≤ 0 leaves no reference: the gain is NaN.
    """
    if not siso_snrs:
        raise ValueError("need at least one SISO SNR")
    mean = float(np.mean(siso_snrs))
    return to_db(bf_snr / mean) if mean > 0 else float("nan")


def power_gain_bound(n: int, phi_var: float) -> float:
    """Coherent power-gain ceiling (N^2 - N) e^{-phi^2} + N, linear.

    phi_var is the accumulated phase-error variance across nodes; at 0 the
    bound is N^2, and it decays to N as coherence is lost. For transmit
    beamforming this is also the SNR-gain ceiling.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if phi_var < 0:
        raise ValueError("phi_var must be >= 0")
    return (n * n - n) * float(np.exp(-phi_var)) + n


def rx_snr_gain_bound(n: int, phi_var: float) -> float:
    """Receive-side SNR-gain ceiling: power_gain_bound / N, since combining
    N receptions also sums N independent noise processes."""
    return power_gain_bound(n, phi_var) / n


def inr_reduction_bound(n: int, phi_var: float) -> float:
    """((N-1)/N) * (1 - e^{-phi^2}), linear, implemented verbatim.

    Evaluates to 0 at zero phase error and saturates at (N-1)/N; reported
    alongside measured null depth rather than replacing it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if phi_var < 0:
        raise ValueError("phi_var must be >= 0")
    return (n - 1) / n * float(1.0 - np.exp(-phi_var))
