"""Per-node clock models and per-link channel/noise models.

The receive chain applies the channel first, then the receiving node's LO
effects (CFO rotation, phase random walk), then additive noise. Transmit-side
LO effects are applied to the waveform before it enters the channel.

Each stage is one function on a complex array its caller owns, worked in
place: apply_channel adds a signal through a link into a buffer,
apply_node_imperfections rotates by a node's LO, add_noise adds the receiver
noise. The scenario runner and the time-transfer hop chain them on one
buffer, so a received buffer is checked for non-finite samples once, by the
ComplexSignal built from it, rather than at every stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NodeState

__all__ = [
    "ChannelModel",
    "NoiseSpec",
    "apply_channel",
    "advance_clock",
    "apply_node_imperfections",
    "add_noise",
]


@dataclass(frozen=True)
class ChannelModel:
    """Tapped delay line (finite taps, at least one nonzero) plus an
    integer-sample time-of-flight delay."""

    taps: np.ndarray
    tof_delay: int = 0
    label: str = ""

    def __post_init__(self):
        taps = np.atleast_1d(np.asarray(self.taps, dtype=np.complex128))
        object.__setattr__(self, "taps", taps)
        if taps.ndim != 1 or len(taps) < 1:
            raise ValueError("taps must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(taps)):
            raise ValueError("taps must be finite")
        if not np.any(taps != 0):
            raise ValueError("channel needs at least one nonzero tap")
        if isinstance(self.tof_delay, bool) or not isinstance(self.tof_delay, (int, np.integer)):
            raise ValueError(f"tof_delay must be an integer, got {self.tof_delay!r}")
        if self.tof_delay < 0:
            raise ValueError("tof_delay must be >= 0")

    @property
    def n_taps(self) -> int:
        return len(self.taps)


@dataclass(frozen=True)
class NoiseSpec:
    """Circularly-symmetric complex Gaussian noise power per sample."""

    noise_power_per_sample: float

    def __post_init__(self):
        if not 0 <= self.noise_power_per_sample < np.inf:
            raise ValueError(f"noise power must be finite and >= 0, got {self.noise_power_per_sample!r}")


def apply_channel(
    out: np.ndarray, x: np.ndarray, ch: ChannelModel, spans: list[tuple[int, int]] | None = None
) -> np.ndarray:
    """Add x, convolved with the tapped delay line and delayed by tof_delay
    samples, into out in place, cut at the end of out; returns out.

    The whole channel output fits an out of len(x) + n_taps - 1 + tof_delay.
    spans, when given, are the (start, stop) ranges that hold every nonzero
    sample of x: only they are convolved, each widened by n_taps - 1 samples
    either side (_cover). Every output sample is then the same dot product,
    over the same samples, as in the convolution of all of x, so the bits
    are those of the whole-x form; an unwidened span's edges would be
    shorter dot products, which differ in the last bit from 8 taps upward.
    """
    for lo, hi in _cover([(0, len(x))] if spans is None else spans, ch.n_taps - 1, len(x)):
        conv = np.convolve(x[lo:hi], ch.taps, mode="full")
        start = ch.tof_delay + lo
        m = max(min(len(conv), len(out) - start), 0)
        out[start : start + m] += conv[:m]
    return out


def _cover(spans: list[tuple[int, int]], pad: int, n: int) -> list[tuple[int, int]]:
    """The (start, stop) spans widened by pad samples either side, clipped to
    [0, n) and sorted; spans that lie fewer than pad samples apart (or
    overlap) merge into one, so no widened span holds another's samples."""
    cover: list[tuple[int, int]] = []
    for lo, hi in sorted(spans):
        if cover and lo < cover[-1][1]:
            cover[-1] = (cover[-1][0], max(cover[-1][1], min(hi + pad, n)))
        else:
            cover.append((max(lo - pad, 0), min(hi + pad, n)))
    return cover


def advance_clock(node: NodeState, dt_s: float) -> NodeState:
    """Advance a node's LO phase by dt_s seconds of CFO rotation plus
    a Wiener-process increment Normal(0, phase_walk_var_per_s * dt_s)."""
    if dt_s < 0:
        raise ValueError("dt_s must be >= 0")
    node.phase_rad += 2 * np.pi * node.cfo_hz * dt_s
    if node.phase_walk_var_per_s > 0 and dt_s > 0:
        node.phase_rad += node.rng.normal(0.0, np.sqrt(node.phase_walk_var_per_s * dt_s))
    return node


def _phasor(phase: np.ndarray) -> np.ndarray:
    """exp(1j * phase), with cos and sin written into the .real and .imag of
    one buffer: the same bits as the complex exponential, at less cost."""
    out = np.empty(phase.shape, dtype=np.complex128)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def apply_node_imperfections(
    x: np.ndarray, node: NodeState, fs: float, sign: int, spans: list[tuple[int, int]] | None = None
) -> np.ndarray:
    """Impress the node's LO on x (at least one sample) in place: CFO ramp
    plus phase random walk; returns x.

    Sample t is rotated by sign * (2*pi*cfo_hz*t/fs + phase(t)), where
    phase(t) starts at node.phase_rad and performs a per-sample Wiener walk
    at phase_walk_var_per_s. The node's clock state is advanced across the
    signal duration, exactly as len(x) steps of advance_clock would.
    sign=+1 models upconversion at a transmitter, sign=-1 downconversion
    at a receiver.

    spans, when given, are the (start, stop) sample ranges that hold every
    nonzero sample of x: the LO phasor is evaluated there only, and the other
    samples stay exact zeros. Every normal of the phase walk is still drawn,
    so the node's RNG and phase end as after a rotation of all of x. The
    product is taken from the phasor's side at every length, so a sample's
    bits do not depend on how long x is, provided its span holds at least two
    samples: on a one-sample span numpy's complex multiply into its second
    operand may differ in the last bit from the same product into a fresh
    array.
    """
    n = len(x)
    spans = [(0, n)] if spans is None else spans
    if node.cfo_hz == 0 and node.phase_walk_var_per_s == 0:
        # ideal-frequency clock: one constant rotation
        rot = np.exp(1j * sign * node.phase_rad)
        for lo, hi in spans:
            x[lo:hi] *= rot
        return x
    walk = None
    if node.phase_walk_var_per_s > 0:
        # the steps drawn in place, as rng.normal(0.0, sigma, n - 1) draws them, then summed in place
        walk = np.empty(n)
        walk[0] = 0.0
        _normals(node.rng, np.sqrt(node.phase_walk_var_per_s / fs), walk[1:])
        np.cumsum(walk[1:], out=walk[1:])
    slope = 2 * np.pi * node.cfo_hz
    for lo, hi in spans:
        phase = node.phase_rad + slope * (np.arange(lo, hi) / fs)
        if walk is not None:
            phase += walk[lo:hi]
        np.multiply(_phasor(sign * phase), x[lo:hi], out=x[lo:hi])
    # final state: one more sample step past the last emitted sample
    last = node.phase_rad + slope * ((n - 1) / fs)
    if walk is not None:
        last += walk[-1]
    node.phase_rad = float(last) + slope / fs
    if node.phase_walk_var_per_s > 0:
        node.phase_rad += node.rng.normal(0.0, np.sqrt(node.phase_walk_var_per_s / fs))
    return x


def add_noise(x: np.ndarray, power: float, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. circularly-symmetric complex Gaussian noise of the given
    power per sample to x in place, the real draws first; returns x. At
    power 0 nothing is drawn."""
    if power == 0:
        return x
    sigma = np.sqrt(power / 2.0)
    draws = np.empty(len(x))
    x.real += _normals(rng, sigma, draws)
    x.imag += _normals(rng, sigma, draws)
    return x


def _normals(rng: np.random.Generator, sigma: float, out: np.ndarray) -> np.ndarray:
    """Fill out with Normal(0, sigma^2) draws in place; returns out. The
    stream and the bits are those of rng.normal(0.0, sigma, len(out)), which
    scales each standard normal by sigma and adds the zero mean, an exact
    step."""
    rng.standard_normal(out=out)
    out *= sigma
    return out
