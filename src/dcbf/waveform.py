"""Amble/payload synthesis and frame assembly.

Builds maximum-length-sequence ambles, Gray-mapped QPSK / 256-QAM symbol
streams, root-raised-cosine shaped waveforms, and the source / interferer /
mesh-node frames used by the scenario runners.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path

import numpy as np

from .core import ComplexSignal, FrameLayout, MeshConfig, Segment, substream

__all__ = [
    "PRIMITIVE_TAPS",
    "SymbolStream",
    "gen_mls",
    "modulate",
    "rrc_taps",
    "shape_symbols",
    "FrameKind",
    "FrameSpec",
    "rx_source_layout",
    "tx_node_layout",
    "build_frame",
    "write_frame_iq",
    "read_frame_iq",
    "RX_FRAME_TOTAL",
    "TX_FRAME_TOTAL",
]

# Totals of the two frame designs at the default system parameters. The
# look-through segment absorbs whatever the fixed segments leave over.
RX_FRAME_TOTAL = 75560
TX_FRAME_TOTAL = 91472

# Feedback tap sets (polynomial exponents, constant term implied) that yield
# maximal-length sequences for the recurrence a[n] = xor(a[n-t] for t in taps).
# Verified by exhaustive period check: each entry has period 2^m - 1.
PRIMITIVE_TAPS: dict[int, tuple[tuple[int, ...], ...]] = {
    5: ((5, 3), (5, 2), (5, 4, 3, 2), (5, 4, 3, 1), (5, 4, 2, 1), (5, 3, 2, 1)),
    6: ((6, 5), (6, 1), (6, 5, 4, 1), (6, 5, 3, 2), (6, 5, 2, 1), (6, 4, 3, 1)),
    7: ((7, 6), (7, 4), (7, 3), (7, 1), (7, 6, 5, 4), (7, 6, 5, 2)),
    8: ((8, 7, 6, 1), (8, 7, 5, 3), (8, 7, 3, 2), (8, 7, 2, 1), (8, 6, 5, 4), (8, 6, 5, 3)),
    9: ((9, 5), (9, 4), (9, 8, 7, 2), (9, 8, 6, 5), (9, 8, 5, 4), (9, 8, 5, 1)),
    10: ((10, 7), (10, 3), (10, 9, 8, 5), (10, 9, 7, 6), (10, 9, 7, 3), (10, 9, 6, 1)),
    11: ((11, 9), (11, 2), (11, 10, 9, 7), (11, 10, 9, 5), (11, 10, 9, 2), (11, 10, 8, 6)),
    12: ((12, 11, 10, 4), (12, 11, 10, 2), (12, 11, 8, 6), (12, 11, 7, 4), (12, 10, 9, 3), (12, 10, 5, 4)),
    13: ((13, 12, 11, 8), (13, 12, 11, 2), (13, 12, 11, 1), (13, 12, 10, 9), (13, 12, 10, 6), (13, 12, 10, 3)),
    14: ((14, 13, 12, 2), (14, 13, 11, 9), (14, 13, 11, 4), (14, 13, 10, 8), (14, 13, 10, 6), (14, 13, 10, 3)),
}


def gen_mls(m: int, taps: tuple[int, ...] | None = None, init_state: int = 1) -> np.ndarray:
    """Generate one period of a maximum length sequence, mapped to +/-1.

    Args:
        m: register length; sequence length is 2**m - 1.
        taps: polynomial exponents (max must equal m). Defaults to the first
            shipped tap set for m in [5, 14].
        init_state: nonzero register seed; bit i (LSB first) seeds chip i.
            Selects the sequence phase only.

    Returns:
        int8 array of length 2**m - 1 with values in {-1, +1}; bit 1 maps
        to +1, so the sequence carries 2**(m-1) ones and 2**(m-1) - 1
        minus-ones.
    """
    if taps is None:
        if m not in PRIMITIVE_TAPS:
            raise ValueError(f"no shipped tap set for m={m}; supply taps explicitly")
        taps = PRIMITIVE_TAPS[m][0]
    taps = tuple(sorted(set(int(t) for t in taps), reverse=True))
    if m < 2 or m > 20:
        raise ValueError(f"m={m} out of supported range [2, 20]")
    if taps[0] != m or taps[-1] < 1:
        raise ValueError(f"taps {taps} must have maximum exponent m={m} and minimum >= 1")
    init_state = int(init_state) % (1 << m)
    if init_state == 0:
        raise ValueError("init_state must be nonzero")

    # bit 0 of the register is the next chip; the feedback, the XOR of bits
    # m - t, enters at bit m - 1. The taps are primitive exactly when the
    # register first returns to its initial state after 2**m - 1 steps.
    length = (1 << m) - 1
    mask = sum(1 << (m - t) for t in taps)
    state = init_state
    bits = []
    for n in range(length):
        bits.append(state & 1)
        state = (state >> 1) | (((state & mask).bit_count() & 1) << (m - 1))
        if state == init_state:
            break
    if n != length - 1:
        raise ValueError(f"taps {taps} are not primitive for m={m}")
    return (2 * np.array(bits, dtype=np.int8) - 1).astype(np.int8)


def _gray_decode4(g: np.ndarray) -> np.ndarray:
    """Decode 4-bit Gray codes (MSB first along the last axis) to integers 0..15."""
    b3 = g[..., 0]
    b2 = b3 ^ g[..., 1]
    b1 = b2 ^ g[..., 2]
    b0 = b1 ^ g[..., 3]
    return (b3 << 3) | (b2 << 2) | (b1 << 1) | b0


# 256-QAM per-rail levels are odd integers -15..15; E[level^2] = 85 per rail,
# so the unit-power scale is 1/sqrt(170).
QAM256_SCALE = 1.0 / np.sqrt(170.0)


@dataclass(frozen=True)
class SymbolStream:
    """Complex constellation points plus the modulation they came from.

    QPSK points are (+/-1 +/- 1j)/sqrt(2); 256-QAM points are odd-integer
    lattice points scaled so a uniform stream has unit mean power.
    """

    symbols: np.ndarray
    modulation: str

    def __post_init__(self):
        symbols = np.asarray(self.symbols, dtype=np.complex128)
        object.__setattr__(self, "symbols", symbols)
        if self.modulation == "QPSK":
            rails = symbols * np.sqrt(2.0)
            ok = np.allclose(np.abs(rails.real), 1.0) and np.allclose(np.abs(rails.imag), 1.0)
        elif self.modulation == "QAM256":
            lattice = symbols / QAM256_SCALE
            levels = np.concatenate([lattice.real, lattice.imag])
            ok = np.allclose(np.abs(np.mod(levels, 2)), 1.0) and np.all(np.abs(levels) <= 15.0 + 1e-9)
        else:
            raise ValueError(f"unknown modulation {self.modulation!r}")
        if not ok:
            raise ValueError(f"symbols are not valid {self.modulation} constellation points")

    def __len__(self) -> int:
        return len(self.symbols)


def modulate(bits: np.ndarray, modulation: str) -> SymbolStream:
    """Map a bit sequence onto Gray-coded constellation points at unit mean power.

    QPSK: bit pairs (i, q), 0 -> positive rail; points (+/-1 +/- 1j)/sqrt(2).
    QAM256: 8-bit words, first four bits Gray-select the I level, last four
    the Q level from {-15, -13, ..., 15}; the all-zero word is the corner
    point (-15 - 15j)/sqrt(170).
    """
    bits = np.asarray(bits).astype(np.int64) & 1
    if modulation == "QPSK":
        if len(bits) % 2:
            raise ValueError(f"QPSK needs an even bit count, got {len(bits)}")
        pairs = bits.reshape(-1, 2)
        i = 1 - 2 * pairs[:, 0]
        q = 1 - 2 * pairs[:, 1]
        return SymbolStream((i + 1j * q) / np.sqrt(2.0), "QPSK")
    if modulation == "QAM256":
        if len(bits) % 8:
            raise ValueError(f"QAM256 needs a multiple of 8 bits, got {len(bits)}")
        words = bits.reshape(-1, 8)
        i_lvl = 2 * _gray_decode4(words[:, :4]) - 15
        q_lvl = 2 * _gray_decode4(words[:, 4:]) - 15
        return SymbolStream((i_lvl + 1j * q_lvl) * QAM256_SCALE, "QAM256")
    raise ValueError(f"unknown modulation {modulation!r}")


def rrc_taps(sps: int = 2, rolloff: float = 0.35, span: int = 8) -> np.ndarray:
    """Root-raised-cosine pulse, unit l2 norm, span*sps + 1 taps."""
    n = span * sps
    t = (np.arange(n + 1) - n / 2) / sps
    taps = np.zeros_like(t)
    b = rolloff
    for k, ti in enumerate(t):
        if abs(ti) < 1e-12:
            taps[k] = 1.0 + b * (4.0 / np.pi - 1.0)
        elif b > 0 and abs(abs(ti) - 1.0 / (4.0 * b)) < 1e-9:
            taps[k] = (b / np.sqrt(2.0)) * (
                (1 + 2 / np.pi) * np.sin(np.pi / (4 * b))
                + (1 - 2 / np.pi) * np.cos(np.pi / (4 * b))
            )
        else:
            num = np.sin(np.pi * ti * (1 - b)) + 4 * b * ti * np.cos(np.pi * ti * (1 + b))
            den = np.pi * ti * (1 - (4 * b * ti) ** 2)
            taps[k] = num / den
    return taps / np.linalg.norm(taps)


def shape_symbols(symbols: "SymbolStream | np.ndarray", sps: int, taps: np.ndarray) -> np.ndarray:
    """Upsample by sps and pulse-shape, keeping length len(symbols)*sps.

    Scaled by sqrt(sps) so a unit-power symbol stream yields a unit mean
    power waveform (the pulse has unit l2 norm). Centered convolution, so
    segment offsets are preserved.
    """
    if isinstance(symbols, SymbolStream):
        symbols = symbols.symbols
    up = np.zeros(len(symbols) * sps, dtype=np.complex128)
    up[::sps] = symbols
    return np.convolve(up, taps, mode="same") * np.sqrt(sps)


class FrameKind(Enum):
    RX_BF_SOURCE = "RX_BF_SOURCE"
    RX_BF_INTERFERER = "RX_BF_INTERFERER"
    TX_BF_NODE = "TX_BF_NODE"


@dataclass(frozen=True)
class FrameSpec:
    """What to synthesize: frame kind, optional explicit layout, and seeds.

    node_id (1-based) is required for TX_BF_NODE and selects the CDMA
    polynomial; amble_seed selects the MLS phase; payload_seed drives the
    random payload bits.
    """

    kind: FrameKind
    layout: FrameLayout | None = None
    amble_seed: int = 0
    payload_seed: int = 0
    node_id: int | None = None
    n_nodes: int | None = None


def _interleave_guards(parts: list[tuple[str, int]], guard_len: int, total: int) -> FrameLayout:
    """Lay out functional segments in order with one guard between neighbors."""
    segments = []
    offset = 0
    for idx, (name, length) in enumerate(parts):
        if idx > 0:
            segments.append(Segment(f"guard_{idx}", offset, guard_len))
            offset += guard_len
        segments.append(Segment(name, offset, length))
        offset += length
    if offset > total:
        raise ValueError(f"layout overflow: segments need {offset} > total {total}")
    return FrameLayout(tuple(segments), total)


def rx_source_layout(cfg: MeshConfig, total: int = RX_FRAME_TOTAL) -> FrameLayout:
    """Source frame: preamble | payload | look-through | postamble, guard-separated.

    The look-through length absorbs the remainder so the frame hits `total`.
    """
    look = total - 3 * cfg.amble_len - 3 * cfg.guard_len
    if look <= 0:
        raise ValueError(f"layout overflow: no room for look-through in total {total}")
    parts = [
        ("preamble", cfg.amble_len),
        ("payload", cfg.payload_len),
        ("look_through", look),
        ("postamble", cfg.amble_len),
    ]
    return _interleave_guards(parts, cfg.guard_len, total)


def tx_node_layout(cfg: MeshConfig, n_nodes: int | None = None, total: int = TX_FRAME_TOTAL) -> FrameLayout:
    """Mesh-node frame: CDMA preamble | beamformed payload | look-through |
    N TDMA monitor slots | N TDMA postamble slots, guard-separated.
    """
    n = cfg.n_nodes if n_nodes is None else n_nodes
    fixed = (2 + 2 * n) * cfg.amble_len
    n_guards = 2 + 2 * n
    look = total - fixed - n_guards * cfg.guard_len
    if look <= 0:
        raise ValueError(f"layout overflow: no room for look-through in total {total}")
    parts = [("preamble", cfg.amble_len), ("bf_payload", cfg.payload_len), ("look_through", look)]
    parts += [(f"monitor_{k}", cfg.amble_len) for k in range(1, n + 1)]
    parts += [(f"postamble_{k}", cfg.amble_len) for k in range(1, n + 1)]
    return _interleave_guards(parts, cfg.guard_len, total)


def _amble_mls_order(amble_len: int, sps: int = 2) -> int:
    """Register length whose bit count fills amble_len samples of QPSK at sps.

    Picks the largest m with 2^m <= bit budget, so one full MLS period is
    used and the shortfall (exactly 1 bit when the budget is a power of two)
    is covered by cyclic extension.
    """
    n_bits = (amble_len // sps) * 2
    return int(np.floor(np.log2(n_bits)))


def amble_symbols(cfg: MeshConfig, poly_index: int, init_state: int = 1) -> np.ndarray:
    """QPSK symbols of one MLS-derived amble (amble_len / 2 symbols).

    The MLS bit stream (2^m - 1 bits, m chosen to fill the amble) is padded
    by repeating its first bits, then Gray-mapped pairwise. Distinct
    poly_index values use distinct primitive polynomials, which keeps
    cross-correlation between concurrent CDMA preambles low.

    Cached (read-only array) since scenario runners rebuild frames per cycle.
    """
    return _amble_symbols_cached(cfg.amble_len, poly_index, int(init_state))


@lru_cache(maxsize=256)
def _amble_symbols_cached(amble_len: int, poly_index: int, init_state: int) -> np.ndarray:
    sps = 2
    n_bits = (amble_len // sps) * 2
    m = _amble_mls_order(amble_len, sps)
    available = PRIMITIVE_TAPS.get(m)
    if available is None:
        raise ValueError(f"amble_len {amble_len} needs MLS order m={m}, not shipped")
    if poly_index >= len(available):
        raise ValueError(
            f"need {poly_index + 1} distinct MLS polynomials of order {m}, "
            f"only {len(available)} shipped"
        )
    init_state = (init_state - 1) % ((1 << m) - 1) + 1
    chips = gen_mls(m, available[poly_index], init_state=init_state)
    bits = ((chips + 1) // 2).astype(np.int64)
    pad = n_bits - len(bits)
    if pad < 0:
        bits = bits[:n_bits]
    elif pad > 0:
        bits = np.concatenate([bits, bits[:pad]])
    symbols = modulate(bits, "QPSK").symbols
    symbols.setflags(write=False)
    return symbols


def _payload_symbols(cfg: MeshConfig, rng: np.random.Generator) -> np.ndarray:
    bits = rng.integers(0, 2, size=(cfg.payload_len // 2) * 2)
    return modulate(bits, "QPSK").symbols


def build_frame(spec: FrameSpec, cfg: MeshConfig) -> tuple[ComplexSignal, FrameLayout]:
    """Assemble one transmit frame of the requested kind.

    Guard and look-through samples are exactly zero. TX_BF_NODE frames carry
    the node's MLS in its own TDMA monitor/postamble slots only; the
    bf_payload slot holds the raw (not yet predistorted) payload.
    """
    sps = 2
    pulse = rrc_taps(sps=sps)
    if spec.kind is FrameKind.RX_BF_SOURCE:
        layout = spec.layout or rx_source_layout(cfg)
        samples = np.zeros(layout.total_length, dtype=np.complex128)
        pre = shape_symbols(amble_symbols(cfg, 0, spec.amble_seed + 1), sps, pulse)
        post = shape_symbols(amble_symbols(cfg, 0, spec.amble_seed + 2), sps, pulse)
        rng = substream(spec.payload_seed, "source", "payload_bits")
        pay = shape_symbols(_payload_symbols(cfg, rng), sps, pulse)
        for name, content in (("preamble", pre), ("payload", pay), ("postamble", post)):
            seg = layout.segment(name)
            samples[seg.offset : seg.offset + seg.length] = content[: seg.length]
        return ComplexSignal(samples, cfg.sample_rate_hz), layout

    if spec.kind is FrameKind.RX_BF_INTERFERER:
        layout = spec.layout or FrameLayout(
            (Segment("interference", 0, RX_FRAME_TOTAL),), RX_FRAME_TOTAL
        )
        total = layout.total_length
        rng = substream(spec.payload_seed, "interferer", "payload_bits")
        n_sym = total // sps
        bits = rng.integers(0, 2, size=n_sym * 8)
        wave = shape_symbols(modulate(bits, "QAM256"), sps, pulse)
        samples = np.zeros(total, dtype=np.complex128)
        samples[: len(wave)] = wave
        return ComplexSignal(samples, cfg.sample_rate_hz), layout

    if spec.kind is FrameKind.TX_BF_NODE:
        if spec.node_id is None:
            raise ValueError("TX_BF_NODE frames need node_id")
        n = spec.n_nodes or cfg.n_nodes
        if not (1 <= spec.node_id <= n):
            raise ValueError(f"node_id {spec.node_id} outside 1..{n}")
        layout = spec.layout or tx_node_layout(cfg, n)
        samples = np.zeros(layout.total_length, dtype=np.complex128)
        pre = shape_symbols(amble_symbols(cfg, spec.node_id - 1, spec.amble_seed + 1), sps, pulse)
        post = shape_symbols(amble_symbols(cfg, spec.node_id - 1, spec.amble_seed + 2), sps, pulse)
        rng = substream(spec.payload_seed, "mesh", "payload_bits")
        pay = shape_symbols(_payload_symbols(cfg, rng), sps, pulse)
        placements = {
            "preamble": pre,
            "bf_payload": pay,
            f"monitor_{spec.node_id}": pay,
            f"postamble_{spec.node_id}": post,
        }
        for name, content in placements.items():
            seg = layout.segment(name)
            samples[seg.offset : seg.offset + seg.length] = content[: seg.length]
        return ComplexSignal(samples, cfg.sample_rate_hz), layout

    raise ValueError(f"unknown frame kind {spec.kind}")


def write_frame_iq(path: str | Path, signal: ComplexSignal, layout: FrameLayout) -> None:
    """Export a frame as interleaved little-endian float32 I/Q plus a JSON sidecar."""
    path = Path(path)
    iq = np.empty(2 * len(signal.samples), dtype="<f4")
    iq[0::2] = signal.samples.real
    iq[1::2] = signal.samples.imag
    path.write_bytes(iq.tobytes())
    sidecar = {
        "sample_rate_hz": signal.sample_rate_hz,
        "total_length": layout.total_length,
        "segments": [
            {"name": s.name, "offset": s.offset, "length": s.length} for s in layout.segments
        ],
    }
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(sidecar, indent=2))


def read_frame_iq(path: str | Path) -> tuple[ComplexSignal, FrameLayout]:
    """Inverse of write_frame_iq."""
    path = Path(path)
    iq = np.frombuffer(path.read_bytes(), dtype="<f4")
    samples = iq[0::2].astype(np.float64) + 1j * iq[1::2].astype(np.float64)
    meta = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    layout = FrameLayout(
        tuple(Segment(s["name"], s["offset"], s["length"]) for s in meta["segments"]),
        meta["total_length"],
    )
    return ComplexSignal(samples, meta["sample_rate_hz"]), layout
