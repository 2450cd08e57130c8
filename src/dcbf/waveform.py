"""Amble/payload synthesis and frame assembly.

Builds maximum-length-sequence ambles, Gray-mapped QPSK / 256-QAM symbol
streams and root-raised-cosine shaped waveforms. This module alone knows the
frame designs: the layouts of the source and mesh-node frames, which amble
sits in which segment, and which segments carry the payload. The scenario
runners, `dcbf dump-frame` and `dcbf run --iq-dump` all assemble frames with
build_frame from the contents it returns.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import numpy as np

from .core import ConfigError, FrameLayout, MeshConfig, Segment, substream

__all__ = [
    "gen_mls",
    "modulate",
    "shape_symbols",
    "PULSE",
    "rx_source_layout",
    "tx_node_layout",
    "interferer_layout",
    "source_ambles",
    "node_ambles",
    "source_frame",
    "node_frames",
    "interferer_frame",
    "build_frame",
    "write_frame_iq",
    "RX_FRAME_TOTAL",
    "TX_FRAME_TOTAL",
]

# Totals of the two frame designs at the default system parameters. The
# look-through segment absorbs whatever the fixed segments leave over.
RX_FRAME_TOTAL = 75560
TX_FRAME_TOTAL = 91472

def gen_mls(m: int, taps: tuple[int, ...] | None = None, init_state: int = 1) -> np.ndarray:
    """Generate one period of a maximum length sequence, mapped to +/-1.

    Args:
        m: register length; sequence length is 2**m - 1.
        taps: polynomial exponents (max must equal m). Defaults to the first
            primitive tap set of order m (_primitive_taps).
        init_state: nonzero register seed; bit i (LSB first) seeds chip i.
            Selects the sequence phase only.

    Returns:
        int8 array of length 2**m - 1 with values in {-1, +1}; bit 1 maps
        to +1, so the sequence carries 2**(m-1) ones and 2**(m-1) - 1
        minus-ones.
    """
    if m < 2 or m > 20:
        raise ValueError(f"m={m} out of supported range [2, 20]")
    if taps is None:
        taps = _primitive_taps(m, 1)[0]
    taps = tuple(sorted(set(int(t) for t in taps), reverse=True))
    if taps[0] != m or taps[-1] < 1:
        raise ValueError(f"taps {taps} must have maximum exponent m={m} and minimum >= 1")
    init_state = int(init_state) % (1 << m)
    if init_state == 0:
        raise ValueError("init_state must be nonzero")

    if not _is_primitive(m, taps):
        raise ValueError(f"taps {taps} are not primitive for m={m}")

    # bit 0 of the register is the next chip; the feedback, the XOR of bits
    # m - t, enters at bit m - 1
    mask = sum(1 << (m - t) for t in taps)
    state = init_state
    bits = []
    for _ in range((1 << m) - 1):
        bits.append(state & 1)
        state = (state >> 1) | (((state & mask).bit_count() & 1) << (m - 1))
    return (2 * np.array(bits, dtype=np.int8) - 1).astype(np.int8)


def _is_primitive(m: int, taps: tuple[int, ...]) -> bool:
    """Whether 1 + the sum of x^t over taps (degree m) is primitive over
    GF(2): x has multiplicative order 2^m - 1 modulo it, that is
    x^(2^m - 1) = 1 and x^((2^m - 1)/q) != 1 for every prime q dividing
    2^m - 1 (Lidl and Niederreiter, Finite Fields, ch. 3). A reducible
    polynomial has fewer than 2^m - 1 units, so none of that order. gen_mls's
    register then runs through all 2^m - 1 nonzero states."""
    poly = 1 | sum(1 << t for t in taps)

    def mul(a: int, b: int) -> int:  # a * b modulo poly, polynomials as bit masks of degree < m
        product = 0
        while b:
            product ^= a if b & 1 else 0
            a = (a << 1) ^ (poly if a >> (m - 1) else 0)
            b >>= 1
        return product

    def x_pow(e: int) -> int:  # square and multiply
        result, base = 1, 2
        while e:
            result = mul(result, base) if e & 1 else result
            base, e = mul(base, base), e >> 1
        return result

    order = (1 << m) - 1
    return x_pow(order) == 1 and all(x_pow(order // q) != 1 for q in _prime_factors(order))


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n > 1, by trial division."""
    primes, q = [], 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return primes + [n] if n > 1 else primes


@lru_cache(maxsize=256)
def _primitive_taps(m: int, count: int) -> tuple[tuple[int, ...], ...]:
    """The first count primitive tap sets of order m, or the whole family
    when it holds fewer: trinomials (m, a) for a = m - 1 .. 1, then
    pentanomials (m, a, b, c) in descending lexicographic order, each kept
    when its polynomial is primitive (_is_primitive). Orders 2..8 hold 1, 2,
    2, 6, 6, 14 and 12."""
    found: list[tuple[int, ...]] = []
    for rest in (r for k in (1, 3) for r in combinations(range(m - 1, 0, -1), k)):
        if len(found) == count:
            break
        if _is_primitive(m, (m, *rest)):
            found.append((m, *rest))
    return tuple(found)


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

# Every constellation point, indexed by its symbol's bits read as an unsigned
# integer MSB first (what np.packbits makes of a 256-QAM word): row v of
# _WORDS holds the eight bits of v.
_WORDS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).astype(np.int64)
_QPSK_POINTS = ((1 - 2 * _WORDS[:4, 6]) + 1j * (1 - 2 * _WORDS[:4, 7])) / np.sqrt(2.0)
_QAM256_POINTS = ((2 * _gray_decode4(_WORDS[:, :4]) - 15) + 1j * (2 * _gray_decode4(_WORDS[:, 4:]) - 15)) * QAM256_SCALE


def modulate(bits: np.ndarray, modulation: str) -> np.ndarray:
    """Map a bit sequence onto Gray-coded constellation points at unit mean power.

    QPSK: bit pairs (i, q), 0 -> positive rail; points (+/-1 +/- 1j)/sqrt(2).
    QAM256: 8-bit words, first four bits Gray-select the I level, last four
    the Q level from {-15, -13, ..., 15}; the all-zero word is the corner
    point (-15 - 15j)/sqrt(170).
    """
    bits = np.asarray(bits)
    if bits.dtype.kind not in "biu":  # truncated to integers first
        bits = bits.astype(np.int64)
    bits = bits.astype(np.uint8) & 1
    if modulation == "QPSK":
        if len(bits) % 2:
            raise ValueError(f"QPSK needs an even bit count, got {len(bits)}")
        pairs = bits.reshape(-1, 2)
        return _QPSK_POINTS[(pairs[:, 0] << 1) | pairs[:, 1]]
    if modulation == "QAM256":
        if len(bits) % 8:
            raise ValueError(f"QAM256 needs a multiple of 8 bits, got {len(bits)}")
        return _QAM256_POINTS[np.packbits(bits)]
    raise ValueError(f"unknown modulation {modulation!r}")


# Every frame carries QPSK or 256-QAM at SPS samples per symbol, shaped by PULSE.
SPS = 2


def _rrc_pulse() -> np.ndarray:
    """Root-raised-cosine pulse of rolloff 0.35 over 8 symbols: unit l2 norm,
    8*SPS + 1 taps. The taps sit at t = k/SPS symbols, so none meets the
    formula's removable singularity at |t| = 1/(4*0.35)."""
    n = 8 * SPS
    t = (np.arange(n + 1) - n / 2) / SPS
    taps = np.zeros_like(t)
    b = 0.35
    for k, ti in enumerate(t):
        if abs(ti) < 1e-12:
            taps[k] = 1.0 + b * (4.0 / np.pi - 1.0)
        else:
            num = np.sin(np.pi * ti * (1 - b)) + 4 * b * ti * np.cos(np.pi * ti * (1 + b))
            den = np.pi * ti * (1 - (4 * b * ti) ** 2)
            taps[k] = num / den
    return taps / np.linalg.norm(taps)


def _centered_convolve(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """np.convolve(x, taps, "same") for any lengths, in a buffer of its own
    ("same" centres on taps instead when they are the longer)."""
    return np.convolve(x, taps)[(len(taps) - 1) // 2 :][: len(x)]


def shape_symbols(symbols: np.ndarray) -> np.ndarray:
    """Upsample by SPS and shape with PULSE, keeping length len(symbols)*SPS.

    Scaled by sqrt(SPS) so a unit-power symbol stream yields a unit mean
    power waveform (the pulse has unit l2 norm). Centered convolution, so
    segment offsets are preserved.
    """
    up = np.zeros(len(symbols) * SPS, dtype=np.complex128)
    up[::SPS] = symbols
    shaped = _centered_convolve(up, PULSE)
    shaped *= np.sqrt(SPS)  # in place: no second full-length array
    return shaped


PULSE = _rrc_pulse()
PULSE.setflags(write=False)


def _amble_mls_order(amble_len: int) -> int:
    """Register length whose bit count fills amble_len samples of QPSK.

    Picks the largest m with 2^m <= bit budget, so one full MLS period is
    used and the shortfall (exactly 1 bit when the budget is a power of two)
    is covered by cyclic extension.
    """
    return ((amble_len // SPS) * 2).bit_length() - 1


def _amble_taps(amble_len: int, count: int) -> tuple[tuple[int, ...], ...]:
    """The first count primitive tap sets of the MLS order that fills amble_len,
    one per transmitter; ConfigError naming mesh.n_nodes when it holds fewer."""
    m = _amble_mls_order(amble_len)
    taps = _primitive_taps(m, count)
    if len(taps) < count:
        raise ConfigError("mesh.n_nodes", f"needs {count} distinct MLS polynomials; order {m} has {len(taps)}")
    return taps


def _frame_layout(
    parts: list[tuple[str, int | None]], cfg: MeshConfig, total: int, fields: str, n_polys: int
) -> FrameLayout:
    """Lay out functional segments in order with one guard between
    neighbors; the look-through (length None) absorbs what the others leave
    of total. fields names the config fields that size the frame. The ambles
    need whole symbols, an MLS of order >= 2 and, searched once the layout
    fits, n_polys distinct primitive polynomials of that order."""
    for name in ("amble_len", "payload_len"):
        if getattr(cfg, name) % SPS:
            raise ConfigError(f"mesh.{name}", f"must be a multiple of {SPS} (samples per symbol)")
    m = _amble_mls_order(cfg.amble_len)
    if m < 2:
        raise ConfigError("mesh.amble_len", f"must be ≥ {2 * SPS}: an amble carries an MLS of order ≥ 2")
    fixed = sum(length for _, length in parts if length is not None) + (len(parts) - 1) * cfg.guard_len
    if fixed >= total:
        raise ConfigError(
            fields, f"layout overflow: segments need {fixed} of the {total}-sample frame, no look-through left"
        )
    _amble_taps(cfg.amble_len, n_polys)
    segments = []
    offset = 0
    for idx, (name, length) in enumerate(parts):
        if idx > 0:
            segments.append(Segment(f"guard_{idx}", offset, cfg.guard_len))
            offset += cfg.guard_len
        length = total - fixed if length is None else length
        segments.append(Segment(name, offset, length))
        offset += length
    return FrameLayout(tuple(segments), total)


def rx_source_layout(cfg: MeshConfig) -> FrameLayout:
    """Source frame: preamble | payload | look-through | postamble, guard-separated.

    The look-through length absorbs the remainder so the frame hits RX_FRAME_TOTAL.
    Raises ConfigError naming the field when cfg cannot carry the frame.
    """
    parts = [
        ("preamble", cfg.amble_len),
        ("payload", cfg.payload_len),
        ("look_through", None),
        ("postamble", cfg.amble_len),
    ]
    return _frame_layout(parts, cfg, RX_FRAME_TOTAL, "mesh.amble_len, mesh.payload_len, mesh.guard_len", 1)


def tx_node_layout(cfg: MeshConfig) -> FrameLayout:
    """Mesh-node frame: CDMA preamble | beamformed payload | look-through |
    N TDMA monitor slots (payload_len each) | N TDMA postamble slots,
    guard-separated, TX_FRAME_TOTAL samples in all. Raises ConfigError
    naming the field when cfg cannot carry the frame.
    """
    n = cfg.n_nodes
    parts = [("preamble", cfg.amble_len), ("bf_payload", cfg.payload_len), ("look_through", None)]
    parts += [(f"monitor_{k}", cfg.payload_len) for k in range(1, n + 1)]
    parts += [(f"postamble_{k}", cfg.amble_len) for k in range(1, n + 1)]
    fields = "mesh.n_nodes, mesh.amble_len, mesh.payload_len, mesh.guard_len"
    return _frame_layout(parts, cfg, TX_FRAME_TOTAL, fields, n)


def interferer_layout(length: int) -> FrameLayout:
    """The interferer's frame: one segment of continuous interference."""
    return FrameLayout((Segment("interference", 0, length),), length)


@lru_cache(maxsize=256)
def _shaped_amble(amble_len: int, taps: tuple[int, ...], init_state: int) -> np.ndarray:
    """One MLS-derived amble, QPSK-mapped and pulse-shaped: amble_len samples, read-only.

    The MLS bit stream of the primitive tap set taps (2^m - 1 bits, m chosen
    to fill the amble) is padded by repeating its first bits, then
    Gray-mapped pairwise; init_state selects the sequence phase.

    Cached for the whole process, not per runner: a sweep builds a fresh
    runner for every seed, and one order-13 MLS costs milliseconds of Python.
    scenario._receive_references keeps their matched-filtered forms the same
    way.
    """
    n_bits = (amble_len // SPS) * 2
    bits = ((gen_mls(taps[0], taps, init_state=init_state) + 1) // 2).astype(np.int64)
    bits = np.concatenate([bits, bits[: n_bits - len(bits)]])
    wave = shape_symbols(modulate(bits, "QPSK"))
    wave.setflags(write=False)
    return wave


def source_ambles(cfg: MeshConfig) -> dict[str, np.ndarray]:
    """The source frame's shaped ambles by segment: one MLS (the first
    polynomial) at initial state 1 in the preamble and 2 in the postamble."""
    (taps,) = _amble_taps(cfg.amble_len, 1)
    return {"preamble": _shaped_amble(cfg.amble_len, taps, 1), "postamble": _shaped_amble(cfg.amble_len, taps, 2)}


def node_ambles(cfg: MeshConfig) -> list[dict[str, np.ndarray]]:
    """Every mesh node's shaped ambles by segment, node i at index i - 1:
    its own MLS (the i-th polynomial: distinct polynomials keep the
    concurrent CDMA preambles' cross-correlation low) at initial state 1 in
    the shared preamble and 2 in its TDMA postamble slot. Raises
    ConfigError naming mesh.n_nodes when the amble's MLS order holds fewer
    than n_nodes polynomials."""
    n = cfg.amble_len
    return [
        {"preamble": _shaped_amble(n, taps, 1), f"postamble_{i + 1}": _shaped_amble(n, taps, 2)}
        for i, taps in enumerate(_amble_taps(n, cfg.n_nodes))
    ]


def _qpsk_payload(cfg: MeshConfig, seed: int, entity: str) -> np.ndarray:
    rng = substream(seed, entity, "payload_bits")
    bits = rng.integers(0, 2, size=(cfg.payload_len // SPS) * 2)
    return shape_symbols(modulate(bits, "QPSK"))


def source_frame(cfg: MeshConfig, seed: int) -> dict[str, np.ndarray]:
    """The source frame's contents by segment (rx_source_layout): its ambles
    and a QPSK payload drawn from seed."""
    return {**source_ambles(cfg), "payload": _qpsk_payload(cfg, seed, "source")}


def node_frames(cfg: MeshConfig, seed: int) -> list[dict[str, np.ndarray]]:
    """Every mesh node's frame contents by segment (tx_node_layout), node i
    at index i - 1: its ambles, and one QPSK payload drawn from seed for all
    nodes, in the beamformed payload segment and in the node's own TDMA
    monitor slot. The payload is not yet predistorted."""
    payload = _qpsk_payload(cfg, seed, "mesh")
    return [{**ambles, "bf_payload": payload, f"monitor_{i + 1}": payload} for i, ambles in enumerate(node_ambles(cfg))]


def interferer_frame(length: int, seed: int) -> dict[str, np.ndarray]:
    """The interferer's frame contents (interferer_layout(length)): a
    continuous 256-QAM stream drawn from seed."""
    rng = substream(seed, "interferer", "payload_bits")
    # int32: the default int64's bits in half the space, the stream left in the same state
    bits = rng.integers(0, 2, size=(length // SPS) * 8, dtype=np.int32)
    return {"interference": shape_symbols(modulate(bits, "QAM256"))}


def build_frame(layout: FrameLayout, contents: dict[str, np.ndarray]) -> np.ndarray:
    """Assemble one transmit frame, a fresh array the caller owns: each
    named segment starts with its content, cut to the segment; every other
    sample (guards, look-through, other nodes' TDMA slots) is exactly zero."""
    samples = np.zeros(layout.total_length, dtype=np.complex128)
    for name, content in contents.items():
        seg = layout.segment(name)
        part = content[: seg.length]
        samples[seg.offset : seg.offset + len(part)] = part
    return samples


def write_frame_iq(path: str | Path, samples: np.ndarray, layout: FrameLayout, sample_rate_hz: float) -> None:
    """Export a frame as interleaved little-endian float32 I/Q plus a JSON sidecar."""
    path = Path(path)
    iq = np.empty(2 * len(samples), dtype="<f4")
    iq[0::2] = samples.real
    iq[1::2] = samples.imag
    path.write_bytes(iq.tobytes())
    sidecar = {
        "sample_rate_hz": sample_rate_hz,
        "total_length": layout.total_length,
        "segments": [
            {"name": s.name, "offset": s.offset, "length": s.length} for s in layout.segments
        ],
    }
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(sidecar, indent=2))
