"""Leader-follower RF time transfer: exact 64+64-bit timestamps, the
Golay-inner / Hamming-outer FEC stack, the two-way message codec, and the
offset estimator with its round runner."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction

import numpy as np

from .core import ComplexSignal, NodeState
from .estimation import AcquisitionError, acquire
from .impairments import ChannelModel, NoiseSpec, add_noise, apply_channel
from .waveform import gen_mls, modulate

__all__ = [
    "Timestamp",
    "MessageKind",
    "SyncMessage",
    "FecError",
    "golay_encode",
    "golay_decode",
    "hamming_encode",
    "hamming_decode",
    "encode_sync_message",
    "decode_sync_message",
    "estimate_offset",
    "sync_preamble",
    "sync_wire_signal",
    "SyncRoundResult",
    "run_sync_round",
    "SYNC_PREAMBLE_LEN",
]

_TICKS = 1 << 64  # fraction denominator: one tick is 2^-64 s


@dataclass(frozen=True)
class Timestamp:
    """Unsigned 64-bit seconds plus a 64-bit binary fraction of a second.

    Differences and sums are exact: arithmetic runs on the integer and
    fractional components (Python ints), so (a - b) + b == a always.
    """

    integer_part: int
    frac_part: int

    def __post_init__(self):
        if not (0 <= self.integer_part < _TICKS):
            raise ValueError("integer_part out of 64-bit range")
        if not (0 <= self.frac_part < _TICKS):
            raise ValueError("frac_part out of 64-bit range")

    @classmethod
    def from_fraction(cls, seconds: Fraction | int | float) -> "Timestamp":
        """Quantize to the 2^-64 s grid (round half to even), exact whenever
        the value is already on the grid."""
        total = round(Fraction(seconds) * _TICKS)
        if total < 0:
            raise ValueError("timestamps are unsigned")
        return cls(total // _TICKS, total % _TICKS)

    def to_fraction(self) -> Fraction:
        return Fraction(self.integer_part * _TICKS + self.frac_part, _TICKS)

    def __sub__(self, other: "Timestamp") -> Fraction:
        di = self.integer_part - other.integer_part
        df = self.frac_part - other.frac_part
        return di + Fraction(df, _TICKS)


def estimate_offset(
    t_tx_n: Timestamp, t_rx_l: Timestamp, t_tx_l: Timestamp, t_rx_n: Timestamp
) -> Fraction:
    """Two-way clock offset: ((t_rx^L - t_tx^n) - (t_rx^n - t_tx^L)) / 2.

    Integer and fractional components are differenced separately and the
    halving is exact (denominator 2^65), so rational inputs with symmetric
    time of flight recover the true offset with no rounding at all.
    """
    di = (t_rx_l.integer_part - t_tx_n.integer_part) - (t_rx_n.integer_part - t_tx_l.integer_part)
    df = (t_rx_l.frac_part - t_tx_n.frac_part) - (t_rx_n.frac_part - t_tx_l.frac_part)
    return Fraction(di, 2) + Fraction(df, 2 * _TICKS)


# ---------------------------------------------------------------------------
# Extended Golay (24,12)
# ---------------------------------------------------------------------------

# Characteristic matrix of the extended binary Golay code; generator is
# [I | B], parity check transpose is [B ; I].
_GOLAY_B_ROWS = (
    0b110111000101,
    0b101110001011,
    0b011100010111,
    0b111000101101,
    0b110001011011,
    0b100010110111,
    0b000101101111,
    0b001011011101,
    0b010110111001,
    0b101101110001,
    0b011011100011,
    0b111111111110,
)


def _popcount(x: int) -> int:
    return bin(x).count("1")


def _build_golay_tables():
    # parity of a 12-bit data word: XOR of B rows selected by data bits
    # (bit 11 of the word selects row 0)
    enc = np.zeros(4096, dtype=np.uint32)
    for data in range(4096):
        parity = 0
        for i in range(12):
            if (data >> (11 - i)) & 1:
                parity ^= _GOLAY_B_ROWS[i]
        enc[data] = (data << 12) | parity
    # syndrome of a single set bit at position p (bit 23 = first data bit)
    col_synd = np.zeros(24, dtype=np.uint32)
    for p in range(24):
        if p >= 12:  # data region: syndrome = B row
            col_synd[p] = _GOLAY_B_ROWS[23 - p]
        else:  # parity region: syndrome = unit vector
            col_synd[p] = 1 << p
    # syndrome -> correctable error pattern (weight <= 3), else -1
    err_table = np.full(4096, -1, dtype=np.int64)
    err_table[0] = 0
    positions = range(24)
    for a in positions:
        err_table[col_synd[a]] = 1 << a
    for a in positions:
        for b in range(a + 1, 24):
            err_table[col_synd[a] ^ col_synd[b]] = (1 << a) | (1 << b)
    for a in positions:
        for b in range(a + 1, 24):
            for c in range(b + 1, 24):
                err_table[col_synd[a] ^ col_synd[b] ^ col_synd[c]] = (1 << a) | (1 << b) | (1 << c)
    # byte-wise syndrome lookup: word = byte2|byte1|byte0 (bits 23..0)
    synd_by_byte = np.zeros((3, 256), dtype=np.uint32)
    for byte_idx in range(3):
        for val in range(256):
            s = 0
            for bit in range(8):
                if (val >> bit) & 1:
                    s ^= int(col_synd[byte_idx * 8 + bit])
            synd_by_byte[byte_idx, val] = s
    return enc, err_table, synd_by_byte


_GOLAY_ENC, _GOLAY_ERR, _GOLAY_SYND = _build_golay_tables()


class FecError(ValueError):
    """Decoding failed: more errors than the code can correct."""


def golay_encode(data: int) -> int:
    """Extended Golay (24,12) encoder; data in [0, 4096), codeword is
    (data << 12) | parity."""
    if not (0 <= data < 4096):
        raise ValueError("data must be a 12-bit value")
    return int(_GOLAY_ENC[data])


def _golay_syndrome_many(words: np.ndarray) -> np.ndarray:
    words = words.astype(np.uint32)
    return (
        _GOLAY_SYND[0, words & 0xFF]
        ^ _GOLAY_SYND[1, (words >> 8) & 0xFF]
        ^ _GOLAY_SYND[2, (words >> 16) & 0xFF]
    )


def golay_decode(word: int) -> tuple[int, int]:
    """Decode one 24-bit word; returns (data, corrected_errors).

    Corrects any error pattern of weight <= 3 and raises FecError for
    detectable heavier patterns (weight-4 patterns are always detected;
    weight >= 5 may silently miscorrect, as for any distance-8 code).
    """
    if not (0 <= word < (1 << 24)):
        raise ValueError("word must be a 24-bit value")
    synd = int(_golay_syndrome_many(np.array([word]))[0])
    err = int(_GOLAY_ERR[synd])
    if err < 0:
        raise FecError("Golay decode failure: >= 4 bit errors detected")
    corrected = word ^ err
    return corrected >> 12, _popcount(err)


def _golay_decode_many(words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized decode: (data, corrected_count, failed_mask)."""
    synd = _golay_syndrome_many(words)
    err = _GOLAY_ERR[synd]
    failed = err < 0
    err_ok = np.where(failed, 0, err).astype(np.uint32)
    corrected = (words.astype(np.uint32) ^ err_ok) >> 12
    counts = np.array([_popcount(int(e)) for e in err_ok])
    return corrected.astype(np.uint32), counts, failed


# ---------------------------------------------------------------------------
# Hamming (7,4)
# ---------------------------------------------------------------------------

# G = [I4 | P] with parity bits p = (d0^d1^d3, d0^d2^d3, d1^d2^d3)
_HAMMING_ENC = np.zeros(16, dtype=np.uint8)
for _d in range(16):
    d0, d1, d2, d3 = (_d >> 3) & 1, (_d >> 2) & 1, (_d >> 1) & 1, _d & 1
    p0 = d0 ^ d1 ^ d3
    p1 = d0 ^ d2 ^ d3
    p2 = d1 ^ d2 ^ d3
    _HAMMING_ENC[_d] = (_d << 3) | (p0 << 2) | (p1 << 1) | p2

_HAMMING_DATA = np.zeros(128, dtype=np.uint8)
_HAMMING_CORR = np.zeros(128, dtype=np.uint8)
for _w in range(128):
    best = None
    for _d in range(16):
        dist = _popcount(_w ^ int(_HAMMING_ENC[_d]))
        if best is None or dist < best[0]:
            best = (dist, _d)
    _HAMMING_DATA[_w] = best[1]
    _HAMMING_CORR[_w] = 1 if best[0] else 0


def hamming_encode(data: int) -> int:
    """Hamming (7,4) encoder; data in [0, 16)."""
    if not (0 <= data < 16):
        raise ValueError("data must be a 4-bit value")
    return int(_HAMMING_ENC[data])


def hamming_decode(word: int) -> tuple[int, int]:
    """Decode one 7-bit word; returns (data, corrected) with corrected in
    {0, 1}. Double-bit errors miscorrect, the standard Hamming limitation."""
    if not (0 <= word < 128):
        raise ValueError("word must be a 7-bit value")
    return int(_HAMMING_DATA[word]), int(_HAMMING_CORR[word])


# ---------------------------------------------------------------------------
# Message codec
# ---------------------------------------------------------------------------


class MessageKind(IntEnum):
    FOLLOWER_PROBE = 1
    LEADER_REPLY = 2


_FLAG_INDEXED = 0x1
SYNC_PREAMBLE_LEN = 512
SYNC_HISTORY_DEPTH = 256


@dataclass(frozen=True)
class SyncMessage:
    """One time-transfer message.

    FOLLOWER_PROBE carries the follower's transmit timestamp, either
    explicitly or compressed to an index into the follower's recent-probe
    history (<= 256 entries). LEADER_REPLY echoes that reference and adds
    the leader's receive and transmit timestamps at full resolution.
    """

    kind: MessageKind
    t_tx_follower: Timestamp | None = None
    follower_index: int | None = None
    t_tx_leader: Timestamp | None = None
    t_rx_leader: Timestamp | None = None

    def __post_init__(self):
        if (self.t_tx_follower is None) == (self.follower_index is None):
            raise ValueError("exactly one of t_tx_follower / follower_index is required")
        if self.follower_index is not None and not (0 <= self.follower_index < SYNC_HISTORY_DEPTH):
            raise ValueError(f"follower_index must be in [0, {SYNC_HISTORY_DEPTH})")
        if self.kind == MessageKind.LEADER_REPLY:
            if self.t_tx_leader is None or self.t_rx_leader is None:
                raise ValueError("LEADER_REPLY must carry t_tx_leader and t_rx_leader")

    @property
    def indexed(self) -> bool:
        return self.follower_index is not None


def _timestamp_bytes(ts: Timestamp) -> bytes:
    return ts.integer_part.to_bytes(8, "big") + ts.frac_part.to_bytes(8, "big")


def _timestamp_from_bytes(raw: bytes) -> Timestamp:
    return Timestamp(int.from_bytes(raw[:8], "big"), int.from_bytes(raw[8:16], "big"))


def _message_payload(msg: SyncMessage) -> bytes:
    header = (msg.kind.value & 0xF) | ((_FLAG_INDEXED if msg.indexed else 0) << 4)
    out = bytes([header])
    if msg.indexed:
        out += bytes([msg.follower_index])
    else:
        out += _timestamp_bytes(msg.t_tx_follower)
    if msg.kind == MessageKind.LEADER_REPLY:
        out += _timestamp_bytes(msg.t_tx_leader)
        out += _timestamp_bytes(msg.t_rx_leader)
    return out


def _parse_payload(raw: bytes) -> SyncMessage:
    header = raw[0]
    kind = MessageKind(header & 0xF)
    indexed = bool((header >> 4) & _FLAG_INDEXED)
    pos = 1
    if indexed:
        ref_index, ref_ts = int(raw[pos]), None
        pos += 1
    else:
        ref_index, ref_ts = None, _timestamp_from_bytes(raw[pos : pos + 16])
        pos += 16
    t_tx_l = t_rx_l = None
    if kind == MessageKind.LEADER_REPLY:
        t_tx_l = _timestamp_from_bytes(raw[pos : pos + 16])
        t_rx_l = _timestamp_from_bytes(raw[pos + 16 : pos + 32])
        pos += 32
    return SyncMessage(
        kind=kind,
        t_tx_follower=ref_ts,
        follower_index=ref_index,
        t_tx_leader=t_tx_l,
        t_rx_leader=t_rx_l,
    )


def _expected_payload_bytes(kind: MessageKind, indexed: bool) -> int:
    n = 1 + (1 if indexed else 16)
    if kind == MessageKind.LEADER_REPLY:
        n += 32
    return n


def encode_sync_message(msg: SyncMessage) -> np.ndarray:
    """Serialize, apply the outer Hamming(7,4) then inner Golay(24,12), and
    return the coded bit sequence (uint8, MSB-first within each field)."""
    data_bits = np.unpackbits(np.frombuffer(_message_payload(msg), dtype=np.uint8))
    # outer code: 4 data bits -> 7
    nibbles = data_bits.reshape(-1, 4)
    nib_vals = (nibbles * [8, 4, 2, 1]).sum(axis=1)
    ham = _HAMMING_ENC[nib_vals]
    ham_bits = ((ham[:, None] >> np.arange(6, -1, -1)) & 1).astype(np.uint8).ravel()
    # inner code: 12 coded bits -> 24; zero-pad to a block boundary
    pad = (-len(ham_bits)) % 12
    ham_bits = np.concatenate([ham_bits, np.zeros(pad, dtype=np.uint8)])
    blocks = ham_bits.reshape(-1, 12)
    words = (blocks * (1 << np.arange(11, -1, -1))).sum(axis=1)
    code = _GOLAY_ENC[words]
    out = ((code[:, None] >> np.arange(23, -1, -1)) & 1).astype(np.uint8).ravel()
    return out


def decode_sync_message(bits: np.ndarray) -> tuple[SyncMessage, int]:
    """Invert encode_sync_message; returns (message, corrected_bit_count).

    Raises FecError when any inner block fails, and ValueError on a
    malformed (wrong-length or inconsistent) payload.
    """
    bits = np.asarray(bits).astype(np.uint8).ravel()
    if len(bits) % 24:
        raise ValueError(f"coded bit count {len(bits)} is not a multiple of 24")
    words = (bits.reshape(-1, 24) * (1 << np.arange(23, -1, -1))).sum(axis=1)
    data12, counts, failed = _golay_decode_many(words.astype(np.uint32))
    if failed.any():
        raise FecError(f"Golay decode failure in {int(failed.sum())} block(s)")
    corrected = int(counts.sum())
    ham_bits = ((data12[:, None] >> np.arange(11, -1, -1)) & 1).astype(np.uint8).ravel()
    n_words = len(ham_bits) // 7
    ham_words = (ham_bits[: n_words * 7].reshape(-1, 7) * (1 << np.arange(6, -1, -1))).sum(axis=1)
    corrected += int(_HAMMING_CORR[ham_words].sum())
    nibbles = _HAMMING_DATA[ham_words]
    data_bits = ((nibbles[:, None] >> np.arange(3, -1, -1)) & 1).astype(np.uint8).ravel()
    payload = np.packbits(data_bits).tobytes()
    header = payload[0]
    kind = MessageKind(header & 0xF)
    indexed = bool((header >> 4) & _FLAG_INDEXED)
    need = _expected_payload_bytes(kind, indexed)
    if len(payload) < need:
        raise ValueError("payload shorter than header promises")
    return _parse_payload(payload[:need]), corrected


# ---------------------------------------------------------------------------
# Wire signal and the two-way round
# ---------------------------------------------------------------------------


# np.resize repeats the 511 chips cyclically: one pad chip makes 512
_PREAMBLE = np.resize(gen_mls(9), SYNC_PREAMBLE_LEN).astype(np.float64) * (1 + 1j) / np.sqrt(2.0)
_PREAMBLE.setflags(write=False)


def sync_preamble(fs: float) -> ComplexSignal:
    """512-sample acquisition preamble: a 511-chip MLS (m=9) plus one cyclic
    pad chip, on both QPSK rails at one sample per chip. Built once at
    import; the samples are read-only."""
    return ComplexSignal(_PREAMBLE, fs)


def sync_wire_signal(msg: SyncMessage, fs: float) -> ComplexSignal:
    """Preamble followed by the QPSK-mapped coded bits, one sample/symbol."""
    bits = encode_sync_message(msg)
    symbols = modulate(bits, "QPSK")
    pre = sync_preamble(fs)
    return ComplexSignal(np.concatenate([pre.samples, symbols]), fs)


def _demod_qpsk_bits(symbols: np.ndarray) -> np.ndarray:
    bits = np.empty(2 * len(symbols), dtype=np.uint8)
    bits[0::2] = (symbols.real < 0).astype(np.uint8)
    bits[1::2] = (symbols.imag < 0).astype(np.uint8)
    return bits


def _coded_bit_count(kind: MessageKind, indexed: bool) -> int:
    data_bits = 8 * _expected_payload_bytes(kind, indexed)
    ham_bits = data_bits // 4 * 7
    blocks = (ham_bits + 11) // 12
    return blocks * 24


def detect_and_decode(
    buffer: ComplexSignal,
    kind: MessageKind,
    indexed: bool,
    threshold: float = 0.1,
) -> tuple[SyncMessage, int, int]:
    """Find the preamble by normalized cross-correlation, demodulate the
    expected payload, and decode; returns (message, toa_sample, corrected)."""
    pre = sync_preamble(buffer.sample_rate_hz)
    n_sym = _coded_bit_count(kind, indexed) // 2
    max_lag = len(buffer.samples) - len(pre.samples) - n_sym + 1
    if max_lag < 1:
        raise ValueError("buffer too short for this message")
    res = acquire(buffer, pre, lag_range=(0, max_lag), cfo_grid_hz=np.array([0.0]), threshold=threshold)
    start = res.lag + len(pre.samples)
    symbols = buffer.samples[start : start + n_sym]
    # undo any constant channel phase using the preamble as reference
    ref = pre.samples
    got = buffer.samples[res.lag : res.lag + len(ref)]
    rot = np.vdot(ref, got)
    if abs(rot) > 0:
        symbols = symbols * np.conj(rot / abs(rot))
    msg, corrected = decode_sync_message(_demod_qpsk_bits(symbols))
    if msg.kind != kind or msg.indexed != indexed:
        raise ValueError("decoded message does not match the expected exchange state")
    return msg, res.lag, corrected


@dataclass
class SyncRoundResult:
    success: bool
    delta_hat: Fraction | None
    residual: Fraction | None
    corrected_bits: int
    used_index: bool


def run_sync_round(
    leader: NodeState,
    follower: NodeState,
    link_up: ChannelModel,
    link_down: ChannelModel,
    noise: NoiseSpec,
    rng: np.random.Generator,
    fs: float = 2e6,
    use_index: bool = False,
    history: list[Timestamp] | None = None,
    t_start: Fraction | None = None,
) -> SyncRoundResult:
    """One complete two-way exchange over the RF side channel.

    The leader's clock is the true time axis; the follower's local clock
    reads true time minus its timestamp_offset_s. Times of arrival are taken
    from the preamble correlation peak, quantized to the sample grid. On
    success the follower's offset is reduced by the estimate; on a decode
    failure the round aborts and the offset is left unchanged.
    """
    pad = 32
    delta_true = Fraction(follower.timestamp_offset_s)
    if t_start is None:
        # timestamps are unsigned: start well past zero on both clocks
        t_start = Fraction(1_000_000) + 2 * abs(delta_true)

    def receive(sig: ComplexSignal, link: ChannelModel) -> tuple[ComplexSignal, Fraction]:
        """Propagate over link; returns the noisy buffer and its start (true time)."""
        rx = apply_channel(sig, link)
        buf = np.concatenate([np.zeros(pad, dtype=complex), rx.samples, np.zeros(pad, dtype=complex)])
        return add_noise(ComplexSignal(buf, fs), noise, rng), -Fraction(pad, int(fs))

    corrected_total = 0

    # follower probe, stamped in follower-local time
    t_tx_follower_true = t_start
    t_tx_follower = Timestamp.from_fraction(t_tx_follower_true - delta_true)
    if use_index:
        if history is None:
            history = []
        history.append(t_tx_follower)
        del history[:-SYNC_HISTORY_DEPTH]
        index = len(history) - 1
        probe = SyncMessage(MessageKind.FOLLOWER_PROBE, follower_index=index)
    else:
        probe = SyncMessage(MessageKind.FOLLOWER_PROBE, t_tx_follower=t_tx_follower)

    wire = sync_wire_signal(probe, fs)
    try:
        buf, buf_start = receive(wire, link_up)
        decoded_probe, toa, corrected = detect_and_decode(buf, MessageKind.FOLLOWER_PROBE, use_index)
        corrected_total += corrected
    except (FecError, AcquisitionError, ValueError):
        return SyncRoundResult(False, None, None, corrected_total, use_index)
    # leader-local (== true) arrival time of the probe's first sample
    t_rx_leader = Timestamp.from_fraction(t_tx_follower_true + buf_start + Fraction(toa, int(fs)))

    # leader reply after a fixed turnaround
    turnaround = Fraction(1, 1000)
    t_tx_leader_true = t_rx_leader.to_fraction() + turnaround
    t_tx_leader = Timestamp.from_fraction(t_tx_leader_true)
    reply = SyncMessage(
        MessageKind.LEADER_REPLY,
        t_tx_follower=decoded_probe.t_tx_follower,
        follower_index=decoded_probe.follower_index,
        t_tx_leader=t_tx_leader,
        t_rx_leader=t_rx_leader,
    )
    wire = sync_wire_signal(reply, fs)
    try:
        buf, buf_start = receive(wire, link_down)
        decoded_reply, toa, corrected = detect_and_decode(buf, MessageKind.LEADER_REPLY, use_index)
        corrected_total += corrected
    except (FecError, AcquisitionError, ValueError):
        return SyncRoundResult(False, None, None, corrected_total, use_index)
    t_rx_follower_true = t_tx_leader_true + buf_start + Fraction(toa, int(fs))
    t_rx_follower = Timestamp.from_fraction(t_rx_follower_true - delta_true)

    if decoded_reply.indexed:
        if history is None or decoded_reply.follower_index >= len(history):
            return SyncRoundResult(False, None, None, corrected_total, use_index)
        ref_tx = history[decoded_reply.follower_index]
    else:
        ref_tx = decoded_reply.t_tx_follower

    delta_hat = estimate_offset(ref_tx, decoded_reply.t_rx_leader, decoded_reply.t_tx_leader, t_rx_follower)
    follower.timestamp_offset_s = float(Fraction(follower.timestamp_offset_s) - delta_hat)
    residual = delta_true - delta_hat
    return SyncRoundResult(True, delta_hat, residual, corrected_total, use_index)
