"""Leader-follower RF time transfer: exact 64+64-bit timestamps, the
Golay-inner / Hamming-outer FEC stack, the two-way message codec, and the
offset estimator with its round runner."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

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
    "encode_sync_message",
    "decode_sync_message",
    "estimate_offset",
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

    Timestamp differences and the halving are exact Fractions, so rational
    inputs with symmetric time of flight recover the true offset with no
    rounding at all.
    """
    return ((t_rx_l - t_tx_n) - (t_rx_n - t_tx_l)) / 2


# ---------------------------------------------------------------------------
# FEC: extended Golay (24,12) inner code, Hamming (7,4) outer code
# ---------------------------------------------------------------------------
# Both codes are systematic, generator [I | B]: a codeword is the data word
# followed by the XOR of the B rows its data bits select (the data MSB selects
# row 0), so a received word's syndrome is the parity its data bits imply XOR
# the parity it carries. Every table below is derived from the B rows.

# Characteristic matrix of the extended binary Golay code: the 11 left
# rotations of the 11-bit row whose set bits (MSB first) are bit 0 and the
# quadratic residues mod 11 {1, 3, 4, 5, 9}, each extended by a 1, and the
# all-ones row extended by a 0.
_GOLAY_B_ROWS = tuple(
    ((0b11011100010 << i | 0b11011100010 >> (11 - i)) & 0x7FF) << 1 | 1 for i in range(11)
) + (0b111111111110,)
# Hamming parity bits p = (d0^d1^d3, d0^d2^d3, d1^d2^d3), d0 the data MSB:
# row i holds the parity bits that data bit d_i enters.
_HAMMING_B_ROWS = (0b110, 0b101, 0b011, 0b111)


def _to_bits(values: np.ndarray, width: int) -> np.ndarray:
    """The low `width` bits of each value, MSB first, concatenated (uint8)."""
    return ((values[:, None] >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8).ravel()


def _from_bits(bits: np.ndarray, width: int) -> np.ndarray:
    """Inverse of _to_bits: one integer per `width` bits, MSB first."""
    return bits.reshape(-1, width) @ (1 << np.arange(width - 1, -1, -1))


class _Code(NamedTuple):
    """A code's tables: the codeword of every data word, and for every
    syndrome the correctable error pattern (-1 where none exists) and its
    weight."""

    enc: np.ndarray
    err: np.ndarray
    weight: np.ndarray
    parity_bits: int

    def syndrome(self, words: np.ndarray) -> np.ndarray:
        return (self.enc[words >> self.parity_bits] ^ words) & (len(self.err) - 1)


def _code(b_rows: tuple[int, ...], parity_bits: int, radius: int) -> _Code:
    """The tables of the code with generator [I | B] that corrects every error
    pattern of weight <= radius; the code's distance must exceed 2 * radius,
    so that those patterns' syndromes are distinct."""
    # from the last row (data LSB) up, each row adds the next higher data bit:
    # the table so far is the words with that bit clear, XOR the row with it set
    parity = np.zeros(1, dtype=np.int64)
    for row in reversed(b_rows):
        parity = np.append(parity, parity ^ row)
    n = len(b_rows) + parity_bits
    enc = ((np.arange(len(parity)) << parity_bits) | parity).astype(np.min_scalar_type((1 << n) - 1))
    size = 1 << parity_bits
    code = _Code(enc, np.full(size, -1, dtype=np.int64), np.zeros(size, dtype=np.uint8), parity_bits)
    for weight in range(radius + 1):
        patterns = np.array([sum(1 << p for p in bits) for bits in combinations(range(n), weight)])
        syndromes = code.syndrome(patterns)
        code.err[syndromes] = patterns
        code.weight[syndromes] = weight
    return code


# Distance 8: the 2,325 patterns of weight <= 3 are corrected, weight-4
# patterns are always detected, and weight >= 5 may silently miscorrect.
_GOLAY = _code(_GOLAY_B_ROWS, 12, 3)
# Perfect: every 7-bit word is a codeword or one bit flip away from exactly one.
_HAMMING = _code(_HAMMING_B_ROWS, 3, 1)


class FecError(ValueError):
    """Decoding failed: more errors than the code can correct."""


def golay_encode(data: int) -> int:
    """Extended Golay (24,12) encoder; data in [0, 4096), codeword is
    (data << 12) | parity."""
    if not (0 <= data < 4096):
        raise ValueError("data must be a 12-bit value")
    return int(_GOLAY.enc[data])


def _decode(words: np.ndarray, code: _Code) -> tuple[np.ndarray, int]:
    """Decode codewords; returns (data words, total corrected bits), and
    raises FecError if any word's syndrome has no correctable pattern."""
    syndromes = code.syndrome(words)
    err = code.err[syndromes]
    failed = int((err < 0).sum())
    if failed:
        raise FecError(f"decode failure in {failed} block(s): more than {code.weight.max()} bit errors detected")
    return (words ^ err) >> code.parity_bits, int(code.weight[syndromes].sum())


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


# The payload of each (kind, indexed) message shape, big-endian: the header
# byte, the probe reference (a one-byte history index, or the follower's stamp
# as its integer and fractional words), then a reply's t_tx_leader and
# t_rx_leader. Bytes past a shape's size are block padding.
_PAYLOADS = {
    (kind, indexed): struct.Struct(
        ">B" + ("B" if indexed else "2Q") + ("4Q" if kind == MessageKind.LEADER_REPLY else "")
    )
    for kind in MessageKind
    for indexed in (False, True)
}


def _message_payload(msg: SyncMessage) -> bytes:
    header = msg.kind.value | ((_FLAG_INDEXED if msg.indexed else 0) << 4)
    ref = [msg.follower_index] if msg.indexed else []
    stamps = [] if msg.indexed else [msg.t_tx_follower]
    if msg.kind == MessageKind.LEADER_REPLY:
        stamps += [msg.t_tx_leader, msg.t_rx_leader]
    words = [word for ts in stamps for word in (ts.integer_part, ts.frac_part)]
    return _PAYLOADS[msg.kind, msg.indexed].pack(header, *ref, *words)


def _parse_payload(raw: bytes) -> SyncMessage:
    """Inverse of _message_payload; bytes past what the header promises are
    block padding and are ignored."""
    kind = MessageKind(raw[0] & 0xF)
    indexed = bool((raw[0] >> 4) & _FLAG_INDEXED)
    layout = _PAYLOADS[kind, indexed]
    if len(raw) < layout.size:
        raise ValueError("payload shorter than header promises")
    _, *fields = layout.unpack_from(raw)
    index = fields.pop(0) if indexed else None
    stamps = [Timestamp(*fields[i : i + 2]) for i in range(0, len(fields), 2)]
    ref = None if indexed else stamps.pop(0)
    t_tx_l, t_rx_l = stamps or (None, None)
    return SyncMessage(kind=kind, t_tx_follower=ref, follower_index=index, t_tx_leader=t_tx_l, t_rx_leader=t_rx_l)


def encode_sync_message(msg: SyncMessage) -> np.ndarray:
    """Serialize, apply the outer Hamming(7,4) then inner Golay(24,12), and
    return the coded bit sequence (uint8, MSB-first within each field)."""
    data_bits = np.unpackbits(np.frombuffer(_message_payload(msg), dtype=np.uint8))
    ham_bits = _to_bits(_HAMMING.enc[_from_bits(data_bits, 4)], 7)
    # inner code: zero-pad to a 12-bit block boundary
    ham_bits = np.append(ham_bits, np.zeros(-len(ham_bits) % 12, dtype=np.uint8))
    return _to_bits(_GOLAY.enc[_from_bits(ham_bits, 12)], 24)


def decode_sync_message(bits: np.ndarray) -> tuple[SyncMessage, int]:
    """Invert encode_sync_message; returns (message, corrected_bit_count).

    Raises FecError when any inner block fails, and ValueError on a
    malformed (wrong-length, non-binary or inconsistent) input.
    """
    bits = np.asarray(bits).astype(np.uint8).ravel()
    if len(bits) % 24 or not len(bits):
        raise ValueError(f"coded bit count {len(bits)} is not a positive multiple of 24")
    if bits.max() > 1:
        raise ValueError("coded bits must be 0 or 1")
    data12, golay_corrected = _decode(_from_bits(bits, 24), _GOLAY)
    ham_bits = _to_bits(data12, 12)
    nibbles, hamming_corrected = _decode(_from_bits(ham_bits[: len(ham_bits) // 7 * 7], 7), _HAMMING)
    payload = np.packbits(_to_bits(nibbles, 4)).tobytes()
    return _parse_payload(payload), golay_corrected + hamming_corrected


# ---------------------------------------------------------------------------
# Wire signal and the two-way round
# ---------------------------------------------------------------------------


# The 512-sample acquisition preamble, read-only: a 511-chip MLS (m=9) plus
# one cyclic pad chip (np.resize repeats the chips), on both QPSK rails at one
# sample per chip.
_PREAMBLE = np.resize(gen_mls(9), SYNC_PREAMBLE_LEN).astype(np.float64) * (1 + 1j) / np.sqrt(2.0)
_PREAMBLE.setflags(write=False)


def sync_wire_signal(msg: SyncMessage) -> np.ndarray:
    """Preamble followed by the QPSK-mapped coded bits, one sample/symbol."""
    return np.concatenate([_PREAMBLE, modulate(encode_sync_message(msg), "QPSK")])


def _demod_qpsk_bits(symbols: np.ndarray) -> np.ndarray:
    bits = np.empty(2 * len(symbols), dtype=np.uint8)
    bits[0::2] = (symbols.real < 0).astype(np.uint8)
    bits[1::2] = (symbols.imag < 0).astype(np.uint8)
    return bits


def _coded_bit_count(kind: MessageKind, indexed: bool) -> int:
    data_bits = 8 * _PAYLOADS[kind, indexed].size
    ham_bits = data_bits // 4 * 7
    blocks = (ham_bits + 11) // 12
    return blocks * 24


def detect_and_decode(buffer: ComplexSignal, kind: MessageKind, indexed: bool) -> tuple[SyncMessage, int, int]:
    """Find the preamble by normalized cross-correlation (acquire's default
    threshold), demodulate the expected payload, and decode; returns
    (message, toa_sample, corrected)."""
    n_sym = _coded_bit_count(kind, indexed) // 2
    max_lag = len(buffer.samples) - SYNC_PREAMBLE_LEN - n_sym + 1
    if max_lag < 1:
        raise ValueError("buffer too short for this message")
    res = acquire(buffer, [_PREAMBLE], lag_range=(0, max_lag), cfo_grid_hz=np.array([0.0]))
    start = res.lag + SYNC_PREAMBLE_LEN
    symbols = buffer.samples[start : start + n_sym]
    # undo any constant channel phase using the preamble as reference
    rot = np.vdot(_PREAMBLE, buffer.samples[res.lag : start])
    if abs(rot) > 0:
        symbols = symbols * np.conj(rot / abs(rot))
    msg, corrected = decode_sync_message(_demod_qpsk_bits(symbols))
    if msg.kind != kind or msg.indexed != indexed:
        raise ValueError("decoded message does not match the expected exchange state")
    return msg, res.lag, corrected


@dataclass(slots=True)
class SyncRoundResult:
    """One round's outcome. failure is "" on success, else why the round
    aborted: "acquisition" (no preamble found), "decode" (FEC failure or a
    message of the wrong kind), "echo" (the reply references another probe)
    or "flight_time" (the two-way flight time is impossible)."""

    success: bool
    delta_hat: Fraction | None
    residual: Fraction | None
    corrected_bits: int
    failure: str


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
) -> SyncRoundResult:
    """One complete two-way exchange over the RF side channel.

    The leader's clock is the true time axis; the follower's local clock
    reads true time minus its timestamp_offset_s. Times of arrival are taken
    from the preamble correlation peak, quantized to the sample grid. On
    success the follower's offset is reduced by the estimate. The round
    aborts, leaving the offset unchanged, when either message fails to
    decode, when the reply does not echo the probe the follower sent, or
    when the two-way flight time (t4 - t1) - (t3 - t2), from which the clock
    offset cancels, is one the receive buffers cannot hold: below 0, or
    beyond the sum over both hops of the latest start a whole message has
    in its buffer. Both checks catch FEC miscorrections of the timestamps;
    a miscorrection that moves the flight by less than the buffers' slack
    still passes.
    """
    pad = 32  # zero samples on either side of every received message
    delta_true = Fraction(follower.timestamp_offset_s)
    corrected_total = 0
    reach = 0  # the longest flight the receive buffers can hold, in samples

    def hop(msg: SyncMessage, link: ChannelModel, t_tx: Fraction) -> tuple[SyncMessage, Fraction]:
        """Send msg over link at true time t_tx; returns the decoded message
        and the true arrival time of its first sample."""
        nonlocal corrected_total, reach
        wire = sync_wire_signal(msg)
        # the channel's output between pad zeros on either side, then the noise
        buf = np.zeros(len(wire) + link.n_taps - 1 + link.tof_delay + 2 * pad, dtype=np.complex128)
        apply_channel(buf[pad:], wire, link)
        add_noise(buf, noise.noise_power_per_sample, rng)
        decoded, toa, corrected = detect_and_decode(ComplexSignal(buf, fs), msg.kind, msg.indexed)
        corrected_total += corrected
        reach += len(buf) - len(wire) - pad  # the latest flight at which a whole message fits in buf
        return decoded, t_tx + Fraction(toa - pad, int(fs))

    def failed(reason: str) -> SyncRoundResult:
        return SyncRoundResult(False, None, None, corrected_total, reason)

    # follower probe, stamped in follower-local time; timestamps are
    # unsigned, so the round starts well past zero on both clocks
    t_tx_follower_true = Fraction(1_000_000) + 2 * abs(delta_true)
    t_tx_follower = Timestamp.from_fraction(t_tx_follower_true - delta_true)
    if use_index:
        if history is None:
            history = []
        history.append(t_tx_follower)
        del history[:-SYNC_HISTORY_DEPTH]
        probe = SyncMessage(MessageKind.FOLLOWER_PROBE, follower_index=len(history) - 1)
    else:
        probe = SyncMessage(MessageKind.FOLLOWER_PROBE, t_tx_follower=t_tx_follower)

    try:
        decoded_probe, t_rx_leader_true = hop(probe, link_up, t_tx_follower_true)
        # the leader stamps the arrival on its (true) clock and replies after a fixed turnaround
        t_rx_leader = Timestamp.from_fraction(t_rx_leader_true)
        t_tx_leader_true = t_rx_leader.to_fraction() + Fraction(1, 1000)
        reply = SyncMessage(
            MessageKind.LEADER_REPLY,
            t_tx_follower=decoded_probe.t_tx_follower,
            follower_index=decoded_probe.follower_index,
            t_tx_leader=Timestamp.from_fraction(t_tx_leader_true),
            t_rx_leader=t_rx_leader,
        )
        decoded_reply, t_rx_follower_true = hop(reply, link_down, t_tx_leader_true)
    except AcquisitionError:
        return failed("acquisition")
    except ValueError:  # FecError, or a message of the wrong kind
        return failed("decode")
    t_rx_follower = Timestamp.from_fraction(t_rx_follower_true - delta_true)

    if (decoded_reply.t_tx_follower, decoded_reply.follower_index) != (probe.t_tx_follower, probe.follower_index):
        return failed("echo")
    t_rx_l, t_tx_l = decoded_reply.t_rx_leader, decoded_reply.t_tx_leader
    # whole samples: the stamps' 2^-64 s rounding must not push a zero flight below 0
    flight = round(((t_rx_follower - t_tx_follower) - (t_tx_l - t_rx_l)) * int(fs))
    if not 0 <= flight <= reach:
        return failed("flight_time")

    delta_hat = estimate_offset(t_tx_follower, t_rx_l, t_tx_l, t_rx_follower)
    follower.timestamp_offset_s = float(Fraction(follower.timestamp_offset_s) - delta_hat)
    residual = delta_true - delta_hat
    return SyncRoundResult(True, delta_hat, residual, corrected_total, "")
