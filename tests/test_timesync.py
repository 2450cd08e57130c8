"""Tests for timestamps, FEC codes, the sync message codec, and sync rounds."""

import dataclasses
import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcbf import timesync
from dcbf.core import NodeState, substream
from dcbf.impairments import ChannelModel, NoiseSpec
from dcbf.timesync import (
    FecError,
    MessageKind,
    SyncMessage,
    Timestamp,
    decode_sync_message,
    encode_sync_message,
    estimate_offset,
    golay_encode,
    run_sync_round,
    sync_wire_signal,
)

U64 = st.integers(min_value=0, max_value=2**64 - 1)


def decode_word(word):
    """One 24-bit word through the wire path's Golay decoder: (data, corrected)."""
    data, corrected = timesync._golay_decode(np.array([word]))
    return int(data[0]), corrected


class TestTimestamp:
    @given(ai=U64, af=U64, bi=U64, bf=U64)
    @settings(max_examples=200)
    def test_sub_then_add_is_exact(self, ai, af, bi, bf):
        a = Timestamp(ai, af)
        b = Timestamp(bi, bf)
        assert b.to_fraction() + (a - b) == a.to_fraction()

    def test_from_fraction_roundtrip_on_grid(self):
        v = Fraction(123456789, 2**20)
        assert Timestamp.from_fraction(v).to_fraction() == v

    def test_range_validation(self):
        with pytest.raises(ValueError):
            Timestamp(-1, 0)
        with pytest.raises(ValueError):
            Timestamp(0, 2**64)


class TestGolay:
    def test_zero_data_zero_codeword(self):
        assert golay_encode(0) == 0

    def test_exhaustive_triple_flips_on_random_codewords(self):
        # all C(24,3) weight-3 patterns, for 10 random data words
        rng = substream(0, "test", "golay")
        from itertools import combinations

        for data in rng.integers(0, 4096, 10):
            cw = golay_encode(int(data))
            for pos in combinations(range(24), 3):
                err = (1 << pos[0]) | (1 << pos[1]) | (1 << pos[2])
                decoded, corrected = decode_word(cw ^ err)
                assert decoded == data
                assert corrected == 3

    def test_minimum_distance_8(self):
        # linear code: min pairwise distance = min nonzero codeword weight
        weights = [bin(golay_encode(u)).count("1") for u in range(1, 4096)]
        assert min(weights) == 8

    def test_weight4_always_detected(self):
        rng = substream(1, "test", "golay4")
        for _ in range(200):
            cw = golay_encode(int(rng.integers(0, 4096)))
            pos = rng.choice(24, size=4, replace=False)
            err = 0
            for p in pos:
                err |= 1 << int(p)
            with pytest.raises(FecError):
                decode_word(cw ^ err)

    def test_single_and_double_flips(self):
        cw = golay_encode(0x5A5)
        for i in range(24):
            assert decode_word(cw ^ (1 << i)) == (0x5A5, 1)
            for j in range(i + 1, 24):
                assert decode_word(cw ^ (1 << i) ^ (1 << j)) == (0x5A5, 2)


class TestHamming:
    # the wire path's tables: encoder, and word -> (data, corrected)
    def test_zero(self):
        assert timesync._HAMMING_ENC[0] == 0

    def test_every_single_flip_corrected(self):
        rng = substream(2, "test", "hamm")
        for data in rng.integers(0, 16, 8):
            cw = int(timesync._HAMMING_ENC[data])
            for i in range(7):
                assert timesync._HAMMING_DATA[cw ^ (1 << i)] == data
                assert timesync._HAMMING_CORR[cw ^ (1 << i)] == 1

    def test_pairwise_distance_at_least_3(self):
        words = [int(w) for w in timesync._HAMMING_ENC]
        for i in range(16):
            for j in range(i + 1, 16):
                assert bin(words[i] ^ words[j]).count("1") >= 3


def _oracle_golay_tables():
    """The Golay tables built bit by bit with Python loops: encoder, and
    syndrome -> error pattern found by trying every pattern of weight <= 3."""
    b_rows = timesync._GOLAY_B_ROWS
    enc = np.zeros(4096, dtype=np.uint32)
    for data in range(4096):
        parity = 0
        for i in range(12):
            if (data >> (11 - i)) & 1:
                parity ^= b_rows[i]
        enc[data] = (data << 12) | parity
    # syndrome of a single set bit at position p (bit 23 = first data bit)
    col_synd = [b_rows[23 - p] if p >= 12 else 1 << p for p in range(24)]
    err_table = np.full(4096, -1, dtype=np.int64)
    err_table[0] = 0
    for a in range(24):
        err_table[col_synd[a]] = 1 << a
    for a in range(24):
        for b in range(a + 1, 24):
            err_table[col_synd[a] ^ col_synd[b]] = (1 << a) | (1 << b)
    for a in range(24):
        for b in range(a + 1, 24):
            for c in range(b + 1, 24):
                err_table[col_synd[a] ^ col_synd[b] ^ col_synd[c]] = (1 << a) | (1 << b) | (1 << c)
    return enc, err_table


def _oracle_hamming_tables():
    """The Hamming tables from the parity equations and a brute-force
    nearest-codeword search over all 128 words."""
    enc = np.zeros(16, dtype=np.uint8)
    for d in range(16):
        d0, d1, d2, d3 = (d >> 3) & 1, (d >> 2) & 1, (d >> 1) & 1, d & 1
        p0 = d0 ^ d1 ^ d3
        p1 = d0 ^ d2 ^ d3
        p2 = d1 ^ d2 ^ d3
        enc[d] = (d << 3) | (p0 << 2) | (p1 << 1) | p2
    data = np.zeros(128, dtype=np.uint8)
    corr = np.zeros(128, dtype=np.uint8)
    for w in range(128):
        best = None
        for d in range(16):
            dist = bin(w ^ int(enc[d])).count("1")
            if best is None or dist < best[0]:
                best = (dist, d)
        data[w] = best[1]
        corr[w] = 1 if best[0] else 0
    return enc, data, corr


class TestFecTablesOracle:
    """The FEC tables derived from the codes' structure equal the tables the
    loop-by-loop construction gives, dtype included."""

    @staticmethod
    def _assert_same(got, want):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_golay_tables(self):
        enc, err = _oracle_golay_tables()
        self._assert_same(timesync._GOLAY_ENC, enc)
        self._assert_same(timesync._GOLAY_ERR, err)
        assert int((err >= 0).sum()) == 2325  # 1 + 24 + 276 + 2024 patterns

    def test_hamming_tables(self):
        enc, data, corr = _oracle_hamming_tables()
        self._assert_same(timesync._HAMMING_ENC, enc)
        self._assert_same(timesync._HAMMING_DATA, data)
        self._assert_same(timesync._HAMMING_CORR, corr)

    def test_golay_decode_matches_table_oracle(self):
        # codewords of 64 data words under 0..8 random flips: decoded data
        # and count (miscorrections included) from the oracle tables,
        # FecError where they have no pattern
        enc, err = _oracle_golay_tables()
        rng = substream(8, "test", "golay-oracle")
        for data in rng.integers(0, 4096, 64):
            for n_flips in range(9):
                word = int(enc[data])
                for p in rng.choice(24, size=n_flips, replace=False):
                    word ^= 1 << int(p)
                syndrome = 0
                for p in range(24):
                    if (word >> p) & 1:
                        syndrome ^= timesync._GOLAY_B_ROWS[23 - p] if p >= 12 else 1 << p
                e = int(err[syndrome])
                if e < 0:
                    with pytest.raises(FecError):
                        decode_word(word)
                else:
                    assert decode_word(word) == ((word ^ e) >> 12, bin(e).count("1"))


class TestMessageCodec:
    def _roundtrip(self, msg):
        decoded, corrected = decode_sync_message(encode_sync_message(msg))
        assert decoded == msg
        assert corrected == 0

    def test_probe_roundtrip(self):
        self._roundtrip(SyncMessage(MessageKind.FOLLOWER_PROBE, t_tx_follower=Timestamp(5, 17)))

    def test_indexed_probe_roundtrip(self):
        self._roundtrip(SyncMessage(MessageKind.FOLLOWER_PROBE, follower_index=255))

    def test_reply_roundtrip_boundary_frac(self):
        msg = SyncMessage(
            MessageKind.LEADER_REPLY,
            t_tx_follower=Timestamp(100, 0),
            t_tx_leader=Timestamp(2**64 - 1, 123),
            t_rx_leader=Timestamp(7, 2**64 - 1),
        )
        self._roundtrip(msg)

    @given(
        kind=st.sampled_from(MessageKind),
        index=st.none() | st.integers(0, 255),
        words=st.lists(st.sampled_from([0, 2**64 - 1]) | U64, min_size=6, max_size=6),
        pad=st.binary(max_size=2),
    )
    @settings(max_examples=200, deadline=None)
    def test_payload_roundtrip_and_size(self, kind, index, words, pad):
        # every message shape, stamps at the 64-bit edges, 0-2 bytes of block padding
        ref, t_tx, t_rx = (Timestamp(*words[i : i + 2]) for i in range(0, 6, 2))
        reply = kind == MessageKind.LEADER_REPLY
        msg = SyncMessage(
            kind,
            t_tx_follower=ref if index is None else None,
            follower_index=index,
            t_tx_leader=t_tx if reply else None,
            t_rx_leader=t_rx if reply else None,
        )
        assert timesync._parse_payload(timesync._message_payload(msg) + pad) == msg
        assert timesync._coded_bit_count(kind, index is not None) == len(encode_sync_message(msg))

    def test_single_flip_per_inner_block_decodes(self):
        msg = SyncMessage(
            MessageKind.LEADER_REPLY,
            t_tx_follower=Timestamp(1, 2),
            t_tx_leader=Timestamp(3, 4),
            t_rx_leader=Timestamp(5, 6),
        )
        bits = encode_sync_message(msg)
        n_blocks = len(bits) // 24
        corrupted = bits.copy()
        flip = substream(3, "test", "flip")
        positions = []
        for b in range(n_blocks):
            pos = b * 24 + int(flip.integers(0, 24))
            corrupted[pos] ^= 1
            positions.append(pos)
        decoded, corrected = decode_sync_message(corrupted)
        assert decoded == msg
        assert corrected == n_blocks

    def test_heavy_corruption_raises(self):
        msg = SyncMessage(MessageKind.FOLLOWER_PROBE, t_tx_follower=Timestamp(1, 1))
        bits = encode_sync_message(msg)
        bits[:10] ^= 1  # 10 errors in the first block
        with pytest.raises((FecError, ValueError)):
            decode_sync_message(bits)

    def test_malformed_bit_input_rejected(self):
        bits = encode_sync_message(SyncMessage(MessageKind.FOLLOWER_PROBE, follower_index=3))
        with pytest.raises(ValueError, match="multiple of 24"):
            decode_sync_message(bits[:-1])
        with pytest.raises(ValueError, match="multiple of 24"):
            decode_sync_message(bits[:0])
        bits[5] = 2
        with pytest.raises(ValueError, match="0 or 1"):
            decode_sync_message(bits)

    def test_message_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            SyncMessage(MessageKind.FOLLOWER_PROBE)
        with pytest.raises(ValueError, match="LEADER_REPLY"):
            SyncMessage(MessageKind.LEADER_REPLY, t_tx_follower=Timestamp(0, 0))

    def test_preamble_is_512_samples(self):
        assert len(timesync._PREAMBLE) == 512 and not timesync._PREAMBLE.flags.writeable
        wire = sync_wire_signal(
            SyncMessage(MessageKind.FOLLOWER_PROBE, follower_index=0)
        )
        assert len(wire) > 512


class TestEstimateOffset:
    def _ts(self, v):
        return Timestamp.from_fraction(Fraction(v))

    def test_symmetric_tof_exact(self):
        d = estimate_offset(self._ts(100), self._ts(115), self._ts(200), self._ts(205))
        assert d == Fraction(5)

    def test_asymmetric_tof(self):
        # delta=0, ToF up 10 / down 14 -> estimate -(asymmetry)/2 = -2
        d = estimate_offset(self._ts(100), self._ts(110), self._ts(200), self._ts(214))
        assert d == Fraction(-2)

    def test_all_zero_tof(self):
        assert estimate_offset(self._ts(7), self._ts(7), self._ts(9), self._ts(9)) == 0

    @given(
        delta_num=st.integers(-(2**40), 2**40),
        tof_num=st.integers(0, 2**40),
        t0_num=st.integers(2**20, 2**40),
        gap_num=st.integers(1, 2**30),
    )
    @settings(max_examples=200)
    def test_exactness_with_symmetric_tof(self, delta_num, tof_num, t0_num, gap_num):
        # rational timestamps on the 2^-64 grid, equal up/down ToF: exact recovery
        denom = 2**24
        delta = Fraction(delta_num, denom)
        tof = Fraction(tof_num, denom)
        t0 = Fraction(t0_num, denom) + 2 * abs(delta)
        gap = Fraction(gap_num, denom)
        t_tx_n = t0 - delta
        t_rx_l = t0 + tof
        t_tx_l = t0 + tof + gap
        t_rx_n = t_tx_l + tof - delta
        est = estimate_offset(
            Timestamp.from_fraction(t_tx_n),
            Timestamp.from_fraction(t_rx_l),
            Timestamp.from_fraction(t_tx_l),
            Timestamp.from_fraction(t_rx_n),
        )
        assert est == delta


class TestSyncRound:
    def _links(self, up_tof, down_tof):
        return (
            ChannelModel(np.array([1.0 + 0j]), tof_delay=up_tof, label="up"),
            ChannelModel(np.array([1.0 + 0j]), tof_delay=down_tof, label="down"),
        )

    def test_noiseless_symmetric_residual_zero(self):
        leader = NodeState("L")
        follower = NodeState("F", timestamp_offset_s=2.5)
        up, down = self._links(20, 20)
        res = run_sync_round(leader, follower, up, down, NoiseSpec(0.0), substream(0, "s", "n"))
        assert res.success
        # exact up to the 2^-64 timestamp grid
        assert abs(res.residual) <= Fraction(4, 2**64)
        assert abs(follower.timestamp_offset_s) < 1e-15

    def test_asymmetric_residual_is_half_difference(self):
        leader = NodeState("L")
        follower = NodeState("F", timestamp_offset_s=0.125)
        up, down = self._links(20, 28)  # differ by 8 samples = 4 us
        res = run_sync_round(leader, follower, up, down, NoiseSpec(0.0), substream(0, "s", "n"))
        assert res.success
        assert float(res.residual) == pytest.approx(8 / 2 / 2e6, rel=1e-9)

    def test_index_compression_identical_estimate(self):
        up, down = self._links(20, 20)
        expl = run_sync_round(
            NodeState("L"), NodeState("F", timestamp_offset_s=0.375), up, down,
            NoiseSpec(0.0), substream(1, "s", "n"), use_index=False,
        )
        hist = []
        idx = run_sync_round(
            NodeState("L"), NodeState("F", timestamp_offset_s=0.375), up, down,
            NoiseSpec(0.0), substream(1, "s", "n"), use_index=True, history=hist,
        )
        assert expl.success and idx.success
        assert expl.delta_hat == idx.delta_hat

    def test_residual_rms_decreases_with_snr(self):
        # points straddle the FEC waterfall: mostly-failed, occasionally
        # failed, and clean; RMS must fall monotonically
        up, down = self._links(15, 15)
        rms = []
        for snr_db in (4.0, 6.0, 8.0):
            noise = NoiseSpec(10 ** (-snr_db / 10))
            residuals = []
            rng = substream(4, "s", f"snr{snr_db}")
            for trial in range(100):
                follower = NodeState("F", timestamp_offset_s=0.01)
                res = run_sync_round(NodeState("L"), follower, up, down, noise, rng)
                if res.success:
                    residuals.append(float(res.residual))
                else:
                    residuals.append(0.01)  # aborted round leaves the full offset
            rms.append(float(np.sqrt(np.mean(np.square(residuals)))))
        assert rms[0] > rms[1] > rms[2]

    def test_decode_failure_leaves_offset(self):
        # hopeless SNR: round aborts, offset unchanged
        up, down = self._links(10, 10)
        follower = NodeState("F", timestamp_offset_s=0.25)
        res = run_sync_round(
            NodeState("L"), follower, up, down, NoiseSpec(1000.0), substream(5, "s", "n")
        )
        assert not res.success
        assert res.failure in ("acquisition", "decode")
        assert follower.timestamp_offset_s == 0.25

    @pytest.mark.parametrize("tof", [0, 2000])
    def test_any_flight_inside_the_buffers_accepted(self, tof):
        # zero flight, where the stamps' rounding may fall either side of 0,
        # and a flight of 4000 samples, longer than either receive buffer
        up, down = self._links(tof, tof)
        follower = NodeState("F", timestamp_offset_s=0.3)
        res = run_sync_round(NodeState("L"), follower, up, down, NoiseSpec(0.0), substream(0, "s", "n"))
        assert (res.success, res.failure) == (True, "")
        assert abs(res.residual) <= Fraction(4, 2**64)

    @pytest.mark.parametrize(
        "use_index, field, wrong, failure",
        [
            (False, "t_tx_follower", lambda ts: Timestamp(ts.integer_part, ts.frac_part ^ 1), "echo"),
            (True, "follower_index", lambda index: index + 1, "echo"),
            (False, "t_rx_leader", lambda ts: Timestamp(ts.integer_part - 1, ts.frac_part), "flight_time"),
            (True, "t_tx_leader", lambda ts: Timestamp(ts.integer_part + 1, ts.frac_part), "flight_time"),
        ],
        ids=["stamp", "index", "t_rx_leader", "t_tx_leader"],
    )
    def test_miscorrected_reply_aborts(self, monkeypatch, use_index, field, wrong, failure):
        # a reply that decodes but carries a wrong field, as a FEC
        # miscorrection leaves it: the round aborts and the offset stays
        decode = timesync.detect_and_decode

        def miscorrect(buffer, kind, indexed):
            msg, toa, corrected = decode(buffer, kind, indexed)
            if kind == MessageKind.LEADER_REPLY:
                msg = dataclasses.replace(msg, **{field: wrong(getattr(msg, field))})
            return msg, toa, corrected

        monkeypatch.setattr(timesync, "detect_and_decode", miscorrect)
        up, down = self._links(20, 20)
        follower = NodeState("F", timestamp_offset_s=0.125)
        res = run_sync_round(
            NodeState("L"), follower, up, down, NoiseSpec(0.0), substream(0, "s", "n"), use_index=use_index, history=[]
        )
        assert (res.success, res.failure, res.delta_hat) == (False, failure, None)
        assert follower.timestamp_offset_s == 0.125

    def test_no_silent_miscorrection_at_6db(self):
        # about one round in 100 used to decode a miscorrected timestamp and
        # report success ~1e16 s off; the echo and flight-time checks abort it
        up, down = self._links(20, 20)
        noise = NoiseSpec(10 ** (-6 / 10))
        bad = []
        for seed in range(3):
            rng = substream(seed, "sync", "6dB")
            for _ in range(300):
                follower = NodeState("F", timestamp_offset_s=1.25e-3)
                res = run_sync_round(NodeState("L"), follower, up, down, noise, rng, history=[])
                if res.success and abs(res.residual) > Fraction(1, 2_000_000):
                    bad.append(float(res.residual))
        assert not bad

    @pytest.mark.parametrize(
        "use_index, digest",
        [
            (False, "a6539cb6015d90816ddab2c25146101fa8c2185681c94e2f28b699ee7abe8b8c"),
            (True, "15f01fc73e9918854d38169319c2982feb248749591a0490822d4397a9a51c99"),
        ],
        ids=["explicit", "indexed"],
    )
    def test_fresh_rounds_pinned_at_10db(self, use_index, digest):
        # (success, delta_hat, residual, corrected_bits) of 20 fresh-follower
        # rounds, as the round gave them before the echo and flight-time
        # checks: at 10 dB every round succeeds and neither check fires
        up, down = self._links(20, 20)
        rng = substream(0, "sync", "pin")
        lines = []
        for _ in range(20):
            follower = NodeState("F", timestamp_offset_s=1.25e-3)
            res = run_sync_round(
                NodeState("L"), follower, up, down, NoiseSpec(0.1), rng, use_index=use_index, history=[]
            )
            lines.append(f"{res.success},{res.delta_hat},{res.residual},{res.corrected_bits}")
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


class TestFecStackGain:
    def test_message_error_rate_lower_with_fec(self):
        """At a fixed per-symbol channel SNR (QPSK Eb/N0 = 7 dB per coded
        bit), the full Hamming+Golay stack must beat uncoded transmission
        over >= 1e4 messages."""
        rng = substream(6, "test", "fec")
        n_msgs = 10_000
        ebn0_db = 7.0
        # QPSK: Es = 2 Eb -> per-symbol SNR
        es_n0 = 2 * 10 ** (ebn0_db / 10)
        sigma = np.sqrt(1.0 / es_n0 / 2)  # unit-energy symbols, per-quadrature noise

        msg = SyncMessage(MessageKind.FOLLOWER_PROBE, t_tx_follower=Timestamp(123, 456))
        payload_bits = 8 * 17  # header + one timestamp
        coded = encode_sync_message(msg)

        def qpsk_channel(bits, n):
            """Transmit bits n times over AWGN, return hard-decision bits."""
            symbols = (1 - 2.0 * bits[None, :].repeat(n, 0)).astype(float)
            i = symbols[:, 0::2] / np.sqrt(2)
            q = symbols[:, 1::2] / np.sqrt(2)
            i = i + rng.normal(0, sigma, i.shape)
            q = q + rng.normal(0, sigma, q.shape)
            out = np.empty((n, len(bits)), dtype=np.uint8)
            out[:, 0::2] = (i < 0).astype(np.uint8)
            out[:, 1::2] = (q < 0).astype(np.uint8)
            return out

        # uncoded: any bit error kills the message
        raw_bits = np.zeros(payload_bits, dtype=np.uint8)
        rx = qpsk_channel(raw_bits, n_msgs)
        uncoded_errors = int(np.any(rx != raw_bits, axis=1).sum())

        rx = qpsk_channel(coded, n_msgs)
        coded_errors = 0
        for row in rx:
            try:
                decoded, _ = decode_sync_message(row)
                if decoded != msg:
                    coded_errors += 1
            except (FecError, ValueError):
                coded_errors += 1

        assert uncoded_errors > 0, "test should exercise a noticeably noisy channel"
        assert coded_errors < uncoded_errors
