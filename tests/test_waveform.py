"""Tests for MLS generation, modulation, pulse shaping, and frame assembly."""

import json
from itertools import combinations

import numpy as np
import pytest

from dcbf import waveform
from dcbf.core import ConfigError, MeshConfig, substream
from dcbf.waveform import (
    PULSE,
    RX_FRAME_TOTAL,
    TX_FRAME_TOTAL,
    build_frame,
    gen_mls,
    interferer_frame,
    interferer_layout,
    modulate,
    node_ambles,
    node_frames,
    rx_source_layout,
    shape_symbols,
    source_frame,
    tx_node_layout,
    write_frame_iq,
)


def _source(cfg, seed=0):
    layout = rx_source_layout(cfg)
    return build_frame(layout, source_frame(cfg, seed)), layout


def _node(cfg, node_id, seed=0):
    layout = tx_node_layout(cfg)
    return build_frame(layout, node_frames(cfg, seed)[node_id - 1]), layout


def _shaped_by_formula(symbols):
    """shape_symbols as a formula: the upsampled stream through the pulse,
    centred, then scaled into a second array."""
    up = np.zeros(len(symbols) * waveform.SPS, dtype=np.complex128)
    up[:: waveform.SPS] = symbols
    return np.convolve(up, PULSE)[(len(PULSE) - 1) // 2 :][: len(up)] * np.sqrt(waveform.SPS)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestGenMls:
    def test_m3_period7_autocorrelation(self):
        # exhaustive circular correlation over all 7 lags
        seq = gen_mls(3, (3, 1), init_state=0b001).astype(float)
        assert len(seq) == 7
        for lag in range(7):
            expected = 7 if lag == 0 else -1
            assert np.sum(seq * np.roll(seq, lag)) == expected

    def test_m9_length_511(self):
        assert len(gen_mls(9)) == 511

    @pytest.mark.parametrize("m", [5, 8, 10, 13])
    def test_balance_property(self, m):
        seq = gen_mls(m)
        assert np.sum(seq == 1) == 2 ** (m - 1)
        assert np.sum(seq == -1) == 2 ** (m - 1) - 1

    # The primitive tap sets of orders 5..14 as once tabulated by hand: the
    # first six of each order, trinomials (m, a) by descending a, then
    # pentanomials (m, a, b, c) in descending lexicographic order.
    TABULATED_TAPS = {
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

    def test_derived_taps_match_table(self):
        for m, table in self.TABULATED_TAPS.items():
            taps = waveform._primitive_taps(m, 6)
            assert taps == table
            for t in taps:
                assert len(gen_mls(m, t)) == 2**m - 1  # raises if non-primitive
            assert np.array_equal(gen_mls(m), gen_mls(m, taps[0]))

    @pytest.mark.parametrize("m, size", [(2, 1), (3, 2), (4, 2), (5, 6), (6, 6), (7, 14), (8, 12)])
    def test_family_size_of_short_orders(self, m, size):
        # trinomials and pentanomials only: order 7's 18 primitive polynomials include 4 of weight 7
        assert len(waveform._primitive_taps(m, 100)) == size

    @staticmethod
    def _lfsr_search(m, count):
        """_primitive_taps by the LFSR: a tap set is primitive exactly when
        gen_mls's register first returns to its initial state after 2^m - 1
        steps."""
        found = []
        for rest in (r for k in (1, 3) for r in combinations(range(m - 1, 0, -1), k)):
            if len(found) == count:
                break
            taps = (m, *rest)
            mask = sum(1 << (m - t) for t in taps)
            state, steps = 1, 0
            while True:
                state = (state >> 1) | (((state & mask).bit_count() & 1) << (m - 1))
                steps += 1
                if state == 1:
                    break
            if steps == 2**m - 1:
                found.append(taps)
        return tuple(found)

    @pytest.mark.parametrize("m", range(2, 14))
    def test_multiplicative_order_search_matches_the_lfsr(self, m):
        for count in (1, 3, 8, 100):
            waveform._primitive_taps.cache_clear()
            assert waveform._primitive_taps(m, count) == self._lfsr_search(m, count)

    def test_non_primitive_taps_rejected(self):
        with pytest.raises(ValueError, match="not primitive"):
            gen_mls(4, (4, 2))  # x^4 + x^2 + 1 = (x^2+x+1)^2

    def test_unknown_m_without_taps_rejected(self):
        for m in (1, 21):
            with pytest.raises(ValueError, match="out of supported range"):
                gen_mls(m)

    def test_short_order_without_taps(self):
        seq = gen_mls(4)  # x^4 + x^3 + 1
        assert np.array_equal(seq, gen_mls(4, (4, 3)))
        assert len(seq) == 15

    def test_zero_init_state_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            gen_mls(5, init_state=0)

    def test_init_state_rotates_sequence(self):
        a = gen_mls(5, init_state=1).astype(int)
        b = gen_mls(5, init_state=2).astype(int)
        assert any(np.array_equal(np.roll(a, k), b) for k in range(31))
        assert not np.array_equal(a, b)


class TestModulate:
    def test_qpsk_constellation(self):
        syms = modulate([0, 0, 0, 1, 1, 1, 1, 0], "QPSK")
        assert len(set(np.round(syms, 12))) == 4
        assert np.allclose(np.abs(syms), 1.0)
        # pairwise phase differences are multiples of pi/2
        for a in syms:
            for b in syms:
                d = np.angle(a / b) / (np.pi / 2)
                assert abs(d - round(d)) < 1e-12

    def test_qam256_zero_word_is_corner(self):
        sym = modulate([0] * 8, "QAM256")
        assert sym[0] == pytest.approx((-15 - 15j) / np.sqrt(170))
        assert abs(sym[0]) == pytest.approx(15 * np.sqrt(2.0 / 170.0))

    def test_qam256_unit_mean_power_exact(self):
        # all 256 words: exact unit mean power by construction
        bits = np.array([[(w >> k) & 1 for k in range(7, -1, -1)] for w in range(256)]).ravel()
        syms = modulate(bits, "QAM256")
        assert np.mean(np.abs(syms) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_qpsk_random_stream_power(self):
        rng = substream(3, "test", "bits")
        bits = rng.integers(0, 2, 20000)
        syms = modulate(bits, "QPSK")
        assert np.mean(np.abs(syms) ** 2) == pytest.approx(1.0, rel=0.01)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="even"):
            modulate([0, 1, 0], "QPSK")
        with pytest.raises(ValueError, match="multiple of 8"):
            modulate([0] * 12, "QAM256")

    def test_unknown_modulation(self):
        with pytest.raises(ValueError, match="unknown modulation"):
            modulate([0, 0], "PAM4")


class TestPulse:
    def test_unit_norm(self):
        assert np.linalg.norm(PULSE) == pytest.approx(1.0)
        assert len(PULSE) == 8 * 2 + 1

    def test_shaped_stream_unit_power(self):
        rng = substream(4, "test", "bits")
        stream = modulate(rng.integers(0, 2, 8192), "QPSK")
        wave = shape_symbols(stream)
        assert len(wave) == 2 * len(stream)
        assert np.mean(np.abs(wave) ** 2) == pytest.approx(1.0, rel=0.02)

    @pytest.mark.parametrize("n_symbols", [1, 2, 8, 9])
    def test_short_stream_keeps_length_and_centre(self, n_symbols):
        # streams shorter than the pulse: the first samples of the stream followed by silence
        stream = modulate(substream(5, "test", "bits").integers(0, 2, 2 * n_symbols), "QPSK")
        wave = shape_symbols(stream)
        padded = shape_symbols(np.concatenate([stream, np.zeros(16)]))
        np.testing.assert_allclose(wave, padded[: 2 * n_symbols], rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("taps", ["pulse", 17, 4])
    def test_centered_convolve_is_same_mode(self, taps):
        # bitwise np.convolve(x, taps, "same") wherever x is the longer; a shorter x
        # keeps its own length and centre, as if zero-padded past the taps
        rng = substream(6, "test", f"centered{taps}")
        if taps == "pulse":
            taps = PULSE
        else:
            taps = rng.normal(size=taps) + 1j * rng.normal(size=taps)
        for n in [*range(1, 41), RX_FRAME_TOTAL]:
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            got = waveform._centered_convolve(x, taps)
            if n >= len(taps):
                assert np.array_equal(got.view(np.uint64), np.convolve(x, taps, mode="same").view(np.uint64))
            else:
                padded = np.convolve(np.concatenate([x, np.zeros(len(taps))]), taps, mode="same")
                np.testing.assert_allclose(got, padded[:n], rtol=1e-12, atol=1e-15)

    def test_scaled_in_place_keeps_the_formula_bits(self):
        rng = substream(7, "test", "shape")
        for n in [*range(1, 20), 4096, 37_780]:
            symbols = rng.normal(size=n) + 1j * rng.normal(size=n)
            assert _same_bits(shape_symbols(symbols), _shaped_by_formula(symbols))

    def test_matched_cascade_is_nyquist(self):
        # rrc * rrc sampled at symbol spacing is ~delta (ISI-free)
        rc = np.convolve(PULSE, PULSE)
        center = len(rc) // 2
        symbol_taps = rc[center % 2 :: 2]
        peak = np.argmax(np.abs(symbol_taps))
        others = np.delete(symbol_taps, peak)
        assert np.abs(rc[center]) == pytest.approx(1.0, abs=0.02)
        assert np.max(np.abs(others)) < 0.02


class TestInterfererDraw:
    # interferer_frame draws its bits as int32 rather than the default int64.
    # Over {0, 1} numpy's bounded draw takes one 32-bit word per bit at either
    # width, so the bits, and the stream state left for any later draw, are
    # those of the int64 draw.
    @pytest.mark.parametrize("size", [1, 2, 31, 1000, 65_537, "bundled"])
    def test_int32_draw_matches_int64(self, size):
        if size == "bundled":  # the bundled rx_bf_interf interferer spans its receive buffer
            from dcbf.cli import load_config
            from dcbf.scenario import _admit

            size = (_admit(load_config("rx_bf_interf"))[1][1] // waveform.SPS) * 8
        for seed in range(20):
            wide, narrow = (substream(seed, "interferer", "payload_bits") for _ in range(2))
            bits = narrow.integers(0, 2, size=size, dtype=np.int32)
            assert bits.dtype == np.int32
            assert np.array_equal(bits, wide.integers(0, 2, size=size))
            assert narrow.bit_generator.state == wide.bit_generator.state


class TestFrames:
    def setup_method(self):
        self.cfg = MeshConfig()

    def test_rx_source_frame_total_and_silence(self):
        sig, layout = _source(self.cfg)
        assert layout.total_length == 75560
        assert len(sig) == 75560
        look = layout.segment("look_through")
        assert np.all(sig[look.offset : look.offset + look.length] == 0)

    def test_guards_are_256_zero_samples(self):
        sig, layout = _source(self.cfg)
        guard_names = [s.name for s in layout.segments if s.name.startswith("guard")]
        assert guard_names
        for name in guard_names:
            seg = layout.segment(name)
            assert seg.length == 256
            assert np.all(sig[seg.offset : seg.offset + seg.length] == 0)

    def test_tx_frame_total_and_tdma_slots(self):
        sig, layout = _node(self.cfg, 2)
        assert layout.total_length == 91472
        mon2 = layout.segment("monitor_2")
        assert np.any(sig[mon2.offset : mon2.offset + mon2.length] != 0)
        for other in (1, 3):
            seg = layout.segment(f"monitor_{other}")
            assert np.all(sig[seg.offset : seg.offset + seg.length] == 0)
            post = layout.segment(f"postamble_{other}")
            assert np.all(sig[post.offset : post.offset + post.length] == 0)
        assert np.any(sig[layout.segment("postamble_2").offset :][:8192] != 0)

    def test_every_guard_and_lookthrough_zero_tx(self):
        sig, layout = _node(self.cfg, 1)
        for seg in layout.segments:
            if seg.name.startswith("guard") or seg.name == "look_through":
                assert np.all(sig[seg.offset : seg.offset + seg.length] == 0)

    def test_interferer_covers_frame(self):
        layout = interferer_layout(RX_FRAME_TOTAL)
        sig = build_frame(layout, interferer_frame(RX_FRAME_TOTAL, 0))
        assert len(sig) == 75560
        # continuous transmission: active over (nearly) the full duration
        power = np.abs(sig) ** 2
        assert np.mean(power[: len(power) // 2]) > 0.5
        assert np.mean(power[len(power) // 2 :]) > 0.5

    def test_interferer_matches_int64_draw(self):
        n = RX_FRAME_TOTAL
        for seed in (0, 3):
            bits = substream(seed, "interferer", "payload_bits").integers(0, 2, size=(n // waveform.SPS) * 8)
            expected = _shaped_by_formula(modulate(bits, "QAM256"))
            assert _same_bits(interferer_frame(n, seed)["interference"], expected)

    def test_cdma_preamble_cross_correlation(self):
        # normalized cross-correlation peak <= 0.2 between distinct nodes,
        # autocorrelation peak = 1 by construction
        waves = [ambles["preamble"] for ambles in node_ambles(self.cfg)]
        norms = [np.linalg.norm(w) for w in waves]
        n_fft = 1 << 18
        ffts = [np.fft.fft(w, n_fft) for w in waves]
        for a in range(3):
            auto = np.fft.ifft(ffts[a] * np.conj(ffts[a]))
            assert np.max(np.abs(auto)) / norms[a] ** 2 == pytest.approx(1.0, abs=1e-9)
            for b in range(a + 1, 3):
                cross = np.fft.ifft(ffts[a] * np.conj(ffts[b]))
                peak = np.max(np.abs(cross)) / (norms[a] * norms[b])
                assert peak <= 0.2

    def test_layout_roundtrip_bit_exact(self):
        sig, layout = _source(self.cfg, seed=9)
        rebuilt = np.zeros(layout.total_length, dtype=complex)
        for seg in layout.segments:
            rebuilt[seg.offset : seg.offset + seg.length] = layout.extract(sig, seg.name)
        assert np.array_equal(rebuilt, sig)

    def test_same_seeds_same_frame(self):
        a, _ = _source(self.cfg, seed=3)
        b, _ = _source(self.cfg, seed=3)
        assert np.array_equal(a, b)
        c, _ = _source(self.cfg, seed=4)
        assert not np.array_equal(a, c)

    def test_layout_overflow_rejected(self):
        # two 8192-sample ambles, 768 guard samples: a 70000-sample payload overflows
        with pytest.raises(ConfigError, match="overflow"):
            rx_source_layout(MeshConfig(payload_len=70000))
        with pytest.raises(ConfigError, match="overflow"):
            tx_node_layout(MeshConfig(n_nodes=5))

    @pytest.mark.parametrize("payload_len", [4096, 10000])
    def test_payload_segments_sized_by_payload_len(self, payload_len):
        cfg = MeshConfig(payload_len=payload_len)
        guards = 256
        rx = rx_source_layout(cfg)
        assert rx.segment("payload").length == payload_len
        assert rx.segment("look_through").length == RX_FRAME_TOTAL - 2 * 8192 - payload_len - 3 * guards
        tx = tx_node_layout(cfg)
        for name in ("bf_payload", "monitor_1", "monitor_2", "monitor_3"):
            assert tx.segment(name).length == payload_len
        for name in ("preamble", "postamble_1", "postamble_2", "postamble_3"):
            assert tx.segment(name).length == 8192
        assert tx.segment("look_through").length == TX_FRAME_TOTAL - 4 * 8192 - 4 * payload_len - 8 * guards
        for layout in (rx, tx):
            # segments tile the frame with no gap
            ends = [s.offset + s.length for s in layout.segments]
            assert [s.offset for s in layout.segments[1:]] == ends[:-1]
            assert ends[-1] == layout.total_length
        sig, _ = _source(cfg)
        assert np.array_equal(rx.extract(sig, "payload"), source_frame(cfg, 0)["payload"])
        assert np.mean(np.abs(rx.extract(sig, "payload")) ** 2) > 0.5
        sig, _ = _node(cfg, 2)
        assert np.array_equal(tx.extract(sig, "monitor_2"), tx.extract(sig, "bf_payload"))
        assert np.mean(np.abs(tx.extract(sig, "monitor_2")) ** 2) > 0.5

    @pytest.mark.parametrize(
        "mesh, field",
        [
            (MeshConfig(amble_len=2), "mesh.amble_len"),  # one QPSK symbol: an order-1 MLS
            (MeshConfig(amble_len=65536), "mesh.amble_len"),
            (MeshConfig(amble_len=8191), "mesh.amble_len"),
            (MeshConfig(payload_len=4097), "mesh.payload_len"),
        ],
    )
    def test_infeasible_ambles_rejected(self, mesh, field):
        for layout in (rx_source_layout, tx_node_layout):
            with pytest.raises(ConfigError, match=field):
                layout(mesh)

    def test_polynomials_per_node(self):
        # order 6 has 6 primitive trinomials and pentanomials: the CDMA
        # preambles of 7 nodes cannot all differ
        with pytest.raises(ConfigError, match="mesh.n_nodes"):
            tx_node_layout(MeshConfig(n_nodes=7, amble_len=112, payload_len=112))
        rx_source_layout(MeshConfig(n_nodes=7, amble_len=112, payload_len=112))
        # order 10 has enough
        layout = tx_node_layout(MeshConfig(n_nodes=8, amble_len=1024, payload_len=1024))
        assert layout.segment("postamble_8").length == 1024

    def test_amble_builders_reject_too_many_nodes(self):
        # order 3 holds 2 polynomials; called without a layout, the builders
        # must not hand back fewer ambles than nodes
        mesh = MeshConfig(n_nodes=3, amble_len=8)
        with pytest.raises(ConfigError, match="mesh.n_nodes"):
            node_ambles(mesh)
        with pytest.raises(ConfigError, match="mesh.n_nodes"):
            node_frames(mesh, 0)
        assert len(node_ambles(MeshConfig(n_nodes=2, amble_len=8))) == 2

    @pytest.mark.parametrize("amble_len, n_nodes", [(4, 1), (8, 2), (16, 2), (32768, 1)])
    def test_amble_orders_outside_the_old_table(self, amble_len, n_nodes):
        # orders 2, 3, 4 and 15; ambles shorter than the pulse keep their length
        mesh = MeshConfig(n_nodes=n_nodes, amble_len=amble_len, payload_len=1024, guard_len=8)
        sig, layout = _source(mesh)
        assert np.array_equal(layout.extract(sig, "preamble"), source_frame(mesh, 0)["preamble"])
        pre = [a["preamble"] for a in node_ambles(mesh)]
        assert [len(p) for p in pre] == [amble_len] * n_nodes
        assert np.array_equal(pre[0], source_frame(mesh, 0)["preamble"])
        assert len({p.tobytes() for p in pre}) == n_nodes
        tx_node_layout(mesh)

    def test_overflow_reported_before_polynomial_search(self, monkeypatch):
        def fail(*args):
            raise AssertionError("searched")

        monkeypatch.setattr(waveform, "_primitive_taps", fail)
        with pytest.raises(ConfigError, match="layout overflow"):
            tx_node_layout(MeshConfig(n_nodes=50))

    def test_tx_layout_guard_count(self):
        layout = tx_node_layout(self.cfg)
        guards = [s for s in layout.segments if s.name.startswith("guard")]
        assert len(guards) == 2 + 2 * self.cfg.n_nodes

    def test_iq_export_roundtrip(self, tmp_path):
        sig, layout = _source(self.cfg)
        path = tmp_path / "frame.iq"
        write_frame_iq(path, sig, layout, self.cfg.sample_rate_hz)
        samples = np.fromfile(path, "<c8")  # interleaved little-endian float32 I/Q
        meta = json.loads((tmp_path / "frame.iq.json").read_text())
        assert meta == {
            "sample_rate_hz": self.cfg.sample_rate_hz,
            "total_length": layout.total_length,
            "segments": [{"name": s.name, "offset": s.offset, "length": s.length} for s in layout.segments],
        }
        # float32 quantization on the wire
        assert np.max(np.abs(samples - sig)) < 1e-6
