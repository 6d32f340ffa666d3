import math

import numpy as np
import pytest
from scipy.special import erfc

from occloc.modem import (
    DIM_LEVEL,
    FRAME_BITS,
    HIGH_LEVEL,
    SAMPLES_PER_BIT,
    BadCrc,
    BadPreamble,
    SampledWaveform,
    crc8,
    decode_frame,
    demodulate,
    encode_frame,
    measure_ber,
    modulate,
    ook_ber_theoretical,
)


def crc8_table_oracle(data: bytes) -> int:
    """Independent table-driven CRC-8/0x07 for cross-checking."""
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = ((crc << 1) ^ 0x07 if crc & 0x80 else crc << 1) & 0xFF
        table.append(crc)
    crc = 0
    for b in data:
        crc = table[crc ^ b]
    return crc


def q_function(x):
    return 0.5 * erfc(x / math.sqrt(2.0))


class TestCrc8:
    def test_known_check_value(self):
        assert crc8(b"123456789") == 0xF4

    def test_matches_table_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            data = bytes(rng.integers(0, 256, size=rng.integers(1, 16)))
            assert crc8(data) == crc8_table_oracle(data)


def bits_to_int(bits):
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


class TestEncodeFrame:
    def test_zero_payload(self):
        bits = encode_frame(0, 0)
        assert len(bits) == FRAME_BITS == 48
        assert bits_to_int(bits[:8]) == 0xAA
        assert bits_to_int(bits[8:40]) == 0
        assert bits_to_int(bits[40:]) == crc8_table_oracle(b"\x00\x00\x00\x00")

    def test_worked_coordinates(self):
        bits = encode_frame(200, 150)
        payload = bits_to_int(bits[8:40]).to_bytes(4, "big")
        assert payload == bytes([0x00, 0xC8, 0x00, 0x96])
        assert bits_to_int(bits[40:]) == crc8_table_oracle(payload)

    def test_all_ones_payload(self):
        bits = encode_frame(65535, 65535)
        assert bits_to_int(bits[8:40]) == 0xFFFFFFFF

    def test_overflow(self):
        with pytest.raises(ValueError):
            encode_frame(65536, 0)
        with pytest.raises(ValueError):
            encode_frame(0, -1)


class TestModulate:
    def test_two_bit_expansion(self):
        wave = modulate(np.array([1, 0]))
        assert list(wave.samples) == [1.0] * 4 + [0.1] * 4
        assert wave.samples_per_bit == SAMPLES_PER_BIT == 4

    def test_identity_expansion(self):
        bits = np.array([1, 0, 1, 1], dtype=np.uint8)
        rows = modulate(bits).samples.reshape(-1, SAMPLES_PER_BIT)
        levels = [HIGH_LEVEL, DIM_LEVEL, HIGH_LEVEL, HIGH_LEVEL]
        assert (rows == np.array(levels)[:, None]).all()

    def test_preamble_square_wave(self):
        wave = modulate(encode_frame(0, 0)[:8])
        period = 2 * SAMPLES_PER_BIT
        samples = list(wave.samples)
        assert samples[:period] * 4 == samples


class TestDemodulate:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=480).astype(np.uint8)
        assert np.array_equal(demodulate(modulate(bits)), bits)

    def test_all_below_threshold(self):
        wave = SampledWaveform(np.full(40, 0.2), 4)
        assert not demodulate(wave, threshold=0.5).any()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SampledWaveform(np.zeros(5), 2)


class TestDecodeFrame:
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x, y = int(rng.integers(0, 65536)), int(rng.integers(0, 65536))
            assert decode_frame(encode_frame(x, y)) == (x, y)

    def test_single_bit_flip_always_caught(self):
        # every flippable payload+crc position, across many frames
        rng = np.random.default_rng(13)
        for _ in range(100):
            x, y = int(rng.integers(0, 65536)), int(rng.integers(0, 65536))
            frame = encode_frame(x, y)
            for pos in range(8, 48):
                corrupted = frame.copy()
                corrupted[pos] ^= 1
                with pytest.raises(BadCrc):
                    decode_frame(corrupted)

    def test_preamble_flip(self):
        frame = encode_frame(1, 2)
        frame[3] ^= 1
        with pytest.raises(BadPreamble):
            decode_frame(frame)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            decode_frame(np.zeros(47, dtype=np.uint8))


class TestFullChainRoundTrip:
    def test_lossless_at_zero_noise(self):
        rng = np.random.default_rng(17)
        for _ in range(10_000):
            x, y = int(rng.integers(0, 65536)), int(rng.integers(0, 65536))
            wave = modulate(encode_frame(x, y))
            assert decode_frame(demodulate(wave)) == (x, y)


class TestOokBerTheoretical:
    """The analytic error curve over the pixel channel's SNIR."""

    def test_zero_snir(self):
        assert ook_ber_theoretical(0.0) == pytest.approx(0.5)

    def test_snir_nine(self):
        assert ook_ber_theoretical(9.0) == pytest.approx(q_function(3.0), abs=1e-12)
        assert ook_ber_theoretical(9.0) == pytest.approx(1.3499e-3, abs=1e-7)

    def test_snir_four(self):
        assert ook_ber_theoretical(4.0) == pytest.approx(2.275e-2, abs=1e-6)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ook_ber_theoretical(-0.1)

    def test_strictly_decreasing_and_bounded(self):
        grid = np.linspace(0.0, 40.0, 200)
        vals = [ook_ber_theoretical(v) for v in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 0.5 for v in vals)


class TestMeasureBer:
    def test_noise_free_limit(self):
        assert measure_ber(1e6, 10_000, 1) == 0.0

    def test_zero_snir_is_coin_flip(self):
        ber = measure_ber(0.0, 100_000, 2)
        assert abs(ber - 0.5) < 3.0 * math.sqrt(0.25 / 100_000)

    @pytest.mark.parametrize("snir,seed", [(4.0, 3), (9.0, 4)])
    def test_matches_analytic_curve(self, snir, seed):
        n = 100_000
        p = q_function(math.sqrt(snir))
        ber = measure_ber(snir, n, seed)
        assert abs(ber - p) <= 3.0 * math.sqrt(p * (1 - p) / n)

    def test_requires_enough_bits(self):
        with pytest.raises(ValueError):
            measure_ber(1.0, 9_999, 1)

