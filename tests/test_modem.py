import math

import mpmath
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
    FrameError,
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
        samples = modulate(np.array([1, 0]))
        assert list(samples) == [1.0] * 4 + [0.1] * 4
        assert samples.shape == (2 * SAMPLES_PER_BIT,) and SAMPLES_PER_BIT == 4

    def test_identity_expansion(self):
        bits = np.array([1, 0, 1, 1], dtype=np.uint8)
        rows = modulate(bits).reshape(-1, SAMPLES_PER_BIT)
        levels = [HIGH_LEVEL, DIM_LEVEL, HIGH_LEVEL, HIGH_LEVEL]
        assert (rows == np.array(levels)[:, None]).all()

    def test_preamble_square_wave(self):
        period = 2 * SAMPLES_PER_BIT
        samples = list(modulate(encode_frame(0, 0)[:8]))
        assert samples[:period] * 4 == samples


class TestDemodulate:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=480).astype(np.uint8)
        assert np.array_equal(demodulate(modulate(bits)), bits)

    def test_all_below_threshold(self):
        """A flat waveform has no bit mean above its midpoint."""
        assert not demodulate(np.full(40, 0.2)).any()

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="whole number of bits"):
            demodulate(np.zeros(5))


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

    @pytest.mark.parametrize("scale", [2, -1, 0.5, 255])
    def test_a_bit_other_than_0_or_1_is_rejected(self, scale):
        """Packing reads any nonzero value as a 1, so a frame scaled by 2
        would decode to valid coordinates."""
        with pytest.raises(ValueError, match="0 or 1") as caught:
            decode_frame(scale * encode_frame(200, 150).astype(float))
        assert not isinstance(caught.value, FrameError)


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

    def test_within_4_ulp_of_a_50_digit_reference(self):
        """Over -60...30 dB in 0.01 dB steps, against 0.5 * erfc(x) at 50 digits
        for the same float x. scipy.special.erfc was up to 243 ulp off here.
        math.erfc is the C library's: glibc 2.36's reaches 2.2 ulp on this
        grid and 3.4 ulp at random points of the range."""
        with mpmath.workdps(50):
            worst = 0.0
            for k in range(-6000, 3001):
                snir = 10.0 ** (k / 1000.0)
                x = math.sqrt(snir) / math.sqrt(2.0)
                exact = mpmath.mpf(0.5) * mpmath.erfc(mpmath.mpf(x))
                error = abs(mpmath.mpf(ook_ber_theoretical(snir)) - exact)
                worst = max(worst, float(error) / math.ulp(float(exact)))
        assert worst <= 4.0


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


@pytest.mark.parametrize("snir", [math.inf, math.nan, 10**400], ids=["inf", "nan", "huge-int"])
@pytest.mark.parametrize(
    "call", [lambda s: measure_ber(s, 10_000, 1), ook_ber_theoretical],
    ids=["measure_ber", "ook_ber_theoretical"],
)
def test_a_snir_that_is_not_finite_raises_value_error(call, snir):
    """measure_ber(inf) once gave 0.5 errors with a RuntimeWarning, NaN gave
    0.5 or NaN, and an int past the float range an OverflowError."""
    with pytest.raises(ValueError, match="SNIR must be finite"):
        call(snir)
