"""LED-ID framing, OOK transport over a rolling-shutter sample stream, and the
OOK bit error rate, measured and analytic.

Each fixture broadcasts a 48-bit frame: an alternating 8-bit preamble, its
ceiling coordinates as two big-endian 16-bit centimeter fields, and a CRC-8
(polynomial 0x07) over the 32 payload bits. The shutter reads the scene row by
row, so the waveform is modeled as one intensity sample per row exposure;
bit '1' is the bright level, bit '0' a dim (never fully off) level.

Frames are assumed sample-aligned: no synchronization search is performed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PREAMBLE = 0xAA
PREAMBLE_BITS = 8
PAYLOAD_BITS = 32
CRC_BITS = 8
FRAME_BITS = PREAMBLE_BITS + PAYLOAD_BITS + CRC_BITS
SAMPLES_PER_BIT = 4  # row exposures per bit
HIGH_LEVEL = 1.0  # bit '1'
DIM_LEVEL = 0.1  # bit '0': dimmed, never fully off
MIN_BER_BITS = 10_000  # fewest bits a Monte-Carlo error rate is measured over


class FrameError(ValueError):
    """A frame whose preamble or checksum does not match; decode_frame raises
    it rather than return wrong coordinates."""


class BadPreamble(FrameError):
    pass


class BadCrc(FrameError):
    pass


def crc8(data: bytes) -> int:
    """CRC-8, polynomial 0x07, init 0x00, MSB first, no reflection or final xor."""
    crc = 0
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = ((crc << 1) ^ 0x07 if crc & 0x80 else crc << 1) & 0xFF
    return crc


def _int_to_bits(value: int, width: int) -> np.ndarray:
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.uint8)


def _bits_to_int(bits: np.ndarray) -> int:
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


def encode_frame(x_cm: int, y_cm: int) -> np.ndarray:
    """Serialize fixture coordinates into the 48-bit frame (most significant bit first)."""
    for name, v in (("x_cm", x_cm), ("y_cm", y_cm)):
        if not (0 <= v < 2**16):
            raise ValueError(f"{name}={v} does not fit 16 bits")
    payload = bytes([x_cm >> 8, x_cm & 0xFF, y_cm >> 8, y_cm & 0xFF])
    return np.concatenate(
        [
            _int_to_bits(PREAMBLE, PREAMBLE_BITS),
            _int_to_bits(int.from_bytes(payload, "big"), PAYLOAD_BITS),
            _int_to_bits(crc8(payload), CRC_BITS),
        ]
    )


def decode_frame(bits: np.ndarray) -> tuple[int, int]:
    """Recover (x_cm, y_cm) from 48 bits; raises BadPreamble / BadCrc on corruption."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.shape != (FRAME_BITS,):
        raise ValueError(f"frame must be exactly {FRAME_BITS} bits, got {bits.shape}")
    if _bits_to_int(bits[:PREAMBLE_BITS]) != PREAMBLE:
        raise BadPreamble("preamble mismatch")
    payload_bits = bits[PREAMBLE_BITS : PREAMBLE_BITS + PAYLOAD_BITS]
    payload = _bits_to_int(payload_bits).to_bytes(4, "big")
    if crc8(payload) != _bits_to_int(bits[PREAMBLE_BITS + PAYLOAD_BITS :]):
        raise BadCrc("checksum mismatch")
    return (payload[0] << 8) | payload[1], (payload[2] << 8) | payload[3]


@dataclass(frozen=True)
class SampledWaveform:
    """Row-exposure intensity stream: samples and the expansion factor."""

    samples: np.ndarray
    samples_per_bit: int

    def __post_init__(self):
        if self.samples_per_bit < 1:
            raise ValueError("samples_per_bit must be at least 1")
        if len(self.samples) % self.samples_per_bit != 0:
            raise ValueError("sample count is not a whole number of bits")


def modulate(bits: np.ndarray) -> SampledWaveform:
    """Expand bits to SAMPLES_PER_BIT constant-level samples each: '1' ->
    HIGH_LEVEL, '0' -> DIM_LEVEL."""
    levels = np.where(np.asarray(bits, dtype=np.uint8) == 1, HIGH_LEVEL, DIM_LEVEL)
    return SampledWaveform(np.repeat(levels, SAMPLES_PER_BIT), SAMPLES_PER_BIT)


def demodulate(wave: SampledWaveform, threshold: float | None = None) -> np.ndarray:
    """Per-bit averaging detector: mean of each bit's samples against a threshold.

    With no threshold given, the midpoint of the observed sample range is used;
    that inverts modulate exactly on a noise-free waveform.
    """
    samples = np.asarray(wave.samples, dtype=float)
    if threshold is None:
        threshold = 0.5 * (samples.min() + samples.max())
    means = samples.reshape(-1, wave.samples_per_bit).mean(axis=1)
    return (means > threshold).astype(np.uint8)


def measure_ber(snir_linear: float, n_bits: int, seed: int) -> float:
    """Monte-Carlo OOK error rate at a given linear SNIR.

    Unit-sigma noise; the on/off separation is 2*sqrt(SNIR) with the decision
    threshold at the midpoint, so the distance from either level to the
    threshold is sqrt(SNIR) sigmas and Q(sqrt(SNIR)) is the exact analytic
    counterpart.
    """
    if snir_linear < 0:
        raise ValueError("SNIR must be non-negative")
    if n_bits < MIN_BER_BITS:
        raise ValueError("need at least 1e4 bits for a meaningful error rate")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=n_bits).astype(np.uint8)
    amplitude = float(np.sqrt(snir_linear))
    rx = SampledWaveform(
        bits.astype(float) * (2.0 * amplitude) + rng.normal(0.0, 1.0, size=n_bits),
        samples_per_bit=1,
    )
    decided = demodulate(rx, threshold=amplitude)
    return float(np.mean(decided != bits))


def ook_ber_theoretical(snir_linear: float) -> float:
    """Analytic OOK bit error rate over an AWGN pixel channel: Q(sqrt(SNIR)).

    Q is the standard Gaussian tail; the curve is 0.5 at zero SNIR and strictly
    decreasing.
    """
    if snir_linear < 0:
        raise ValueError("SNIR must be non-negative")
    return 0.5 * math.erfc(math.sqrt(snir_linear) / math.sqrt(2.0))
