"""LED-ID framing, OOK transport over a rolling-shutter sample stream, and the
OOK bit error rate, measured and analytic.

Each fixture broadcasts a 48-bit frame, the bits of 6 bytes, most significant
first: an alternating preamble byte, its ceiling coordinates as two big-endian
16-bit centimeter fields, and a CRC-8 (polynomial 0x07) over those 4 payload
bytes. The shutter reads the scene row by row, so the waveform is a plain
array of intensity samples, one per row exposure and SAMPLES_PER_BIT per bit;
bit '1' is the bright level, bit '0' a dim (never fully off) level.

Frames are assumed sample-aligned: no synchronization search is performed.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import finite

PREAMBLE = 0xAA
FRAME_BITS = 48  # preamble, x, y and CRC: 6 bytes
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


def encode_frame(x_cm: int, y_cm: int) -> np.ndarray:
    """Serialize fixture coordinates into the 48-bit frame (most significant bit first)."""
    for name, v in (("x_cm", x_cm), ("y_cm", y_cm)):
        if not (0 <= v < 2**16):
            raise ValueError(f"{name}={v} does not fit 16 bits")
    payload = bytes([x_cm >> 8, x_cm & 0xFF, y_cm >> 8, y_cm & 0xFF])
    frame = bytes([PREAMBLE]) + payload + bytes([crc8(payload)])
    return np.unpackbits(np.frombuffer(frame, dtype=np.uint8))


def decode_frame(bits: np.ndarray) -> tuple[int, int]:
    """Recover (x_cm, y_cm) from 48 bits; raises BadPreamble / BadCrc on corruption.

    Every bit must be 0 or 1, else ValueError: packing would read any other
    value as a 1."""
    bits = np.asarray(bits)
    if bits.shape != (FRAME_BITS,):
        raise ValueError(f"frame must be exactly {FRAME_BITS} bits, got {bits.shape}")
    if not ((bits == 0) | (bits == 1)).all():
        raise ValueError("frame bits must each be 0 or 1")
    frame = np.packbits(bits.astype(np.uint8)).tobytes()
    if frame[0] != PREAMBLE:
        raise BadPreamble("preamble mismatch")
    payload = frame[1:5]
    if crc8(payload) != frame[5]:
        raise BadCrc("checksum mismatch")
    return int.from_bytes(payload[:2], "big"), int.from_bytes(payload[2:], "big")


def modulate(bits: np.ndarray) -> np.ndarray:
    """Expand bits to SAMPLES_PER_BIT constant-level samples each: '1' ->
    HIGH_LEVEL, '0' -> DIM_LEVEL."""
    levels = np.where(np.asarray(bits, dtype=np.uint8) == 1, HIGH_LEVEL, DIM_LEVEL)
    return np.repeat(levels, SAMPLES_PER_BIT)


def demodulate(samples: np.ndarray) -> np.ndarray:
    """Per-bit averaging detector: the mean of each bit's SAMPLES_PER_BIT
    samples against the midpoint of the observed sample range, which inverts
    modulate exactly on a noise-free waveform. Raises ValueError for a sample
    count that is not a whole number of bits."""
    samples = np.asarray(samples, dtype=float)
    if len(samples) % SAMPLES_PER_BIT != 0:
        raise ValueError("sample count is not a whole number of bits")
    means = samples.reshape(-1, SAMPLES_PER_BIT).mean(axis=1)
    return (means > 0.5 * (samples.min() + samples.max())).astype(np.uint8)


def measure_ber(snir_linear: float, n_bits: int, seed: int) -> float:
    """Monte-Carlo OOK error rate at a given linear SNIR.

    Unit-sigma noise, one sample per bit; the on/off separation is
    2*sqrt(SNIR) with the decision threshold at the midpoint, so the distance
    from either level to the threshold is sqrt(SNIR) sigmas and Q(sqrt(SNIR))
    is the exact analytic counterpart.
    """
    if not (finite(snir_linear) and snir_linear >= 0):
        raise ValueError(f"SNIR must be finite and non-negative, got {snir_linear}")
    if n_bits < MIN_BER_BITS:
        raise ValueError("need at least 1e4 bits for a meaningful error rate")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=n_bits).astype(np.uint8)
    amplitude = float(np.sqrt(snir_linear))
    rx = bits.astype(float) * (2.0 * amplitude) + rng.normal(0.0, 1.0, size=n_bits)
    return float(np.mean((rx > amplitude) != bits))


def ook_ber_theoretical(snir_linear: float) -> float:
    """Analytic OOK bit error rate over an AWGN pixel channel: Q(sqrt(SNIR)).

    Q is the standard Gaussian tail; the curve is 0.5 at zero SNIR and strictly
    decreasing.
    """
    if not (finite(snir_linear) and snir_linear >= 0):
        raise ValueError(f"SNIR must be finite and non-negative, got {snir_linear}")
    return 0.5 * math.erfc(math.sqrt(snir_linear) / math.sqrt(2.0))
