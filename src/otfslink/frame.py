"""Frame geometry and QPSK symbol mapping.

The layout used throughout the package: every frame is a plain
``(n_doppler_bins, n_subcarriers)`` array with one row per OFDM symbol or
Doppler bin.  That covers the time frame (cyclic prefixes removed, row
``n`` holding symbol ``n``'s samples), the time-frequency grid (row ``n``
holding symbol ``n``'s subcarriers), the delay-Doppler grid (rows Doppler,
columns delay), the channel frequency response and the single-tap gains.
Every transform is then one FFT along one axis of such an array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BITS_PER_QPSK_SYMBOL = 2


@dataclass(frozen=True)
class FrameConfig:
    """Static description of one transmission frame.

    Parameters
    ----------
    n_subcarriers : int
        Number of subcarriers per OFDM symbol (equals delay bins).
    n_doppler_bins : int
        Number of OFDM symbols per frame (equals Doppler bins).
    max_delay_taps : int
        Channel length in samples; tap delays run from 0 to
        ``max_delay_taps - 1``.
    cp_len : int
        Cyclic prefix length in samples, prepended to every OFDM symbol.
    sample_rate : float
        Baseband sample rate in Hz.
    carrier_freq : float
        Carrier frequency in Hz.  Informational; used only to convert
        vehicle speed to Doppler shift.
    """

    n_subcarriers: int
    n_doppler_bins: int
    max_delay_taps: int = 1
    cp_len: int = 0
    sample_rate: float = 1.024e6
    carrier_freq: float = 5.8e9

    def __post_init__(self) -> None:
        if self.n_subcarriers < 1 or self.n_doppler_bins < 1:
            raise ValueError("grid dimensions must be positive")
        if not 1 <= self.max_delay_taps <= self.n_subcarriers:
            raise ValueError(
                f"max_delay_taps must be in [1, {self.n_subcarriers}], "
                f"got {self.max_delay_taps}"
            )
        if self.cp_len < self.max_delay_taps - 1:
            raise ValueError(
                "cp_len must cover the channel memory "
                f"(need >= {self.max_delay_taps - 1}, got {self.cp_len})"
            )
        if not 0 < self.sample_rate < np.inf:
            raise ValueError("sample_rate must be finite and positive")
        if not 0 <= self.carrier_freq < np.inf:
            raise ValueError("carrier_freq must be finite and non-negative")

    @property
    def frame_size(self) -> int:
        """Samples per frame without cyclic prefixes."""
        return self.n_subcarriers * self.n_doppler_bins

    @property
    def frame_size_with_cp(self) -> int:
        return self.n_doppler_bins * (self.n_subcarriers + self.cp_len)

    @property
    def symbol_duration(self) -> float:
        """Useful OFDM symbol duration in seconds (CP excluded)."""
        return self.n_subcarriers / self.sample_rate

    @property
    def frame_duration(self) -> float:
        """Physical frame duration in seconds, CP included."""
        return self.frame_size_with_cp / self.sample_rate

    @property
    def bits_per_frame(self) -> int:
        return BITS_PER_QPSK_SYMBOL * self.frame_size

    def doppler_from_speed(self, speed_kmh: float) -> float:
        """Maximum Doppler shift in Hz for a given vehicle speed in km/h."""
        return speed_kmh / 3.6 * self.carrier_freq / 299_792_458.0


def qpsk_map(bits: np.ndarray, config: FrameConfig) -> np.ndarray:
    """Map a Gray-coded bit stream onto one frame of QPSK symbols.

    Bit pair ``(b0, b1)`` becomes ``((1 - 2*b0) + 1j*(1 - 2*b1)) / sqrt(2)``,
    so every constellation point has unit energy.  Returns the
    ``frame_size`` symbols in payload order, the inverse of
    :func:`qpsk_slice`.
    """
    bits = np.asarray(bits)
    if bits.ndim != 1 or bits.size != config.bits_per_frame:
        raise ValueError(
            f"expected {config.bits_per_frame} bits, got shape {bits.shape}"
        )
    if not ((bits == 0) | (bits == 1)).all():
        raise ValueError("bits must be 0 or 1")
    return ((1.0 - 2.0 * bits[0::2]) + 1j * (1.0 - 2.0 * bits[1::2])) / np.sqrt(2.0)


def qpsk_slice(symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hard-decide noisy QPSK symbols.

    Returns ``(bits, decided)`` where ``bits`` interleaves the in-phase and
    quadrature decisions and ``decided`` holds the corresponding unit-energy
    constellation points, both in the row-major order of ``symbols``.  A
    coordinate exactly on the boundary is decided as positive.
    """
    symbols = np.asarray(symbols, dtype=np.complex128).ravel()
    bits = np.empty(2 * symbols.size, dtype=np.int64)
    bits[0::2] = symbols.real < 0
    bits[1::2] = symbols.imag < 0
    decided = ((1.0 - 2.0 * bits[0::2]) + 1j * (1.0 - 2.0 * bits[1::2])) / np.sqrt(2.0)
    return bits, decided


def random_bits(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform i.i.d. payload bits."""
    return rng.integers(0, 2, size=n, dtype=np.int64)
