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

import functools
import numbers
from dataclasses import KW_ONLY, dataclass, fields
from typing import get_args, get_origin, get_type_hints

import numpy as np

BITS_PER_QPSK_SYMBOL = 2

# the annotations of a config class, resolved once per class
_field_types = functools.cache(get_type_hints)
# what an annotated scalar type admits besides itself; a bool is neither
_ADMITS = {int: numbers.Integral, float: numbers.Real}


def _holds(value, hint) -> bool:
    if get_origin(hint) is tuple:
        entry = get_args(hint)[0]
        return isinstance(value, tuple) and all(_holds(v, entry) for v in value)
    if isinstance(value, bool):
        return hint is bool
    if not isinstance(value, _ADMITS.get(hint, hint)):
        return False
    if hint is float:
        try:
            float(value)  # an integer beyond float range overflows here
        except OverflowError:
            return False
    return True


def _check_type(value, hint, what: str) -> None:
    if not _holds(value, hint):
        kind = hint.__name__ if isinstance(hint, type) else hint
        raise ValueError(f"{what} must be {kind}, got {value!r}")


def _check_field_types(obj) -> None:
    """Raise ``ValueError`` unless every field of the dataclass ``obj`` holds
    its annotated type.

    An ``int`` field takes any integer (``numbers.Integral``, so numpy
    integers too), a ``float`` field any real number, and only a ``bool``
    field a bool; ``tuple[X, ...]`` takes a tuple of such entries and a
    class annotation an instance of that class.  A real number beyond
    float range is no ``float``.  Values are never converted.
    """
    hints = _field_types(type(obj))
    for field in fields(obj):
        _check_type(getattr(obj, field.name), hints[field.name], field.name)


@dataclass(frozen=True)
class FrameConfig:
    """Static description of one transmission frame.

    Every field after ``n_doppler_bins`` is keyword-only.

    Parameters
    ----------
    n_subcarriers : int
        Number of subcarriers per OFDM symbol (equals delay bins).
    n_doppler_bins : int
        Number of OFDM symbols per frame (equals Doppler bins).
    cp_len : int
        Cyclic prefix length in samples, prepended to every OFDM symbol.
        It bounds the channel: every tap delay of a profile run on this
        frame is at most ``cp_len`` (and below ``n_subcarriers``).
    sample_rate : float
        Baseband sample rate in Hz.
    carrier_freq : float
        Carrier frequency in Hz.  Informational; used only to convert
        vehicle speed to Doppler shift.
    """

    n_subcarriers: int
    n_doppler_bins: int
    _: KW_ONLY
    cp_len: int = 0
    sample_rate: float = 1.024e6
    carrier_freq: float = 5.8e9

    def __post_init__(self) -> None:
        _check_field_types(self)
        if self.n_subcarriers < 1 or self.n_doppler_bins < 1:
            raise ValueError("grid dimensions must be positive")
        if self.cp_len < 0:
            raise ValueError("cp_len must be non-negative")
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
