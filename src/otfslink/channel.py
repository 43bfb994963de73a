"""Time-varying multipath channel: fading generation, matrix model, analysis.

A channel realization is a tapped delay line: the profile's tap delays and
one complex gain process per tap, sampled at the physical sample times of
the CP-extended frame.  Its matrix model is block diagonal with one
circular band per OFDM symbol, which is what per-symbol cyclic prefixes
produce after CP removal.  For static channels this matrix reproduces the
physical convolution path exactly; with Doppler the two differ only
through tap variation across the CP samples.

The runtime path is per symbol: ``apply_time_channel`` filters a frame tap
by tap, and ``symbol_channel_blocks`` returns the ``(n_doppler_bins,
n_subcarriers, n_subcarriers)`` stack of diagonal blocks that the receivers
factor.  The dense ``frame_size x frame_size`` builders
(``build_time_channel_matrix``, ``build_equivalent_channel``) are oracles
for tests and for ``inspect-channel``; no trial forms them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .frame import DelayDopplerGrid, FrameConfig, TimeSignal
from .transforms import composed_operators, cp_remove, otfs_demodulate, otfs_modulate, reorder_indices

N_SINUSOIDS = 32

# COST 207 typical-urban six-tap profile.
TU6_DELAYS_US = (0.0, 0.2, 0.5, 1.6, 2.3, 5.0)
TU6_POWERS_DB = (-3.0, 0.0, -2.0, -6.0, -8.0, -10.0)


@dataclass(frozen=True)
class TapProfile:
    """Discrete power-delay profile with unit total power.

    ``delays`` are integer sample offsets; ``powers`` are linear tap powers
    normalized to sum to one, so SNR is defined per received symbol.
    """

    delays: tuple[int, ...]
    powers: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.delays) != len(self.powers) or not self.delays:
            raise ValueError("delays and powers must be equal-length, non-empty")
        if any(d < 0 for d in self.delays):
            raise ValueError("tap delays must be non-negative")
        if len(set(self.delays)) != len(self.delays):
            raise ValueError("tap delays must be distinct")
        if any(p <= 0 for p in self.powers):
            raise ValueError("tap powers must be positive")
        total = float(sum(self.powers))
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"tap powers must sum to 1, got {total}")

    @property
    def max_delay(self) -> int:
        return max(self.delays)

    @classmethod
    def from_powers_db(
        cls, delays: "list[int] | tuple[int, ...]", powers_db: "list[float] | tuple[float, ...]"
    ) -> "TapProfile":
        if len(delays) != len(powers_db):
            raise ValueError("delays and powers_db must have equal length")
        merged: dict[int, float] = {}
        for d, p_db in zip(delays, powers_db):
            # taps that round onto the same sample add in power
            merged[int(d)] = merged.get(int(d), 0.0) + 10.0 ** (p_db / 10.0)
        delays_out = tuple(sorted(merged))
        total = sum(merged.values())
        powers_out = tuple(merged[d] / total for d in delays_out)
        return cls(delays_out, powers_out)

    @classmethod
    def from_microseconds(
        cls,
        delays_us: "list[float] | tuple[float, ...]",
        powers_db: "list[float] | tuple[float, ...]",
        sample_rate: float,
    ) -> "TapProfile":
        """Round physical delays to the nearest sample and renormalize."""
        delays = [round(d * 1e-6 * sample_rate) for d in delays_us]
        return cls.from_powers_db(delays, list(powers_db))


def tu6_profile(sample_rate: float) -> TapProfile:
    """COST 207 TU6 profile rounded to the given sample rate."""
    return TapProfile.from_microseconds(TU6_DELAYS_US, TU6_POWERS_DB, sample_rate)


def single_tap_profile() -> TapProfile:
    return TapProfile((0,), (1.0,))


@dataclass(frozen=True)
class TimeVaryingCir:
    """One channel realization: the taps of a tapped delay line.

    ``delays`` are the tap delays in samples, ascending.  Row ``k`` of
    ``gains`` is the gain of tap ``delays[k]`` at every physical sample of
    the CP-extended frame, shape ``(len(delays), frame_size_with_cp)``.
    """

    delays: tuple[int, ...]
    gains: np.ndarray
    doppler_hz: float

    def frame_gains(self, config: FrameConfig) -> np.ndarray:
        """Tap gains at the post-CP-removal sample times, shape
        ``(len(delays), n_doppler_bins, n_subcarriers)``: a view of
        ``gains`` without each symbol's prefix samples."""
        if self.gains.shape[1] != config.frame_size_with_cp or any(
            d >= config.max_delay_taps for d in self.delays
        ):
            raise ValueError("channel realization does not match the frame config")
        stride = config.n_subcarriers + config.cp_len
        per_symbol = self.gains.reshape(len(self.delays), config.n_doppler_bins, stride)
        return per_symbol[:, :, config.cp_len :]


def _check_profile_fits(profile: TapProfile, config: FrameConfig) -> None:
    if profile.max_delay >= config.max_delay_taps:
        raise ValueError(
            f"profile max delay {profile.max_delay} exceeds channel length "
            f"{config.max_delay_taps}"
        )


def generate_cir(
    profile: TapProfile,
    doppler_hz: float,
    config: FrameConfig,
    seed: "int | np.random.SeedSequence",
) -> TimeVaryingCir:
    """Draw one Rayleigh-fading realization of the profile.

    Each tap is an independently seeded sum of ``N_SINUSOIDS`` complex
    sinusoids with uniform arrival angles and phases, giving the classic
    isotropic-scattering autocorrelation ``J0(2*pi*doppler_hz*tau)`` and
    the profile's mean tap powers.  ``doppler_hz = 0`` collapses every tap
    to a random complex constant.
    """
    if doppler_hz < 0:
        raise ValueError("doppler_hz must be non-negative")
    _check_profile_fits(profile, config)
    if doppler_hz * config.frame_duration >= 0.5:
        warnings.warn(
            "doppler_hz * frame_duration >= 0.5: channel varies substantially "
            "within one frame, block-fading interpretations do not apply",
            RuntimeWarning,
            stacklevel=2,
        )
    seed_seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    tap_seeds = seed_seq.spawn(len(profile.delays))

    # taps are stored by ascending delay; tap k keeps the k-th seed stream
    order = sorted(range(len(profile.delays)), key=profile.delays.__getitem__)
    times = np.arange(config.frame_size_with_cp) / config.sample_rate
    gains = np.empty((len(order), times.size), dtype=np.complex128)
    for row, k in zip(gains, order):
        rng = np.random.default_rng(tap_seeds[k])
        angles = rng.uniform(0.0, 2.0 * np.pi, N_SINUSOIDS)
        phases = rng.uniform(0.0, 2.0 * np.pi, N_SINUSOIDS)
        rates = 2.0 * np.pi * doppler_hz * np.cos(angles)
        phasors = np.exp(1j * (np.outer(rates, times) + phases[:, None]))
        row[:] = np.sqrt(profile.powers[k] / N_SINUSOIDS) * phasors.sum(axis=0)
    delays = tuple(profile.delays[k] for k in order)
    return TimeVaryingCir(delays=delays, gains=gains, doppler_hz=float(doppler_hz))


def cir_from_gains(
    gains: np.ndarray, config: FrameConfig, doppler_hz: float = 0.0
) -> TimeVaryingCir:
    """Wrap explicit tap gains as a channel realization.

    ``gains`` is either one constant per tap, shape ``(max_delay_taps,)``,
    or a full physical-time track, shape
    ``(max_delay_taps, frame_size_with_cp)``.  Row ``d`` is the tap at delay
    ``d``; all-zero rows are not stored.
    """
    gains = np.asarray(gains, dtype=np.complex128)
    n_phys = config.frame_size_with_cp
    if gains.shape == (config.max_delay_taps,):
        gains = np.repeat(gains[:, None], n_phys, axis=1)
    elif gains.shape != (config.max_delay_taps, n_phys):
        raise ValueError(
            f"gains must have shape ({config.max_delay_taps},) or "
            f"({config.max_delay_taps}, {n_phys}), got {gains.shape}"
        )
    delays = np.flatnonzero(gains.any(axis=1))
    return TimeVaryingCir(
        delays=tuple(int(d) for d in delays),
        gains=gains[delays],
        doppler_hz=float(doppler_hz),
    )


def fixed_cir(profile: TapProfile, config: FrameConfig) -> TimeVaryingCir:
    """Deterministic, non-fading realization: tap ``d`` is the constant
    ``sqrt(power_d)``.  A single unit-power tap gives the identity channel,
    turning the link into a pure AWGN reference."""
    _check_profile_fits(profile, config)
    gains = np.zeros(config.max_delay_taps, dtype=np.complex128)
    gains[list(profile.delays)] = np.sqrt(profile.powers)
    return cir_from_gains(gains, config)


def _tap_columns(config: FrameConfig, delay: int) -> np.ndarray:
    """Column of tap ``delay`` in each row of the per-symbol-CP matrix."""
    rows = np.arange(config.frame_size)
    n_sub = config.n_subcarriers
    return rows - rows % n_sub + (rows % n_sub - delay) % n_sub


def build_time_channel_matrix(cir: TimeVaryingCir, config: FrameConfig) -> np.ndarray:
    """Dense sequential-time channel matrix of one realization.

    Block diagonal with one circular band per OFDM symbol, which is what
    per-symbol cyclic prefixes produce after CP removal: row ``i`` carries
    tap ``d`` at column ``(i - d) mod n_subcarriers`` of its own symbol.
    """
    n = config.frame_size
    h_tl = np.zeros((n, n), dtype=np.complex128)
    rows = np.arange(n)
    for d, g in zip(cir.delays, cir.frame_gains(config)):
        h_tl[rows, _tap_columns(config, d)] = g.ravel()
    return h_tl


def apply_time_channel(
    cir: TimeVaryingCir, x: np.ndarray, config: FrameConfig
) -> np.ndarray:
    """Banded equivalent of ``build_time_channel_matrix(...) @ x``.

    Avoids forming the dense matrix; exact to the last bit since both paths
    multiply the same gains by the same samples.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (config.frame_size,):
        raise ValueError(f"expected vector of length {config.frame_size}")
    blocks = x.reshape(config.n_doppler_bins, config.n_subcarriers)
    y = np.zeros_like(blocks)
    for d, g in zip(cir.delays, cir.frame_gains(config)):
        y += g * np.roll(blocks, d, axis=1)
    return y.ravel()


def noise_variance(snr_db: float) -> float:
    """Complex noise variance for unit received symbol energy; inf SNR -> 0."""
    if np.isinf(snr_db):
        return 0.0
    return float(10.0 ** (-snr_db / 10.0))


def awgn(
    shape: "int | tuple[int, ...]", var: float, rng: np.random.Generator
) -> np.ndarray:
    """Circularly symmetric complex Gaussian noise with total variance ``var``."""
    scale = np.sqrt(var / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def apply_channel(
    signal: TimeSignal,
    cir: TimeVaryingCir,
    snr_db: float,
    seed: "int | np.random.SeedSequence",
    config: FrameConfig,
) -> TimeSignal:
    """Physical channel path: per-sample convolution across the CP-extended
    frame, then AWGN.

    Kept separate from the matrix model as an independent validation route;
    after CP removal the two agree exactly for static channels.
    """
    x = signal.validate(config)
    if not signal.has_cp:
        raise ValueError("physical channel path expects the CP-extended signal")
    if cir.gains.shape[1] != x.size:
        raise ValueError("channel realization does not match the frame config")
    y = np.zeros_like(x)
    for d, g in zip(cir.delays, cir.gains):
        shifted = np.zeros_like(x)
        shifted[d:] = x[: x.size - d]
        y += g * shifted
    var = noise_variance(snr_db)
    if var > 0.0:
        rng = np.random.default_rng(seed)
        y = y + awgn(y.shape, var, rng)
    return TimeSignal(y, has_cp=True)


def build_equivalent_channel(
    h_tl: np.ndarray, config: FrameConfig, mode: str = "simplified"
) -> np.ndarray:
    """Delay-Doppler domain channel matrix for a given time-domain matrix.

    Modes, all agreeing to numerical precision:

    * ``"simplified"`` (default): conjugate the de-interleaved matrix by
      block-diagonal Doppler DFTs, using FFTs.
    * ``"full"``: dense composition of the receive and transmit stage
      operators around ``h_tl``.
    * ``"oracle"``: brute force; column ``c`` is the demodulated response
      to the modulated ``c``-th basis vector.
    """
    n = config.frame_size
    h_tl = np.asarray(h_tl, dtype=np.complex128)
    if h_tl.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} channel matrix")
    n_sub, n_dop = config.n_subcarriers, config.n_doppler_bins

    if mode == "simplified":
        inv = np.argsort(reorder_indices(config).perm)
        deinterleaved = h_tl[np.ix_(inv, inv)]
        blocks = deinterleaved.reshape(n_sub, n_dop, n_sub, n_dop)
        blocks = np.fft.fft(blocks, axis=1, norm="ortho")
        blocks = np.fft.ifft(blocks, axis=3, norm="ortho")
        return blocks.reshape(n, n)
    if mode == "full":
        ops = composed_operators(config)
        return ops.receive @ h_tl @ ops.transmit
    if mode == "oracle":
        h_eq = np.empty((n, n), dtype=np.complex128)
        for c in range(n):
            e = np.zeros(n, dtype=np.complex128)
            e[c] = 1.0
            tx = otfs_modulate(DelayDopplerGrid.from_vector(e, config), config)
            y = h_tl @ cp_remove(tx, config).data
            h_eq[:, c] = otfs_demodulate(TimeSignal(y), config).to_vector()
        return h_eq
    raise ValueError(f"unknown mode: {mode!r}")


def _cfr_from_gains(
    delays: "tuple[int, ...] | range", gains: np.ndarray, config: FrameConfig
) -> np.ndarray:
    """Subcarrier response per symbol from post-CP tap gains, shape
    ``(len(delays), n_doppler_bins, n_subcarriers)``: DFT of the
    symbol-averaged impulse response."""
    # numpy rounds a mean according to memory layout; a leading-axis mean of
    # a fresh copy always adds each symbol's samples one by one, in time order
    per_symbol = np.moveaxis(gains, 2, 0).copy().mean(axis=0)
    padded = np.zeros((config.n_subcarriers, config.n_doppler_bins), dtype=np.complex128)
    padded[list(delays)] = per_symbol
    return np.fft.fft(padded, axis=0)


def extract_cfr(h_tl: np.ndarray, config: FrameConfig) -> np.ndarray:
    """Per-symbol channel frequency response from the time-domain matrix.

    Column ``n`` is the diagonal of the symbol's circularized block after
    DFT conjugation, which reduces to the DFT of the block's time-averaged
    impulse response.
    """
    n = config.frame_size
    h_tl = np.asarray(h_tl, dtype=np.complex128)
    if h_tl.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} channel matrix")
    rows = np.arange(n)
    delays = range(config.max_delay_taps)
    gains = np.stack([h_tl[rows, _tap_columns(config, d)] for d in delays])
    shape = (len(delays), config.n_doppler_bins, config.n_subcarriers)
    return _cfr_from_gains(delays, gains.reshape(shape), config)


def cfr_from_cir(cir: TimeVaryingCir, config: FrameConfig) -> np.ndarray:
    """Matrix-free shortcut for ``extract_cfr(build_time_channel_matrix(...))``."""
    return _cfr_from_gains(cir.delays, cir.frame_gains(config), config)


def symbol_channel_blocks(cir: TimeVaryingCir, config: FrameConfig) -> np.ndarray:
    """Per-symbol time-domain channel blocks, shape
    ``(n_doppler_bins, n_subcarriers, n_subcarriers)``.

    Entry ``[n]`` is symbol ``n``'s circular block, the ``n``-th diagonal
    block of ``build_time_channel_matrix(cir, config)``: row ``s`` carries
    tap ``d`` at column ``(s - d) mod n_subcarriers``.
    """
    n_sub = config.n_subcarriers
    s = np.arange(n_sub)
    blocks = np.zeros((config.n_doppler_bins, n_sub, n_sub), dtype=np.complex128)
    for d, g in zip(cir.delays, cir.frame_gains(config)):
        blocks[:, s, (s - d) % n_sub] = g
    return blocks


def symbol_frequency_matrices(cir: TimeVaryingCir, config: FrameConfig) -> np.ndarray:
    """Full per-symbol frequency-domain channel matrices, shape
    ``(n_doppler_bins, n_subcarriers, n_subcarriers)``.

    Entry ``[n]`` is the DFT conjugation ``F H_n F^H`` of symbol ``n``'s
    circular block; its diagonal equals column ``n`` of the extracted
    frequency response, its off-diagonals are the intercarrier coupling a
    single-tap equalizer ignores.
    """
    freq = np.fft.fft(symbol_channel_blocks(cir, config), axis=1, norm="ortho")
    return np.fft.ifft(freq, axis=2, norm="ortho")


def band_support(
    h_eq: np.ndarray, config: FrameConfig, tol: float = 1e-12
) -> tuple[int, float]:
    """Measure the circular band occupied by a delay-Doppler channel matrix.

    Diagonal offsets ``(row - col) mod frame_size`` are grouped into
    ``n_doppler_bins``-wide blocks (one block per circular delay offset).
    Returns ``(band_width, max_out_of_band)`` where ``band_width`` is
    ``n_doppler_bins`` times the shortest circular arc of blocks holding
    every entry above ``tol``, and ``max_out_of_band`` is the largest
    magnitude outside the nominal ``n_doppler_bins * (max_delay_taps + 1)``
    band (delay-block offsets ``-1 .. max_delay_taps - 1``).
    """
    n = config.frame_size
    h_eq = np.asarray(h_eq)
    if h_eq.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix")
    n_sub, n_dop = config.n_subcarriers, config.n_doppler_bins

    rows = np.arange(n)[:, None]
    cols = np.arange(n)[None, :]
    offsets = (rows - cols) % n
    peak = np.zeros(n)
    np.maximum.at(peak, offsets.ravel(), np.abs(h_eq).ravel())

    block_of_offset = np.arange(n) // n_dop
    nominal = (block_of_offset < config.max_delay_taps) | (block_of_offset == n_sub - 1)
    outside = peak[~nominal]
    max_out_of_band = float(outside.max()) if outside.size else 0.0

    occupied = np.unique(block_of_offset[peak > tol])
    if occupied.size == 0:
        return 0, max_out_of_band
    # shortest circular arc covering the occupied blocks: complement of the
    # widest empty gap between consecutive occupied blocks
    gaps = np.diff(np.concatenate([occupied, [occupied[0] + n_sub]]))
    arc = n_sub - int(gaps.max()) + 1
    return arc * n_dop, max_out_of_band
