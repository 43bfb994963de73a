"""Time-varying multipath channel: fading generation and its per-symbol model.

A channel realization is a tapped delay line: the profile's tap delays and
one complex gain process per tap, sampled at the frame's post-CP sample
times and stored in the frame layout, ``(taps, n_doppler_bins,
n_subcarriers)``.  Each OFDM symbol carries its own cyclic prefix, so
after CP removal the time-domain channel is block diagonal, one circular
``n_subcarriers``-square block per symbol.  For static channels this model
reproduces the physical convolution exactly; with Doppler the two differ
only through tap variation across the CP samples.

Taps are the receivers' one operator format: a realization's Grams
(``symbol_grams``) and Doppler coupling (``doppler_coupling``) are
per-symbol circular tapped filters too, applied to an ``(n_doppler_bins,
n_subcarriers)`` frame by ``apply_time_channel`` and, as the adjoint, by
``matched_filter``.  ``cfr_from_cir`` gives the single-tap equalizers their
frequency response; only ``symbol_channel_blocks`` scatters taps into a
dense ``(N, M, M)`` stack.  No ``frame_size``-square matrix is formed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frame import FrameConfig, _check_field_types, _check_type, _field_types

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
        _check_field_types(self)
        if len(self.delays) != len(self.powers) or not self.delays:
            raise ValueError("delays and powers must be equal-length, non-empty")
        if any(d < 0 for d in self.delays):
            raise ValueError("tap delays must be non-negative")
        if len(set(self.delays)) != len(self.delays):
            raise ValueError("tap delays must be distinct")
        if not all(0 < p < np.inf for p in self.powers):
            raise ValueError("tap powers must be positive and finite")
        total = float(sum(self.powers))
        if not abs(total - 1.0) <= 1e-9:
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
        _check_type(tuple(powers_db), tuple[float, ...], "powers_db")
        # checked before merging, where True or 1.0 would join delay 1
        _check_type(tuple(delays), _field_types(cls)["delays"], "delays")
        merged: dict[int, float] = {}
        for d, p_db in zip(delays, powers_db):
            try:
                power = 10.0 ** (p_db / 10.0)
            except OverflowError:
                raise ValueError(f"tap power {p_db} dB overflows a float") from None
            # taps that round onto the same sample add in power
            merged[d] = merged.get(d, 0.0) + power
        delays_out = tuple(sorted(merged))
        total = sum(merged.values())
        if total == 0.0:
            raise ValueError(f"tap powers {list(powers_db)} dB underflow to zero")
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
        _check_type(tuple(delays_us), tuple[float, ...], "delays_us")
        samples = [d * 1e-6 * sample_rate for d in delays_us]
        if not all(abs(s) < np.inf for s in samples):
            raise ValueError(f"tap delays must be finite in samples, got {samples}")
        return cls.from_powers_db([round(s) for s in samples], list(powers_db))


def tu6_profile(sample_rate: float) -> TapProfile:
    """COST 207 TU6 profile rounded to the given sample rate."""
    return TapProfile.from_microseconds(TU6_DELAYS_US, TU6_POWERS_DB, sample_rate)


def single_tap_profile() -> TapProfile:
    return TapProfile((0,), (1.0,))


@dataclass(frozen=True)
class TimeVaryingCir:
    """Per-symbol circular tapped filters: a channel realization, its Grams
    or a Doppler coupling.

    ``delays`` are ascending, distinct delays in samples; ``gains[k, n, s]``
    multiplies input sample ``(s - delays[k]) mod n_subcarriers`` into
    output sample ``s`` of row ``n``.  For a realization it is the tap's
    gain at physical sample ``n * (n_subcarriers + cp_len) + cp_len + s``.
    """

    delays: tuple[int, ...]
    gains: np.ndarray


def _max_delay(config: FrameConfig) -> int:
    """The largest tap delay that the frame's cyclic prefix covers."""
    return min(config.cp_len, config.n_subcarriers - 1)


def _check_profile_fits(profile: TapProfile, config: FrameConfig) -> None:
    """Raise ``ValueError`` unless every tap delay of ``profile`` is at most
    the frame's ``cp_len`` and below its ``n_subcarriers``: the per-symbol
    model holds only while each symbol's cyclic prefix covers the channel
    memory, and a delay of ``n_subcarriers`` would wrap onto delay 0."""
    limit = _max_delay(config)
    if profile.max_delay > limit:
        raise ValueError(f"profile max delay {profile.max_delay} > {limit}, beyond the cyclic prefix")


def _check_doppler(doppler_hz: float, config: FrameConfig) -> None:
    """Raise ``ValueError`` unless ``doppler_hz`` is finite, non-negative
    and below half the frame's sample rate: each tap sums sinusoids at
    ``doppler_hz * cos(angle)`` sampled at ``sample_rate``, and from half
    that rate on the draw aliases to a slower channel than the one
    stated."""
    limit = config.sample_rate / 2
    if not 0 <= doppler_hz < limit:
        raise ValueError(f"doppler_hz must be finite, non-negative and < {limit:g} Hz: {doppler_hz}")


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
    the profile's mean tap powers.  The sinusoids are evaluated only at the
    post-CP sample times, in the frame layout of :class:`TimeVaryingCir`.
    Sample ``s`` of symbol ``n`` lies at ``n * (n_subcarriers + cp_len) +
    cp_len + s``, so each sinusoid factors into a per-symbol phasor times a
    per-offset phasor, and the offset ``s = W * c + b``, with ``W`` the
    smallest divisor of ``n_subcarriers`` not below its square root, splits
    the per-offset phasor again into a coarse one (per block ``c``) and a
    fine one (per ``b < W``).  Three small phasor tables per tap,
    ``(n_doppler_bins + n_subcarriers / W + W) * N_SINUSOIDS``
    exponentials, replace one exponential per sinusoid and sample.  All
    taps are evaluated together once their seed streams are drawn: one
    broadcast product of the per-symbol and coarse tables, then one
    batched matrix product with the fine table, whose rounding does not
    depend on the BLAS thread count.
    ``doppler_hz = 0`` collapses every tap to a random complex constant.
    """
    _check_doppler(doppler_hz, config)
    _check_profile_fits(profile, config)
    seed_seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    tap_seeds = seed_seq.spawn(len(profile.delays))

    # taps are stored by ascending delay; tap k keeps the k-th seed stream
    # and draws its angles, then its phases
    order = sorted(range(len(profile.delays)), key=profile.delays.__getitem__)
    draws = [
        np.random.default_rng(tap_seeds[k]).uniform(0.0, 2.0 * np.pi, (2, N_SINUSOIDS))
        for k in order
    ]
    angles, phases = np.stack(draws, axis=1)
    rates = 2.0 * np.pi * doppler_hz * np.cos(angles)
    n_dop, n_sub = config.n_doppler_bins, config.n_subcarriers
    cp, fs = config.cp_len, config.sample_rate
    # the wider factor indexes the fine table's columns, so the product stays
    # a matrix product, one block wide at a prime n_subcarriers
    blocks = max(k for k in range(1, math.isqrt(n_sub) + 1) if n_sub % k == 0)
    width = n_sub // blocks
    symbol_times = np.arange(n_dop) * (n_sub + cp) / fs
    block_times = (cp + width * np.arange(blocks)) / fs
    per_symbol = np.exp(1j * (symbol_times[:, None] * rates[:, None, :] + phases[:, None, :]))
    coarse = np.exp(1j * (block_times[:, None] * rates[:, None, :]))
    fine = np.exp(1j * (rates[:, :, None] * (np.arange(width) / fs)))
    # row (n, c) of the left table by column b of the fine one is sample
    # width * c + b of symbol n
    left = (per_symbol[:, :, None, :] * coarse[:, None, :, :]).reshape(len(order), -1, N_SINUSOIDS)
    gains = (left @ fine).reshape(len(order), n_dop, n_sub)
    gains *= np.sqrt(np.array(profile.powers)[order] / N_SINUSOIDS)[:, None, None]
    return TimeVaryingCir(delays=tuple(profile.delays[k] for k in order), gains=gains)


def cir_from_gains(gains: np.ndarray, config: FrameConfig) -> TimeVaryingCir:
    """Wrap constant tap gains as a channel realization.

    ``gains`` is 1-D and holds one constant per delay, from delay 0 up to
    at most ``min(cp_len, n_subcarriers - 1)``, the largest delay the
    frame's cyclic prefix covers; entry ``d`` is the tap at delay ``d``,
    and zero entries are not stored.
    """
    gains = np.asarray(gains, dtype=np.complex128)
    size = _max_delay(config) + 1
    if gains.ndim != 1 or not 1 <= gains.size <= size:
        raise ValueError(f"gains must be 1-D with 1 to {size} entries, got shape {gains.shape}")
    delays = np.flatnonzero(gains)
    shape = (delays.size, config.n_doppler_bins, config.n_subcarriers)
    taps = np.broadcast_to(gains[delays, None, None], shape).copy()
    return TimeVaryingCir(delays=tuple(int(d) for d in delays), gains=taps)


def fixed_cir(profile: TapProfile, config: FrameConfig) -> TimeVaryingCir:
    """Deterministic, non-fading realization: tap ``d`` is the constant
    ``sqrt(power_d)``.  A single unit-power tap gives the identity channel,
    turning the link into a pure AWGN reference."""
    _check_profile_fits(profile, config)
    gains = np.zeros(profile.max_delay + 1, dtype=np.complex128)
    gains[list(profile.delays)] = np.sqrt(profile.powers)
    return cir_from_gains(gains, config)


def apply_time_channel(cir: TimeVaryingCir, x: np.ndarray) -> np.ndarray:
    """Pass a time frame (cyclic prefixes removed) through the per-symbol
    channel: in symbol ``n``, output sample ``s`` adds tap ``d`` times input
    sample ``(s - d) mod n_subcarriers``."""
    if x.shape != cir.gains.shape[1:]:
        raise ValueError(
            f"time frame of shape {x.shape} does not match the frame "
            f"{cir.gains.shape[1:]} of the channel realization"
        )
    y = np.zeros(x.shape, dtype=np.complex128)
    for d, g in zip(cir.delays, cir.gains):
        y += g * np.roll(x, d, axis=1)
    return y


def matched_filter(cir: TimeVaryingCir, y: np.ndarray) -> np.ndarray:
    """Per-symbol matched filter ``H_n^H y_n``, the adjoint of
    :func:`apply_time_channel`: output sample ``j`` adds the conjugate of
    tap ``d`` at sample ``j + d`` times input sample ``j + d``."""
    x = np.zeros(y.shape, dtype=np.complex128)
    for d, g in zip(cir.delays, cir.gains):
        x += np.roll(g.conj() * y, -d, axis=1)
    return x


def noise_variance(snr_db: float) -> float:
    """Complex noise variance for unit received symbol energy; +inf SNR -> 0.

    Raises ``ValueError`` for NaN, -inf, and an SNR so low that the
    variance is not finite."""
    if snr_db == np.inf:
        return 0.0
    if not snr_db > -np.inf:
        raise ValueError(f"snr_db must not be NaN or -inf, got {snr_db}")
    try:
        # on a Python float the power raises where a numpy float gives inf
        return 10.0 ** (-float(snr_db) / 10.0)
    except OverflowError:
        raise ValueError(f"snr_db {snr_db} is too low: its noise variance overflows") from None


def awgn(
    shape: "int | tuple[int, ...]", var: float, rng: np.random.Generator
) -> np.ndarray:
    """Circularly symmetric complex Gaussian noise with total variance ``var``."""
    scale = np.sqrt(var / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def cfr_from_cir(cir: TimeVaryingCir) -> np.ndarray:
    """Per-symbol channel frequency response, shape ``(n_doppler_bins,
    n_subcarriers)``: row ``n`` is the diagonal of symbol ``n``'s block
    conjugated by the DFT, the DFT of the symbol-averaged impulse
    response."""
    # numpy rounds a mean according to memory layout; a leading-axis mean of
    # a fresh copy always adds each symbol's samples one by one, in time order
    per_symbol = np.moveaxis(cir.gains, 2, 0).copy().mean(axis=0)
    padded = np.zeros(cir.gains.shape[1:], dtype=np.complex128)
    padded[:, list(cir.delays)] = per_symbol.T
    return np.fft.fft(padded, axis=1)


def symbol_channel_blocks(cir: TimeVaryingCir) -> np.ndarray:
    """Dense per-symbol blocks of a tapped filter, shape
    ``(n_doppler_bins, n_subcarriers, n_subcarriers)``.

    Entry ``[n]`` is symbol ``n``'s circular block: row ``s`` carries tap
    ``d`` at column ``(s - d) mod n_subcarriers``.
    """
    n_dop, n_sub = cir.gains.shape[1:]
    blocks = np.zeros((n_dop, n_sub, n_sub), dtype=np.complex128)
    # entry (s, (s - d) mod M) is flat index s * (M + 1) - d, plus M for
    # s < d: two strided runs of the flattened block
    flat = blocks.reshape(n_dop, n_sub * n_sub)
    for d, g in zip(cir.delays, cir.gains):
        d %= n_sub
        flat[:, d * n_sub :: n_sub + 1] = g[:, d:]
        flat[:, n_sub - d : d * (n_sub + 1) : n_sub + 1] = g[:, :d]
    return blocks


def symbol_grams(cir: TimeVaryingCir) -> TimeVaryingCir:
    """Per-symbol Grams ``G_n = H_n^H H_n`` as taps: pair ``(d, e)`` adds
    ``conj(g_d) * g_e``, rolled back ``d`` samples, on delay ``(e - d) mod
    n_subcarriers``; delay 0, always present, holds the diagonal.  Every
    pair accumulates into one zeroed ``(taps, n_doppler_bins,
    n_subcarriers)`` array through one reused product buffer."""
    n_sub = cir.gains.shape[2]
    delays = sorted({(e - d) % n_sub for d in cir.delays for e in cir.delays})
    row = {q: i for i, q in enumerate(delays)}
    grams = np.zeros((len(delays), *cir.gains.shape[1:]), dtype=np.complex128)
    product = np.empty(cir.gains.shape[1:], dtype=np.complex128)
    for d, g_d in zip(cir.delays, cir.gains):
        d %= n_sub
        conj = g_d.conj()
        for e, g_e in zip(cir.delays, cir.gains):
            acc = grams[row[(e - d) % n_sub]]
            np.multiply(conj, g_e, out=product)
            # the roll back by d as two slices
            acc[:, : n_sub - d] += product[:, d:]
            acc[:, n_sub - d :] += product[:, :d]
    return TimeVaryingCir(delays=tuple(delays), gains=grams)


def doppler_coupling(cir: TimeVaryingCir) -> TimeVaryingCir:
    """Delay-Doppler coupling of per-symbol tapped filters ``B_n``.

    Modulating a delay-Doppler frame, applying ``B_n`` to symbol ``n`` and
    demodulating gives a matrix whose entry ``[(l, k), (l', k')]`` (delay
    ``l``, Doppler ``k``; vector index ``l * N + k``) is
    ``c[(k - k') mod N, l, l']`` with ``c = fft(B, axis=0) / N``.  This
    returns ``c`` as taps: the gains' FFT over symbols, divided by ``N``.
    For a realization it is the equivalent channel, for its Grams the
    equivalent channel's Gram.
    """
    return TimeVaryingCir(cir.delays, np.fft.fft(cir.gains, axis=1) / cir.gains.shape[1])
