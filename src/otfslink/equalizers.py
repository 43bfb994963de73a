"""Two-stage equalization and the reference equalizers it is compared against.

Stage one is a per-subcarrier frequency-domain equalizer (FDE): the gains
from :func:`fde_build` multiply the time-frequency grid entry by entry, and
the plain OFDM baseline applies the same gains to its own grid.  Stage two
re-enters the delay-Doppler domain and cancels the residual inter-symbol
coupling: a matched filter through the equivalent channel minus a clipped
cancellation matrix applied to the hard decisions from stage one.  The
other baseline is full linear MMSE on either link.

With per-symbol cyclic prefixes the time-domain channel is one circular
tapped filter ``H_n`` per OFDM symbol, and both links' modulators are
unitary.  The cancellation stage stays in that tap format: the Grams
``G_n = H_n^H H_n`` give their Doppler coupling (the delay-Doppler Gram),
which is clipped and taken back to per-symbol taps, and the interference
of the decisions is regenerated through the link's own chain: modulate,
apply the taps, demodulate.  Only full MMSE, the reference receiver,
scatters the Grams into dense blocks for one batched LU solve shared by
both links.  Every frame in and out is an ``(n_doppler_bins,
n_subcarriers)`` array.
"""

from __future__ import annotations

import numpy as np

from . import channel as chan
from .channel import TimeVaryingCir, apply_time_channel, doppler_coupling
from .transforms import otfs_demodulate, otfs_modulate_fast

FDE_MODES = ("magnitude", "mmse")


def fde_build(cfr: np.ndarray, noise_var: float, mode: str) -> np.ndarray:
    """Single-tap gains from the channel frequency response.

    ``mode="magnitude"`` regularizes by the response magnitude,
    ``g = conj(H) / (|H| + noise_var)``; ``mode="mmse"`` uses the
    conventional ``g = conj(H) / (|H|^2 + noise_var)``.  With
    ``noise_var = 0`` the mmse form inverts the channel exactly while the
    magnitude form only aligns its phase.
    """
    if mode not in FDE_MODES:
        raise ValueError(f"mode must be one of {FDE_MODES}, got {mode!r}")
    if not noise_var >= 0:
        raise ValueError("noise_var must be non-negative")
    cfr = np.asarray(cfr, dtype=np.complex128)
    mag = np.abs(cfr)
    denom = mag + noise_var if mode == "magnitude" else mag**2 + noise_var
    gains = np.zeros_like(cfr)
    np.divide(cfr.conj(), denom, out=gains, where=denom > 0)
    return gains


def _clip(coupling: np.ndarray, clip_threshold: float, delays: tuple[int, ...]) -> None:
    """Zero, in place, the Hermitian pairs of Gram coupling entries whose
    magnitudes both lie below ``clip_threshold`` times the largest magnitude.

    ``coupling`` holds one ``(n_doppler_bins, n_subcarriers)`` row per Gram
    delay in ``delays``.  Entry ``(q, k, s)`` pairs with ``(-q mod M, -k mod
    N, (s - q) mod M)``, read by two slices per delay and Doppler half.  The
    two magnitudes are equal but for rounding, so deciding a pair on the
    larger one keeps both entries or neither, and the clipped matrix stays
    Hermitian.
    """
    if clip_threshold > 0.0:
        mags = np.abs(coupling)
        small = mags < clip_threshold * mags.max()
        n_sub = small.shape[2]
        row = {q: i for i, q in enumerate(delays)}
        partner = np.empty_like(small)
        for out, q in zip(partner, delays):
            src = small[row[-q % n_sub]]
            for dst, flipped in ((out[:1], src[:1]), (out[1:], src[:0:-1])):
                dst[:, q:] = flipped[:, : n_sub - q]
                dst[:, :q] = flipped[:, n_sub - q :]
        np.copyto(coupling, 0.0, where=small & partner)


def mmse_solve(grams: TimeVaryingCir, noise_var: float, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(G_n + noise_var I) x_n = rhs_n`` for every symbol ``n``.

    ``grams`` are the per-symbol Grams' taps and ``rhs`` an
    ``(n_doppler_bins, n_subcarriers, K)`` stack of ``K`` right-hand sides,
    typically matched filters.  The Grams are scattered into dense blocks
    and all symbols are solved in one batched LU solve.  Both links'
    modulators are unitary, so the OTFS demodulation of a matched filter's
    solution is full MMSE on the equivalent channel, and the unitary FFT of
    each symbol's solution is full MMSE on ``F H_n F^H``.

    Raises a singularity error when a regularized block cannot be solved
    (for example ``noise_var = 0`` with an all-zero block).
    """
    if not noise_var >= 0:
        raise ValueError("noise_var must be non-negative")
    normal = chan.symbol_channel_blocks(grams)
    n_sub = normal.shape[-1]
    normal.reshape(len(normal), n_sub * n_sub)[:, :: n_sub + 1] += noise_var
    try:
        return np.linalg.solve(normal, rhs)
    except np.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(
            f"normal matrix is singular (noise_var={noise_var})"
        ) from err


def dde_build_circulant(
    grams: TimeVaryingCir, clip_threshold: float
) -> tuple[TimeVaryingCir, np.ndarray]:
    """Cancellation stage from the per-symbol Grams' taps.

    Entry ``[(l, k), (l', k')]`` of ``h_eq^H h_eq`` is
    ``c[(k - k') mod N, l, l']`` with ``c`` the :func:`doppler_coupling` of
    the Grams; its diagonal is the delay-0 tap at Doppler 0.  Clipping
    compares the magnitudes of every tap gain, the nonzero entries of ``c``,
    each pair of Hermitian partners on the larger of its two magnitudes.
    ``clip_threshold = 0`` keeps every off-diagonal entry; ``1`` keeps only
    the strongest pairs.

    Returns ``(taps, diag)``: the clipped coupling taken back to per-symbol
    taps by the inverse of :func:`doppler_coupling`, so that modulating a
    delay-Doppler grid, applying ``taps`` and demodulating applies the
    cancellation matrix ``r_bar``; and the removed diagonal (real and
    non-negative), one value per delay bin, for the final scaling.
    """
    if not 0.0 <= clip_threshold <= 1.0:
        raise ValueError("clip_threshold must lie in [0, 1]")
    n_sub = grams.gains.shape[2]
    if grams.delays[:1] != (0,) or {-q % n_sub for q in grams.delays} != set(grams.delays):
        raise ValueError(
            "Gram delays must start at 0 and be closed under negation mod n_subcarriers"
        )
    coupling = doppler_coupling(grams).gains
    # delay 0 holds the diagonal
    diag = coupling[0, 0].real.copy()
    coupling[0, 0] = 0.0
    _clip(coupling, clip_threshold, grams.delays)
    taps = np.fft.ifft(coupling, axis=1, norm="forward")
    return TimeVaryingCir(grams.delays, taps), diag


def dde_equalize_circulant(
    matched: np.ndarray,
    decided: np.ndarray,
    taps: TimeVaryingCir,
    diag: np.ndarray,
) -> np.ndarray:
    """One decision-feedback pass in the delay-Doppler domain.

    ``matched`` is the time-domain matched filter ``H_n^H y_n`` of the
    received frame and ``decided`` the hard decisions of stage one, as
    constellation points on the delay-Doppler grid.  Their interference is
    regenerated through the link's own chain (modulate, apply ``taps``) and
    subtracted before one demodulation.  Each entry is then divided by its
    matched-filter gain ``diag``, restoring the constellation scale.  All
    grids are ``(n_doppler_bins, n_subcarriers)`` arrays.
    """
    regenerated = apply_time_channel(taps, otfs_modulate_fast(decided))
    estimate = otfs_demodulate(matched - regenerated)
    return estimate / np.where(diag > 0.0, diag, 1.0)
