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
``G_n = H_n^H H_n``, their Doppler coupling (the delay-Doppler Gram), its
clipping and the regenerated interference are all taps.  Only full MMSE,
the reference receiver, scatters the Grams into dense blocks for one
batched LU solve shared by both links.  Every frame in and out is an
``(n_doppler_bins, n_subcarriers)`` array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channel as chan
from .channel import TimeVaryingCir, apply_time_channel, doppler_coupling
from .frame import qpsk_slice

FDE_MODES = ("magnitude", "mmse")


def fde_build(cfr: np.ndarray, noise_var: float, mode: str = "magnitude") -> np.ndarray:
    """Single-tap gains from the channel frequency response.

    ``mode="magnitude"`` regularizes by the response magnitude,
    ``g = conj(H) / (|H| + noise_var)``; ``mode="mmse"`` uses the
    conventional ``g = conj(H) / (|H|^2 + noise_var)``.  With
    ``noise_var = 0`` the mmse form inverts the channel exactly while the
    magnitude form only aligns its phase.
    """
    if mode not in FDE_MODES:
        raise ValueError(f"mode must be one of {FDE_MODES}, got {mode!r}")
    if noise_var < 0:
        raise ValueError("noise_var must be non-negative")
    cfr = np.asarray(cfr, dtype=np.complex128)
    mag = np.abs(cfr)
    denom = mag + noise_var if mode == "magnitude" else mag**2 + noise_var
    gains = np.zeros_like(cfr)
    np.divide(cfr.conj(), denom, out=gains, where=denom > 0)
    return gains


def _clip(coupling: np.ndarray, clip_threshold: float) -> np.ndarray:
    """Zero entries below ``clip_threshold`` times the largest magnitude."""
    if clip_threshold > 0.0:
        mags = np.abs(coupling)
        peak = mags.max()
        if peak > 0.0:
            return np.where(mags < clip_threshold * peak, 0.0, coupling)
    return coupling


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


@dataclass(frozen=True)
class CirculantCancellation:
    """Cancellation stage of the equivalent channel, stored as taps.

    The cancellation matrix ``r_bar`` is ``h_eq^H h_eq`` with the diagonal
    removed and entries below ``clip_threshold`` times the largest
    off-diagonal magnitude zeroed; entry ``[(l, k), (l', k')]`` is
    ``c[(k - k') mod N, l, l']``, each ``c[k]`` a tapped filter over delay.
    ``spectrum`` holds those taps after an FFT of their gains over Doppler, so
    ``r_bar @ d`` is a Doppler FFT, :func:`apply_time_channel` of
    ``spectrum`` and an inverse FFT.  ``diag`` is the removed diagonal (real
    and non-negative), one value per delay bin, for the final scaling.
    """

    spectrum: TimeVaryingCir
    diag: np.ndarray


def dde_build_circulant(
    grams: TimeVaryingCir, clip_threshold: float = 0.02
) -> CirculantCancellation:
    """Cancellation stage from the per-symbol Grams' taps.

    Entry ``[(l, k), (l', k')]`` of ``h_eq^H h_eq`` is
    ``c[(k - k') mod N, l, l']`` with ``c`` the :func:`doppler_coupling` of
    the Grams; its diagonal is the delay-0 tap at Doppler 0.  Clipping
    compares the magnitudes of every tap gain, the nonzero entries of ``c``.
    ``clip_threshold = 0`` keeps every off-diagonal entry; ``1`` keeps only
    the strongest.
    """
    if not 0.0 <= clip_threshold <= 1.0:
        raise ValueError("clip_threshold must lie in [0, 1]")
    coupling = doppler_coupling(grams).gains
    # symbol_grams always holds delay 0, the first of its ascending delays
    diag = coupling[0, 0].real.copy()
    coupling[0, 0] = 0.0
    coupling = _clip(coupling, clip_threshold)
    return CirculantCancellation(
        spectrum=TimeVaryingCir(grams.delays, np.fft.fft(coupling, axis=1)),
        diag=diag,
    )


def dde_equalize_circulant(
    matched: np.ndarray,
    stage_one_symbols: np.ndarray,
    cancel: CirculantCancellation,
) -> np.ndarray:
    """One decision-feedback pass in the delay-Doppler domain.

    ``matched`` is the delay-Doppler matched-filter output ``h_eq^H y_dd``,
    the demodulated matched filter; ``stage_one_symbols`` seed the hard
    decisions whose regenerated interference is subtracted from it.  Each
    entry is then divided by its matched-filter gain, restoring the
    constellation scale.  Both grids and the result are ``(n_doppler_bins,
    n_subcarriers)`` arrays.
    """
    _, decided = qpsk_slice(stage_one_symbols)
    decided_freq = np.fft.fft(decided.reshape(matched.shape), axis=0)
    regenerated = apply_time_channel(cancel.spectrum, decided_freq)
    estimate = matched - np.fft.ifft(regenerated, axis=0)
    return estimate / np.where(cancel.diag > 0.0, cancel.diag, 1.0)
