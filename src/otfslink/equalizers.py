"""Two-stage equalization and the reference equalizers it is compared against.

Stage one is a per-subcarrier frequency-domain equalizer (FDE) on the
time-frequency grid; the plain OFDM baseline applies the same single-tap
gains to its own grid.  Stage two re-enters the delay-Doppler domain and
cancels the residual inter-symbol coupling: a matched filter through the
equivalent channel minus a clipped cancellation matrix applied to the hard
decisions from stage one.  The other baseline is full linear MMSE on
either link.

With per-symbol cyclic prefixes the time-domain channel is block diagonal,
one ``n_subcarriers``-square block ``H_n`` per OFDM symbol, and both links'
modulators are unitary.  The receivers therefore work on the stack of
per-symbol Grams ``G_n = H_n^H H_n``: full MMSE on either link is one
batched Cholesky factorization of ``G_n + noise_var I`` (see
:func:`mmse_factor`), and the delay-Doppler Gram that the cancellation
stage needs is block circulant over Doppler (see
:func:`dde_build_circulant`).  No ``frame_size``-square matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .channel import doppler_coupling
from .frame import FrameConfig, TimeFrequencyGrid, TimeSignal, qpsk_slice
from .transforms import otfs_demodulate

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


def fde_apply(gains: np.ndarray, grid: TimeFrequencyGrid) -> TimeFrequencyGrid:
    data = np.asarray(grid.data)
    if gains.shape != data.shape:
        raise ValueError(
            f"coefficient grid {gains.shape} does not match "
            f"signal grid {data.shape}"
        )
    return TimeFrequencyGrid(gains * data)


def _clip(coupling: np.ndarray, clip_threshold: float) -> np.ndarray:
    """Zero entries below ``clip_threshold`` times the largest magnitude."""
    if clip_threshold > 0.0:
        mags = np.abs(coupling)
        peak = mags.max()
        if peak > 0.0:
            return np.where(mags < clip_threshold * peak, 0.0, coupling)
    return coupling


def symbol_grams(blocks: np.ndarray) -> np.ndarray:
    """Per-symbol Grams ``G_n = H_n^H H_n`` of an ``(N, M, M)`` block stack."""
    return blocks.conj().swapaxes(1, 2) @ blocks


def symbol_matched_filter(blocks: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-symbol matched filter ``H_n^H y_n`` of a sequential time frame
    (cyclic prefixes removed), as an ``(N, M)`` array of symbols."""
    n_dop, n_sub, _ = blocks.shape
    y = np.asarray(y, dtype=np.complex128).reshape(n_dop, n_sub, 1)
    return (blocks.conj().swapaxes(1, 2) @ y)[..., 0]


def mmse_factor(grams: np.ndarray, noise_var: float) -> np.ndarray:
    """Lower Cholesky factors of ``G_n + noise_var I``, batched over symbols.

    Raises a singularity error when a regularized block cannot be
    factorized (for example ``noise_var = 0`` with a rank-deficient block).
    """
    if noise_var < 0:
        raise ValueError("noise_var must be non-negative")
    normal = grams + noise_var * np.eye(grams.shape[-1])
    try:
        return np.linalg.cholesky(normal)
    except np.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(
            f"normal matrix is singular (noise_var={noise_var})"
        ) from err


def mmse_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(G_n + noise_var I) x_n = rhs_n`` for every symbol ``n``."""
    return np.stack(
        [
            scipy.linalg.cho_solve((f, True), b, check_finite=False)
            for f, b in zip(factor, rhs)
        ]
    )


def otfs_full_mmse(
    factor: np.ndarray, matched: np.ndarray, config: FrameConfig
) -> np.ndarray:
    """Full MMSE on the OTFS link, as a delay-Doppler vector.

    ``matched`` is :func:`symbol_matched_filter` of the received OTFS frame.
    The modulator is unitary, so the per-symbol solution demodulated equals
    the full MMSE solution on the equivalent channel.
    """
    solved = mmse_solve(factor, matched)
    return otfs_demodulate(TimeSignal(solved.ravel()), config).to_vector()


def ofdm_full_mmse(factor: np.ndarray, matched: np.ndarray) -> np.ndarray:
    """Full MMSE on the plain OFDM link, as a time-frequency vector.

    ``matched`` is :func:`symbol_matched_filter` of the received OFDM frame.
    The unitary FFT of each symbol's solution equals the full MMSE solution
    on that symbol's frequency-domain matrix ``F H_n F^H``.
    """
    return np.fft.fft(mmse_solve(factor, matched), axis=1, norm="ortho").ravel()


@dataclass(frozen=True)
class CirculantCancellation:
    """Cancellation stage of the equivalent channel, stored by its
    block-circulant structure.

    The cancellation matrix ``r_bar`` is the equivalent channel's Gram
    ``h_eq^H h_eq`` with the diagonal removed and entries below
    ``clip_threshold`` times the largest off-diagonal magnitude zeroed.
    Block ``(l, l')`` of ``r_bar`` (delay bins, ``n_doppler_bins`` Doppler
    entries each) is circulant over Doppler: entry ``[(l, k), (l', k')]`` is
    ``coupling[(k - k') mod n_doppler_bins, l, l']``.  ``spectrum`` is the
    FFT of ``coupling`` over its first axis, so ``r_bar @ d`` is a Doppler
    FFT of ``d``, one ``n_subcarriers``-square product per Doppler frequency
    and an inverse FFT.  ``diag`` is the removed diagonal (real and
    non-negative) in delay-Doppler vector order, for the final per-symbol
    scaling.
    """

    coupling: np.ndarray
    spectrum: np.ndarray
    diag: np.ndarray


def dde_build_circulant(
    grams: np.ndarray, clip_threshold: float = 0.02
) -> CirculantCancellation:
    """Cancellation stage from the per-symbol Grams.

    Entry ``[(l, k), (l', k')]`` of ``h_eq^H h_eq`` is
    ``c[(k - k') mod N, l, l']`` with ``c`` the :func:`doppler_coupling` of
    the Grams.  Clipping compares the magnitudes of every entry, so it
    zeroes whole wrapped diagonals and keeps the circulant structure.
    ``clip_threshold = 0`` keeps every off-diagonal entry; ``1`` keeps only
    the strongest.
    """
    if not 0.0 <= clip_threshold <= 1.0:
        raise ValueError("clip_threshold must lie in [0, 1]")
    n_dop, n_sub, _ = grams.shape
    coupling = doppler_coupling(grams)
    diag = np.repeat(np.real(np.diagonal(coupling[0])), n_dop)
    delay = np.arange(n_sub)
    coupling[0, delay, delay] = 0.0
    coupling = _clip(coupling, clip_threshold)
    return CirculantCancellation(
        coupling=coupling,
        spectrum=np.fft.fft(coupling, axis=0),
        diag=diag,
    )


def dde_equalize_circulant(
    matched: np.ndarray,
    stage_one_symbols: np.ndarray,
    cancel: CirculantCancellation,
) -> np.ndarray:
    """One decision-feedback pass in the delay-Doppler domain.

    ``matched`` is the delay-Doppler matched-filter output ``h_eq^H y_dd``,
    which is ``otfs_demodulate`` of :func:`symbol_matched_filter`;
    ``stage_one_symbols`` seed the hard decisions whose regenerated
    interference is subtracted from it.  Each entry is then divided by its
    matched-filter gain, restoring the constellation scale.
    """
    matched = np.asarray(matched, dtype=np.complex128).ravel()
    n_dop, n_sub, _ = cancel.spectrum.shape
    if matched.size != n_dop * n_sub:
        raise ValueError("cancellation size does not match the received vector")
    _, decided = qpsk_slice(np.asarray(stage_one_symbols).ravel())
    # delay-Doppler vectors hold one block of n_dop Doppler entries per delay
    decided_freq = np.fft.fft(decided.reshape(n_sub, n_dop), axis=1)
    regenerated = (cancel.spectrum @ decided_freq.T[..., None])[..., 0]
    estimate = matched - np.fft.ifft(regenerated, axis=0).T.ravel()
    return estimate / np.where(cancel.diag > 0.0, cancel.diag, 1.0)
