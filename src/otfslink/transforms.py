"""Transforms between the delay-Doppler, time-frequency and time domains.

Every frame is an ``(n_doppler_bins, n_subcarriers)`` array (see
:mod:`otfslink.frame`), and every transform here is one unitary FFT
(``1/sqrt(N)`` both ways) along one of its axes:

* the OTFS modulator is an inverse DFT over Doppler per delay bin, along
  axis 0 (``otfs_modulate_fast``), and the demodulator is its inverse
  (``otfs_demodulate``);
* the receiver front end of the single-tap equalizers is one DFT per OFDM
  symbol, along axis 1 (``tf_stage``), and ``dsft_inverse`` takes the
  equalized time-frequency grid back to delay-Doppler, an inverse DFT along
  axis 1 and then a DFT along axis 0;
* the plain OFDM link is an inverse DFT per symbol, along axis 1
  (``ofdm_modulate``).

Time frames are the samples after cyclic-prefix removal; the channel model
acts on them directly.  The stage-by-stage chains through the interleaved,
CP-extended time layout that these collapse, and their dense operator
matrices, live with the test oracles.
"""

from __future__ import annotations

import numpy as np


def otfs_modulate_fast(x_dd: np.ndarray) -> np.ndarray:
    """Delay-Doppler grid -> time frame: a Doppler IDFT per delay bin, read
    out symbol by symbol."""
    return np.fft.ifft(x_dd, axis=0, norm="ortho")


def otfs_demodulate(y: np.ndarray) -> np.ndarray:
    """Time frame -> delay-Doppler grid: one Doppler DFT per delay bin, the
    inverse of :func:`otfs_modulate_fast`."""
    return np.fft.fft(y, axis=0, norm="ortho")


def tf_stage(y: np.ndarray) -> np.ndarray:
    """Time frame -> time-frequency grid: the DFT of each OFDM symbol.

    This is the receiver front end shared by the single-tap equalizers.
    """
    return np.fft.fft(y, axis=1, norm="ortho")


def dsft_inverse(x_tf: np.ndarray) -> np.ndarray:
    """Inverse symplectic finite Fourier transform: time-frequency ->
    delay-Doppler, an IDFT over subcarriers then a DFT over symbols."""
    return np.fft.fft(np.fft.ifft(x_tf, axis=1, norm="ortho"), axis=0, norm="ortho")


def ofdm_modulate(x_tf: np.ndarray) -> np.ndarray:
    """Plain OFDM transmitter for the baseline links: the IDFT of each
    symbol's subcarriers.  The matching receiver is :func:`tf_stage`."""
    return np.fft.ifft(x_tf, axis=1, norm="ortho")
