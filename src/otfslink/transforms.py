"""Transforms between the delay-Doppler, time-frequency and time domains.

A frame is ``n_doppler_bins`` OFDM symbols of ``n_subcarriers`` samples, so
every transform here is built from unitary FFTs (``1/sqrt(N)`` both ways)
along the axes of the frame reshaped to ``(n_doppler_bins, n_subcarriers)``:

* the OTFS modulator is an inverse DFT over Doppler per delay bin, read out
  symbol by symbol (``otfs_modulate_fast``), and the demodulator is its
  inverse (``otfs_demodulate``);
* the receiver front end of the single-tap equalizers is one DFT per OFDM
  symbol (``tf_stage``), and ``dsft_inverse`` takes the equalized
  time-frequency grid back to delay-Doppler;
* the plain OFDM link is an inverse DFT per symbol (``ofdm_modulate``).

Each OFDM symbol carries its own cyclic prefix (``cp_add``/``cp_remove``).
The stage-by-stage chains through the interleaved time layout that these
collapse, and their dense operator matrices, live with the test oracles.
"""

from __future__ import annotations

import numpy as np

from .frame import DelayDopplerGrid, FrameConfig, TimeFrequencyGrid, TimeSignal


def dsft_inverse(grid: TimeFrequencyGrid, config: FrameConfig) -> DelayDopplerGrid:
    """Inverse symplectic finite Fourier transform: time-frequency ->
    delay-Doppler, an IDFT over subcarriers then a DFT over symbols."""
    x_tf = grid.validate(config)
    time_delay = np.fft.ifft(x_tf, axis=0, norm="ortho")
    return DelayDopplerGrid(np.fft.fft(time_delay.T, axis=0, norm="ortho"))


def cp_add(signal: TimeSignal, config: FrameConfig) -> TimeSignal:
    """Prepend a cyclic prefix to every OFDM symbol; ``cp_len == 0`` is a no-op."""
    if signal.has_cp:
        raise ValueError("signal already carries a cyclic prefix")
    x = signal.validate(config)
    if config.cp_len == 0:
        return TimeSignal(x, has_cp=True)
    symbols = x.reshape(config.n_doppler_bins, config.n_subcarriers)
    extended = np.hstack([symbols[:, -config.cp_len :], symbols])
    return TimeSignal(extended.ravel(), has_cp=True)


def cp_remove(signal: TimeSignal, config: FrameConfig) -> TimeSignal:
    if not signal.has_cp:
        raise ValueError("signal carries no cyclic prefix")
    y = signal.validate(config)
    if config.cp_len == 0:
        return TimeSignal(y, has_cp=False)
    blocks = y.reshape(config.n_doppler_bins, config.n_subcarriers + config.cp_len)
    return TimeSignal(blocks[:, config.cp_len :].ravel(), has_cp=False)


def otfs_modulate_fast(grid: DelayDopplerGrid, config: FrameConfig) -> TimeSignal:
    """Doppler IDFT per delay bin, read out symbol by symbol, plus CP."""
    x_dd = grid.validate(config)
    symbols = np.fft.ifft(x_dd, axis=0, norm="ortho")
    return cp_add(TimeSignal(symbols.ravel()), config)


def _strip_cp(signal: TimeSignal, config: FrameConfig) -> np.ndarray:
    if signal.has_cp:
        return cp_remove(signal, config).data
    return signal.validate(config)


def otfs_demodulate(signal: TimeSignal, config: FrameConfig) -> DelayDopplerGrid:
    """Receive chain back to the delay-Doppler grid: one Doppler DFT per
    delay bin, the inverse of :func:`otfs_modulate_fast`."""
    y = _strip_cp(signal, config)
    symbols = y.reshape(config.n_doppler_bins, config.n_subcarriers)
    return DelayDopplerGrid(np.fft.fft(symbols, axis=0, norm="ortho"))


def tf_stage(signal: TimeSignal, config: FrameConfig) -> TimeFrequencyGrid:
    """Per-symbol DFT of the received frame, as a time-frequency grid.

    This is the receiver front end shared by the single-tap equalizers:
    for each OFDM symbol, the subcarrier values after CP removal.
    """
    y = _strip_cp(signal, config)
    symbols = y.reshape(config.n_doppler_bins, config.n_subcarriers)
    return TimeFrequencyGrid(np.fft.fft(symbols, axis=1, norm="ortho").T)


def ofdm_modulate(grid: TimeFrequencyGrid, config: FrameConfig) -> TimeSignal:
    """Plain OFDM transmitter for the baseline links: per-symbol IDFT plus CP.

    The matching receiver is :func:`tf_stage`.
    """
    x_tf = grid.validate(config)
    time_mat = np.fft.ifft(x_tf, axis=0, norm="ortho")
    return cp_add(TimeSignal(time_mat.ravel(order="F")), config)
