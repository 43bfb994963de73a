"""Lattice transforms between the delay-Doppler, time-frequency, and time domains.

The signal path is built from three unitary pieces:

* per-delay-bin DFTs between the Doppler axis and the time axis,
* a block FFT (``extended_fft_apply``) that runs an ``n_subcarriers``-point
  DFT over each of the ``n_doppler_bins`` interleaved sub-sequences of a
  vectorized frame, moving between the interleaved time layout and the
  time-frequency layout,
* an index permutation (``reorder_indices``) between the interleaved time
  layout and sequential sample order.

All DFTs are unitary (``1/sqrt(N)`` both ways), so every stage preserves
energy and the full modulator/demodulator chains are exact inverses of each
other.  The runtime path (``otfs_modulate_fast``, the fast
``otfs_demodulate``, ``tf_stage``) reshapes the frame to ``(n_doppler_bins,
n_subcarriers)`` and runs one FFT along one axis; the stage-by-stage chains
and the dense operator matrices are kept for validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import DelayDopplerGrid, FrameConfig, TimeFrequencyGrid, TimeSignal

# (n_subcarriers, n_doppler_bins) pairs the exhaustive transform checks sweep;
# small enough that dense-operator comparisons stay fast.
REFERENCE_GRIDS: tuple[tuple[int, int], ...] = ((4, 2), (8, 4), (16, 8))


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix with entry ``exp(-2j*pi*k*l/n) / sqrt(n)``."""
    if n < 1:
        raise ValueError("DFT size must be positive")
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


@dataclass(frozen=True)
class ReorderMatrix:
    """Permutation between interleaved and sequential time layouts.

    ``perm[i] = i // n_subcarriers + (i % n_subcarriers) * n_doppler_bins``:
    sequential sample ``i`` (sample ``i % n_subcarriers`` of OFDM symbol
    ``i // n_subcarriers``) is read from that interleaved position.
    """

    perm: np.ndarray

    @property
    def size(self) -> int:
        return self.perm.size

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Interleaved layout -> sequential sample order."""
        return np.asarray(x)[self.perm]

    def apply_transpose(self, y: np.ndarray) -> np.ndarray:
        """Sequential sample order -> interleaved layout (exact inverse)."""
        out = np.empty_like(np.asarray(y))
        out[self.perm] = y
        return out

    def dense(self) -> np.ndarray:
        mat = np.zeros((self.size, self.size))
        mat[np.arange(self.size), self.perm] = 1.0
        return mat


def reorder_indices(config: FrameConfig) -> ReorderMatrix:
    i = np.arange(config.frame_size)
    perm = i // config.n_subcarriers + (i % config.n_subcarriers) * config.n_doppler_bins
    return ReorderMatrix(perm)


def extended_fft_apply(
    x: np.ndarray, config: FrameConfig, inverse: bool = False
) -> np.ndarray:
    """Block DFT between the interleaved time layout and the TF layout.

    Forward: the ``n_subcarriers``-point DFT of each of the
    ``n_doppler_bins`` stride-``n_doppler_bins`` sub-sequences of ``x``,
    written as contiguous per-symbol blocks.  Inverse is the exact adjoint.
    With ``n_doppler_bins == 1`` this degenerates to the ordinary DFT.
    """
    n_sub, n_dop = config.n_subcarriers, config.n_doppler_bins
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (config.frame_size,):
        raise ValueError(f"expected vector of length {config.frame_size}")
    if inverse:
        sym_cols = x.reshape(n_dop, n_sub).T
        return np.fft.ifft(sym_cols, axis=0, norm="ortho").ravel()
    strided_rows = x.reshape(n_sub, n_dop)
    return np.fft.fft(strided_rows, axis=0, norm="ortho").ravel(order="F")


def extended_fft_matrix(config: FrameConfig) -> np.ndarray:
    """Dense form of the forward block DFT, for validation.

    Built independently of :func:`extended_fft_apply` as
    ``kron(I, DFT) @ reorder``: the permutation gathers each strided
    sub-sequence into a contiguous block, then a block-diagonal DFT acts.
    """
    xi = reorder_indices(config).dense()
    block_dft = np.kron(np.eye(config.n_doppler_bins), dft_matrix(config.n_subcarriers))
    return block_dft @ xi


def dsft_forward(grid: DelayDopplerGrid, config: FrameConfig) -> TimeFrequencyGrid:
    """Symplectic finite Fourier transform: delay-Doppler -> time-frequency.

    IDFT along the Doppler axis followed by a DFT along the delay axis;
    an impulse at the grid origin spreads to a constant time-frequency grid.
    """
    x_dd = grid.validate(config)
    time_delay = np.fft.ifft(x_dd, axis=0, norm="ortho")
    return TimeFrequencyGrid(np.fft.fft(time_delay.T, axis=0, norm="ortho"))


def dsft_inverse(grid: TimeFrequencyGrid, config: FrameConfig) -> DelayDopplerGrid:
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


def _doppler_idft_blocks(grid: DelayDopplerGrid, config: FrameConfig) -> np.ndarray:
    """Per-delay-bin IDFT over Doppler, in the interleaved vector layout."""
    x_dd = grid.validate(config)
    # rows: delay bins; columns: Doppler entries of that bin
    doppler_rows = x_dd.T.copy()
    return np.fft.ifft(doppler_rows, axis=1, norm="ortho").ravel()


def otfs_modulate(grid: DelayDopplerGrid, config: FrameConfig) -> TimeSignal:
    """Full modulator chain: spread to time-frequency, back to time, reorder, CP.

    Kept stage-by-stage for validation; :func:`otfs_modulate_fast` collapses
    the two inner block DFTs, which cancel exactly.
    """
    interleaved = _doppler_idft_blocks(grid, config)
    tf_vec = extended_fft_apply(interleaved, config)
    time_vec = extended_fft_apply(tf_vec, config, inverse=True)
    sequential = reorder_indices(config).apply(time_vec)
    return cp_add(TimeSignal(sequential), config)


def otfs_modulate_fast(grid: DelayDopplerGrid, config: FrameConfig) -> TimeSignal:
    """Doppler IDFT per delay bin, read out symbol by symbol, plus CP;
    equals :func:`otfs_modulate` exactly."""
    x_dd = grid.validate(config)
    symbols = np.fft.ifft(x_dd, axis=0, norm="ortho")
    return cp_add(TimeSignal(symbols.ravel()), config)


def _strip_cp(signal: TimeSignal, config: FrameConfig) -> np.ndarray:
    if signal.has_cp:
        return cp_remove(signal, config).data
    return signal.validate(config)


def otfs_demodulate(
    signal: TimeSignal, config: FrameConfig, method: str = "fast"
) -> DelayDopplerGrid:
    """Receive chain back to the delay-Doppler grid.

    ``method="full"`` runs the stage-by-stage chain through the
    time-frequency layout; ``"fast"`` (default) is the collapsed form, one
    Doppler DFT per delay bin.  The two agree to machine precision.
    """
    y = _strip_cp(signal, config)
    if method == "fast":
        symbols = y.reshape(config.n_doppler_bins, config.n_subcarriers)
        return DelayDopplerGrid(np.fft.fft(symbols, axis=0, norm="ortho"))
    if method != "full":
        raise ValueError(f"unknown demodulation method: {method!r}")
    interleaved = reorder_indices(config).apply_transpose(y)
    tf_vec = extended_fft_apply(interleaved, config)
    interleaved = extended_fft_apply(tf_vec, config, inverse=True)
    delay_rows = interleaved.reshape(config.n_subcarriers, config.n_doppler_bins)
    y_dd = np.fft.fft(delay_rows, axis=1, norm="ortho")
    return DelayDopplerGrid(y_dd.T)


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


@dataclass(frozen=True)
class ComposedOperators:
    """Dense receive/transmit stage operators, for validation only.

    ``transmit = q0 @ q1`` maps a delay-Doppler vector to the sequential
    time frame; ``receive = p1 @ p0`` maps it back.  The inner block-DFT
    factors cancel, so ``q0 @ q1`` and ``p1 @ p0`` collapse to a
    permutation around block-diagonal Doppler DFTs.
    """

    p0: np.ndarray
    p1: np.ndarray
    q0: np.ndarray
    q1: np.ndarray

    @property
    def receive(self) -> np.ndarray:
        return self.p1 @ self.p0

    @property
    def transmit(self) -> np.ndarray:
        return self.q0 @ self.q1


def composed_operators(config: FrameConfig) -> ComposedOperators:
    xi = reorder_indices(config).dense()
    fbar = extended_fft_matrix(config)
    dop_dft = np.kron(np.eye(config.n_subcarriers), dft_matrix(config.n_doppler_bins))
    return ComposedOperators(
        p0=fbar @ xi.T,
        p1=dop_dft @ fbar.conj().T,
        q0=xi @ fbar.conj().T,
        q1=fbar @ dop_dft.conj().T,
    )
