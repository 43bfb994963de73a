"""Dense reference implementations the runtime kernels are tested against.

Nothing here runs in a sweep or the CLI.  These build, the long way, what
the package computes from the channel's structure: stage-by-stage transform
chains and the fading draw through the CP-extended sequential time layout,
and dense ``frame_size``-square matrices.  Frames are ``(n_doppler_bins,
n_subcarriers)`` arrays as in the package; the dense matrices act on
delay-Doppler vectors in column-major order (index ``l * n_doppler_bins +
k`` for delay ``l`` and Doppler ``k``, ``grid.ravel(order="F")``) and on
time frames in row-major sample order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from otfslink.channel import (
    N_SINUSOIDS,
    TapProfile,
    TimeVaryingCir,
    awgn,
    cfr_from_cir,
    noise_variance,
    symbol_channel_blocks,
)
from otfslink.frame import FrameConfig, qpsk_slice
from otfslink.transforms import otfs_demodulate

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

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Interleaved layout -> sequential sample order."""
        return np.asarray(x)[self.perm]

    def apply_transpose(self, y: np.ndarray) -> np.ndarray:
        """Sequential sample order -> interleaved layout (exact inverse)."""
        out = np.empty_like(np.asarray(y))
        out[self.perm] = y
        return out

    def dense(self) -> np.ndarray:
        return np.eye(self.perm.size)[self.perm]


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


def dsft_forward(x_dd: np.ndarray) -> np.ndarray:
    """Symplectic finite Fourier transform: delay-Doppler -> time-frequency.

    IDFT along the Doppler axis followed by a DFT along the delay axis;
    an impulse at the grid origin spreads to a constant time-frequency grid.
    """
    time_delay = np.fft.ifft(x_dd, axis=0, norm="ortho")
    return np.fft.fft(time_delay, axis=1, norm="ortho")


def cp_add(x: np.ndarray, config: FrameConfig) -> np.ndarray:
    """Prepend a cyclic prefix to every OFDM symbol (row) of a time frame;
    returns the sequential CP-extended samples.  ``cp_len == 0`` only
    flattens."""
    return np.hstack([x[:, x.shape[1] - config.cp_len :], x]).ravel()


def cp_remove(y: np.ndarray, config: FrameConfig) -> np.ndarray:
    """Sequential CP-extended samples -> time frame without the prefixes."""
    blocks = y.reshape(config.n_doppler_bins, config.n_subcarriers + config.cp_len)
    return blocks[:, config.cp_len :]


def _doppler_idft_blocks(x_dd: np.ndarray) -> np.ndarray:
    """Per-delay-bin IDFT over Doppler, in the interleaved vector layout."""
    # rows: delay bins; columns: Doppler entries of that bin
    doppler_rows = x_dd.T.copy()
    return np.fft.ifft(doppler_rows, axis=1, norm="ortho").ravel()


def otfs_modulate(x_dd: np.ndarray, config: FrameConfig) -> np.ndarray:
    """Full modulator chain: spread to time-frequency, back to time, reorder, CP.

    Kept stage-by-stage for validation; returns the sequential CP-extended
    samples.  :func:`otfs_modulate_fast` collapses the two inner block DFTs,
    which cancel exactly, and leaves the prefixes out.
    """
    interleaved = _doppler_idft_blocks(x_dd)
    tf_vec = extended_fft_apply(interleaved, config)
    time_vec = extended_fft_apply(tf_vec, config, inverse=True)
    sequential = reorder_indices(config).apply(time_vec)
    return cp_add(sequential.reshape(config.n_doppler_bins, config.n_subcarriers), config)


def otfs_demodulate_full(y: np.ndarray, config: FrameConfig) -> np.ndarray:
    """Stage-by-stage receive chain from a time frame through the
    time-frequency layout; agrees with the collapsed
    :func:`otfs_demodulate` to machine precision."""
    interleaved = reorder_indices(config).apply_transpose(y.ravel())
    tf_vec = extended_fft_apply(interleaved, config)
    interleaved = extended_fft_apply(tf_vec, config, inverse=True)
    delay_rows = interleaved.reshape(config.n_subcarriers, config.n_doppler_bins)
    y_dd = np.fft.fft(delay_rows, axis=1, norm="ortho")
    return y_dd.T


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
    if cir.gains.shape[1:] != (config.n_doppler_bins, config.n_subcarriers):
        raise ValueError("channel realization does not match the frame config")
    h_tl = np.zeros((n, n), dtype=np.complex128)
    rows = np.arange(n)
    for d, g in zip(cir.delays, cir.gains):
        h_tl[rows, _tap_columns(config, d)] = g.ravel()
    return h_tl


def physical_gains(
    profile: TapProfile, doppler_hz: float, config: FrameConfig, seed: int
) -> np.ndarray:
    """Tap gains at every physical sample of the CP-extended frame, shape
    ``(len(profile.delays), frame_size_with_cp)``, rows by ascending delay.

    The sum-of-sinusoids draw of ``generate_cir`` from the same seed
    streams, evaluated along the sequential time axis; ``generate_cir``
    keeps the post-CP samples of this track.
    """
    tap_seeds = np.random.SeedSequence(seed).spawn(len(profile.delays))
    times = np.arange(config.frame_size_with_cp) / config.sample_rate
    track = []
    for k in sorted(range(len(profile.delays)), key=profile.delays.__getitem__):
        rng = np.random.default_rng(tap_seeds[k])
        angles, phases = rng.uniform(0.0, 2.0 * np.pi, (2, N_SINUSOIDS))
        rates = 2.0 * np.pi * doppler_hz * np.cos(angles)
        phasors = np.exp(1j * (np.outer(rates, times) + phases[:, None]))
        track.append(np.sqrt(profile.powers[k] / N_SINUSOIDS) * phasors.sum(axis=0))
    return np.array(track)


def apply_channel(
    x: np.ndarray,
    delays: "tuple[int, ...]",
    track: np.ndarray,
    snr_db: float,
    seed: "int | np.random.SeedSequence",
    config: FrameConfig,
) -> np.ndarray:
    """Physical channel path: per-sample convolution across the sequential
    CP-extended frame, then AWGN.  Row ``k`` of ``track`` is the gain of tap
    ``delays[k]`` at every physical sample, as from :func:`physical_gains`.

    Kept separate from the matrix model as an independent validation route;
    after CP removal the two agree exactly for static channels.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (config.frame_size_with_cp,):
        raise ValueError("physical channel path expects the CP-extended frame")
    if track.shape != (len(delays), x.size):
        raise ValueError("tap track does not match the frame config")
    y = np.zeros_like(x)
    for d, g in zip(delays, track):
        shifted = np.zeros_like(x)
        shifted[d:] = x[: x.size - d]
        y += g * shifted
    var = noise_variance(snr_db)
    if var > 0.0:
        rng = np.random.default_rng(seed)
        y = y + awgn(y.shape, var, rng)
    return y


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
            tx = otfs_modulate(e.reshape(n_sub, n_dop).T, config)
            y = h_tl @ cp_remove(tx, config).ravel()
            h_eq[:, c] = otfs_demodulate(y.reshape(n_dop, n_sub)).ravel(order="F")
        return h_eq
    raise ValueError(f"unknown mode: {mode!r}")


def extract_cfr(h_tl: np.ndarray, config: FrameConfig) -> np.ndarray:
    """Per-symbol channel frequency response from the time-domain matrix.

    Row ``n`` is the diagonal of the symbol's circularized block after
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
    return cfr_from_cir(TimeVaryingCir(tuple(delays), gains.reshape(shape)))


def symbol_frequency_matrices(cir: TimeVaryingCir) -> np.ndarray:
    """Full per-symbol frequency-domain channel matrices, shape
    ``(n_doppler_bins, n_subcarriers, n_subcarriers)``.

    Entry ``[n]`` is the DFT conjugation ``F H_n F^H`` of symbol ``n``'s
    circular block; its diagonal equals row ``n`` of the extracted
    frequency response, its off-diagonals are the intercarrier coupling a
    single-tap equalizer ignores.
    """
    freq = np.fft.fft(symbol_channel_blocks(cir), axis=1, norm="ortho")
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


@dataclass(frozen=True)
class CancellationMatrix:
    """Off-diagonal interference coupling of the equivalent channel.

    ``r_bar`` is ``h_eq^H h_eq`` with the diagonal removed and the entry
    pairs ``[i, j]``, ``[j, i]`` whose larger magnitude lies below
    ``clip_threshold`` times the largest off-diagonal magnitude zeroed;
    ``diag`` keeps the removed diagonal (real and non-negative) for the
    final per-symbol scaling.
    """

    r_bar: np.ndarray
    diag: np.ndarray


def dde_build(
    h_eq: np.ndarray,
    clip_threshold: float = 0.02,
    gram: "np.ndarray | None" = None,
) -> CancellationMatrix:
    """Build the decision-feedback cancellation matrix.

    ``gram`` may pass a precomputed ``h_eq.conj().T @ h_eq`` to share work
    with the full-MMSE equalizer.  ``clip_threshold = 0`` keeps every
    off-diagonal entry; ``1`` keeps only the strongest.
    """
    if not 0.0 <= clip_threshold <= 1.0:
        raise ValueError("clip_threshold must lie in [0, 1]")
    h_eq = np.asarray(h_eq, dtype=np.complex128)
    if gram is None:
        gram = h_eq.conj().T @ h_eq
    diag = np.real(np.diag(gram)).copy()
    r_bar = gram - np.diag(np.diag(gram))
    mags = np.abs(r_bar)
    peak = mags.max()
    if clip_threshold > 0.0 and peak > 0.0:
        # a Hermitian matrix pairs each entry with its transpose, and a pair
        # is zeroed only when both magnitudes lie below the threshold
        small = mags < clip_threshold * peak
        r_bar[small & small.T] = 0.0
    return CancellationMatrix(r_bar=r_bar, diag=diag)


def dde_equalize(
    y_dd: np.ndarray,
    stage_one_symbols: np.ndarray,
    h_eq: np.ndarray,
    cancel: CancellationMatrix,
    scale_by_diag: bool = True,
) -> np.ndarray:
    """One decision-feedback pass in the delay-Doppler domain.

    ``y_dd`` is the raw demodulated frame (vectorized, before any
    equalization); ``stage_one_symbols`` seed the hard decisions whose
    regenerated interference is subtracted from the matched-filter output.
    With ``scale_by_diag`` each entry is divided by its matched-filter
    gain, restoring the constellation scale.
    """
    y_dd = np.asarray(y_dd, dtype=np.complex128).ravel()
    n = y_dd.size
    if h_eq.shape != (n, n) or cancel.r_bar.shape != (n, n):
        raise ValueError("matrix sizes do not match the received vector")
    _, decided = qpsk_slice(np.asarray(stage_one_symbols).ravel())
    estimate = h_eq.conj().T @ y_dd - cancel.r_bar @ decided
    if scale_by_diag:
        estimate = estimate / np.where(cancel.diag > 0.0, cancel.diag, 1.0)
    return estimate


def full_mmse(
    h: np.ndarray,
    y: np.ndarray,
    noise_var: float,
    gram: "np.ndarray | None" = None,
) -> np.ndarray:
    """Linear MMSE estimate ``(h^H h + noise_var I)^-1 h^H y``.

    Raises a singularity error when the regularized normal matrix cannot be
    factorized (for example ``noise_var = 0`` with a rank-deficient ``h``).
    """
    h = np.asarray(h, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128).ravel()
    if h.ndim != 2 or h.shape[0] != y.size:
        raise ValueError("h and y dimensions do not match")
    if noise_var < 0:
        raise ValueError("noise_var must be non-negative")
    if gram is None:
        gram = h.conj().T @ h
    normal = gram + noise_var * np.eye(h.shape[1])
    try:
        factor = scipy.linalg.cho_factor(normal)
    except scipy.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(
            f"normal matrix is singular (noise_var={noise_var})"
        ) from err
    return scipy.linalg.cho_solve(factor, h.conj().T @ y)


def expand_circulant(coupling: np.ndarray) -> np.ndarray:
    """Dense matrix with entry ``[(l, k), (l', k')] = coupling[(k - k') mod N, l, l']``
    in delay-Doppler vector order (index ``l * N + k``)."""
    n_dop, n_sub, _ = coupling.shape
    k = np.arange(n_dop)
    blocks = coupling[(k[:, None] - k[None, :]) % n_dop]
    return blocks.transpose(2, 0, 3, 1).reshape(n_sub * n_dop, n_sub * n_dop)
