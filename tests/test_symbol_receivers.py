"""Per-symbol receiver kernels against the dense delay-Doppler oracles.

Every kernel ``run_trial`` uses for the cancellation and full-MMSE
receivers is checked here against the dense ``frame_size``-square path it
replaced: the time-domain channel matrix, the equivalent channel, its Gram,
``dde_build``/``dde_equalize`` and ``full_mmse``.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oracles import (
    build_equivalent_channel,
    build_time_channel_matrix,
    dde_build,
    dde_equalize,
    expand_circulant,
    full_mmse,
    symbol_frequency_matrices,
)
from otfslink import channel as chan
from otfslink import equalizers as eq
from otfslink import harness
from otfslink.cli import main
from otfslink.frame import qpsk_map, random_bits
from otfslink.transforms import (
    dsft_inverse,
    ofdm_modulate,
    otfs_demodulate,
    otfs_modulate_fast,
    tf_stage,
)

PRESETS = {"toy": harness.toy_preset(), "desk": harness.desk_preset()}
DOPPLERS_HZ = (0.0, 1280.0, 6000.0)
CLIPS = (0.0, 0.02, 0.1, 1.0)
SNR_DB = 20.0


class Link:
    """One noisy frame through both links, with the dense oracles built."""

    def __init__(self, preset: str, doppler_hz: float) -> None:
        config = PRESETS[preset]
        frame = self.frame = config.frame
        rng = np.random.default_rng(int(doppler_hz) + frame.frame_size)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            self.cir = chan.generate_cir(config.profile, doppler_hz, frame, 11)
        self.var = chan.noise_variance(SNR_DB)
        self.bits = random_bits(frame.bits_per_frame, rng)
        symbols = qpsk_map(self.bits, frame)
        shape = (frame.n_doppler_bins, frame.n_subcarriers)
        noise = chan.awgn(shape, self.var, rng)

        x_otfs = otfs_modulate_fast(symbols.reshape(shape[::-1]).T)
        self.y_otfs = chan.apply_time_channel(self.cir, x_otfs) + noise
        x_ofdm = ofdm_modulate(symbols.reshape(shape))
        self.y_ofdm = chan.apply_time_channel(self.cir, x_ofdm) + noise

        cfr = chan.cfr_from_cir(self.cir)
        coeffs = eq.fde_build(cfr, self.var, mode="mmse")
        self.stage_one = dsft_inverse(coeffs * tf_stage(self.y_otfs))

        self.h_tl = build_time_channel_matrix(self.cir, frame)
        self.h_eq = build_equivalent_channel(self.h_tl, frame)
        # the dense oracles act on delay-Doppler vectors, index l * N + k
        self.y_dd = otfs_demodulate(self.y_otfs).ravel(order="F")

        self.blocks = chan.symbol_channel_blocks(self.cir)
        self.grams = eq.symbol_grams(self.blocks)


@pytest.fixture(
    scope="module",
    params=[(p, f) for p in PRESETS for f in DOPPLERS_HZ],
    ids=lambda param: f"{param[0]}-{param[1]:g}Hz",
)
def link(request) -> Link:
    return Link(*request.param)


def test_block_stack_is_the_block_diagonal_exactly(link):
    m = link.frame.n_subcarriers
    for n, block in enumerate(link.blocks):
        assert_array_equal(block, link.h_tl[n * m : (n + 1) * m, n * m : (n + 1) * m])
    off_diagonal = link.h_tl.copy()
    for n in range(link.frame.n_doppler_bins):
        off_diagonal[n * m : (n + 1) * m, n * m : (n + 1) * m] = 0.0
    assert not off_diagonal.any()


def test_frequency_matrices_conjugate_the_block_stack(link):
    f = np.fft.fft(np.eye(link.frame.n_subcarriers), axis=0, norm="ortho")
    mats = symbol_frequency_matrices(link.cir)
    assert_allclose(mats, f @ link.blocks @ f.conj().T, atol=1e-12)


def test_otfs_full_mmse_matches_dense(link):
    factor = eq.mmse_factor(link.grams, link.var)
    matched = eq.symbol_matched_filter(link.blocks, link.y_otfs)
    oracle = full_mmse(link.h_eq, link.y_dd, link.var)
    estimate = eq.otfs_full_mmse(factor, matched)
    assert_allclose(estimate.ravel(order="F"), oracle, rtol=0, atol=1e-10)


def test_ofdm_full_mmse_matches_per_symbol_dense(link):
    frame = link.frame
    mats = symbol_frequency_matrices(link.cir)
    y_tf = tf_stage(link.y_ofdm)
    oracle = np.empty((frame.n_doppler_bins, frame.n_subcarriers), dtype=complex)
    for n in range(frame.n_doppler_bins):
        oracle[n] = full_mmse(mats[n], y_tf[n], link.var)
    factor = eq.mmse_factor(link.grams, link.var)
    matched = eq.symbol_matched_filter(link.blocks, link.y_ofdm)
    assert_allclose(eq.ofdm_full_mmse(factor, matched), oracle, rtol=0, atol=1e-10)


def test_matched_filter_matches_dense(link):
    matched = eq.symbol_matched_filter(link.blocks, link.y_otfs)
    matched_dd = otfs_demodulate(matched).ravel(order="F")
    assert_allclose(matched_dd, link.h_eq.conj().T @ link.y_dd, rtol=0, atol=1e-10)


def test_doppler_coupling_of_blocks_is_the_equivalent_channel(link):
    coupling = chan.doppler_coupling(link.blocks)
    assert_allclose(expand_circulant(coupling), link.h_eq, rtol=0, atol=1e-12)


def test_circulant_gram_matches_dense(link):
    cancel = eq.dde_build_circulant(link.grams, clip_threshold=0.0)
    diag = np.repeat(cancel.diag, link.frame.n_doppler_bins)
    gram = expand_circulant(cancel.coupling) + np.diag(diag)
    assert_allclose(gram, link.h_eq.conj().T @ link.h_eq, rtol=0, atol=1e-10)


@pytest.mark.parametrize("clip", CLIPS)
def test_circulant_cancellation_matches_dense(link, clip):
    cancel = eq.dde_build_circulant(link.grams, clip)
    r_bar = expand_circulant(cancel.coupling)
    assert_allclose(
        cancel.spectrum, np.fft.fft(cancel.coupling, axis=0), rtol=0, atol=1e-12
    )

    # the same clipping rule on the exactly block-circulant Gram gives the
    # same matrix, zero for zero
    full = eq.dde_build_circulant(link.grams, 0.0)
    n_dop = link.frame.n_doppler_bins
    exact = dde_build(
        link.h_eq,
        clip,
        gram=expand_circulant(full.coupling) + np.diag(np.repeat(full.diag, n_dop)),
    )
    assert_array_equal(r_bar == 0, exact.r_bar == 0)
    assert_array_equal(r_bar, exact.r_bar)

    # against the fully dense path, only entries whose magnitude ties the
    # clip threshold to rounding may land on different sides of it: a
    # static channel's exact zeros at clip 0, and at clip 1 the copies of
    # the peak along its wrapped diagonal
    dense = dde_build(link.h_eq, clip)
    gram = link.h_eq.conj().T @ link.h_eq
    mags = np.abs(gram - np.diag(np.diag(gram)))
    peak = mags.max()
    tie = np.abs(mags - clip * peak) <= 1e-12 * peak
    differs = (r_bar == 0) != (dense.r_bar == 0)
    assert not (differs & ~tie).any()
    if 0.0 < clip < 1.0:
        assert not differs.any()
    assert_allclose(r_bar[~differs], dense.r_bar[~differs], rtol=0, atol=1e-10)
    assert_allclose(np.repeat(cancel.diag, n_dop), dense.diag, rtol=0, atol=1e-10)


@pytest.mark.parametrize("clip", CLIPS[:3])
def test_circulant_equalize_matches_dense(link, clip):
    cancel = eq.dde_build_circulant(link.grams, clip)
    matched = eq.symbol_matched_filter(link.blocks, link.y_otfs)
    matched_dd = otfs_demodulate(matched)
    dense = dde_build(link.h_eq, clip)

    first = eq.dde_equalize_circulant(matched_dd, link.stage_one, cancel)
    stage_one = link.stage_one.ravel(order="F")
    oracle = dde_equalize(link.y_dd, stage_one, link.h_eq, dense)
    assert_allclose(first.ravel(order="F"), oracle, rtol=0, atol=1e-10)
    second = eq.dde_equalize_circulant(matched_dd, first, cancel)
    oracle = dde_equalize(link.y_dd, oracle, link.h_eq, dense)
    assert_allclose(second.ravel(order="F"), oracle, rtol=0, atol=1e-10)


def test_circulant_kernels_reject_bad_arguments():
    grams = np.zeros((4, 8, 8), dtype=complex)
    with pytest.raises(ValueError):
        eq.dde_build_circulant(grams, clip_threshold=1.5)
    cancel = eq.dde_build_circulant(grams, clip_threshold=0.0)
    with pytest.raises(ValueError):
        eq.dde_equalize_circulant(np.zeros(31), np.zeros(31), cancel)
    with pytest.raises(ValueError):
        eq.mmse_factor(grams, -1.0)


def test_all_zero_blocks_are_singular_at_zero_noise():
    grams = eq.symbol_grams(np.zeros((4, 8, 8), dtype=complex))
    singular = r"normal matrix is singular \(noise_var=0\.0\)"
    with pytest.raises(np.linalg.LinAlgError, match=singular):
        eq.mmse_factor(grams, 0.0)
    # any positive noise variance regularizes the same stack
    assert_allclose(eq.mmse_factor(grams, 0.25), 0.5 * np.eye(8) + np.zeros((4, 1, 1)))


def test_singular_channel_exits_two(monkeypatch, tmp_path, capsys):
    def zero_blocks(cir):
        n, m = cir.gains.shape[1:]
        return np.zeros((n, m, m), dtype=complex)

    monkeypatch.setattr(chan, "symbol_channel_blocks", zero_blocks)
    path = tmp_path / "singular.json"
    path.write_text(
        json.dumps(
            {
                "frame": {"n_subcarriers": 8, "n_doppler_bins": 4},
                "profile": {"delays_samples": [0], "powers_db": [0.0]},
                "snr_db_list": ["inf"],
                "n_trials": 1,
                "fading": False,
            }
        )
    )
    for name in ("otfs_full_mmse", "ofdm_full_mmse"):
        out = str(tmp_path / "out.csv")
        assert main(["run", "--config", str(path), "--equalizers", name, "--out", out]) == 2
        assert "normal matrix is singular (noise_var=0.0)" in capsys.readouterr().err


# error counts of seed 2024, trials 0-7, at 20 dB and 1280 Hz on the desk
# preset; the same values are the benchmark's reference frames
DESK_REFERENCE = {
    "ofdm_full_mmse": (4, 3, 15, 7, 1, 5, 20, 10),
    "ofdm_single_tap": (9, 16, 20, 16, 11, 18, 30, 23),
    "otfs_fde": (44, 36, 76, 55, 54, 89, 51, 90),
    "otfs_fde_dde": (6, 0, 60, 31, 12, 115, 11, 149),
    "otfs_full_mmse": (0, 0, 0, 0, 0, 0, 0, 0),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_desk_trials_match_pinned_error_counts():
    config = harness.desk_preset()
    assert config.base_seed == 2024
    assert sorted(config.equalizers) == sorted(DESK_REFERENCE)
    trials = [harness.run_trial(config, 20.0, 1280.0, t) for t in range(8)]
    for name, counts in DESK_REFERENCE.items():
        assert tuple(trial[name] for trial in trials) == counts, name
