"""Per-symbol receiver kernels against the dense delay-Doppler oracles.

Every kernel ``run_trial`` uses for the cancellation and full-MMSE
receivers is checked here against the dense ``frame_size``-square path it
replaced: the time-domain channel matrix, the equivalent channel, its Gram,
``dde_build``/``dde_equalize`` and ``full_mmse``.  The tap-form Grams and
matched filter are also checked against products of the dense per-symbol
blocks, up to the ``table2`` frame.
"""

from __future__ import annotations

import json
from dataclasses import replace

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
from otfslink.frame import qpsk_map, qpsk_slice, random_bits
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
        self.grams = chan.symbol_grams(self.cir)


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
    matched = chan.matched_filter(link.cir, link.y_otfs)
    oracle = full_mmse(link.h_eq, link.y_dd, link.var)
    estimate = otfs_demodulate(eq.mmse_solve(link.grams, link.var, matched[..., None])[..., 0])
    assert_allclose(estimate.ravel(order="F"), oracle, rtol=0, atol=1e-10)


def test_ofdm_full_mmse_matches_per_symbol_dense(link):
    frame = link.frame
    mats = symbol_frequency_matrices(link.cir)
    y_tf = tf_stage(link.y_ofdm)
    oracle = np.empty((frame.n_doppler_bins, frame.n_subcarriers), dtype=complex)
    for n in range(frame.n_doppler_bins):
        oracle[n] = full_mmse(mats[n], y_tf[n], link.var)
    matched = chan.matched_filter(link.cir, link.y_ofdm)
    estimate = tf_stage(eq.mmse_solve(link.grams, link.var, matched[..., None])[..., 0])
    assert_allclose(estimate, oracle, rtol=0, atol=1e-10)


def test_matched_filter_matches_dense(link):
    matched = chan.matched_filter(link.cir, link.y_otfs)
    matched_dd = otfs_demodulate(matched).ravel(order="F")
    assert_allclose(matched_dd, link.h_eq.conj().T @ link.y_dd, rtol=0, atol=1e-10)


TAP_PRESETS = {**PRESETS, "table2": harness.table2_preset()}


@pytest.fixture(scope="module", params=sorted(TAP_PRESETS))
def taps(request):
    """A 6000 Hz realization, its dense per-symbol blocks and a random
    complex frame."""
    config = TAP_PRESETS[request.param]
    frame = config.frame
    cir = chan.generate_cir(config.profile, 6000.0, frame, 5)
    rng = np.random.default_rng(frame.frame_size)
    shape = (frame.n_doppler_bins, frame.n_subcarriers)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return cir, chan.symbol_channel_blocks(cir), x


def test_symbol_grams_match_dense(taps):
    cir, blocks, _ = taps
    grams = chan.symbol_grams(cir)
    n_taps = len(cir.delays)
    assert grams.delays == tuple(sorted(set(grams.delays)))
    assert grams.delays[0] == 0 and len(grams.delays) <= n_taps * (n_taps - 1) + 1
    dense = blocks.conj().swapaxes(1, 2) @ blocks
    assert_allclose(chan.symbol_channel_blocks(grams), dense, rtol=0, atol=1e-12)


def test_tap_matched_filter_matches_dense(taps):
    cir, blocks, y = taps
    dense = (blocks.conj().swapaxes(1, 2) @ y[..., None])[..., 0]
    assert_allclose(chan.matched_filter(cir, y), dense, rtol=0, atol=1e-12)


def test_gram_taps_apply_the_dense_gram(taps):
    cir, blocks, x = taps
    dense = (blocks.conj().swapaxes(1, 2) @ (blocks @ x[..., None]))[..., 0]
    applied = chan.apply_time_channel(chan.symbol_grams(cir), x)
    assert_allclose(applied, dense, rtol=0, atol=1e-12)


def test_doppler_coupling_of_blocks_is_the_equivalent_channel(link):
    coupling = chan.symbol_channel_blocks(chan.doppler_coupling(link.cir))
    assert_allclose(expand_circulant(coupling), link.h_eq, rtol=0, atol=1e-12)


def test_circulant_gram_matches_dense(link):
    taps, diag = eq.dde_build_circulant(link.grams, clip_threshold=0.0)
    coupling = chan.symbol_channel_blocks(chan.doppler_coupling(taps))
    diag = np.repeat(diag, link.frame.n_doppler_bins)
    gram = expand_circulant(coupling) + np.diag(diag)
    assert_allclose(gram, link.h_eq.conj().T @ link.h_eq, rtol=0, atol=1e-10)


@pytest.mark.parametrize("clip", CLIPS)
def test_circulant_cancellation_matches_dense(link, clip):
    taps, diag = eq.dde_build_circulant(link.grams, clip)

    # the same clipping rule on the exactly block-circulant Gram gives the
    # same matrix, zero for zero: its coupling, read back into taps on the
    # returned delays, gives the returned taps' gains bit for bit through
    # the inverse Doppler FFT, and it holds nothing off those delays
    coupling = chan.symbol_channel_blocks(chan.doppler_coupling(link.grams))
    exact = dde_build(link.h_eq, clip, gram=expand_circulant(coupling))
    n_dop, n_sub = link.frame.n_doppler_bins, link.frame.n_subcarriers
    # r_bar[(l, k), (l', 0)] = c[k, l, l'], in delay-Doppler vector order
    exact_coupling = exact.r_bar.reshape(n_sub, n_dop, n_sub, n_dop)[..., 0]
    exact_coupling = exact_coupling.transpose(1, 0, 2)
    s = np.arange(n_sub)
    exact_taps = np.stack([exact_coupling[:, s, (s - q) % n_sub] for q in taps.delays])
    assert_array_equal(taps.gains, np.fft.ifft(exact_taps, axis=1, norm="forward"))
    exact_cir = chan.TimeVaryingCir(taps.delays, exact_taps)
    assert_array_equal(chan.symbol_channel_blocks(exact_cir), exact_coupling)
    r_bar = exact.r_bar

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
    assert_allclose(np.repeat(diag, n_dop), dense.diag, rtol=0, atol=1e-10)


def _hermitian_partners(coupling: np.ndarray, delays: tuple[int, ...]) -> np.ndarray:
    """Entry ``(q, k, s)`` of a Gram coupling taken from its partner ``(-q
    mod M, -k mod N, (s - q) mod M)``, by one fancy-index gather."""
    n_dop, n_sub = coupling.shape[1:]
    rows = np.array([delays.index(-q % n_sub) for q in delays])
    dopplers = -np.arange(n_dop) % n_dop
    samples = (np.arange(n_sub) - np.array(delays)[:, None]) % n_sub
    return coupling[rows[:, None, None], dopplers[None, :, None], samples[:, None, :]]


@pytest.mark.parametrize("clip", CLIPS)
def test_circulant_clip_keeps_whole_hermitian_pairs(link, clip):
    coupling = chan.doppler_coupling(link.grams).gains
    peak = np.abs(coupling).max()
    # the pair map is the Gram's Hermitian symmetry, exact but for rounding
    partners = _hermitian_partners(coupling, link.grams.delays)
    assert_allclose(partners.conj(), coupling, rtol=0, atol=1e-15 * peak)
    taps, _ = eq.dde_build_circulant(link.grams, clip)
    # kept entries are at least clip * peak, clipped ones come back from the
    # inverse Doppler FFT as rounding; delay 0 at Doppler 0 is the diagonal
    kept = np.abs(chan.doppler_coupling(taps).gains) > 1e-9 * peak
    assert not kept[0, 0].any()
    assert kept.any()
    assert_array_equal(kept, _hermitian_partners(kept, link.grams.delays))


def _decide(grid: np.ndarray) -> np.ndarray:
    """Hard QPSK decisions on a delay-Doppler grid, in its layout."""
    return qpsk_slice(grid)[1].reshape(grid.shape)


@pytest.mark.parametrize("clip", CLIPS[:3])
def test_circulant_equalize_matches_dense(link, clip):
    taps, diag = eq.dde_build_circulant(link.grams, clip)
    matched = chan.matched_filter(link.cir, link.y_otfs)
    dense = dde_build(link.h_eq, clip)

    first = eq.dde_equalize_circulant(matched, _decide(link.stage_one), taps, diag)
    stage_one = link.stage_one.ravel(order="F")
    oracle = dde_equalize(link.y_dd, stage_one, link.h_eq, dense)
    assert_allclose(first.ravel(order="F"), oracle, rtol=0, atol=1e-10)
    second = eq.dde_equalize_circulant(matched, _decide(first), taps, diag)
    oracle = dde_equalize(link.y_dd, oracle, link.h_eq, dense)
    assert_allclose(second.ravel(order="F"), oracle, rtol=0, atol=1e-10)


def test_circulant_genie_cancellation_identity(taps):
    # at clip 0 and fed the transmitted symbols, the cancellation removes
    # every cross term of a noiseless frame, leaving exactly those symbols
    cir, _, x = taps
    _, symbols = qpsk_slice(x)
    symbols = symbols.reshape(x.shape)
    y = chan.apply_time_channel(cir, otfs_modulate_fast(symbols))
    cancel_taps, diag = eq.dde_build_circulant(chan.symbol_grams(cir), clip_threshold=0.0)
    matched = chan.matched_filter(cir, y)
    estimate = eq.dde_equalize_circulant(matched, symbols, cancel_taps, diag)
    assert_allclose(estimate, symbols, rtol=0, atol=1e-12)


@pytest.mark.parametrize("preset", ["desk", "table2"])
def test_two_stage_taps_do_not_depend_on_doppler(preset):
    # the band claim on the runtime path: at any Doppler the Grams and the
    # cancellation sit on the profile's delay differences mod M, so the
    # second stage makes as many tap passes at 6000 Hz as at 0 Hz
    config = TAP_PRESETS[preset]
    delays, m = config.profile.delays, config.frame.n_subcarriers
    expected = tuple(sorted({(e - d) % m for d in delays for e in delays}))
    for doppler_hz in DOPPLERS_HZ:
        grams = chan.symbol_grams(chan.generate_cir(config.profile, doppler_hz, config.frame, 3))
        assert grams.delays == expected, doppler_hz
        for clip in (0.0, 0.02):
            cancel_taps, _ = eq.dde_build_circulant(grams, clip)
            assert cancel_taps.delays == expected, (doppler_hz, clip)


def _zero_taps() -> chan.TimeVaryingCir:
    return chan.TimeVaryingCir((0,), np.zeros((1, 4, 8), dtype=complex))


def test_circulant_clip_of_all_zero_grams_clips_nothing():
    grams = chan.symbol_grams(_zero_taps())
    with np.errstate(all="raise"):
        taps, diag = eq.dde_build_circulant(grams, clip_threshold=0.5)
    assert taps.delays == grams.delays
    assert_array_equal(taps.gains, 0.0)
    assert_array_equal(diag, 0.0)


def test_circulant_kernels_reject_bad_arguments():
    grams = chan.symbol_grams(_zero_taps())
    with pytest.raises(ValueError):
        eq.dde_build_circulant(grams, clip_threshold=1.5)
    # delay 1 without its Hermitian partner, delay 7, is no Gram
    one_sided = chan.TimeVaryingCir((0, 1), np.zeros((2, 4, 8), dtype=complex))
    with pytest.raises(ValueError, match="closed under negation"):
        eq.dde_build_circulant(one_sided, clip_threshold=0.5)
    # delays 1 and 7 are closed under negation, but without delay 0 the
    # first tap is no diagonal
    no_diagonal = chan.TimeVaryingCir((1, 7), np.ones((2, 4, 8), dtype=complex))
    with pytest.raises(ValueError, match="start at 0"):
        eq.dde_build_circulant(no_diagonal, clip_threshold=0.0)
    taps, diag = eq.dde_build_circulant(grams, clip_threshold=0.0)
    with pytest.raises(ValueError):
        eq.dde_equalize_circulant(np.zeros(31), np.zeros(31), taps, diag)
    rhs = np.zeros((4, 8, 1), dtype=complex)
    for noise_var in (-1.0, np.nan):
        with pytest.raises(ValueError):
            eq.mmse_solve(grams, noise_var, rhs)
    with pytest.raises(ValueError):
        chan.matched_filter(grams, np.zeros((8, 4)))


def test_all_zero_blocks_are_singular_at_zero_noise():
    grams = chan.symbol_grams(_zero_taps())
    ones = np.ones((4, 8, 2), dtype=complex)
    singular = r"normal matrix is singular \(noise_var=0\.0\)"
    with pytest.raises(np.linalg.LinAlgError, match=singular):
        eq.mmse_solve(grams, 0.0, ones)
    # any positive noise variance regularizes the same stack
    assert_allclose(eq.mmse_solve(grams, 0.25, ones), 4.0 * ones)


def test_singular_channel_exits_two(monkeypatch, tmp_path, capsys):
    def zero_blocks(cir):
        n, m = cir.gains.shape[1:]
        return np.zeros((n, m, m), dtype=complex)

    monkeypatch.setattr(chan, "symbol_channel_blocks", zero_blocks)
    # two trials make two chunks, so --workers 2 starts a pool
    path = tmp_path / "singular.json"
    path.write_text(
        json.dumps(
            {
                "frame": {"n_subcarriers": 8, "n_doppler_bins": 4},
                "profile": {"delays_samples": [0], "powers_db": [0.0]},
                "snr_db_list": ["inf"],
                "n_trials": 2,
                "fading": False,
            }
        )
    )
    for name in ("otfs_full_mmse", "ofdm_full_mmse"):
        for workers in ("1", "2"):
            out = str(tmp_path / "out.csv")
            argv = ["run", "--config", str(path), "--equalizers", name, "--workers", workers]
            assert main(argv + ["--out", out]) == 2
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


def test_desk_trials_match_pinned_error_counts():
    config = harness.desk_preset()
    assert config.base_seed == 2024
    assert sorted(config.equalizers) == sorted(DESK_REFERENCE)
    trials = [harness.run_trial(config, 20.0, 1280.0, t) for t in range(8)]
    for name, counts in DESK_REFERENCE.items():
        assert tuple(trial[name] for trial in trials) == counts, name


# otfs_fde_dde error counts at the same seed, trials and point, for the
# other clip thresholds and first-stage modes; clip 1 keeps only the
# coupling's peak pairs, each Hermitian pair decided on its larger
# magnitude, so both copies of the peak survive whatever the rounding
DDE_REFERENCE = {
    ("magnitude", 0.0): (6, 0, 59, 29, 12, 115, 10, 148),
    ("magnitude", 1.0): (282, 184, 355, 330, 287, 379, 282, 384),
    ("mmse", 0.0): (0, 0, 0, 0, 0, 0, 0, 0),
    ("mmse", 0.02): (0, 0, 0, 0, 0, 0, 0, 0),
    ("mmse", 1.0): (282, 183, 355, 330, 288, 379, 282, 383),
}


@pytest.mark.parametrize("fde_mode, clip", sorted(DDE_REFERENCE))
def test_desk_dde_trials_match_pinned_error_counts(fde_mode, clip):
    config = replace(
        harness.desk_preset(),
        equalizers=("otfs_fde_dde",),
        fde_mode=fde_mode,
        clip_threshold=clip,
    )
    counts = tuple(harness.run_trial(config, 20.0, 1280.0, t)["otfs_fde_dde"] for t in range(8))
    assert counts == DDE_REFERENCE[fde_mode, clip]


@pytest.mark.parametrize("fde_mode", ["magnitude", "mmse"])
def test_clip_one_counts_survive_a_one_ulp_change_of_the_grams(monkeypatch, fde_mode):
    # clip 1 keeps the peak pair of a coupling whose two copies of the peak
    # differ only by rounding; moving every Gram gain by one ulp, up or
    # down at random, must leave every count as pinned
    symbol_grams = chan.symbol_grams
    rng = np.random.default_rng(7)

    def perturbed_grams(cir):
        grams = symbol_grams(cir)
        up = rng.random((2, *grams.gains.shape)) < 0.5
        real, imag = (
            np.nextafter(part, np.where(toward, np.inf, -np.inf))
            for part, toward in zip((grams.gains.real, grams.gains.imag), up)
        )
        return chan.TimeVaryingCir(grams.delays, real + 1j * imag)

    monkeypatch.setattr(chan, "symbol_grams", perturbed_grams)
    config = replace(
        harness.desk_preset(), equalizers=("otfs_fde_dde",), fde_mode=fde_mode, clip_threshold=1.0
    )
    counts = tuple(harness.run_trial(config, 20.0, 1280.0, t)["otfs_fde_dde"] for t in range(8))
    assert counts == DDE_REFERENCE[fde_mode, 1.0]


@pytest.mark.parametrize("snr_db, doppler_hz", [(20.0, 1280.0), (0.0, 0.0)])
def test_shared_full_mmse_solve_does_not_couple_the_links(snr_db, doppler_hz):
    # the two full-MMSE references are columns of one batched solve; each
    # must count the same errors alone as beside the other
    pair = ("otfs_full_mmse", "ofdm_full_mmse")
    desk = harness.desk_preset()
    for trial in range(8):
        together = harness.run_trial(replace(desk, equalizers=pair), snr_db, doppler_hz, trial)
        for name in pair:
            alone = harness.run_trial(replace(desk, equalizers=(name,)), snr_db, doppler_hz, trial)
            assert alone == {name: together[name]}, (trial, name)
