"""Channel generation, matrix models, frequency responses, band structure."""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import j0

import otfslink
from oracles import (
    apply_channel,
    band_support,
    build_equivalent_channel,
    build_time_channel_matrix,
    cp_add,
    cp_remove,
    dft_matrix,
    extract_cfr,
    physical_gains,
    symbol_frequency_matrices,
)
from otfslink import (
    FrameConfig,
    TapProfile,
    apply_time_channel,
    cfr_from_cir,
    cir_from_gains,
    fixed_cir,
    generate_cir,
    noise_variance,
    otfs_modulate_fast,
    single_tap_profile,
    tu6_profile,
)
from otfslink import harness
from otfslink.channel import N_SINUSOIDS, TU6_DELAYS_US, TU6_POWERS_DB, awgn

TOY = FrameConfig(
    n_subcarriers=8, n_doppler_bins=4, cp_len=2, sample_rate=64e3
)
THREE_TAPS = TapProfile.from_powers_db([0, 1, 2], [0.0, 0.0, 0.0])


def fast_cir(profile, doppler_hz, config, seed):
    """generate_cir with the expected fast-fading warning silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return generate_cir(profile, doppler_hz, config, seed)


class TestTapProfile:
    def test_normalization(self):
        p = TapProfile.from_powers_db([0, 3], [0.0, -3.0])
        assert p.delays == (0, 3)
        assert sum(p.powers) == pytest.approx(1.0, abs=1e-12)
        assert p.powers[0] / p.powers[1] == pytest.approx(10 ** 0.3)
        assert p.max_delay == 3

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            TapProfile((0, 1), (1.0,))
        with pytest.raises(ValueError):
            TapProfile((), ())
        with pytest.raises(ValueError):
            TapProfile((-1,), (1.0,))
        with pytest.raises(ValueError):
            TapProfile((0, 0), (0.5, 0.5))
        with pytest.raises(ValueError):
            TapProfile((0,), (0.9,))
        with pytest.raises(ValueError):
            TapProfile((0, 1), (0.5, -0.5))
        for bad in (np.nan, np.inf, 1e400):
            with pytest.raises(ValueError, match="positive and finite"):
                TapProfile((0,), (bad,))
            with pytest.raises(ValueError, match="positive and finite"):
                TapProfile((0, 1), (1.0, bad))
        with pytest.raises(ValueError, match="positive and finite"):
            TapProfile.from_powers_db([0], [np.nan])

    def test_same_sample_taps_merge_by_power(self):
        p = TapProfile.from_powers_db([0, 0, 4], [0.0, 0.0, 0.0])
        assert p.delays == (0, 4)
        # the two co-located unit-power taps hold 2/3 of the total
        assert p.powers[0] == pytest.approx(2.0 / 3.0)

    def test_from_microseconds_rounds_to_samples(self):
        p = TapProfile.from_microseconds([0.0, 1.6, 2.6], [0.0, 0.0, 0.0], 1e6)
        assert p.delays == (0, 2, 3)

    @pytest.mark.parametrize(
        "delays_us, sample_rate", [([np.inf], 1e6), ([np.nan], 1e6), ([0.0, 1e10], 1e308)]
    )
    def test_from_microseconds_rejects_non_finite_sample_delays(self, delays_us, sample_rate):
        with pytest.raises(ValueError, match="finite in samples"):
            TapProfile.from_microseconds(delays_us, [0.0] * len(delays_us), sample_rate)

    def test_tu6_at_40mhz(self):
        p = tu6_profile(40e6)
        assert p.delays == tuple(round(d * 40) for d in TU6_DELAYS_US)
        assert len(p.delays) == len(TU6_POWERS_DB)
        assert sum(p.powers) == pytest.approx(1.0, abs=1e-12)

    def test_tu6_at_low_rate_merges(self):
        p = tu6_profile(1.024e6)
        assert p.delays == (0, 1, 2, 5)
        assert sum(p.powers) == pytest.approx(1.0, abs=1e-12)

    def test_single_tap(self):
        p = single_tap_profile()
        assert p.delays == (0,)
        assert p.powers == (1.0,)


class TestGenerateCir:
    def test_zero_doppler_freezes_taps(self):
        cir = generate_cir(THREE_TAPS, 0.0, TOY, seed=5)
        for tap in cir.gains:
            assert_allclose(tap, tap[0, 0], atol=0)
        assert cir.gains.shape == (3, TOY.n_doppler_bins, TOY.n_subcarriers)

    def test_unused_tap_rows_are_zero(self):
        config = FrameConfig(8, 4, cp_len=3, sample_rate=64e3)
        profile = TapProfile.from_powers_db([0, 2], [0.0, 0.0])
        cir = generate_cir(profile, 0.0, config, seed=5)
        assert cir.delays == (0, 2)
        assert cir.gains.shape == (2, config.n_doppler_bins, config.n_subcarriers)
        assert cir.gains.all()
        # delays 1 and 3 carry no energy anywhere in the matrix model
        h = build_time_channel_matrix(cir, config)
        rows = np.arange(config.frame_size)
        for d, used in ((0, True), (1, False), (2, True), (3, False)):
            cols = rows - rows % 8 + (rows % 8 - d) % 8
            assert h[rows, cols].all() if used else not h[rows, cols].any()

    def test_stores_exactly_the_profile_delays(self):
        config = FrameConfig(512, 16, cp_len=256, sample_rate=40e6)
        profile = tu6_profile(config.sample_rate)
        cir = fast_cir(profile, 6000.0, config, seed=3)
        assert cir.delays == profile.delays
        assert cir.gains.shape == (
            len(profile.delays), config.n_doppler_bins, config.n_subcarriers
        )

    def test_unsorted_profile_is_stored_ascending(self):
        # profile tap k draws from the k-th seed stream whatever its delay,
        # so reversing the delays reverses the stored rows
        forward = generate_cir(TapProfile((0, 1, 2), (0.2, 0.3, 0.5)), 200.0, TOY, seed=9)
        backward = generate_cir(TapProfile((2, 1, 0), (0.2, 0.3, 0.5)), 200.0, TOY, seed=9)
        assert backward.delays == (0, 1, 2)
        assert_array_equal(backward.gains, forward.gains[::-1])

    def test_deterministic_per_seed(self):
        a = generate_cir(THREE_TAPS, 200.0, TOY, seed=9)
        b = generate_cir(THREE_TAPS, 200.0, TOY, seed=9)
        c = generate_cir(THREE_TAPS, 200.0, TOY, seed=10)
        assert_array_equal(a.gains, b.gains)
        assert np.any(a.gains != c.gains)

    @pytest.mark.parametrize("preset", ["toy", "desk", "table2"])
    @pytest.mark.parametrize("doppler_hz", [0.0, 1280.0, 6000.0])
    def test_gains_are_the_post_cp_samples_of_the_physical_track(self, preset, doppler_hz):
        # entry [k, n, s] is physical sample n * (M + cp) + cp + s.  With
        # Doppler the factorized draw rounds differently from the track (by
        # under 2e-15), while a one-sample layout error moves a gain by about
        # 2 pi f_d / fs, so the neighbouring layouts, sample n * M + s or the
        # prefixes left in, must miss the draw by far more than atol
        config = harness.PRESETS[preset]()
        frame = config.frame
        cir = fast_cir(config.profile, doppler_hz, frame, seed=17)
        track = physical_gains(config.profile, doppler_hz, frame, seed=17)
        n, m, cp = frame.n_doppler_bins, frame.n_subcarriers, frame.cp_len
        per_symbol = track.reshape(len(cir.delays), n, m + cp)
        assert cir.delays == tuple(sorted(config.profile.delays))
        if doppler_hz == 0.0:
            assert_array_equal(cir.gains, per_symbol[:, :, cp:])
            return
        assert_allclose(cir.gains, per_symbol[:, :, cp:], rtol=0, atol=1e-12)
        without_prefixes = track[:, : n * m].reshape(cir.gains.shape)
        prefixes_left_in = per_symbol[:, :, :m]
        for layout in (without_prefixes, prefixes_left_in):
            assert np.max(np.abs(cir.gains - layout)) > 1e-6

    @pytest.mark.parametrize("n_subcarriers", [12, 7])
    @pytest.mark.parametrize("doppler_hz", [0.0, 1280.0, 6000.0])
    def test_offsets_split_on_any_subcarrier_count(self, n_subcarriers, doppler_hz):
        # the offsets split into blocks of the smallest divisor of M not
        # below sqrt(M): 3 blocks of 4 at M = 12, one block of 7 at M = 7
        frame = FrameConfig(n_subcarriers, 4, cp_len=2, sample_rate=64e3)
        cir = fast_cir(THREE_TAPS, doppler_hz, frame, seed=31)
        track = physical_gains(THREE_TAPS, doppler_hz, frame, seed=31)
        per_symbol = track.reshape(3, 4, n_subcarriers + 2)[:, :, 2:]
        if doppler_hz == 0.0:
            assert_array_equal(cir.gains, per_symbol)
        else:
            assert_allclose(cir.gains, per_symbol, rtol=0, atol=1e-12)

    def test_gains_do_not_depend_on_blas_threads(self):
        # each tap is a BLAS product of two phasor tables; a fresh process
        # per thread count, since OpenBLAS reads it once at load
        script = (
            "import hashlib, warnings\n"
            "from otfslink import generate_cir, harness\n"
            "warnings.simplefilter('ignore', RuntimeWarning)\n"
            "digest = hashlib.sha256()\n"
            "for preset in ('table2', 'desk'):\n"
            "    config = harness.PRESETS[preset]()\n"
            "    for seed in range(4):\n"
            "        cir = generate_cir(config.profile, 6000.0, config.frame, seed)\n"
            "        digest.update(cir.gains.tobytes())\n"
            "print(digest.hexdigest())\n"
        )
        src = str(Path(otfslink.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        digests = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for threads in ("1", "2")
        ]
        assert len(digests[0]) == 65
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("preset", ["toy", "desk", "table2"])
    def test_gains_equal_the_broadcast_sum_of_the_phasor_tables(self, preset):
        # the same two tables, multiplied elementwise and summed over the
        # sinusoids instead of by BLAS
        config = harness.PRESETS[preset]()
        frame, profile = config.frame, config.profile
        cir = fast_cir(profile, 6000.0, frame, seed=23)
        m, cp = frame.n_subcarriers, frame.cp_len
        symbol_times = np.arange(frame.n_doppler_bins) * (m + cp) / frame.sample_rate
        offset_times = (cp + np.arange(m)) / frame.sample_rate
        tap_seeds = np.random.SeedSequence(23).spawn(len(profile.delays))
        order = sorted(range(len(profile.delays)), key=profile.delays.__getitem__)
        for gains, k in zip(cir.gains, order):
            rng = np.random.default_rng(tap_seeds[k])
            angles, phases = rng.uniform(0.0, 2.0 * np.pi, (2, N_SINUSOIDS))
            rates = 2.0 * np.pi * 6000.0 * np.cos(angles)
            per_symbol = np.exp(1j * (np.outer(symbol_times, rates) + phases))
            per_offset = np.exp(1j * np.outer(rates, offset_times))
            summed = (per_symbol[:, :, None] * per_offset).sum(axis=1)
            expected = np.sqrt(profile.powers[k] / N_SINUSOIDS) * summed
            assert_allclose(gains, expected, rtol=0, atol=1e-13)

    def test_rejects_bad_inputs(self):
        for doppler_hz in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="non-negative"):
                generate_cir(THREE_TAPS, doppler_hz, TOY, seed=1)
        long_profile = TapProfile.from_powers_db([0, 5], [0.0, 0.0])
        with pytest.raises(ValueError, match="max delay"):
            generate_cir(long_profile, 0.0, TOY, seed=1)

    def test_fast_fading_warns(self):
        # toy frame lasts 625 us, so 6 kHz Doppler crosses the threshold
        with pytest.warns(RuntimeWarning, match="frame_duration"):
            generate_cir(THREE_TAPS, 6000.0, TOY, seed=1)

    def test_slow_fading_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            generate_cir(THREE_TAPS, 100.0, TOY, seed=1)

    def test_mean_tap_power(self):
        # 0 dB single tap: ensemble-average power is the profile power
        config = FrameConfig(4, 1, sample_rate=64e3)
        powers = [
            np.abs(generate_cir(single_tap_profile(), 0.0, config, seed=s).gains[0, 0, 0])
            ** 2
            for s in range(10_000)
        ]
        assert np.mean(powers) == pytest.approx(1.0, rel=0.03)

    def test_autocorrelation_matches_bessel_oracle(self):
        config = FrameConfig(64, 4, cp_len=0, sample_rate=64e3)
        doppler = 100.0
        n_real = 10_000
        lags = np.arange(0, 193, 16)  # up to 3 ms = 0.3 / doppler
        ref = np.zeros(n_real, dtype=complex)
        lagged = np.zeros((lags.size, n_real), dtype=complex)
        for s in range(n_real):
            h = generate_cir(single_tap_profile(), doppler, config, seed=s).gains[0].ravel()
            ref[s] = h[0]
            lagged[:, s] = h[lags]
        power = np.mean(np.abs(ref) ** 2)
        measured = np.real(np.mean(ref.conj() * lagged, axis=1)) / power
        expected = j0(2.0 * np.pi * doppler * lags / config.sample_rate)
        assert np.max(np.abs(measured - expected)) < 0.05


class TestFixedCir:
    def test_gains_are_root_power(self):
        profile = TapProfile.from_powers_db([0, 2], [0.0, 0.0])
        cir = fixed_cir(profile, TOY)
        assert cir.delays == (0, 2)
        assert cir.gains.shape == (2, TOY.n_doppler_bins, TOY.n_subcarriers)
        assert_allclose(cir.gains, np.sqrt(0.5), atol=1e-15)

    def test_single_tap_is_identity_channel(self):
        cir = fixed_cir(single_tap_profile(), TOY)
        h = build_time_channel_matrix(cir, TOY)
        assert_array_equal(h, np.eye(TOY.frame_size))

    def test_cir_from_gains_shapes(self):
        gains = np.array([1.0, 0.5, 0.25])
        cir = cir_from_gains(gains, TOY)
        assert cir.gains.shape == (3, TOY.n_doppler_bins, TOY.n_subcarriers)
        assert_allclose(cir.gains[1], 0.5, atol=0)

        for shape in ((2, 5), (3, TOY.frame_size_with_cp)):
            with pytest.raises(ValueError, match="shape"):
                cir_from_gains(np.ones(shape), TOY)

    def test_cir_from_gains_drops_zero_rows(self):
        config = FrameConfig(8, 4, cp_len=3)
        cir = cir_from_gains(np.array([0.0, -1.0, 0.0, 2.0j]), config)
        assert cir.delays == (1, 3)
        assert_array_equal(cir.gains[0], -1.0)
        assert_array_equal(cir.gains[1], 2.0j)
        empty = cir_from_gains(np.zeros(4), config)
        assert empty.delays == ()
        assert_array_equal(build_time_channel_matrix(empty, config), 0.0)


class TestTimeChannelMatrix:
    def test_static_two_tap_circulant(self):
        config = FrameConfig(4, 1, cp_len=1)
        cir = cir_from_gains(np.array([1.0, 0.5]), config)
        expected = np.array(
            [
                [1.0, 0.0, 0.0, 0.5],
                [0.5, 1.0, 0.0, 0.0],
                [0.0, 0.5, 1.0, 0.0],
                [0.0, 0.0, 0.5, 1.0],
            ]
        )
        assert_array_equal(build_time_channel_matrix(cir, config), expected)

    def test_row_support(self):
        cir = fast_cir(THREE_TAPS, 1000.0, TOY, seed=3)
        h = build_time_channel_matrix(cir, TOY)
        assert (np.count_nonzero(h, axis=1) <= 3).all()

    def test_symbol_wrap_is_block_diagonal(self):
        cir = fast_cir(THREE_TAPS, 1000.0, TOY, seed=3)
        h = build_time_channel_matrix(cir, TOY)
        n_sub = TOY.n_subcarriers
        for r in range(TOY.frame_size):
            block = r // n_sub
            cols = np.nonzero(h[r])[0]
            assert ((cols // n_sub) == block).all()

    def test_matches_per_entry_loop(self):
        config = FrameConfig(8, 4, cp_len=5, sample_rate=64e3)
        profile = TapProfile.from_powers_db([0, 2, 5], [0.0, -1.0, -3.0])
        cir = fast_cir(profile, 1000.0, config, seed=3)
        m = config.n_subcarriers
        expected = np.zeros((config.frame_size, config.frame_size), dtype=complex)
        for d, g in zip(cir.delays, cir.gains):
            for n in range(config.n_doppler_bins):
                for s in range(m):
                    expected[n * m + s, n * m + (s - d) % m] = g[n, s]
        assert_array_equal(build_time_channel_matrix(cir, config), expected)

    def test_apply_matches_matrix(self):
        cir = fast_cir(THREE_TAPS, 1000.0, TOY, seed=13)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(TOY.frame_size) + 1j * rng.standard_normal(TOY.frame_size)
        h = build_time_channel_matrix(cir, TOY)
        y = apply_time_channel(cir, x.reshape(TOY.n_doppler_bins, TOY.n_subcarriers))
        assert_allclose(y.ravel(), h @ x, atol=1e-13)

    def test_rejects_mismatched_config(self):
        cir = generate_cir(THREE_TAPS, 0.0, TOY, seed=1)
        other = FrameConfig(16, 4, cp_len=2)
        with pytest.raises(ValueError, match="frame config"):
            build_time_channel_matrix(cir, other)
        # the kernels read the frame size from the realization
        for shape in ((4, 16), (8, 4), (32,)):
            with pytest.raises(ValueError, match="does not match the frame"):
                apply_time_channel(cir, np.zeros(shape))


class TestPhysicalChannel:
    def test_identity_noiseless_passthrough(self):
        track = np.ones((1, TOY.frame_size_with_cp))
        rng = np.random.default_rng(2)
        x = (
            rng.standard_normal(TOY.frame_size_with_cp)
            + 1j * rng.standard_normal(TOY.frame_size_with_cp)
        )
        y = apply_channel(x, (0,), track, np.inf, seed=0, config=TOY)
        assert_array_equal(y, x)

    def test_static_matches_matrix_model_after_cp_removal(self):
        profile = TapProfile.from_powers_db([0, 1, 2], [0.0, -2.0, -4.0])
        cir = generate_cir(profile, 0.0, TOY, seed=21)
        track = physical_gains(profile, 0.0, TOY, seed=21)
        rng = np.random.default_rng(4)
        grid = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        tx = otfs_modulate_fast(grid)
        received = apply_channel(cp_add(tx, TOY), cir.delays, track, np.inf, seed=0, config=TOY)
        physical = cp_remove(received, TOY)
        h = build_time_channel_matrix(cir, TOY)
        modeled = h @ tx.ravel()
        assert np.max(np.abs(physical.ravel() - modeled)) < 1e-12

    def test_noise_variance_calibrated(self):
        config = FrameConfig(1024, 128, cp_len=0)
        x = np.zeros(config.frame_size_with_cp)
        y = apply_channel(x, (0,), np.ones((1, x.size)), 0.0, seed=42, config=config)
        measured = np.mean(np.abs(y) ** 2)  # 131072 noise samples
        assert measured == pytest.approx(1.0, rel=0.02)

    def test_requires_cp_signal(self):
        track = np.ones((1, TOY.frame_size_with_cp))
        with pytest.raises(ValueError, match="CP"):
            apply_channel(np.zeros(TOY.frame_size), (0,), track, 10.0, seed=0, config=TOY)
        with pytest.raises(ValueError, match="frame config"):
            apply_channel(np.zeros(track.size), (0,), track[:, 1:], 10.0, seed=0, config=TOY)


def test_noise_variance_values():
    assert noise_variance(np.inf) == 0.0
    assert noise_variance(0.0) == pytest.approx(1.0)
    assert noise_variance(10.0) == pytest.approx(0.1)
    assert noise_variance(-10.0) == pytest.approx(10.0)
    for snr_db in (-np.inf, np.nan):
        with pytest.raises(ValueError, match="snr_db"):
            noise_variance(snr_db)


def test_awgn_statistics():
    rng = np.random.default_rng(8)
    samples = awgn(200_000, 0.5, rng)
    assert np.mean(np.abs(samples) ** 2) == pytest.approx(0.5, rel=0.02)
    # circular symmetry: equal power in both quadrature components
    assert np.var(samples.real) == pytest.approx(np.var(samples.imag), rel=0.05)


class TestEquivalentChannel:
    def test_identity_maps_to_identity(self):
        h_eq = build_equivalent_channel(np.eye(TOY.frame_size), TOY)
        assert_allclose(h_eq, np.eye(TOY.frame_size), atol=1e-12)

    def test_three_constructions_agree(self):
        cir = fast_cir(THREE_TAPS, 1000.0, TOY, seed=31)
        h_tl = build_time_channel_matrix(cir, TOY)
        simplified = build_equivalent_channel(h_tl, TOY, mode="simplified")
        full = build_equivalent_channel(h_tl, TOY, mode="full")
        oracle = build_equivalent_channel(h_tl, TOY, mode="oracle")
        scale = np.linalg.norm(simplified)
        assert np.linalg.norm(simplified - full) / scale < 1e-10
        assert np.linalg.norm(simplified - oracle) / scale < 1e-10

    def test_frobenius_norm_preserved(self):
        cir = fast_cir(THREE_TAPS, 1000.0, TOY, seed=37)
        h_tl = build_time_channel_matrix(cir, TOY)
        h_eq = build_equivalent_channel(h_tl, TOY)
        assert np.linalg.norm(h_eq) == pytest.approx(np.linalg.norm(h_tl), abs=1e-10)

    def test_static_channel_has_scaled_identity_doppler_blocks(self):
        cir = generate_cir(THREE_TAPS, 0.0, TOY, seed=41)
        h_tl = build_time_channel_matrix(cir, TOY)
        h_eq = build_equivalent_channel(h_tl, TOY)
        n_dop = TOY.n_doppler_bins
        for br in range(TOY.n_subcarriers):
            for bc in range(TOY.n_subcarriers):
                block = h_eq[
                    br * n_dop : (br + 1) * n_dop, bc * n_dop : (bc + 1) * n_dop
                ]
                scaled_identity = block[0, 0] * np.eye(n_dop)
                assert np.max(np.abs(block - scaled_identity)) < 1e-10

    def test_rejects_bad_mode_and_shape(self):
        with pytest.raises(ValueError, match="mode"):
            build_equivalent_channel(np.eye(TOY.frame_size), TOY, mode="banded")
        with pytest.raises(ValueError):
            build_equivalent_channel(np.eye(5), TOY)


class TestCfr:
    def test_static_single_tap_constant(self):
        config = FrameConfig(8, 4, cp_len=0)
        cir = cir_from_gains(np.array([0.3 - 0.4j]), config)
        cfr = cfr_from_cir(cir)
        assert_allclose(cfr, 0.3 - 0.4j, atol=1e-14)

    def test_static_two_taps_dft_oracle(self):
        config = FrameConfig(8, 2, cp_len=1)
        cir = cir_from_gains(np.array([1.0, 1.0]), config)
        cfr = cfr_from_cir(cir)
        k = np.arange(8)
        expected = 1.0 + np.exp(-2j * np.pi * k / 8)
        for n in range(2):
            assert_allclose(cfr[n], expected, atol=1e-12)

    def test_static_columns_identical(self):
        cir = generate_cir(THREE_TAPS, 0.0, TOY, seed=43)
        cfr = cfr_from_cir(cir)
        for n in range(1, TOY.n_doppler_bins):
            assert_allclose(cfr[n], cfr[0], atol=1e-12)

    def test_extract_matches_matrix_free_path(self):
        cir = fast_cir(THREE_TAPS, 1000.0, TOY, seed=47)
        h_tl = build_time_channel_matrix(cir, TOY)
        assert_allclose(extract_cfr(h_tl, TOY), cfr_from_cir(cir), atol=1e-12)

    def test_extract_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            extract_cfr(np.eye(7), TOY)


class TestSymbolFrequencyMatrices:
    def test_static_matches_dense_conjugation(self):
        config = FrameConfig(8, 2, cp_len=1)
        cir = cir_from_gains(np.array([1.0, 0.5j]), config)
        mats = symbol_frequency_matrices(cir)
        f = dft_matrix(8)
        b = np.zeros((8, 8), dtype=complex)
        s = np.arange(8)
        b[s, s] = 1.0
        b[s, (s - 1) % 8] = 0.5j
        expected = f @ b @ f.conj().T
        for n in range(2):
            assert_allclose(mats[n], expected, atol=1e-12)

    def test_diagonal_equals_cfr(self):
        cir = fast_cir(THREE_TAPS, 1000.0, TOY, seed=53)
        mats = symbol_frequency_matrices(cir)
        cfr = cfr_from_cir(cir)
        for n in range(TOY.n_doppler_bins):
            assert_allclose(np.diag(mats[n]), cfr[n], atol=1e-12)

    def test_static_channel_is_diagonal_in_frequency(self):
        cir = generate_cir(THREE_TAPS, 0.0, TOY, seed=59)
        mats = symbol_frequency_matrices(cir)
        for n in range(TOY.n_doppler_bins):
            off = mats[n] - np.diag(np.diag(mats[n]))
            assert np.max(np.abs(off)) < 1e-12


class TestBandSupport:
    def test_identity_occupies_one_block(self):
        width, out = band_support(np.eye(TOY.frame_size), TOY, 1)
        assert width == TOY.n_doppler_bins
        assert out == 0.0

    def test_zero_matrix(self):
        width, out = band_support(np.zeros((TOY.frame_size, TOY.frame_size)), TOY, 1)
        assert width == 0
        assert out == 0.0

    def test_static_single_tap_channel(self):
        config = FrameConfig(8, 4, cp_len=0)
        cir = generate_cir(single_tap_profile(), 0.0, config, seed=3)
        h_eq = build_equivalent_channel(
            build_time_channel_matrix(cir, config), config
        )
        width, out = band_support(h_eq, config, 1)
        assert width == config.n_doppler_bins
        assert out < 1e-12

    @pytest.mark.parametrize("doppler", [0.0, 500.0, 2000.0, 6000.0])
    def test_band_does_not_grow_with_doppler(self, doppler):
        cir = fast_cir(THREE_TAPS, doppler, TOY, seed=61)
        h_eq = build_equivalent_channel(build_time_channel_matrix(cir, TOY), TOY)
        channel_len = THREE_TAPS.max_delay + 1
        width, out = band_support(h_eq, TOY, channel_len)
        nominal = TOY.n_doppler_bins * (channel_len + 1)
        assert width <= nominal
        assert out < 1e-12

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            band_support(np.eye(7), TOY, 1)
