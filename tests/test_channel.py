"""Channel generation, matrix models, frequency responses, band structure."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import j0

from oracles import (
    apply_channel,
    band_support,
    build_equivalent_channel,
    build_time_channel_matrix,
    dft_matrix,
    extract_cfr,
    symbol_frequency_matrices,
)
from otfslink import (
    DelayDopplerGrid,
    FrameConfig,
    TapProfile,
    TimeSignal,
    apply_time_channel,
    cfr_from_cir,
    cir_from_gains,
    cp_add,
    cp_remove,
    fixed_cir,
    generate_cir,
    noise_variance,
    otfs_modulate_fast,
    single_tap_profile,
    tu6_profile,
)
from otfslink.channel import TU6_DELAYS_US, TU6_POWERS_DB, awgn

TOY = FrameConfig(
    n_subcarriers=8, n_doppler_bins=4, max_delay_taps=3, cp_len=2, sample_rate=64e3
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

    def test_same_sample_taps_merge_by_power(self):
        p = TapProfile.from_powers_db([0, 0, 4], [0.0, 0.0, 0.0])
        assert p.delays == (0, 4)
        # the two co-located unit-power taps hold 2/3 of the total
        assert p.powers[0] == pytest.approx(2.0 / 3.0)

    def test_from_microseconds_rounds_to_samples(self):
        p = TapProfile.from_microseconds([0.0, 1.6, 2.6], [0.0, 0.0, 0.0], 1e6)
        assert p.delays == (0, 2, 3)

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
        for row in cir.gains:
            assert_allclose(row, row[0], atol=0)
        assert cir.gains.shape == (3, TOY.frame_size_with_cp)
        assert cir.frame_gains(TOY).shape == (3, TOY.n_doppler_bins, TOY.n_subcarriers)

    def test_unused_tap_rows_are_zero(self):
        config = FrameConfig(8, 4, max_delay_taps=4, cp_len=3, sample_rate=64e3)
        profile = TapProfile.from_powers_db([0, 2], [0.0, 0.0])
        cir = generate_cir(profile, 0.0, config, seed=5)
        assert cir.delays == (0, 2)
        assert cir.gains.shape == (2, config.frame_size_with_cp)
        assert cir.gains.all()
        # delays 1 and 3 carry no energy anywhere in the matrix model
        h = build_time_channel_matrix(cir, config)
        rows = np.arange(config.frame_size)
        for d, used in ((0, True), (1, False), (2, True), (3, False)):
            cols = rows - rows % 8 + (rows % 8 - d) % 8
            assert h[rows, cols].all() if used else not h[rows, cols].any()

    def test_stores_exactly_the_profile_delays(self):
        config = FrameConfig(512, 16, max_delay_taps=201, cp_len=256, sample_rate=40e6)
        profile = tu6_profile(config.sample_rate)
        cir = fast_cir(profile, 6000.0, config, seed=3)
        assert cir.delays == profile.delays
        assert cir.gains.shape == (len(profile.delays), config.frame_size_with_cp)

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

    def test_frame_view_indexes_physical_samples(self):
        cir = generate_cir(THREE_TAPS, 200.0, TOY, seed=9)
        view = cir.frame_gains(TOY)
        m, cp = TOY.n_subcarriers, TOY.cp_len
        for k in range(len(cir.delays)):
            for n in range(TOY.n_doppler_bins):
                for s in range(m):
                    assert view[k, n, s] == cir.gains[k, n * (m + cp) + cp + s]
        with pytest.raises(ValueError, match="frame config"):
            cir.frame_gains(FrameConfig(16, 4, max_delay_taps=3, cp_len=2))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="non-negative"):
            generate_cir(THREE_TAPS, -1.0, TOY, seed=1)
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
            np.abs(generate_cir(single_tap_profile(), 0.0, config, seed=s).gains[0, 0])
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
            h = generate_cir(single_tap_profile(), doppler, config, seed=s).gains[0]
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
        assert cir.gains.shape == (2, TOY.frame_size_with_cp)
        assert_allclose(cir.gains, np.sqrt(0.5), atol=1e-15)
        assert cir.doppler_hz == 0.0

    def test_single_tap_is_identity_channel(self):
        cir = fixed_cir(single_tap_profile(), TOY)
        h = build_time_channel_matrix(cir, TOY)
        assert_array_equal(h, np.eye(TOY.frame_size))

    def test_cir_from_gains_shapes(self):
        gains = np.array([1.0, 0.5, 0.25])
        cir = cir_from_gains(gains, TOY)
        assert cir.gains.shape == (3, TOY.frame_size_with_cp)
        assert_allclose(cir.gains[1], 0.5, atol=0)

        full = np.ones((3, TOY.frame_size_with_cp), dtype=complex)
        cir2 = cir_from_gains(full, TOY)
        assert_array_equal(cir2.gains, 1.0)

        with pytest.raises(ValueError, match="shape"):
            cir_from_gains(np.ones((2, 5)), TOY)

    def test_cir_from_gains_drops_zero_rows(self):
        config = FrameConfig(8, 4, max_delay_taps=4, cp_len=3)
        track = np.zeros((4, config.frame_size_with_cp), dtype=complex)
        track[1] = np.arange(config.frame_size_with_cp)  # zero at sample 0 only
        track[3, 5] = 2.0j
        cir = cir_from_gains(track, config, doppler_hz=50.0)
        assert cir.delays == (1, 3)
        assert_array_equal(cir.gains, track[[1, 3]])
        assert cir.doppler_hz == 50.0
        empty = cir_from_gains(np.zeros(4), config)
        assert empty.delays == ()
        assert_array_equal(build_time_channel_matrix(empty, config), 0.0)


class TestTimeChannelMatrix:
    def test_static_two_tap_circulant(self):
        config = FrameConfig(4, 1, max_delay_taps=2, cp_len=1)
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
        config = FrameConfig(8, 4, max_delay_taps=6, cp_len=5, sample_rate=64e3)
        profile = TapProfile.from_powers_db([0, 2, 5], [0.0, -1.0, -3.0])
        cir = fast_cir(profile, 1000.0, config, seed=3)
        m, cp = config.n_subcarriers, config.cp_len
        expected = np.zeros((config.frame_size, config.frame_size), dtype=complex)
        for d, g in zip(cir.delays, cir.gains):
            for n in range(config.n_doppler_bins):
                for s in range(m):
                    expected[n * m + s, n * m + (s - d) % m] = g[n * (m + cp) + cp + s]
        assert_array_equal(build_time_channel_matrix(cir, config), expected)

    def test_apply_matches_matrix(self):
        cir = fast_cir(THREE_TAPS, 1000.0, TOY, seed=13)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(TOY.frame_size) + 1j * rng.standard_normal(TOY.frame_size)
        h = build_time_channel_matrix(cir, TOY)
        assert_allclose(apply_time_channel(cir, x, TOY), h @ x, atol=1e-13)

    def test_rejects_mismatched_config(self):
        cir = generate_cir(THREE_TAPS, 0.0, TOY, seed=1)
        other = FrameConfig(16, 4, max_delay_taps=3, cp_len=2)
        with pytest.raises(ValueError):
            build_time_channel_matrix(cir, other)
        # same physical length, but the taps reach past the channel length
        shorter = FrameConfig(8, 4, max_delay_taps=2, cp_len=2)
        with pytest.raises(ValueError, match="frame config"):
            apply_time_channel(cir, np.zeros(TOY.frame_size), shorter)


class TestPhysicalChannel:
    def test_identity_noiseless_passthrough(self):
        cir = fixed_cir(single_tap_profile(), TOY)
        rng = np.random.default_rng(2)
        x = TimeSignal(
            rng.standard_normal(TOY.frame_size_with_cp)
            + 1j * rng.standard_normal(TOY.frame_size_with_cp),
            has_cp=True,
        )
        y = apply_channel(x, cir, np.inf, seed=0, config=TOY)
        assert_array_equal(y.data, x.data)
        assert y.has_cp

    def test_static_matches_matrix_model_after_cp_removal(self):
        profile = TapProfile.from_powers_db([0, 1, 2], [0.0, -2.0, -4.0])
        cir = generate_cir(profile, 0.0, TOY, seed=21)
        rng = np.random.default_rng(4)
        grid = DelayDopplerGrid(
            rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        )
        tx = otfs_modulate_fast(grid, TOY)
        physical = cp_remove(apply_channel(tx, cir, np.inf, seed=0, config=TOY), TOY)
        h = build_time_channel_matrix(cir, TOY)
        modeled = h @ cp_remove(tx, TOY).data
        assert np.max(np.abs(physical.data - modeled)) < 1e-12

    def test_noise_variance_calibrated(self):
        config = FrameConfig(1024, 128, cp_len=0)
        cir = fixed_cir(single_tap_profile(), config)
        x = TimeSignal(np.zeros(config.frame_size_with_cp), has_cp=True)
        y = apply_channel(x, cir, 0.0, seed=42, config=config)
        measured = np.mean(np.abs(y.data) ** 2)  # 131072 noise samples
        assert measured == pytest.approx(1.0, rel=0.02)

    def test_requires_cp_signal(self):
        cir = fixed_cir(single_tap_profile(), TOY)
        with pytest.raises(ValueError, match="CP"):
            apply_channel(
                TimeSignal(np.zeros(TOY.frame_size)), cir, 10.0, seed=0, config=TOY
            )


def test_noise_variance_values():
    assert noise_variance(np.inf) == 0.0
    assert noise_variance(0.0) == pytest.approx(1.0)
    assert noise_variance(10.0) == pytest.approx(0.1)
    assert noise_variance(-10.0) == pytest.approx(10.0)


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
        config = FrameConfig(8, 4, max_delay_taps=1, cp_len=0)
        cir = cir_from_gains(np.array([0.3 - 0.4j]), config)
        cfr = cfr_from_cir(cir, config)
        assert_allclose(cfr, 0.3 - 0.4j, atol=1e-14)

    def test_static_two_taps_dft_oracle(self):
        config = FrameConfig(8, 2, max_delay_taps=2, cp_len=1)
        cir = cir_from_gains(np.array([1.0, 1.0]), config)
        cfr = cfr_from_cir(cir, config)
        k = np.arange(8)
        expected = 1.0 + np.exp(-2j * np.pi * k / 8)
        for n in range(2):
            assert_allclose(cfr[:, n], expected, atol=1e-12)

    def test_static_columns_identical(self):
        cir = generate_cir(THREE_TAPS, 0.0, TOY, seed=43)
        cfr = cfr_from_cir(cir, TOY)
        for n in range(1, TOY.n_doppler_bins):
            assert_allclose(cfr[:, n], cfr[:, 0], atol=1e-12)

    def test_extract_matches_matrix_free_path(self):
        cir = fast_cir(THREE_TAPS, 1000.0, TOY, seed=47)
        h_tl = build_time_channel_matrix(cir, TOY)
        assert_allclose(extract_cfr(h_tl, TOY), cfr_from_cir(cir, TOY), atol=1e-12)

    def test_extract_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            extract_cfr(np.eye(7), TOY)


class TestSymbolFrequencyMatrices:
    def test_static_matches_dense_conjugation(self):
        config = FrameConfig(8, 2, max_delay_taps=2, cp_len=1)
        cir = cir_from_gains(np.array([1.0, 0.5j]), config)
        mats = symbol_frequency_matrices(cir, config)
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
        mats = symbol_frequency_matrices(cir, TOY)
        cfr = cfr_from_cir(cir, TOY)
        for n in range(TOY.n_doppler_bins):
            assert_allclose(np.diag(mats[n]), cfr[:, n], atol=1e-12)

    def test_static_channel_is_diagonal_in_frequency(self):
        cir = generate_cir(THREE_TAPS, 0.0, TOY, seed=59)
        mats = symbol_frequency_matrices(cir, TOY)
        for n in range(TOY.n_doppler_bins):
            off = mats[n] - np.diag(np.diag(mats[n]))
            assert np.max(np.abs(off)) < 1e-12


class TestBandSupport:
    def test_identity_occupies_one_block(self):
        width, out = band_support(np.eye(TOY.frame_size), TOY)
        assert width == TOY.n_doppler_bins
        assert out == 0.0

    def test_zero_matrix(self):
        width, out = band_support(np.zeros((TOY.frame_size, TOY.frame_size)), TOY)
        assert width == 0
        assert out == 0.0

    def test_static_single_tap_channel(self):
        config = FrameConfig(8, 4, max_delay_taps=1, cp_len=0)
        cir = generate_cir(single_tap_profile(), 0.0, config, seed=3)
        h_eq = build_equivalent_channel(
            build_time_channel_matrix(cir, config), config
        )
        width, out = band_support(h_eq, config)
        assert width == config.n_doppler_bins
        assert out < 1e-12

    @pytest.mark.parametrize("doppler", [0.0, 500.0, 2000.0, 6000.0])
    def test_band_does_not_grow_with_doppler(self, doppler):
        cir = fast_cir(THREE_TAPS, doppler, TOY, seed=61)
        h_eq = build_equivalent_channel(build_time_channel_matrix(cir, TOY), TOY)
        width, out = band_support(h_eq, TOY)
        nominal = TOY.n_doppler_bins * (TOY.max_delay_taps + 1)
        assert width <= nominal
        assert out < 1e-12

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            band_support(np.eye(7), TOY)
