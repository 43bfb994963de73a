"""Equalizer stages: single-tap FDE, cancellation DDE, MMSE baselines."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import erfc

from oracles import (
    build_equivalent_channel,
    build_time_channel_matrix,
    dde_build,
    dde_equalize,
    extended_fft_matrix,
    full_mmse,
)
from otfslink import (
    FrameConfig,
    TapProfile,
    apply_time_channel,
    cfr_from_cir,
    dsft_inverse,
    fde_build,
    fixed_cir,
    generate_cir,
    noise_variance,
    ofdm_modulate,
    otfs_modulate_fast,
    qpsk_map,
    qpsk_slice,
    single_tap_profile,
    tf_stage,
)
from otfslink.channel import awgn
from otfslink.equalizers import FDE_MODES
from otfslink.frame import random_bits

TOY = FrameConfig(
    n_subcarriers=8, n_doppler_bins=4, cp_len=2, sample_rate=64e3
)
THREE_TAPS = TapProfile.from_powers_db([0, 1, 2], [0.0, 0.0, 0.0])


class TestFdeBuild:
    def test_unit_channel_is_passthrough(self):
        coeffs = fde_build(np.array([[1.0 + 0j]]), 0.0, mode="magnitude")
        assert_allclose(coeffs, 1.0, atol=1e-15)

    def test_pure_phase_inversion(self):
        coeffs = fde_build(np.array([[1j]]), 0.0, mode="magnitude")
        assert_allclose(coeffs, -1j, atol=1e-15)

    def test_regularized_example(self):
        coeffs = fde_build(np.array([[1.0 + 1.0j]]), 0.5, mode="magnitude")
        expected = (1.0 - 1.0j) / (np.sqrt(2.0) + 0.5)
        assert_allclose(coeffs, expected, atol=1e-15)

    def test_magnitude_mode_is_phase_only_without_gamma(self):
        rng = np.random.default_rng(5)
        cfr = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        coeffs = fde_build(cfr, 0.0, mode="magnitude")
        assert_allclose(np.abs(coeffs), 1.0, atol=1e-12)

    def test_magnitude_relation_invariant(self):
        rng = np.random.default_rng(7)
        cfr = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        for gamma in (0.0, 0.05, 1.0):
            coeffs = fde_build(cfr, gamma, mode="magnitude")
            lhs = np.abs(coeffs) * (np.abs(cfr) + gamma)
            assert_allclose(lhs, np.abs(cfr), atol=1e-12)

    def test_mmse_mode_inverts_channel_without_gamma(self):
        rng = np.random.default_rng(9)
        cfr = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        coeffs = fde_build(cfr, 0.0, mode="mmse")
        assert_allclose(coeffs * cfr, 1.0, atol=1e-12)

    def test_zero_response_yields_zero_coefficient(self):
        cfr = np.array([[0.0 + 0j, 2.0]])
        for mode in FDE_MODES:
            coeffs = fde_build(cfr, 0.0, mode=mode)
            assert coeffs[0, 0] == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="mode"):
            fde_build(np.ones((1, 1)), 0.0, mode="zf")
        for noise_var in (-0.1, np.nan):
            with pytest.raises(ValueError, match="noise_var"):
                fde_build(np.ones((1, 1)), noise_var, mode="magnitude")


class TestFdeApply:
    # the gains multiply the time-frequency grid entry by entry
    def test_unit_gains_passthrough(self):
        grid = np.arange(8, dtype=complex).reshape(4, 2)
        coeffs = fde_build(np.ones((4, 2), dtype=complex), 0.0, mode="magnitude")
        assert_allclose(coeffs * grid, grid, atol=0)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        cfr = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        coeffs = fde_build(cfr, 0.1, mode="magnitude")
        y = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        assert_allclose(coeffs * (3.0 * y), 3.0 * (coeffs * y), atol=1e-12)

    def test_static_unit_magnitude_channel_inverted(self):
        # phase-only channel: the magnitude-mode FDE restores the grid exactly
        rng = np.random.default_rng(13)
        tf = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        cfr = np.exp(1j * rng.uniform(0, 2 * np.pi, (8, 2)))
        coeffs = fde_build(cfr, 0.0, mode="magnitude")
        assert_allclose(coeffs * (cfr * tf), tf, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        coeffs = fde_build(np.ones((4, 2), dtype=complex), 0.0, mode="magnitude")
        with pytest.raises(ValueError):
            coeffs * np.ones((2, 4), dtype=complex)


class TestFdeToDd:
    def test_noiseless_static_chain_recovers_grid(self):
        cir = generate_cir(THREE_TAPS, 0.0, TOY, seed=19)
        rng = np.random.default_rng(19)
        grid = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        y_tf = tf_stage(apply_time_channel(cir, otfs_modulate_fast(grid)))
        coeffs = fde_build(cfr_from_cir(cir), 0.0, mode="mmse")
        recovered = dsft_inverse(coeffs * y_tf)
        assert np.max(np.abs(recovered - grid)) < 1e-10


class TestDdeBuild:
    def test_unitary_channel_cancels_nothing(self):
        h = extended_fft_matrix(TOY)
        cancel = dde_build(h, clip_threshold=0.0)
        assert_allclose(cancel.r_bar, 0.0, atol=1e-12)
        assert_allclose(cancel.diag, 1.0, atol=1e-12)

    def test_zero_clip_keeps_all_off_diagonals(self):
        rng = np.random.default_rng(23)
        h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        gram = h.conj().T @ h
        cancel = dde_build(h, clip_threshold=0.0)
        assert_allclose(cancel.r_bar, gram - np.diag(np.diag(gram)), atol=0)
        assert_array_equal(np.diag(cancel.r_bar), 0.0)
        assert_allclose(cancel.diag, np.real(np.diag(gram)), atol=0)

    def test_full_clip_keeps_only_strongest(self):
        rng = np.random.default_rng(29)
        h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        cancel = dde_build(h, clip_threshold=1.0)
        mags = np.abs(cancel.r_bar)
        kept = mags[mags > 0]
        assert kept.size >= 1
        assert_allclose(kept, kept.max(), atol=1e-12)

    def test_retained_entries_respect_threshold(self):
        rng = np.random.default_rng(31)
        h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        gram = h.conj().T @ h
        off = gram - np.diag(np.diag(gram))
        clip = 0.3
        cancel = dde_build(h, clip_threshold=clip)
        floor = clip * np.abs(off).max()
        retained = np.abs(cancel.r_bar[cancel.r_bar != 0])
        assert (retained >= floor).all()

    def test_gram_shortcut_matches(self):
        rng = np.random.default_rng(37)
        h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a = dde_build(h, clip_threshold=0.1)
        b = dde_build(h, clip_threshold=0.1, gram=h.conj().T @ h)
        assert_allclose(a.r_bar, b.r_bar, atol=0)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            dde_build(np.eye(4), clip_threshold=1.5)
        with pytest.raises(ValueError):
            dde_build(np.eye(4), clip_threshold=-0.1)


class TestDdeEqualize:
    def test_identity_channel_is_passthrough(self):
        rng = np.random.default_rng(41)
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        cancel = dde_build(np.eye(8), clip_threshold=0.0)
        out = dde_equalize(y, np.zeros(8, dtype=complex), np.eye(8), cancel)
        assert_allclose(out, y, atol=1e-12)

    def test_genie_cancellation_identity(self):
        # true symbols in, clip 0: output reduces to the scaled transmit vector
        cir = generate_cir(THREE_TAPS, 1000.0, TOY, seed=43)
        h_eq = build_equivalent_channel(build_time_channel_matrix(cir, TOY), TOY)
        bits = random_bits(TOY.bits_per_frame, np.random.default_rng(43))
        x = qpsk_map(bits, TOY)
        y = h_eq @ x
        cancel = dde_build(h_eq, clip_threshold=0.0)

        scaled = dde_equalize(y, x, h_eq, cancel, scale_by_diag=False)
        assert np.max(np.abs(scaled - cancel.diag * x)) < 1e-10

        out = dde_equalize(y, x, h_eq, cancel)
        assert np.max(np.abs(out - x)) < 1e-10
        recovered, _ = qpsk_slice(out)
        assert_array_equal(recovered, bits)

    def test_input_symbols_are_sliced_before_reconstruction(self):
        # noisy stage-one estimates act only through their hard decisions
        cir = generate_cir(THREE_TAPS, 1000.0, TOY, seed=47)
        h_eq = build_equivalent_channel(build_time_channel_matrix(cir, TOY), TOY)
        bits = random_bits(TOY.bits_per_frame, np.random.default_rng(47))
        x = qpsk_map(bits, TOY)
        y = h_eq @ x
        cancel = dde_build(h_eq, clip_threshold=0.0)
        jitter = x * 1.7 + 0.05 * (1 + 1j)  # same quadrants, different values
        assert_allclose(
            dde_equalize(y, jitter, h_eq, cancel),
            dde_equalize(y, x, h_eq, cancel),
            atol=0,
        )

    def test_shape_mismatch_rejected(self):
        cancel = dde_build(np.eye(4), clip_threshold=0.0)
        with pytest.raises(ValueError):
            dde_equalize(np.zeros(5), np.zeros(5), np.eye(4), cancel)

    @given(scale=st.floats(min_value=1e-2, max_value=1e2))
    def test_decisions_invariant_under_diag_scaling(self, scale):
        rng = np.random.default_rng(53)
        estimate = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        base, _ = qpsk_slice(estimate)
        scaled, _ = qpsk_slice(scale * estimate)
        assert_array_equal(base, scaled)


class TestOfdmSingleTap:
    @pytest.mark.parametrize("mode", FDE_MODES)
    def test_static_noiseless_recovers_bits(self, mode):
        cir = generate_cir(THREE_TAPS, 0.0, TOY, seed=59)
        bits = random_bits(TOY.bits_per_frame, np.random.default_rng(59))
        x_tf = qpsk_map(bits, TOY).reshape(TOY.n_doppler_bins, TOY.n_subcarriers)
        y_tf = tf_stage(apply_time_channel(cir, ofdm_modulate(x_tf)))
        gains = fde_build(cfr_from_cir(cir), 0.0, mode=mode)
        hat, _ = qpsk_slice(gains * y_tf)
        assert_array_equal(hat, bits)

    def test_awgn_ber_matches_q_function(self):
        # unit channel, SNR 10 dB, one million bits
        config = FrameConfig(64, 16, cp_len=0)
        cir = fixed_cir(single_tap_profile(), config)
        cfr = cfr_from_cir(cir)
        snr_db = 10.0
        var = noise_variance(snr_db)
        rng = np.random.default_rng(61)
        errors = 0
        total = 0
        while total < 1_000_000:
            bits = random_bits(config.bits_per_frame, rng)
            shape = (config.n_doppler_bins, config.n_subcarriers)
            x = ofdm_modulate(qpsk_map(bits, config).reshape(shape))
            y = apply_time_channel(cir, x) + awgn(shape, var, rng)
            hat, _ = qpsk_slice(fde_build(cfr, var, mode="magnitude") * tf_stage(y))
            errors += int(np.count_nonzero(hat != bits))
            total += bits.size
        ber = errors / total
        snr_bit = 10.0 ** (snr_db / 10.0) / 2.0
        expected = 0.5 * erfc(np.sqrt(2.0 * snr_bit) / np.sqrt(2.0))
        assert abs(ber - expected) / expected < 0.10


class TestFullMmse:
    def test_identity_channel_returns_observation(self):
        rng = np.random.default_rng(67)
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert_allclose(full_mmse(np.eye(8), y, 0.0), y, atol=1e-12)

    def test_noiseless_inversion(self):
        rng = np.random.default_rng(71)
        h = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        h += 4.0 * np.eye(16)  # keep it well conditioned
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert_allclose(full_mmse(h, h @ x, 0.0), x, atol=1e-8)

    def test_estimate_shrinks_with_noise(self):
        rng = np.random.default_rng(73)
        h = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        y = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        norms = [np.linalg.norm(full_mmse(h, y, var)) for var in (0.0, 0.1, 1.0, 10.0, 1e3)]
        assert all(a >= b for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1e-2 * norms[0]

    def test_singular_system_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            full_mmse(np.zeros((4, 4)), np.ones(4), 0.0)

    def test_gram_shortcut_matches(self):
        rng = np.random.default_rng(79)
        h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        a = full_mmse(h, y, 0.3)
        b = full_mmse(h, y, 0.3, gram=h.conj().T @ h)
        assert_allclose(a, b, atol=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            full_mmse(np.eye(4), np.ones(5), 0.0)
        with pytest.raises(ValueError):
            full_mmse(np.eye(4), np.ones(4), -1.0)


