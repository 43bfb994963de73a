"""Transform-layer checks: dense operators vs fast paths, unitarity, CP."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from oracles import (
    REFERENCE_GRIDS,
    composed_operators,
    dft_matrix,
    dsft_forward,
    extended_fft_apply,
    extended_fft_matrix,
    otfs_demodulate_full,
    otfs_modulate,
    reorder_indices,
)
from otfslink import (
    DelayDopplerGrid,
    FrameConfig,
    TimeFrequencyGrid,
    TimeSignal,
    cp_add,
    cp_remove,
    dsft_inverse,
    ofdm_modulate,
    otfs_demodulate,
    otfs_modulate_fast,
    tf_stage,
)

ATOL = 1e-12


def random_grid(config: FrameConfig, seed: int) -> DelayDopplerGrid:
    rng = np.random.default_rng(seed)
    shape = (config.n_doppler_bins, config.n_subcarriers)
    return DelayDopplerGrid(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def reference_configs() -> list[FrameConfig]:
    return [
        FrameConfig(n_sub, n_dop, max_delay_taps=3, cp_len=3)
        for n_sub, n_dop in REFERENCE_GRIDS
    ]


class TestDftMatrix:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16])
    def test_unitary(self, n):
        f = dft_matrix(n)
        assert_allclose(f @ f.conj().T, np.eye(n), atol=ATOL)
        assert_allclose(f.conj().T @ f, np.eye(n), atol=ATOL)

    def test_entries(self):
        n = 4
        f = dft_matrix(n)
        for k in range(n):
            for l in range(n):
                expected = np.exp(-2j * np.pi * k * l / n) / np.sqrt(n)
                assert f[k, l] == pytest.approx(expected, abs=ATOL)

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            dft_matrix(0)


class TestReorder:
    def test_two_by_two(self):
        config = FrameConfig(2, 2)
        assert_array_equal(reorder_indices(config).perm, [0, 2, 1, 3])

    def test_index_formula(self):
        # permutation equals floor(i / n_sub) + (i mod n_sub) * n_dop
        config = FrameConfig(8, 4, max_delay_taps=3, cp_len=3)
        perm = reorder_indices(config).perm
        n_sub, n_dop = 8, 4
        for i in range(32):
            assert perm[i] == i // n_sub + (i % n_sub) * n_dop
        assert perm[1] == 4
        assert perm[9] == 5

    @pytest.mark.parametrize("config", reference_configs())
    def test_dense_is_permutation(self, config):
        xi = reorder_indices(config)
        dense = xi.dense()
        n = config.frame_size
        assert_array_equal(dense @ dense.T, np.eye(n))
        assert_array_equal(dense.sum(axis=0), np.ones(n))
        assert_array_equal(dense.sum(axis=1), np.ones(n))
        assert set(np.unique(dense)) <= {0.0, 1.0}

    def test_apply_matches_dense_and_inverts(self):
        config = FrameConfig(8, 4, max_delay_taps=3, cp_len=3)
        xi = reorder_indices(config)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        assert_allclose(xi.apply(x), xi.dense() @ x, atol=ATOL)
        assert_allclose(xi.apply_transpose(xi.apply(x)), x, atol=0)
        assert_allclose(xi.apply_transpose(x), xi.dense().T @ x, atol=ATOL)


class TestExtendedFft:
    @pytest.mark.parametrize("config", reference_configs())
    def test_round_trip(self, config):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(config.frame_size) * 1j + rng.standard_normal(
            config.frame_size
        )
        back = extended_fft_apply(
            extended_fft_apply(x, config), config, inverse=True
        )
        assert_allclose(back, x, atol=ATOL)

    @pytest.mark.parametrize("config", reference_configs())
    def test_dense_unitary(self, config):
        fbar = extended_fft_matrix(config)
        n = config.frame_size
        assert_allclose(fbar @ fbar.conj().T, np.eye(n), atol=ATOL)
        assert_allclose(fbar.conj().T @ fbar, np.eye(n), atol=ATOL)

    @pytest.mark.parametrize("config", reference_configs())
    def test_fast_path_matches_dense(self, config):
        fbar = extended_fft_matrix(config)
        rng = np.random.default_rng(17)
        x = rng.standard_normal(config.frame_size) * 1j + rng.standard_normal(
            config.frame_size
        )
        assert_allclose(extended_fft_apply(x, config), fbar @ x, atol=ATOL)
        assert_allclose(
            extended_fft_apply(x, config, inverse=True), fbar.conj().T @ x, atol=ATOL
        )

    def test_degenerate_single_symbol_is_plain_dft(self):
        config = FrameConfig(8, 1)
        rng = np.random.default_rng(19)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert_allclose(extended_fft_apply(x, config), dft_matrix(8) @ x, atol=ATOL)

    def test_rejects_wrong_length(self):
        config = FrameConfig(4, 2)
        with pytest.raises(ValueError):
            extended_fft_apply(np.zeros(7, dtype=complex), config)


class TestDsft:
    def test_scalar_passthrough(self):
        config = FrameConfig(1, 1)
        grid = DelayDopplerGrid(np.array([[2.0 + 1.0j]]))
        assert_allclose(dsft_forward(grid, config).data, grid.data, atol=0)

    def test_impulse_spreads_uniformly(self):
        config = FrameConfig(8, 4, max_delay_taps=3, cp_len=3)
        grid = DelayDopplerGrid.zeros(config)
        grid.data[0, 0] = 1.0
        out = dsft_forward(grid, config)
        assert_allclose(out.data, np.full((8, 4), 1.0 / np.sqrt(32.0)), atol=ATOL)

    def test_constant_grid_inverts_to_impulse(self):
        config = FrameConfig(8, 4, max_delay_taps=3, cp_len=3)
        tf = TimeFrequencyGrid(np.full((8, 4), 1.0 / np.sqrt(32.0), dtype=complex))
        dd = dsft_inverse(tf, config)
        expected = np.zeros((4, 8), dtype=complex)
        expected[0, 0] = 1.0
        assert_allclose(dd.data, expected, atol=ATOL)

    @pytest.mark.parametrize("config", reference_configs())
    def test_round_trip_and_energy(self, config):
        grid = random_grid(config, 23)
        tf = dsft_forward(grid, config)
        assert np.linalg.norm(tf.data) == pytest.approx(
            np.linalg.norm(grid.data), abs=ATOL
        )
        back = dsft_inverse(tf, config)
        assert_allclose(back.data, grid.data, atol=ATOL)

    def test_matches_explicit_double_transform(self):
        # columns of the DD grid see an inverse Doppler DFT, rows of the
        # result a forward delay DFT, modulo the transpose between layouts
        config = FrameConfig(8, 4, max_delay_taps=3, cp_len=3)
        grid = random_grid(config, 29)
        f_dop = dft_matrix(4)
        f_sub = dft_matrix(8)
        expected = f_sub @ (f_dop.conj().T @ grid.data).T
        assert_allclose(dsft_forward(grid, config).data, expected, atol=ATOL)


class TestCyclicPrefix:
    def test_block_example(self):
        config = FrameConfig(4, 1, max_delay_taps=3, cp_len=2)
        sig = TimeSignal(np.array([1.0, 2.0, 3.0, 4.0]))
        with_cp = cp_add(sig, config)
        assert with_cp.has_cp
        assert_allclose(with_cp.data, [3.0, 4.0, 1.0, 2.0, 3.0, 4.0])
        assert_allclose(cp_remove(with_cp, config).data, sig.data)

    def test_two_symbols(self):
        config = FrameConfig(4, 2, max_delay_taps=2, cp_len=2)
        sig = TimeSignal(np.arange(8, dtype=complex))
        with_cp = cp_add(sig, config)
        assert_allclose(
            with_cp.data, [2, 3, 0, 1, 2, 3, 6, 7, 4, 5, 6, 7]
        )

    def test_zero_length_passthrough(self):
        config = FrameConfig(4, 2, max_delay_taps=1, cp_len=0)
        sig = TimeSignal(np.arange(8, dtype=complex))
        assert_allclose(cp_add(sig, config).data, sig.data)
        assert_allclose(cp_remove(cp_add(sig, config), config).data, sig.data)

    @pytest.mark.parametrize("config", reference_configs())
    def test_round_trip_random(self, config):
        rng = np.random.default_rng(31)
        sig = TimeSignal(
            rng.standard_normal(config.frame_size)
            + 1j * rng.standard_normal(config.frame_size)
        )
        assert_allclose(cp_remove(cp_add(sig, config), config).data, sig.data, atol=0)

    def test_flag_mismatch_rejected(self):
        config = FrameConfig(4, 2, max_delay_taps=2, cp_len=2)
        with pytest.raises(ValueError):
            cp_add(TimeSignal(np.zeros(12), has_cp=True), config)
        with pytest.raises(ValueError):
            cp_remove(TimeSignal(np.zeros(8)), config)


class TestModulator:
    @pytest.mark.parametrize("config", reference_configs())
    def test_fast_equals_full_100_frames(self, config):
        for seed in range(100):
            grid = random_grid(config, seed)
            full = otfs_modulate(grid, config)
            fast = otfs_modulate_fast(grid, config)
            assert full.has_cp and fast.has_cp
            assert np.max(np.abs(full.data - fast.data)) < ATOL

    @pytest.mark.parametrize("config", reference_configs())
    def test_energy_preserved_pre_cp(self, config):
        grid = random_grid(config, 37)
        tx = cp_remove(otfs_modulate(grid, config), config)
        assert np.linalg.norm(tx.data) == pytest.approx(
            np.linalg.norm(grid.data), abs=ATOL
        )

    def test_single_symbol_fast_form_is_reordering(self):
        # one Doppler bin: the Doppler IDFT is scalar identity
        config = FrameConfig(8, 1)
        grid = random_grid(config, 41)
        tx = otfs_modulate_fast(grid, config)
        expected = reorder_indices(config).apply(grid.to_vector())
        assert_allclose(tx.data, expected, atol=ATOL)

    def test_scalar_frame_passthrough(self):
        config = FrameConfig(1, 1)
        grid = DelayDopplerGrid(np.array([[0.5 - 0.5j]]))
        assert_allclose(otfs_modulate(grid, config).data, [0.5 - 0.5j], atol=ATOL)


class TestDemodulator:
    @pytest.mark.parametrize("config", reference_configs())
    def test_identity_channel_round_trip(self, config):
        grid = random_grid(config, 43)
        rx = otfs_demodulate(otfs_modulate(grid, config), config)
        assert_allclose(rx.data, grid.data, atol=ATOL)

    @pytest.mark.parametrize("config", reference_configs())
    def test_fast_equals_full(self, config):
        rng = np.random.default_rng(47)
        y = TimeSignal(
            rng.standard_normal(config.frame_size)
            + 1j * rng.standard_normal(config.frame_size)
        )
        fast = otfs_demodulate(y, config)
        full = otfs_demodulate_full(y, config)
        assert_allclose(fast.data, full.data, atol=ATOL)

    def test_accepts_cp_signal(self):
        config = FrameConfig(8, 4, max_delay_taps=3, cp_len=3)
        grid = random_grid(config, 53)
        tx = otfs_modulate(grid, config)
        via_cp = otfs_demodulate(tx, config)
        via_stripped = otfs_demodulate(cp_remove(tx, config), config)
        assert_allclose(via_cp.data, via_stripped.data, atol=0)
        assert_allclose(via_cp.data, grid.data, atol=ATOL)

    def test_impulse_survives_round_trip(self):
        config = FrameConfig(8, 4, max_delay_taps=3, cp_len=3)
        grid = DelayDopplerGrid.zeros(config)
        grid.data[2, 5] = 1.0
        rx = otfs_demodulate(otfs_modulate(grid, config), config)
        assert_allclose(rx.data, grid.data, atol=ATOL)


class TestTfStage:
    def test_identity_channel_equals_dsft(self):
        config = FrameConfig(8, 4, max_delay_taps=3, cp_len=3)
        grid = random_grid(config, 59)
        tf = tf_stage(otfs_modulate(grid, config), config)
        assert_allclose(tf.data, dsft_forward(grid, config).data, atol=ATOL)

    def test_composition_equals_demodulate(self):
        config = FrameConfig(8, 4, max_delay_taps=3, cp_len=3)
        rng = np.random.default_rng(61)
        y = TimeSignal(
            rng.standard_normal(32) + 1j * rng.standard_normal(32)
        )
        composed = dsft_inverse(tf_stage(y, config), config)
        assert_allclose(composed.data, otfs_demodulate(y, config).data, atol=ATOL)

    def test_energy_preserved(self):
        config = FrameConfig(8, 4, max_delay_taps=3, cp_len=3)
        rng = np.random.default_rng(67)
        y = TimeSignal(rng.standard_normal(32) + 1j * rng.standard_normal(32))
        assert np.linalg.norm(tf_stage(y, config).data) == pytest.approx(
            np.linalg.norm(y.data), abs=ATOL
        )


class TestOfdm:
    def test_per_symbol_idft(self):
        config = FrameConfig(8, 4, max_delay_taps=3, cp_len=3)
        rng = np.random.default_rng(71)
        tf = TimeFrequencyGrid(
            rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        )
        tx = ofdm_modulate(tf, config)
        assert tx.has_cp
        stripped = cp_remove(tx, config).data.reshape(4, 8)
        for n in range(4):
            assert_allclose(
                stripped[n], dft_matrix(8).conj().T @ tf.data[:, n], atol=ATOL
            )

    def test_round_trip_through_tf_stage(self):
        config = FrameConfig(8, 4, max_delay_taps=3, cp_len=3)
        rng = np.random.default_rng(73)
        tf = TimeFrequencyGrid(
            rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        )
        rx = tf_stage(ofdm_modulate(tf, config), config)
        assert_allclose(rx.data, tf.data, atol=ATOL)


class TestComposedOperators:
    @pytest.mark.parametrize("config", reference_configs())
    def test_stage_products_reduce(self, config):
        ops = composed_operators(config)
        xi = reorder_indices(config).dense()
        f_dop = dft_matrix(config.n_doppler_bins)
        eye = np.eye(config.n_subcarriers)
        receive_expected = np.kron(eye, f_dop) @ xi.T
        transmit_expected = xi @ np.kron(eye, f_dop.conj().T)
        assert np.linalg.norm(ops.receive - receive_expected) < 1e-10
        assert np.linalg.norm(ops.transmit - transmit_expected) < 1e-10

    @pytest.mark.parametrize("config", reference_configs())
    def test_receive_inverts_transmit(self, config):
        ops = composed_operators(config)
        n = config.frame_size
        assert_allclose(ops.receive @ ops.transmit, np.eye(n), atol=1e-10)

    def test_transmit_matches_fast_modulator(self):
        config = FrameConfig(8, 4, max_delay_taps=3, cp_len=3)
        grid = random_grid(config, 79)
        dense = composed_operators(config).transmit @ grid.to_vector()
        fast = cp_remove(otfs_modulate_fast(grid, config), config).data
        assert_allclose(dense, fast, atol=ATOL)


@settings(deadline=None, max_examples=25)
@given(
    pair=st.sampled_from(REFERENCE_GRIDS),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_chain_round_trip_property(pair, seed):
    n_sub, n_dop = pair
    config = FrameConfig(n_sub, n_dop, max_delay_taps=2, cp_len=2)
    grid = random_grid(config, seed)
    rx = otfs_demodulate(otfs_modulate_fast(grid, config), config)
    assert np.max(np.abs(rx.data - grid.data)) < ATOL
