"""Frame geometry and QPSK mapping."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from otfslink import (
    ExperimentConfig,
    FrameConfig,
    TapProfile,
    cir_from_gains,
    fixed_cir,
    generate_cir,
    qpsk_map,
    qpsk_slice,
)
from otfslink.frame import random_bits

ROOT2 = np.sqrt(2.0)


class TestFrameConfig:
    def test_basic_properties(self):
        config = FrameConfig(64, 16, cp_len=8, sample_rate=1.024e6)
        assert config.frame_size == 1024
        assert config.frame_size_with_cp == 16 * 72
        assert config.bits_per_frame == 2048
        assert config.frame_duration == pytest.approx(16 * 72 / 1.024e6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_subcarriers=0, n_doppler_bins=4),
            dict(n_subcarriers=8, n_doppler_bins=0),
            dict(n_subcarriers=8, n_doppler_bins=4, cp_len=-1),
            # integers beyond float range
            dict(n_subcarriers=8, n_doppler_bins=4, sample_rate=10**400),
            dict(n_subcarriers=8, n_doppler_bins=4, sample_rate=0.0),
            dict(n_subcarriers=8, n_doppler_bins=4, sample_rate=float("nan")),
            dict(n_subcarriers=8, n_doppler_bins=4, sample_rate=float("inf")),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            FrameConfig(**kwargs)

    def test_fields_after_the_grid_are_keyword_only(self):
        with pytest.raises(TypeError):
            FrameConfig(8, 4, 3)

    @pytest.mark.parametrize(
        "frame, delays",
        [
            (FrameConfig(8, 4, cp_len=1), [0, 2]),
            # a delay of n_subcarriers would wrap onto delay 0
            (FrameConfig(8, 4, cp_len=9), [0, 8]),
        ],
        ids=["beyond-cp_len", "at-n_subcarriers"],
    )
    @pytest.mark.parametrize(
        "entry", ["ExperimentConfig", "generate_cir", "fixed_cir", "cir_from_gains"]
    )
    def test_profile_beyond_the_cyclic_prefix_is_rejected(self, frame, delays, entry):
        profile = TapProfile.from_powers_db(delays, [0.0, 0.0])
        calls = {
            "ExperimentConfig": lambda: ExperimentConfig(frame, profile),
            "generate_cir": lambda: generate_cir(profile, 0.0, frame, 1),
            "fixed_cir": lambda: fixed_cir(profile, frame),
            "cir_from_gains": lambda: cir_from_gains(np.ones(max(delays) + 1), frame),
        }
        with pytest.raises(ValueError, match="cyclic prefix|entries"):
            calls[entry]()
        # one delay less fits
        fitting = TapProfile.from_powers_db([0, max(delays) - 1], [0.0, 0.0])
        fixed_cir(fitting, frame)
        cir_from_gains(np.ones(max(delays)), frame)

    def test_cp_may_exceed_channel_memory(self):
        FrameConfig(8, 4, cp_len=7)


class TestQpskMap:
    def test_constellation_points(self):
        config = FrameConfig(2, 1)
        symbols = qpsk_map(np.array([0, 0, 1, 1]), config)
        assert_allclose(symbols, [(1 + 1j) / ROOT2, (-1 - 1j) / ROOT2])

    def test_all_four_points_unit_energy(self):
        config = FrameConfig(4, 1)
        bits = np.array([0, 0, 0, 1, 1, 0, 1, 1])
        symbols = qpsk_map(bits, config)
        assert_allclose(np.abs(symbols), 1.0, atol=1e-12)
        assert np.mean(np.abs(symbols) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_fill_follows_vectorization_order(self):
        config = FrameConfig(2, 2)
        bits = np.array([0, 0, 0, 1, 1, 0, 1, 1])
        symbols = qpsk_map(bits, config)
        expected = np.array(
            [1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], dtype=complex
        ) / ROOT2
        assert_allclose(symbols, expected)

    def test_rejects_bad_bits(self):
        config = FrameConfig(2, 1)
        with pytest.raises(ValueError):
            qpsk_map(np.array([0, 1, 2, 0]), config)
        with pytest.raises(ValueError):
            qpsk_map(np.array([0, 1]), config)


class TestQpskSlice:
    def test_quadrant_decisions(self):
        bits, decided = qpsk_slice(np.array([(0.9 + 0.8j) / ROOT2]))
        assert_array_equal(bits, [0, 0])
        assert_allclose(decided, [(1 + 1j) / ROOT2])

        bits, decided = qpsk_slice(np.array([-0.1 - 0.1j]))
        assert_array_equal(bits, [1, 1])
        assert_allclose(decided, [(-1 - 1j) / ROOT2])

    def test_positive_scaling_invariant(self):
        point = (1 + 1j) / ROOT2
        bits, decided = qpsk_slice(np.array([3.0 * point]))
        assert_array_equal(bits, [0, 0])
        assert_allclose(decided, [point])

    def test_boundary_decided_as_positive(self):
        bits, decided = qpsk_slice(np.array([0.0 + 0.0j, -1.0 + 0.0j]))
        assert_array_equal(bits, [0, 0, 1, 0])
        assert_allclose(decided, [(1 + 1j) / ROOT2, (-1 + 1j) / ROOT2])

    def test_exact_constellation_passes_through(self):
        config = FrameConfig(4, 2)
        rng = np.random.default_rng(3)
        bits = random_bits(config.bits_per_frame, rng)
        symbols = qpsk_map(bits, config)
        sliced_bits, decided = qpsk_slice(symbols)
        assert_array_equal(sliced_bits, bits)
        assert_allclose(decided, symbols, atol=1e-15)

    def test_exhaustive_round_trip_short_frames(self):
        # every bit pattern for frames of 1..4 symbols
        for n_symbols in range(1, 5):
            config = FrameConfig(n_symbols, 1)
            for pattern in itertools.product((0, 1), repeat=2 * n_symbols):
                bits = np.array(pattern)
                recovered, _ = qpsk_slice(qpsk_map(bits, config))
                assert_array_equal(recovered, bits)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_round_trip_property(self, seed):
        config = FrameConfig(8, 4)
        rng = np.random.default_rng(seed)
        bits = random_bits(config.bits_per_frame, rng)
        recovered, _ = qpsk_slice(qpsk_map(bits, config))
        assert_array_equal(recovered, bits)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        scale=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_decisions_invariant_under_positive_scaling(self, seed, scale):
        rng = np.random.default_rng(seed)
        noisy = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        base, _ = qpsk_slice(noisy)
        scaled, _ = qpsk_slice(scale * noisy)
        assert_array_equal(base, scaled)


def test_random_bits_deterministic_and_binary():
    a = random_bits(1000, np.random.default_rng(5))
    b = random_bits(1000, np.random.default_rng(5))
    assert_array_equal(a, b)
    assert set(np.unique(a)) <= {0, 1}
    assert a.dtype == np.int64
