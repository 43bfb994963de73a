"""Acceptance gate: the eight release criteria for this package.

One test per criterion, in order, and beside criterion 4 a static and a
Doppler Rayleigh anchor that print no line.  Every tolerance and runtime
bound is pinned here.  Each test appends a PASS or FAIL line that
conftest.py prints in the terminal summary, so a plain pytest run shows
the verdict table.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.special import erfc, j0

import _report
from oracles import (
    REFERENCE_GRIDS,
    band_support,
    build_equivalent_channel,
    build_time_channel_matrix,
    cp_add,
    dde_build,
    dde_equalize,
    dsft_forward,
    extended_fft_matrix,
    otfs_modulate,
    reorder_indices,
)
from otfslink import (
    FrameConfig,
    TapProfile,
    apply_time_channel,
    cfr_from_cir,
    dsft_inverse,
    fde_build,
    generate_cir,
    harness,
    otfs_demodulate,
    otfs_modulate_fast,
    qpsk_map,
    qpsk_slice,
    single_tap_profile,
    tf_stage,
)
from otfslink.frame import random_bits

TOY = FrameConfig(
    n_subcarriers=8, n_doppler_bins=4, cp_len=2, sample_rate=64e3
)
THREE_TAPS = TapProfile.from_powers_db([0, 1, 2], [0.0, 0.0, 0.0])


@contextmanager
def criterion(number: int, title: str):
    """Register one summary line; FAIL on any raised exception."""
    info = {"detail": ""}
    try:
        yield info
    except BaseException:
        _report.record(False, number, title, info["detail"])
        raise
    _report.record(True, number, title, info["detail"])


def relative_frobenius(a: np.ndarray, b: np.ndarray) -> float:
    return float(
        np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b))
    )


def test_criterion_1_equivalent_channel_constructions_agree():
    # three independent constructions of the same delay-Doppler operator
    with criterion(1, "equivalent-channel constructions agree") as info:
        start = time.perf_counter()
        worst = 0.0
        for seed, doppler_hz in enumerate((0.0, 1000.0, 6000.0)):
            cir = generate_cir(THREE_TAPS, doppler_hz, TOY, seed=seed)
            h_tl = build_time_channel_matrix(cir, TOY)
            built = [
                build_equivalent_channel(h_tl, TOY, mode=mode)
                for mode in ("simplified", "full", "oracle")
            ]
            for i in range(3):
                for j in range(i + 1, 3):
                    worst = max(worst, relative_frobenius(built[i], built[j]))
        elapsed = time.perf_counter() - start
        info["detail"] = f"max pairwise rel err {worst:.2e}, {elapsed:.2f} s"
        assert worst < 1e-10
        assert elapsed < 5.0


def test_criterion_2_band_does_not_widen_with_doppler():
    # the delay-Doppler matrix stays inside the same circular band at any
    # Doppler; the band is n_doppler_bins * (L + 1) wide, L = max delay + 1
    with criterion(2, "Doppler does not widen the delay-Doppler band") as info:
        n = TOY.frame_size
        channel_len = THREE_TAPS.max_delay + 1
        nominal = TOY.n_doppler_bins * (channel_len + 1)
        assert nominal == 16
        offsets = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
        block = offsets // TOY.n_doppler_bins
        in_band = (block < channel_len) | (block == TOY.n_subcarriers - 1)
        off_diag = offsets != 0

        worst_out = 0.0
        weakest_spread = np.inf
        for seed, doppler_hz in enumerate((0.0, 1000.0, 3000.0, 6000.0)):
            cir = generate_cir(THREE_TAPS, doppler_hz, TOY, seed=10 + seed)
            h_eq = build_equivalent_channel(build_time_channel_matrix(cir, TOY), TOY)
            width, out_max = band_support(h_eq, TOY, channel_len)
            assert width <= nominal
            worst_out = max(worst_out, out_max)
            if doppler_hz > 0:
                spread = float(np.abs(h_eq[in_band & off_diag]).max())
                weakest_spread = min(weakest_spread, spread)
        info["detail"] = (
            f"out-of-band max {worst_out:.1e}, "
            f"in-band off-diagonal >= {weakest_spread:.2e} at fd>0"
        )
        assert worst_out < 1e-12
        assert weakest_spread > 1e-3


def test_criterion_3_static_channels_equalize_exactly():
    # fd = 0, noiseless: one-tap-per-bin equalization is exact, so a frame
    # through any static in-CP profile must come back bit perfect
    with criterion(3, "static channels equalize exactly") as info:
        frame = harness.desk_preset().frame
        rng = np.random.default_rng(1234)
        total_bits = 0
        total_errors = 0
        for _ in range(100):
            n_taps = int(rng.integers(1, frame.cp_len + 1))
            delays = np.sort(rng.choice(frame.cp_len, n_taps, replace=False))
            powers_db = rng.uniform(-10.0, 0.0, n_taps)
            profile = TapProfile.from_powers_db(delays.tolist(), powers_db.tolist())
            cir = generate_cir(profile, 0.0, frame, int(rng.integers(2**31)))

            bits = random_bits(frame.bits_per_frame, rng)
            # OTFS payload placement: symbol i at Doppler i % N, delay i // N
            symbols = qpsk_map(bits, frame)
            x_dd = symbols.reshape(frame.n_subcarriers, frame.n_doppler_bins).T
            y = apply_time_channel(cir, otfs_modulate_fast(x_dd))
            coeffs = fde_build(cfr_from_cir(cir), 0.0, mode="mmse")
            grid = dsft_inverse(coeffs * tf_stage(y))
            hat, _ = qpsk_slice(grid.T)
            total_errors += int(np.count_nonzero(hat != bits))
            total_bits += bits.size
        info["detail"] = f"{total_errors} errors in {total_bits} bits, 100 frames"
        assert total_errors == 0


def test_criterion_4_awgn_reference_matches_theory():
    # non-fading unit channel: the whole chain reduces to QPSK over AWGN
    with criterion(4, "AWGN reference matches theory") as info:
        start = time.perf_counter()
        config = harness.ExperimentConfig(
            frame=harness.desk_preset().frame,
            profile=single_tap_profile(),
            snr_db_list=(8.0,),
            doppler_hz_list=(0.0,),
            n_trials=250,
            base_seed=77,
            equalizers=("otfs_fde",),
            fading=False,
        )
        (record,) = harness.run_sweep(config)
        snr_bit = 10.0 ** (8.0 / 10.0) / 2.0
        expected = 0.5 * erfc(np.sqrt(2.0 * snr_bit) / np.sqrt(2.0))
        rel = abs(record.ber - expected) / expected
        elapsed = time.perf_counter() - start
        info["detail"] = (
            f"ber {record.ber:.5f} vs Q {expected:.5f} "
            f"(rel {rel:.3f}, {record.bits} bits, {elapsed:.1f} s)"
        )
        assert record.bits >= 500_000
        assert rel < 0.10
        assert elapsed < 60.0


def test_static_rayleigh_single_tap_ofdm_matches_theory():
    # beside criterion 4, not part of it: at 0 Hz each subcarrier of the
    # unit-power desk profile sees one complex Gaussian gain, so single-tap
    # OFDM with QPSK follows the flat Rayleigh curve
    # P_b = (1 - sqrt(g / (1 + g))) / 2, g = SNR / 2 per bit.  Tolerance,
    # fixed before running: 4 frame-level standard errors (errors within a
    # frame share one channel draw), plus 3% of P_b for each tap being a
    # sum of 32 sinusoids rather than exactly Gaussian.
    config = harness.ExperimentConfig(
        frame=harness.desk_preset().frame,
        profile=harness.desk_preset().profile,
        snr_db_list=(0.0, 10.0, 20.0),
        doppler_hz_list=(0.0,),
        n_trials=400,
        equalizers=("ofdm_single_tap",),
    )
    for si, snr_db in enumerate(config.snr_db_list):
        ber = np.array([
            harness.run_trial(
                config, snr_db, 0.0, harness.sweep_trial_index(config, si, 0, t)
            )["ofdm_single_tap"]
            for t in range(config.n_trials)
        ]) / config.frame.bits_per_frame
        g = 10.0 ** (snr_db / 10.0) / 2.0
        expected = 0.5 * (1.0 - np.sqrt(g / (1.0 + g)))
        stderr = ber.std(ddof=1) / np.sqrt(ber.size)
        assert abs(ber.mean() - expected) <= 4.0 * stderr + 0.03 * expected, (
            snr_db, ber.mean(), expected, stderr
        )


@pytest.mark.parametrize(
    "preset, doppler_hz, n_trials",
    [("desk", 1280.0, 300), ("table2", 6000.0, 60)],
    ids=["desk", "table2"],
)
def test_doppler_rayleigh_single_tap_ofdm_matches_ici_theory(preset, doppler_hz, n_trials):
    # beside criterion 4, not part of it: under Doppler the single-tap gain
    # is the symbol average of each tap, a complex Gaussian of power
    # 1 - P_ICI, and the time variation inside the post-CP symbol leaks
    # P_ICI into the other subcarriers.  Taking that leakage as Gaussian
    # noise gives flat Rayleigh QPSK at g = (1 - P_ICI) / (P_ICI + N0) / 2,
    # where P_ICI = 1 - mean of J0(2 pi f_d (m - n) / f_s) over the M x M
    # sample pairs of one symbol (Li and Cimini, IEEE Trans. Commun. 2001).
    # Tolerance, fixed before running: 4 frame-level standard errors, plus
    # 3% of P_b for the 32-sinusoid draw (as in the static anchor) and 2%
    # for treating the ICI as Gaussian noise independent of the gain.
    # P_ICI is 0.0105 on desk at 1280 Hz and 0.0096 on table2 at 6000 Hz.
    base = harness.PRESETS[preset]()
    config = harness.ExperimentConfig(
        frame=base.frame,
        profile=base.profile,
        snr_db_list=(10.0, 20.0, 30.0),
        doppler_hz_list=(doppler_hz,),
        n_trials=n_trials,
        equalizers=("ofdm_single_tap",),
    )
    m = config.frame.n_subcarriers
    lag = np.arange(1, m)
    rho = j0(2.0 * np.pi * doppler_hz * lag / config.frame.sample_rate)
    p_ici = 1.0 - (1.0 + 2.0 * np.sum((1.0 - lag / m) * rho)) / m
    for si, snr_db in enumerate(config.snr_db_list):
        ber = np.array([
            harness.run_trial(
                config, snr_db, doppler_hz, harness.sweep_trial_index(config, si, 0, t)
            )["ofdm_single_tap"]
            for t in range(config.n_trials)
        ]) / config.frame.bits_per_frame
        n0 = 10.0 ** (-snr_db / 10.0)
        g = (1.0 - p_ici) / (p_ici + n0) / 2.0
        expected = 0.5 * (1.0 - np.sqrt(g / (1.0 + g)))
        stderr = ber.std(ddof=1) / np.sqrt(ber.size)
        assert abs(ber.mean() - expected) <= 4.0 * stderr + 0.05 * expected, (
            preset, snr_db, ber.mean(), expected, stderr
        )


def test_criterion_5_genie_cancellation_identity():
    # cancellation built with clip 0 and fed the true symbols removes every
    # cross term, leaving exactly the Gram diagonal times the symbols
    with criterion(5, "genie cancellation identity") as info:
        frame = harness.desk_preset().frame
        cir = generate_cir(harness.desk_preset().profile, 1280.0, frame, seed=5)
        h_eq = build_equivalent_channel(build_time_channel_matrix(cir, frame), frame)
        bits = random_bits(frame.bits_per_frame, np.random.default_rng(5))
        x = qpsk_map(bits, frame)
        y = h_eq @ x

        cancel = dde_build(h_eq, clip_threshold=0.0)
        raw = dde_equalize(y, x, h_eq, cancel, scale_by_diag=False)
        deviation = float(np.max(np.abs(raw - cancel.diag * x)))

        out = dde_equalize(y, x, h_eq, cancel)
        hat, _ = qpsk_slice(out)
        errors = int(np.count_nonzero(hat != bits))
        info["detail"] = f"max deviation {deviation:.1e}, {errors} symbol errors"
        assert deviation < 1e-10
        assert errors == 0


def test_criterion_6_equalizer_ordering_at_high_doppler():
    # fast fading, one frame per trial, identical observations per
    # equalizer: full MMSE <= two-stage < FDE alone < per-bin OFDM,
    # the strict inequalities at 95% paired-bootstrap confidence
    with criterion(6, "equalizer ordering at high Doppler") as info:
        start = time.perf_counter()
        desk = harness.desk_preset()
        names = ("ofdm_single_tap", "otfs_fde", "otfs_fde_dde", "otfs_full_mmse")
        # f_d * (n_subcarriers / sample_rate) = 0.08
        doppler_hz = 0.08 / (desk.frame.n_subcarriers / desk.frame.sample_rate)
        assert doppler_hz == 1280.0
        config = harness.ExperimentConfig(
            frame=desk.frame,
            profile=desk.profile,
            snr_db_list=(20.0,),
            doppler_hz_list=(doppler_hz,),
            n_trials=500,
            base_seed=4242,
            equalizers=names,
            fde_mode="mmse",
            clip_threshold=0.10,
        )
        counts = {name: np.zeros(config.n_trials) for name in names}
        for t in range(config.n_trials):
            result = harness.run_trial(config, 20.0, doppler_hz, t)
            for name in names:
                counts[name][t] = result[name]

        def confidence_less(a: np.ndarray, b: np.ndarray) -> float:
            diffs = a - b
            rng = np.random.default_rng(2718)
            idx = rng.integers(0, diffs.size, size=(3000, diffs.size))
            return float(np.mean(diffs[idx].mean(axis=1) < 0.0))

        mean = {name: counts[name].mean() for name in names}
        conf_dde = confidence_less(counts["otfs_fde_dde"], counts["otfs_fde"])
        conf_fde = confidence_less(counts["otfs_fde"], counts["ofdm_single_tap"])
        elapsed = time.perf_counter() - start
        info["detail"] = (
            f"errors/frame: mmse {mean['otfs_full_mmse']:.3f} "
            f"<= dde {mean['otfs_fde_dde']:.3f} < fde {mean['otfs_fde']:.3f} "
            f"< ofdm {mean['ofdm_single_tap']:.2f}; "
            f"conf {conf_dde:.3f}/{conf_fde:.3f}, {elapsed:.0f} s"
        )
        assert mean["otfs_full_mmse"] <= mean["otfs_fde_dde"]
        assert mean["otfs_fde_dde"] < mean["otfs_fde"]
        assert mean["otfs_fde"] < mean["ofdm_single_tap"]
        assert conf_dde >= 0.95
        assert conf_fde >= 0.95
        assert elapsed < 600.0


def test_criterion_7_byte_identical_csv_at_any_parallelism(tmp_path):
    with criterion(7, "byte-identical CSV at any parallelism") as info:
        config = harness.ExperimentConfig(
            frame=TOY,
            profile=THREE_TAPS,
            snr_db_list=(0.0, 10.0),
            doppler_hz_list=(0.0, 1000.0),
            n_trials=6,
            base_seed=2024,
        )
        blobs = []
        for run, workers in enumerate((1, 1, 2, 3)):
            path = tmp_path / f"run{run}_w{workers}.csv"
            harness.emit_csv(harness.run_sweep(config, workers=workers), str(path))
            blobs.append(path.read_bytes())
        info["detail"] = "repeat run and workers 1/2/3 all byte-identical"
        assert all(blob == blobs[0] for blob in blobs[1:])


def test_criterion_8_transform_suite():
    with criterion(8, "transform suite exact to 1e-12") as info:
        start = time.perf_counter()
        tol = 1e-12
        for n_sub, n_dop in REFERENCE_GRIDS:
            config = FrameConfig(n_sub, n_dop, cp_len=3)
            n = config.frame_size

            f_ext = extended_fft_matrix(config)
            assert np.abs(f_ext @ f_ext.conj().T - np.eye(n)).max() < tol

            perm = reorder_indices(config).perm
            assert sorted(perm) == list(range(n))
            expected = [i // n_sub + (i % n_sub) * n_dop for i in range(n)]
            assert list(perm) == expected

            for seed in range(5):
                rng = np.random.default_rng((n, seed))
                grid = (
                    rng.standard_normal((n_dop, n_sub))
                    + 1j * rng.standard_normal((n_dop, n_sub))
                )
                tf = dsft_forward(grid)
                assert abs(np.linalg.norm(tf) - np.linalg.norm(grid)) < tol

                fast = otfs_modulate_fast(grid)
                full = otfs_modulate(grid, config)
                assert np.abs(cp_add(fast, config) - full).max() < tol
                assert abs(np.linalg.norm(fast) - np.linalg.norm(grid)) < tol

                back = otfs_demodulate(fast)
                assert np.abs(back - grid).max() < tol
        elapsed = time.perf_counter() - start
        info["detail"] = f"{len(REFERENCE_GRIDS)} grids, {elapsed:.2f} s"
        assert elapsed < 10.0
