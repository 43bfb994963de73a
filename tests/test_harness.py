"""Experiment harness: config handling, trial loop, sweeps, CSV, CLI."""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import Future
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import build_equivalent_channel, build_time_channel_matrix
import otfslink
from otfslink import FrameConfig, TapProfile, fixed_cir, generate_cir, single_tap_profile
from otfslink import harness
from otfslink.cli import main
from otfslink.frame import qpsk_slice

TOY_FRAME = FrameConfig(
    n_subcarriers=8, n_doppler_bins=4, cp_len=2, sample_rate=64e3
)
THREE_TAPS = TapProfile.from_powers_db([0, 1, 2], [0.0, 0.0, 0.0])


def on_glibc_linux() -> bool:
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return False
    return sys.platform.startswith("linux") and libc.startswith("glibc")


def toy_config(**overrides) -> harness.ExperimentConfig:
    base = dict(
        frame=TOY_FRAME,
        profile=THREE_TAPS,
        snr_db_list=(10.0,),
        doppler_hz_list=(0.0,),
        n_trials=4,
        base_seed=99,
    )
    base.update(overrides)
    return harness.ExperimentConfig(**base)


class TestExperimentConfig:
    def test_defaults_are_valid(self):
        config = toy_config()
        assert config.equalizers == harness.EQUALIZER_NAMES
        assert config.fde_mode == "magnitude"
        assert config.fading

    @pytest.mark.parametrize(
        "overrides",
        [
            {"snr_db_list": ()},
            {"doppler_hz_list": ()},
            {"doppler_hz_list": (-1.0,)},
            {"n_trials": 0},
            {"equalizers": ()},
            {"equalizers": ("otfs_fde", "bogus")},
            {"equalizers": ("otfs_fde", "otfs_fde")},
            {"fde_mode": "zf"},
            {"clip_threshold": 1.5},
            {"clip_threshold": -0.1},
            {"fading": False, "doppler_hz_list": (0.0, 500.0)},
            {"profile": TapProfile.from_powers_db([0, 5], [0.0, 0.0])},
            {"doppler_hz_list": (0.0, float("nan"))},
            {"doppler_hz_list": (float("inf"),)},
            {"snr_db_list": (10.0, float("nan"))},
            {"snr_db_list": (float("-inf"), 0.0)},
        ],
    )
    def test_rejects_invalid(self, overrides):
        with pytest.raises(ValueError):
            toy_config(**overrides)


# (config, field, value) with a value of the wrong type for the field
WRONG_FIELD_TYPES = [
    (TOY_FRAME, "n_subcarriers", 8.0),
    (TOY_FRAME, "sample_rate", True),
    (THREE_TAPS, "delays", (0, True, 2)),
    (toy_config(), "n_trials", 2.5),
    (toy_config(), "n_trials", True),
    (toy_config(), "base_seed", 7.0),
    (toy_config(), "fading", 1),
    (toy_config(), "clip_threshold", True),
    (toy_config(), "snr_db_list", [0.0]),
]


class TestFieldTypes:
    """Each config class checks its annotated field types at construction,
    whichever way it is built."""

    @pytest.mark.parametrize("entry", ["constructor", "replace"])
    @pytest.mark.parametrize(
        "config, field, value",
        WRONG_FIELD_TYPES,
        ids=[f"{field}={value!r}" for _, field, value in WRONG_FIELD_TYPES],
    )
    def test_wrong_type_fails_at_construction(self, entry, config, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            if entry == "constructor":
                values = {f.name: getattr(config, f.name) for f in fields(config)}
                type(config)(**{**values, field: value})
            else:
                replace(config, **{field: value})

    def test_positional_frame_counts_must_be_integers(self):
        with pytest.raises(ValueError, match="^n_subcarriers must be int"):
            FrameConfig(8.0, 4)

    @pytest.mark.parametrize(
        "overrides",
        [{"trials": 2.5}, {"trials": True}, {"seed": 7.0}, {"equalizers": ["otfs_fde"]}],
        ids=["trials=2.5", "trials=True", "seed=7.0", "equalizers-list"],
    )
    def test_with_overrides_checks_types(self, overrides):
        with pytest.raises(ValueError, match=" must be "):
            harness.with_overrides(harness.toy_preset(), **overrides)

    @pytest.mark.parametrize(
        "delays", [[0, 1.6], [0, True], [1, True], [1, 1.0]], ids=str
    )
    def test_profile_delays_must_be_integers(self, delays):
        with pytest.raises(ValueError, match="^delays must be tuple"):
            TapProfile.from_powers_db(delays, [0.0, 0.0])

    def test_integers_beyond_float_range_are_no_floats(self):
        with pytest.raises(ValueError, match="^snr_db_list must be tuple"):
            toy_config(snr_db_list=(0.0, 10**400))
        with pytest.raises(ValueError, match="^delays_us must be tuple"):
            TapProfile.from_microseconds([10**400], [0.0], 64e3)
        # a large integer within float range is still a float, unconverted
        assert toy_config(snr_db_list=(2**1000,)).snr_db_list == (2**1000,)

    def test_numpy_scalars_are_accepted(self):
        config = toy_config(
            n_trials=np.int64(3), snr_db_list=(np.float64(5.0), np.float64(10.0))
        )
        assert config.n_trials == 3
        assert config.snr_db_list == (5.0, 10.0)
        assert harness.with_overrides(config, trials=np.int64(2)).n_trials == 2


class TestSweepTrialIndex:
    def test_indices_are_distinct_and_ordered(self):
        config = toy_config(
            snr_db_list=(0.0, 10.0, 20.0),
            doppler_hz_list=(0.0, 500.0, 1000.0, 2000.0),
            n_trials=10,
        )
        seen = [
            harness.sweep_trial_index(config, si, di, t)
            for si in range(3)
            for di in range(4)
            for t in range(10)
        ]
        assert seen == list(range(120))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestRunTrial:
    def test_deterministic(self):
        config = toy_config(doppler_hz_list=(0.0, 1000.0))
        a = harness.run_trial(config, 10.0, 1000.0, trial_index=5)
        b = harness.run_trial(config, 10.0, 1000.0, trial_index=5)
        assert a == b
        assert set(a) == set(harness.EQUALIZER_NAMES)

    def test_mmse_first_stage_is_full_lmmse_at_zero_doppler(self):
        # a static channel is diagonal over the delay-Doppler grid's
        # transform, so the per-bin MMSE coefficients are the full linear
        # MMSE solution and both make the same decisions on every frame
        config = replace(
            harness.desk_preset(),
            snr_db_list=(0.0, 10.0, 20.0),
            doppler_hz_list=(0.0,),
            n_trials=16,
            equalizers=("otfs_fde", "otfs_full_mmse"),
            fde_mode="mmse",
        )
        total = 0
        for si, snr_db in enumerate(config.snr_db_list):
            for t in range(config.n_trials):
                index = harness.sweep_trial_index(config, si, 0, t)
                counts = harness.run_trial(config, snr_db, 0.0, index)
                assert counts["otfs_fde"] == counts["otfs_full_mmse"], (snr_db, t)
                total += counts["otfs_fde"]
        assert total > 0

    def test_counts_do_not_depend_on_enabled_set(self):
        # the random stream layout is fixed, so results are pairable even
        # when a single equalizer runs alone
        config = toy_config(doppler_hz_list=(1000.0,), snr_db_list=(5.0,))
        together = harness.run_trial(config, 5.0, 1000.0, trial_index=2)
        for name in harness.EQUALIZER_NAMES:
            alone = harness.run_trial(
                replace(config, equalizers=(name,)), 5.0, 1000.0, trial_index=2
            )
            assert alone == {name: together[name]}

    def test_noiseless_static_channel_is_error_free(self):
        config = toy_config(snr_db_list=(float("inf"),), fde_mode="mmse")
        for trial in range(6):
            counts = harness.run_trial(config, float("inf"), 0.0, trial)
            assert counts == {name: 0 for name in harness.EQUALIZER_NAMES}

    def test_payload_placement_on_both_links(self, monkeypatch):
        # payload symbol i enters the OTFS grid at Doppler row i % N, delay
        # column i // N, and the OFDM grid at symbol row i // M, subcarrier
        # column i % M; error-free counts show both links read it back in
        # that order
        captured = {}

        def capture(name, keep_result):
            func = getattr(harness, name)

            def wrapped(*args):
                out = func(*args)
                captured[name] = out if keep_result else args[0]
                return out

            monkeypatch.setattr(harness, name, wrapped)

        capture("qpsk_map", True)
        capture("otfs_modulate_fast", False)
        capture("ofdm_modulate", False)
        config = toy_config(snr_db_list=(float("inf"),), fde_mode="mmse")
        counts = harness.run_trial(config, float("inf"), 0.0, 3)
        assert counts == {name: 0 for name in harness.EQUALIZER_NAMES}
        n, m = TOY_FRAME.n_doppler_bins, TOY_FRAME.n_subcarriers
        x_dd, x_tf = captured["otfs_modulate_fast"], captured["ofdm_modulate"]
        assert x_dd.shape == x_tf.shape == (n, m)
        for i, symbol in enumerate(captured["qpsk_map"]):
            assert x_dd[i % n, i // n] == symbol
            assert x_tf[i // m, i % m] == symbol

    def test_error_counts_are_bounded_by_frame_bits(self):
        config = toy_config(doppler_hz_list=(1000.0,), snr_db_list=(0.0,))
        counts = harness.run_trial(config, 0.0, 1000.0, trial_index=0)
        assert all(0 <= c <= TOY_FRAME.bits_per_frame for c in counts.values())

    def test_table2_trials_match_pinned_error_counts(self):
        # seed 2024, trials 0-1, at 20 dB and 6000 Hz on the table2 preset
        # (512 x 16 frame, TU6 taps up to delay 200), all five receivers; the
        # otfs_fde and ofdm_single_tap values are the benchmark's table2_fast
        # reference frames
        config = replace(harness.table2_preset(), equalizers=harness.EQUALIZER_NAMES)
        assert config.base_seed == 2024
        trials = [harness.run_trial(config, 20.0, 6000.0, t) for t in range(2)]
        assert trials == [
            {
                "ofdm_full_mmse": 75,
                "ofdm_single_tap": 150,
                "otfs_fde": 438,
                "otfs_fde_dde": 187,
                "otfs_full_mmse": 0,
            },
            {
                "ofdm_full_mmse": 77,
                "ofdm_single_tap": 198,
                "otfs_fde": 479,
                "otfs_fde_dde": 173,
                "otfs_full_mmse": 0,
            },
        ]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("preset", ["desk", "table2"])
    def test_two_stage_path_builds_no_dense_blocks(self, monkeypatch, preset):
        # only the two full-MMSE references scatter taps into (M, M) blocks
        config = replace(
            harness.PRESETS[preset](),
            equalizers=("otfs_fde", "otfs_fde_dde", "ofdm_single_tap"),
        )
        snr_db, doppler_hz = 20.0, max(config.doppler_hz_list)
        expected = harness.run_trial(config, snr_db, doppler_hz, 0)

        def no_dense_blocks(cir):
            raise AssertionError("symbol_channel_blocks called on the two-stage path")

        monkeypatch.setattr(harness.chan, "symbol_channel_blocks", no_dense_blocks)
        assert harness.run_trial(config, snr_db, doppler_hz, 0) == expected

    def test_stage_one_is_sliced_once(self, monkeypatch):
        # stage one's decisions give its own count and feed the cancellation,
        # so a two-stage trial slices stage one and the cancelled estimate
        calls = []

        def counted(symbols):
            calls.append(symbols)
            return qpsk_slice(symbols)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("otfslink") and (
                getattr(module, "qpsk_slice", None) is qpsk_slice
            ):
                monkeypatch.setattr(module, "qpsk_slice", counted)
        config = toy_config(equalizers=("otfs_fde", "otfs_fde_dde"))
        harness.run_trial(config, 10.0, 0.0, 0)
        assert len(calls) == 2

    @pytest.mark.skipif(not on_glibc_linux(), reason="the allocator policy is glibc's")
    def test_steady_state_table2_frames_take_no_page_faults(self):
        # a fresh process, so that the suite's own allocations do not shape
        # the heap; glibc trimming the freed frame arrays cost 540 faults per
        # frame on the table2_fast list and 3,433 on the default list
        script = (
            "import resource, warnings\n"
            "from dataclasses import replace\n"
            "from otfslink import harness\n"
            "warnings.simplefilter('ignore', RuntimeWarning)\n"
            "table2 = harness.table2_preset()\n"
            "fast = replace(table2, equalizers=('otfs_fde', 'ofdm_single_tap'))\n"
            "for config, n_frames in ((fast, 20), (table2, 5)):\n"
            "    for trial in range(3):\n"
            "        harness.run_trial(config, 20.0, 6000.0, trial)\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    for trial in range(3, 3 + n_frames):\n"
            "        harness.run_trial(config, 20.0, 6000.0, trial)\n"
            "    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    print((after - before) / n_frames)\n"
        )
        src = str(Path(otfslink.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        fast_faults, default_faults = map(float, done.stdout.split())
        assert fast_faults < 50
        assert default_faults < 50


class TestRunSweep:
    def test_record_shape_and_aggregates(self):
        config = toy_config(snr_db_list=(0.0, 10.0), n_trials=3)
        records = harness.run_sweep(config)
        assert len(records) == 2 * 1 * len(harness.EQUALIZER_NAMES)
        for r in records:
            assert r.frames == 3
            assert r.bits == 3 * TOY_FRAME.bits_per_frame
            assert 0 <= r.bit_errors <= r.bits
            assert_allclose(r.ber, r.bit_errors / r.bits, atol=0)
            assert r.seed == config.base_seed

    def test_records_sorted_even_for_unsorted_inputs(self):
        config = toy_config(snr_db_list=(20.0, 0.0, 10.0), n_trials=2)
        records = harness.run_sweep(config)
        keys = [(r.equalizer, r.snr_db, r.doppler_hz) for r in records]
        assert keys == sorted(keys)

    def test_awgn_reference_ber_is_monotone_in_snr(self):
        # non-fading single-tap channel: the link is exactly QPSK over AWGN
        config = harness.ExperimentConfig(
            frame=harness.desk_preset().frame,
            profile=single_tap_profile(),
            snr_db_list=(0.0, 5.0, 10.0, 15.0, 20.0),
            doppler_hz_list=(0.0,),
            n_trials=50,
            base_seed=31,
            equalizers=("otfs_fde",),
            fading=False,
        )
        records = harness.run_sweep(config)
        assert records[0].bits >= 100_000
        errors = [r.bit_errors for r in records]
        assert errors == sorted(errors, reverse=True)
        assert errors[0] > 0
        assert errors[-1] == 0

    def test_worker_count_does_not_change_results(self, tmp_path):
        config = toy_config(n_trials=5)
        serial = harness.run_sweep(config, workers=1)
        parallel = harness.run_sweep(config, workers=2)
        assert serial == parallel
        a, b = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        harness.emit_csv(serial, str(a))
        harness.emit_csv(parallel, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            harness.run_sweep(toy_config(), workers=0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_pool_starts_no_more_workers_than_chunks(self, monkeypatch):
        # a fork-context pool starts all of its workers at once; a fake
        # pool records its size and the chunks it is sent and runs them
        # with the real chunk runner, so only the calling process's own
        # chunks pass through run_here
        run_chunk = harness._run_chunk
        sizes, sent, ran_here = [], [], []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def submit(self, func, task):
                sent.append(task[1:])
                future = Future()
                future.set_result(run_chunk(task))
                return future

            def shutdown(self, cancel_futures=False):
                pass

        def run_here(task):
            ran_here.append(task[1:])
            return run_chunk(task)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(harness, "_run_chunk", run_here)
        config = toy_config(snr_db_list=(0.0, 10.0), doppler_hz_list=(0.0, 1000.0), n_trials=1)
        serial = harness.run_sweep(config, workers=1)
        chunks = ran_here.copy()
        for workers, pool_size in ((16, 3), (3, 2)):
            sent.clear()
            ran_here.clear()
            assert harness.run_sweep(config, workers=workers) == serial
            # this process ran every (pool_size + 1)-th chunk, the pool the rest
            assert ran_here == chunks[:: pool_size + 1]
            assert sent == [c for c in chunks if c not in ran_here]
        assert sizes == [3, 2]
        # a single chunk runs in this process
        one_point = toy_config(n_trials=1)
        assert harness.run_sweep(one_point, workers=16) == harness.run_sweep(one_point)
        assert sizes == [3, 2]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool workers inherit the patched trial only when forked",
    )
    @pytest.mark.parametrize("failing_share", ["calling", "forked"])
    def test_failure_in_either_share_ends_the_sweep(self, monkeypatch, failing_share):
        # twenty one-trial chunks, trial index = chunk index: the calling
        # process runs the even ones and the forked worker the odd ones
        config = toy_config(snr_db_list=tuple(2.0 * k for k in range(10)), n_trials=2)
        failing = 0 if failing_share == "calling" else 1
        failed = multiprocessing.Value("b", False)
        started_after = multiprocessing.Value("i", 0)
        calling_pid = os.getpid()

        def trial(config, snr_db, doppler_hz, trial_index):
            if failed.value:
                with started_after.get_lock():
                    started_after.value += 1
            # the worker's trials are the slower, so the calling process
            # sees a failure before the worker's next chunk ends
            time.sleep(0.01 if os.getpid() == calling_pid else 0.04)
            if trial_index == failing:
                failed.value = True
                raise np.linalg.LinAlgError("singular system")
            return dict.fromkeys(config.equalizers, 0)

        monkeypatch.setattr(harness, "run_trial", trial)
        with pytest.raises(np.linalg.LinAlgError, match="singular system"):
            harness.run_sweep(config, workers=2)
        # only chunks in flight at the failure still run: the calling
        # process's current one and the two in the pool's call queue, which
        # holds one more chunk than the pool has processes, plus one for the
        # failure's trip back; the other share's remaining nine do not
        assert started_after.value <= 4


class TestCsv:
    def make_records(self):
        return [
            harness.BerRecord("otfs_fde", 10.0, 0.0, 4, 256, 3, 3 / 256, 99),
            harness.BerRecord("otfs_fde", 12.5, 1280.0, 4, 256, 0, 0.0, 99),
        ]

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "out.csv"
        records = self.make_records()
        harness.emit_csv(records, str(path))
        assert harness.read_csv(str(path)) == records

    def test_header_and_layout(self, tmp_path):
        path = tmp_path / "out.csv"
        harness.emit_csv(self.make_records(), str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == harness.CSV_HEADER
        assert lines[0] == "equalizer,snr_db,doppler_hz,frames,bits,bit_errors,ber,seed"
        assert lines[1] == "otfs_fde,10.0,0.0,4,256,3,0.01171875,99"
        assert all(len(line.split(",")) == 8 for line in lines)
        assert path.read_text().endswith("\n")

    def test_header_only_file_is_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        harness.emit_csv([], str(path))
        assert harness.read_csv(str(path)) == []

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="header"):
            harness.read_csv(str(path))

    def test_rejects_short_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(harness.CSV_HEADER + "\notfs_fde,10.0,0.0,4\n")
        with pytest.raises(ValueError, match="malformed"):
            harness.read_csv(str(path))


def config_document() -> dict:
    return {
        "frame": {
            "n_subcarriers": 8,
            "n_doppler_bins": 4,
            "cp_len": 2,
            "sample_rate": 64000.0,
        },
        "profile": {"delays_samples": [0, 1, 2], "powers_db": [0.0, 0.0, 0.0]},
        "snr_db_list": [0.0, "inf"],
        "doppler_hz_list": [0.0],
        "n_trials": 3,
        "base_seed": 7,
        "equalizers": ["otfs_fde", "otfs_fde_dde"],
        "fde_mode": "mmse",
        "clip_threshold": 0.1,
        "fading": True,
    }


# for each config field, a JSON value that differs from the one in
# read_document() and what the loaded config must then hold; a "frame."
# prefix marks a field of the frame section
READ_CASES = {
    "frame.n_subcarriers": (16, 16),
    "frame.n_doppler_bins": (8, 8),
    "frame.cp_len": (5, 5),
    "frame.sample_rate": (128000, 128000),
    "frame.carrier_freq": (2.4e9, 2.4e9),
    "profile": (
        {"delays_samples": [0, 2], "powers_db": [0, -3]},
        TapProfile.from_powers_db([0, 2], [0.0, -3.0]),
    ),
    "snr_db_list": ([5, "inf"], (5, float("inf"))),
    "doppler_hz_list": ([0, 250.0], (0, 250.0)),
    "n_trials": (5, 5),
    "base_seed": (11, 11),
    "equalizers": (["ofdm_single_tap"], ("ofdm_single_tap",)),
    "fde_mode": ("magnitude", "magnitude"),
    "clip_threshold": (0.3, 0.3),
    "fading": (False, False),
}
FIELD_KEYS = [f.name for f in fields(harness.ExperimentConfig) if f.name != "frame"] + [
    f"frame.{f.name}" for f in fields(FrameConfig)
]


def read_document() -> dict:
    doc = config_document()
    doc["frame"]["cp_len"] = 3  # room for a longer channel
    return doc


class TestLoadExperimentConfig:
    def test_full_document(self):
        config = harness.load_experiment_config(config_document())
        assert config.frame == TOY_FRAME
        assert config.profile.delays == (0, 1, 2)
        assert config.snr_db_list == (0.0, float("inf"))
        assert config.n_trials == 3
        assert config.base_seed == 7
        assert config.equalizers == ("otfs_fde", "otfs_fde_dde")
        assert config.fde_mode == "mmse"
        assert config.clip_threshold == 0.1

    def test_microsecond_delays_use_frame_sample_rate(self):
        doc = config_document()
        doc["profile"] = {
            "delays_us": [0.0, 15.625, 31.25],
            "powers_db": [0.0, 0.0, 0.0],
        }
        config = harness.load_experiment_config(doc)
        assert config.profile.delays == (0, 1, 2)

    @pytest.mark.parametrize("key", FIELD_KEYS)
    def test_reads_every_field(self, key):
        assert key in READ_CASES, f"no read case for config field {key}"
        value, expected = READ_CASES[key]
        section, _, name = key.rpartition(".")
        doc = read_document()
        (doc[section] if section else doc)[name] = value

        def field(config):
            return getattr(config.frame if section else config, name)

        loaded = field(harness.load_experiment_config(doc))
        assert loaded == expected
        assert type(loaded) is type(expected)
        assert loaded != field(harness.load_experiment_config(read_document()))

    def test_readme_example_loads(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```json\n(.*?)```", readme, re.S)
        config = harness.load_experiment_config(json.loads(block))
        assert config.frame == harness.desk_preset().frame
        assert config.n_trials == 500

    def test_loads_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_document()))
        assert harness.load_experiment_config(str(path)) == (
            harness.load_experiment_config(config_document())
        )

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(bogus=1),
            lambda d: d["frame"].update(bogus=1),
            lambda d: d["profile"].update(bogus=1),
            lambda d: d.pop("frame"),
            lambda d: d.pop("profile"),
            lambda d: d["profile"].pop("powers_db"),
            lambda d: d["profile"].update(delays_us=[0.0, 1.0, 2.0]),
            lambda d: d["profile"].pop("delays_samples"),
            lambda d: d.update(snr_db_list=[0.0, "fast"]),
            lambda d: d.update(fading=1),
            lambda d: d.update(frame=[1, 2]),
            lambda d: d.update(profile="tu6"),
            lambda d: d.update(snr_db_list=[0.0, float("nan")]),
            lambda d: d.update(doppler_hz_list=[float("nan")]),
            lambda d: d.update(doppler_hz_list=[0.0, float("inf")]),
            lambda d: d["profile"].update(delays_samples=[0, 1.6, 2]),
            lambda d: d["profile"].update(delays_samples=[0, True, 2]),
            lambda d: d.update(n_trials=2.9),
            lambda d: d.update(n_trials=True),
            lambda d: d.update(base_seed=7.0),
            lambda d: d.update(dde_iterations=1),
            lambda d: d["frame"].update(n_subcarriers=8.0),
            lambda d: d["frame"].update(n_doppler_bins=True),
            lambda d: d["frame"].update(sample_rate="64000"),
            lambda d: d["frame"].update(sample_rate=True),
            lambda d: d.update(snr_db_list=5),
            lambda d: d.update(snr_db_list=[True]),
            lambda d: d.update(doppler_hz_list=0.0),
            lambda d: d.update(doppler_hz_list=[True]),
            lambda d: d.update(doppler_hz_list=["6000"]),
            lambda d: d.update(clip_threshold="0.1"),
            lambda d: d.update(clip_threshold=True),
            lambda d: d.update(equalizers="otfs_fde"),
            lambda d: d["profile"].update(delays_samples=0),
            lambda d: d["profile"].update(powers_db=0.0),
            lambda d: d["profile"].update(powers_db=["0", "0", "0"]),
            lambda d: d["frame"].pop("n_subcarriers"),
            lambda d: d.update(profile={"delays_us": [float("inf")], "powers_db": [0.0]}),
            lambda d: d.update(profile={"delays_us": [1e10], "powers_db": [0.0]})
            or d["frame"].update(sample_rate=1e308),
            lambda d: d.update(profile={"delays_samples": [0], "powers_db": [float("nan")]}),
            lambda d: d.update(profile={"delays_samples": [0], "powers_db": [float("inf")]}),
        ],
    )
    def test_rejects_malformed_documents(self, mutate):
        doc = config_document()
        mutate(doc)
        with pytest.raises(ValueError):
            harness.load_experiment_config(doc)

    def test_rejects_non_object_document(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="JSON object"):
            harness.load_experiment_config(str(path))


class TestPresets:
    def test_registry(self):
        assert sorted(harness.PRESETS) == ["desk", "table2", "toy"]

    @pytest.mark.parametrize("name", ["desk", "table2", "toy"])
    def test_presets_construct_valid_configs(self, name):
        config = harness.PRESETS[name]()
        assert isinstance(config, harness.ExperimentConfig)
        assert config.profile.max_delay <= config.frame.cp_len

    def test_desk_preset_scale(self):
        config = harness.desk_preset()
        assert config.frame.frame_size == 1024
        assert config.frame.bits_per_frame == 2048

    def test_table2_preset_scale(self):
        config = harness.table2_preset()
        assert config.frame.n_subcarriers == 512
        assert config.frame.frame_size == 8192
        assert config.frame.cp_len == 256
        # full MMSE stays out of the default list at this scale
        assert "otfs_full_mmse" not in config.equalizers


class TestWithOverrides:
    def test_none_means_unchanged(self):
        config = harness.toy_preset()
        assert harness.with_overrides(config) == config

    def test_overrides_apply(self):
        config = harness.with_overrides(
            harness.toy_preset(), seed=7, trials=3, equalizers=("otfs_fde",)
        )
        assert config.base_seed == 7
        assert config.n_trials == 3
        assert config.equalizers == ("otfs_fde",)

    def test_overrides_are_validated(self):
        with pytest.raises(ValueError):
            harness.with_overrides(harness.toy_preset(), equalizers=("bogus",))


class TestNegativeBaseSeed:
    """A negative base seed fails where the config is built, by name, not
    inside the first trial's seed stream."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: toy_config(base_seed=-1),
            lambda: replace(toy_config(), base_seed=-1),
            lambda: harness.with_overrides(harness.toy_preset(), seed=-1),
            lambda: harness.load_experiment_config({**config_document(), "base_seed": -1}),
        ],
        ids=["constructor", "replace", "with_overrides", "json"],
    )
    def test_rejected_at_construction(self, build):
        with pytest.raises(ValueError, match="^base_seed must be non-negative$"):
            build()

    @pytest.mark.parametrize("command", [["run"], ["inspect-channel", "--doppler", "0"]])
    def test_cli_names_the_field(self, tmp_path, capsys, command):
        out = tmp_path / "out.csv"
        argv = command + ["--preset", "toy", "--seed", "-1", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: base_seed must be non-negative\n"
        assert not out.exists()


CHANNEL_HEADER = "delay,doppler,bin,magnitude"


def rebuild_from_rows(path: Path, frame: FrameConfig) -> tuple[np.ndarray, np.ndarray]:
    """The dense ``|H_eq|`` that ``inspect_channel``'s rows describe, and
    their delay column: row ``(q, k, l)`` sets entry ``[(l, k'), ((l - q)
    mod M, (k' - k) mod N)]`` for every ``k'``, vector index ``l * N + k'``."""
    lines = path.read_text().splitlines()
    assert lines[0] == CHANNEL_HEADER
    table = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    q, k, l = table[:, :3].astype(int).T
    n_dop, n_sub = frame.n_doppler_bins, frame.n_subcarriers
    k_out = np.arange(n_dop)
    rows = l[:, None] * n_dop + k_out
    cols = ((l - q) % n_sub)[:, None] * n_dop + (k_out - k[:, None]) % n_dop
    dense = np.zeros((frame.frame_size, frame.frame_size))
    # an entry named twice would add up and show against the oracle
    np.add.at(dense, (rows, cols), table[:, 3:])
    return dense, q


def trial_zero_channel(monkeypatch, config, doppler_hz):
    """The channel realization that trial 0 of a sweep draws."""
    drawn = []

    def spy(*args):
        drawn.append(generate_cir(*args))
        return drawn[-1]

    monkeypatch.setattr(harness.chan, "generate_cir", spy)
    harness.run_trial(config, 20.0, doppler_hz, trial_index=0)
    (cir,) = drawn
    return cir


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestInspectChannel:
    def test_writes_one_row_per_coupling_tap(self, tmp_path):
        path = tmp_path / "channel.csv"
        rows = harness.inspect_channel(toy_config(), 0.0, str(path))
        lines = path.read_text().splitlines()
        # N * P * M rows after the header
        assert rows == len(lines) - 1 == 4 * 3 * 8
        assert lines[0] == CHANNEL_HEADER
        table = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
        # one row per (delay, doppler, bin), delay-major
        index = [tuple(int(v) for v in row) for row in table[:, :3]]
        assert index == [(q, k, l) for q in (0, 1, 2) for k in range(4) for l in range(8)]
        assert (table[:, 3] >= 0).all()
        assert table[:, 3].max() > 0

    @pytest.mark.parametrize("doppler_hz", [0.0, 1280.0])
    @pytest.mark.parametrize("preset", ["toy", "desk"])
    def test_grid_is_the_equivalent_channel_magnitude(
        self, tmp_path, monkeypatch, preset, doppler_hz
    ):
        config = harness.PRESETS[preset]()
        path = tmp_path / "channel.csv"
        rows = harness.inspect_channel(config, doppler_hz, str(path))
        assert rows == len(config.profile.delays) * config.frame.frame_size
        dense, delays = rebuild_from_rows(path, config.frame)
        # the band is the profile's delays, whatever the Doppler
        assert sorted(set(delays.tolist())) == sorted(config.profile.delays)
        cir = trial_zero_channel(monkeypatch, config, doppler_hz)
        h_tl = build_time_channel_matrix(cir, config.frame)
        h_eq = build_equivalent_channel(h_tl, config.frame)
        assert_allclose(dense, np.abs(h_eq), rtol=0, atol=1e-12)

    def test_non_fading_grid_is_the_fixed_channel(self, tmp_path):
        path = tmp_path / "channel.csv"
        config = replace(toy_config(fading=False), base_seed=5)
        assert harness.inspect_channel(config, 0.0, str(path)) == 3 * TOY_FRAME.frame_size
        dense, delays = rebuild_from_rows(path, TOY_FRAME)
        assert sorted(set(delays.tolist())) == list(THREE_TAPS.delays)
        h_tl = build_time_channel_matrix(fixed_cir(THREE_TAPS, TOY_FRAME), TOY_FRAME)
        h_eq = build_equivalent_channel(h_tl, TOY_FRAME)
        assert_allclose(dense, np.abs(h_eq), rtol=0, atol=1e-12)

    def test_peak_memory_stays_below_one_dense_matrix(self, tmp_path):
        config = harness.desk_preset()
        dense_bytes = config.frame.frame_size**2 * np.dtype(np.float64).itemsize
        tracemalloc.start()
        try:
            harness.inspect_channel(config, 1280.0, str(tmp_path / "grid.csv"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestCli:
    # the toy preset sweeps fast-fading Doppler points that legitimately
    # trigger the channel-variation warning
    def test_run_preset_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        code = main(["run", "--preset", "toy", "--trials", "2", "--out", str(out)])
        assert code == 0
        records = harness.read_csv(str(out))
        # 3 SNRs x 4 Dopplers x 5 equalizers
        assert len(records) == 60
        assert "wrote 60 records" in capsys.readouterr().out

    def test_run_accepts_equalizer_subset(self, tmp_path):
        out = tmp_path / "results.csv"
        code = main(
            [
                "run", "--preset", "toy", "--trials", "1",
                "--equalizers", "otfs_fde", "--out", str(out),
            ]
        )
        assert code == 0
        records = harness.read_csv(str(out))
        assert {r.equalizer for r in records} == {"otfs_fde"}

    def test_run_from_config_file(self, tmp_path):
        path = tmp_path / "config.json"
        doc = config_document()
        doc["equalizers"] = ["otfs_fde"]
        doc["snr_db_list"] = [10.0]
        path.write_text(json.dumps(doc))
        out = tmp_path / "results.csv"
        code = main(["run", "--config", str(path), "--out", str(out)])
        assert code == 0
        assert len(harness.read_csv(str(out))) == 1

    def test_run_seed_override_changes_output(self, tmp_path):
        outs = []
        for seed in (1, 2):
            out = tmp_path / f"r{seed}.csv"
            code = main(
                [
                    "run", "--preset", "toy", "--trials", "2", "--seed", str(seed),
                    "--equalizers", "otfs_fde", "--out", str(out),
                ]
            )
            assert code == 0
            outs.append(harness.read_csv(str(out)))
        assert {r.seed for r in outs[0]} == {1}
        assert {r.seed for r in outs[1]} == {2}

    def test_missing_source_is_usage_error(self, tmp_path, capsys):
        assert main(["run", "--out", str(tmp_path / "x.csv")]) == 1
        assert "one of the arguments --config --preset is required" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["run"], ["inspect-channel", "--doppler", "0"]])
    def test_config_and_preset_are_exclusive(self, tmp_path, capsys, command):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_document()))
        out = tmp_path / "out.csv"
        argv = command + ["--config", str(path), "--preset", "toy", "--out", str(out)]
        assert main(argv) == 1
        assert "argument --preset: not allowed with argument --config" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_bad_config_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        doc = config_document()
        doc["bogus"] = 1
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_nan_in_config_file_is_usage_error(self, tmp_path, capsys):
        # json.dumps writes a bare NaN, which json.load reads back as a float
        path = tmp_path / "config.json"
        doc = config_document()
        doc["snr_db_list"] = [10.0, float("nan")]
        path.write_text(json.dumps(doc))
        out = tmp_path / "results.csv"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert "NaN" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d["frame"].update(n_subcarriers=8.0),
            lambda d: d.update(snr_db_list=5),
            lambda d: d.update(doppler_hz_list=[True]),
            lambda d: d.update(doppler_hz_list=["6000"]),
            lambda d: d.update(clip_threshold="0.1"),
            lambda d: d.update(equalizers="otfs_fde"),
            lambda d: d["frame"].update(sample_rate=float("nan")),
            lambda d: d.update(snr_db_list=[float("-inf"), 0.0]),
            lambda d: d.update(profile={"delays_samples": [0], "powers_db": [float("nan")]}),
            lambda d: d.update(profile={"delays_samples": [0], "powers_db": [float("inf")]}),
            lambda d: d["frame"].pop("n_subcarriers"),
            lambda d: d.update(profile={"delays_us": [float("inf")], "powers_db": [0.0]}),
            lambda d: d.update(profile={"delays_us": [1e10], "powers_db": [0.0]})
            or d["frame"].update(sample_rate=1e308),
            lambda d: d.update(profile={"delays_samples": [0], "powers_db": [4000]}),
            lambda d: d.update(profile={"delays_samples": [0], "powers_db": [-4000]}),
            # integers beyond float range
            lambda d: d["frame"].update(sample_rate=10**400),
            lambda d: d.update(snr_db_list=[0.0, 10**400]),
            lambda d: d.update(profile={"delays_us": [10**400], "powers_db": [0.0]}),
            # the channel length is the profile's; the frame has no such field
            lambda d: d["frame"].update(max_delay_taps=3),
        ],
    )
    def test_mistyped_config_file_is_usage_error(self, tmp_path, capsys, mutate):
        path = tmp_path / "config.json"
        doc = config_document()
        mutate(doc)
        path.write_text(json.dumps(doc))
        out = tmp_path / "results.csv"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_missing_config_file_is_reported(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 1

    def test_unknown_equalizer_is_reported(self, capsys):
        assert main(["run", "--preset", "toy", "--equalizers", "bogus"]) == 1
        assert "unknown equalizers" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["", " , "], ids=["empty", "blank"])
    def test_empty_equalizer_list_is_usage_error(self, tmp_path, capsys, value):
        out = tmp_path / "results.csv"
        argv = ["run", "--preset", "toy", "--equalizers", value, "--out", str(out)]
        assert main(argv) == 1
        assert "at least one equalizer must be enabled" in capsys.readouterr().err
        assert not out.exists()

    def test_argparse_failures_use_exit_code_one(self):
        assert main(["frobnicate"]) == 1
        assert main(["run", "--preset", "toy", "--trials", "abc"]) == 1

    def test_inspect_channel_by_doppler(self, tmp_path, capsys):
        out = tmp_path / "channel.csv"
        code = main(
            ["inspect-channel", "--preset", "toy", "--doppler", "1000", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        # 4 Doppler bins x 3 taps x 8 delay bins
        assert len(lines) == 1 + 96
        assert lines[0] == CHANNEL_HEADER
        assert all(len(line.split(",")) == 4 for line in lines)
        assert "wrote 96 coupling taps (doppler 1000 Hz)" in capsys.readouterr().out

    def test_inspect_channel_by_speed(self, tmp_path, monkeypatch):
        # without --out the taps go to channel.csv
        monkeypatch.chdir(tmp_path)
        code = main(["inspect-channel", "--preset", "toy", "--speed-kmh", "100"])
        assert code == 0
        assert len((tmp_path / "channel.csv").read_text().splitlines()) == 1 + 96

    @pytest.mark.parametrize("doppler", ["nan", "inf"])
    def test_inspect_channel_rejects_non_finite_doppler(self, tmp_path, capsys, doppler):
        out = tmp_path / "grid.csv"
        args = ["inspect-channel", "--preset", "toy", "--doppler", doppler]
        assert main(args + ["--out", str(out)]) == 1
        assert "doppler_hz must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_inspect_channel_seed_is_the_base_seed(self, tmp_path):
        out = tmp_path / "cli.csv"
        args = ["inspect-channel", "--preset", "desk", "--doppler", "1280", "--seed", "7"]
        assert main(args + ["--out", str(out)]) == 0
        direct = tmp_path / "direct.csv"
        config = replace(harness.desk_preset(), base_seed=7)
        harness.inspect_channel(config, 1280.0, str(direct))
        assert out.read_bytes() == direct.read_bytes()

    def test_inspect_channel_non_fading_grid_ignores_seed(self, tmp_path):
        path = tmp_path / "config.json"
        doc = config_document()
        doc["fading"] = False
        path.write_text(json.dumps(doc))
        grids = []
        for seed in ("1", "2"):
            out = tmp_path / f"grid{seed}.csv"
            args = ["inspect-channel", "--config", str(path), "--doppler", "0"]
            assert main(args + ["--seed", seed, "--out", str(out)]) == 0
            grids.append(out.read_bytes())
        assert grids[0] == grids[1]

    def test_inspect_channel_non_fading_rejects_doppler(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        doc = config_document()
        doc["fading"] = False
        path.write_text(json.dumps(doc))
        out = tmp_path / "grid.csv"
        args = ["inspect-channel", "--config", str(path), "--doppler", "500"]
        assert main(args + ["--out", str(out)]) == 1
        assert "cannot carry Doppler" in capsys.readouterr().err
        assert not out.exists()

    def test_inspect_channel_requires_exactly_one_rate(self, tmp_path, capsys):
        out = str(tmp_path / "grid.csv")
        assert main(["inspect-channel", "--preset", "toy", "--out", out]) == 1
        assert (
            main(
                [
                    "inspect-channel", "--preset", "toy", "--doppler", "10",
                    "--speed-kmh", "10", "--out", out,
                ]
            )
            == 1
        )
        err = capsys.readouterr().err
        assert "one of the arguments --doppler --speed-kmh is required" in err
        assert "argument --speed-kmh: not allowed with argument --doppler" in err

    def test_numerical_failure_uses_exit_code_two(self, monkeypatch, capsys):
        def boom(config, workers=1):
            raise np.linalg.LinAlgError("singular system")

        monkeypatch.setattr(harness, "run_sweep", boom)
        assert main(["run", "--preset", "toy"]) == 2
        assert "numerical error" in capsys.readouterr().err
