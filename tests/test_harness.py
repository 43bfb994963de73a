"""Experiment harness: config handling, trial loop, sweeps, CSV, CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
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
    n_subcarriers=8, n_doppler_bins=4, max_delay_taps=3, cp_len=2, sample_rate=64e3
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
        # pool records the size it was asked for and maps serially
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def map(self, func, tasks):
                return map(func, tasks)

            def shutdown(self):
                pass

        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        config = toy_config(snr_db_list=(0.0, 10.0), doppler_hz_list=(0.0, 1000.0), n_trials=1)
        serial = harness.run_sweep(config, workers=1)
        assert harness.run_sweep(config, workers=16) == serial
        assert harness.run_sweep(config, workers=3) == serial
        assert sizes == [4, 3]
        # a single chunk runs in this process
        one_point = toy_config(n_trials=1)
        assert harness.run_sweep(one_point, workers=16) == harness.run_sweep(one_point)
        assert sizes == [4, 3]


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
            "max_delay_taps": 3,
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
        assert config.profile.max_delay < config.frame.max_delay_taps

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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestInspectChannel:
    def test_writes_dense_magnitude_grid(self, tmp_path):
        path = tmp_path / "grid.csv"
        harness.inspect_channel(toy_config(), 0.0, str(path))
        rows = [line.split(",") for line in path.read_text().splitlines()]
        n = TOY_FRAME.frame_size
        assert len(rows) == n
        assert all(len(row) == n for row in rows)
        values = np.array([[float(v) for v in row] for row in rows])
        assert (values >= 0).all()
        assert values.max() > 0

    @pytest.mark.parametrize("doppler_hz", [0.0, 1280.0])
    @pytest.mark.parametrize("preset", ["toy", "desk"])
    def test_grid_is_the_equivalent_channel_magnitude(self, tmp_path, preset, doppler_hz):
        config = harness.PRESETS[preset]()
        path = tmp_path / "grid.csv"
        harness.inspect_channel(config, doppler_hz, str(path))
        cir = generate_cir(config.profile, doppler_hz, config.frame, config.base_seed)
        h_tl = build_time_channel_matrix(cir, config.frame)
        h_eq = build_equivalent_channel(h_tl, config.frame)
        values = np.loadtxt(path, delimiter=",", ndmin=2)
        assert_allclose(values, np.abs(h_eq), rtol=0, atol=1e-12)

    def test_non_fading_grid_is_the_fixed_channel(self, tmp_path):
        path = tmp_path / "grid.csv"
        config = replace(toy_config(fading=False), base_seed=5)
        harness.inspect_channel(config, 0.0, str(path))
        h_tl = build_time_channel_matrix(fixed_cir(THREE_TAPS, TOY_FRAME), TOY_FRAME)
        h_eq = build_equivalent_channel(h_tl, TOY_FRAME)
        values = np.loadtxt(path, delimiter=",", ndmin=2)
        assert_allclose(values, np.abs(h_eq), rtol=0, atol=1e-12)

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
        assert "provide --config or --preset" in capsys.readouterr().err

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
        out = tmp_path / "grid.csv"
        code = main(
            ["inspect-channel", "--preset", "toy", "--doppler", "1000", "--out", str(out)]
        )
        assert code == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 32
        assert all(len(r.split(",")) == 32 for r in rows)
        assert "32x32" in capsys.readouterr().out

    def test_inspect_channel_by_speed(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(
            ["inspect-channel", "--preset", "toy", "--speed-kmh", "100", "--out", str(out)]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 32

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
        assert "exactly one" in err

    def test_numerical_failure_uses_exit_code_two(self, monkeypatch, capsys):
        def boom(config, workers=1):
            raise np.linalg.LinAlgError("singular system")

        monkeypatch.setattr(harness, "run_sweep", boom)
        assert main(["run", "--preset", "toy"]) == 2
        assert "numerical error" in capsys.readouterr().err
