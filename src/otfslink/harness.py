"""Monte-Carlo BER experiments: configuration, trial loop, sweep, CSV output.

Every trial draws one payload, one channel realization, and one noise
vector, then runs every enabled equalizer against the identical
observation, so equalizer comparisons are paired.  Trial seeds derive from
``(base_seed, global trial index)`` alone; results are reproducible bit for
bit regardless of worker count or sweep-point order.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import channel as chan
from . import equalizers as eq
from .frame import FrameConfig, TimeFrequencyGrid, TimeSignal, qpsk_map, qpsk_slice, random_bits
from .transforms import (
    cp_remove,
    dsft_inverse,
    ofdm_modulate,
    otfs_demodulate,
    otfs_modulate_fast,
    tf_stage,
)

EQUALIZER_NAMES = (
    "ofdm_full_mmse",
    "ofdm_single_tap",
    "otfs_fde",
    "otfs_fde_dde",
    "otfs_full_mmse",
)

CSV_HEADER = "equalizer,snr_db,doppler_hz,frames,bits,bit_errors,ber,seed"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one BER sweep depends on."""

    frame: FrameConfig
    profile: chan.TapProfile
    snr_db_list: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0)
    doppler_hz_list: tuple[float, ...] = (0.0,)
    n_trials: int = 100
    base_seed: int = 2024
    equalizers: tuple[str, ...] = EQUALIZER_NAMES
    fde_mode: str = "magnitude"
    clip_threshold: float = 0.02
    dde_iterations: int = 1
    fading: bool = True

    def __post_init__(self) -> None:
        if not self.snr_db_list or any(np.isnan(s) for s in self.snr_db_list):
            raise ValueError("snr_db_list must be non-empty and hold no NaN")
        if not self.doppler_hz_list or not all(0 <= f < np.inf for f in self.doppler_hz_list):
            raise ValueError("doppler_hz_list must be non-empty, finite and non-negative")
        if self.n_trials < 1:
            raise ValueError("n_trials must be at least 1")
        if not self.equalizers:
            raise ValueError("at least one equalizer must be enabled")
        unknown = set(self.equalizers) - set(EQUALIZER_NAMES)
        if unknown:
            raise ValueError(
                f"unknown equalizers: {sorted(unknown)}; known: {EQUALIZER_NAMES}"
            )
        if len(set(self.equalizers)) != len(self.equalizers):
            raise ValueError("equalizers must be unique")
        if self.fde_mode not in eq.FDE_MODES:
            raise ValueError(f"fde_mode must be one of {eq.FDE_MODES}")
        if not 0.0 <= self.clip_threshold <= 1.0:
            raise ValueError("clip_threshold must lie in [0, 1]")
        if self.dde_iterations < 1:
            raise ValueError("dde_iterations must be at least 1")
        if not self.fading and any(f > 0 for f in self.doppler_hz_list):
            raise ValueError("a non-fading channel cannot carry Doppler")
        if self.profile.max_delay >= self.frame.max_delay_taps:
            raise ValueError(
                "profile max delay must be below the frame's max_delay_taps"
            )


@dataclass(frozen=True)
class BerRecord:
    equalizer: str
    snr_db: float
    doppler_hz: float
    frames: int
    bits: int
    bit_errors: int
    ber: float
    seed: int


def sweep_trial_index(
    config: ExperimentConfig, snr_index: int, doppler_index: int, trial: int
) -> int:
    """Global trial index of one sweep point, the seed-determining quantity."""
    n_dop = len(config.doppler_hz_list)
    return (snr_index * n_dop + doppler_index) * config.n_trials + trial


def run_trial(
    config: ExperimentConfig, snr_db: float, doppler_hz: float, trial_index: int
) -> dict[str, int]:
    """Run one frame through the channel and every enabled equalizer.

    Returns bit-error counts keyed by equalizer name.  Deterministic given
    ``(config.base_seed, trial_index)``; the same payload, channel, and
    noise are reused by every equalizer, and the random stream layout does
    not depend on which equalizers are enabled.
    """
    frame = config.frame
    root = np.random.SeedSequence(entropy=(config.base_seed, trial_index))
    bits_seed, channel_seed, noise_seed = root.spawn(3)

    bits = random_bits(frame.bits_per_frame, np.random.default_rng(bits_seed))
    x_dd = qpsk_map(bits, frame)
    symbols = x_dd.to_vector()

    cir = (
        chan.generate_cir(config.profile, doppler_hz, frame, channel_seed)
        if config.fading
        else chan.fixed_cir(config.profile, frame)
    )
    var = chan.noise_variance(snr_db)
    noise = (
        chan.awgn(frame.frame_size, var, np.random.default_rng(noise_seed))
        if var > 0.0
        else np.zeros(frame.frame_size, dtype=np.complex128)
    )

    enabled = set(config.equalizers)
    errors: dict[str, int] = {}
    cfr = (
        chan.cfr_from_cir(cir, frame)
        if enabled & {"otfs_fde", "otfs_fde_dde", "ofdm_single_tap"}
        else None
    )

    x_otfs = cp_remove(otfs_modulate_fast(x_dd, frame), frame).data
    y_otfs = chan.apply_time_channel(cir, x_otfs, frame) + noise

    stage_one = None
    if enabled & {"otfs_fde", "otfs_fde_dde"}:
        coeffs = eq.fde_build(cfr, var, mode=config.fde_mode)
        y_tf = tf_stage(TimeSignal(y_otfs), frame)
        stage_one = dsft_inverse(eq.fde_apply(coeffs, y_tf), frame).to_vector()
        if "otfs_fde" in enabled:
            errors["otfs_fde"] = _count_errors(stage_one, bits)

    # the per-symbol receivers share one block stack, its Grams and, for
    # both full-MMSE links, one batched factorization
    if enabled & {"otfs_fde_dde", "otfs_full_mmse", "ofdm_full_mmse"}:
        blocks = chan.symbol_channel_blocks(cir, frame)
        grams = eq.symbol_grams(blocks)
    if enabled & {"otfs_full_mmse", "ofdm_full_mmse"}:
        factor = eq.mmse_factor(grams, var)

    if enabled & {"otfs_fde_dde", "otfs_full_mmse"}:
        matched = eq.symbol_matched_filter(blocks, y_otfs)
        if "otfs_fde_dde" in enabled:
            matched_dd = otfs_demodulate(TimeSignal(matched.ravel()), frame).to_vector()
            cancel = eq.dde_build_circulant(grams, config.clip_threshold)
            estimate = eq.dde_equalize_circulant(matched_dd, stage_one, cancel)
            for _ in range(config.dde_iterations - 1):
                estimate = eq.dde_equalize_circulant(matched_dd, estimate, cancel)
            errors["otfs_fde_dde"] = _count_errors(estimate, bits)
        if "otfs_full_mmse" in enabled:
            estimate = eq.otfs_full_mmse(factor, matched, frame)
            errors["otfs_full_mmse"] = _count_errors(estimate, bits)

    if enabled & {"ofdm_single_tap", "ofdm_full_mmse"}:
        x_tf = TimeFrequencyGrid.from_vector(symbols, frame)
        x_ofdm = cp_remove(ofdm_modulate(x_tf, frame), frame).data
        y_ofdm = chan.apply_time_channel(cir, x_ofdm, frame) + noise
        if "ofdm_single_tap" in enabled:
            y_tf_ofdm = tf_stage(TimeSignal(y_ofdm), frame)
            hat = eq.ofdm_single_tap(y_tf_ofdm, cfr, var, mode=config.fde_mode)
            errors["ofdm_single_tap"] = int(np.count_nonzero(hat != bits))
        if "ofdm_full_mmse" in enabled:
            matched = eq.symbol_matched_filter(blocks, y_ofdm)
            estimate = eq.ofdm_full_mmse(factor, matched)
            errors["ofdm_full_mmse"] = _count_errors(estimate, bits)

    return errors


def _count_errors(symbol_estimate: np.ndarray, bits: np.ndarray) -> int:
    hat, _ = qpsk_slice(symbol_estimate)
    return int(np.count_nonzero(hat != bits))


def _run_chunk(payload) -> tuple[int, int, dict[str, int]]:
    config, snr_index, doppler_index, trials = payload
    snr_db = config.snr_db_list[snr_index]
    doppler_hz = config.doppler_hz_list[doppler_index]
    totals = {name: 0 for name in config.equalizers}
    for t in trials:
        index = sweep_trial_index(config, snr_index, doppler_index, t)
        for name, count in run_trial(config, snr_db, doppler_hz, index).items():
            totals[name] += count
    return snr_index, doppler_index, totals


def run_sweep(config: ExperimentConfig, workers: int = 1) -> list[BerRecord]:
    """Run the full sweep and aggregate BER per (equalizer, SNR, Doppler).

    ``workers > 1`` distributes trials over processes; aggregation is a sum
    of per-trial error counts, so the result is identical at any
    parallelism level.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    chunk = max(1, -(-config.n_trials // workers))
    tasks = [
        (config, si, di, range(lo, min(lo + chunk, config.n_trials)))
        for si in range(len(config.snr_db_list))
        for di in range(len(config.doppler_hz_list))
        for lo in range(0, config.n_trials, chunk)
    ]
    totals: dict[tuple[int, int], dict[str, int]] = {}
    if workers == 1:
        results = map(_run_chunk, tasks)
    else:
        executor = ProcessPoolExecutor(max_workers=workers)
        try:
            results = list(executor.map(_run_chunk, tasks))
        finally:
            executor.shutdown()
    for si, di, counts in results:
        point = totals.setdefault((si, di), {name: 0 for name in config.equalizers})
        for name, count in counts.items():
            point[name] += count

    bits_total = config.n_trials * config.frame.bits_per_frame
    records = []
    for name in sorted(config.equalizers):
        for si, snr_db in enumerate(config.snr_db_list):
            for di, doppler_hz in enumerate(config.doppler_hz_list):
                errs = totals[(si, di)][name]
                records.append(
                    BerRecord(
                        equalizer=name,
                        snr_db=float(snr_db),
                        doppler_hz=float(doppler_hz),
                        frames=config.n_trials,
                        bits=bits_total,
                        bit_errors=errs,
                        ber=errs / bits_total,
                        seed=config.base_seed,
                    )
                )
    records.sort(key=lambda r: (r.equalizer, r.snr_db, r.doppler_hz))
    return records


def emit_csv(records: "list[BerRecord]", path: str) -> None:
    """Write records with a fixed header and shortest round-trip floats, so
    identical results produce byte-identical files."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.equalizer},{r.snr_db!r},{r.doppler_hz!r},{r.frames},"
            f"{r.bits},{r.bit_errors},{r.ber!r},{r.seed}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path: str) -> list[BerRecord]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header in {path}")
    records = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 8:
            raise ValueError(f"malformed CSV row: {line!r}")
        records.append(
            BerRecord(
                equalizer=cells[0],
                snr_db=float(cells[1]),
                doppler_hz=float(cells[2]),
                frames=int(cells[3]),
                bits=int(cells[4]),
                bit_errors=int(cells[5]),
                ber=float(cells[6]),
                seed=int(cells[7]),
            )
        )
    return records


# ---------------------------------------------------------------------------
# configuration files and presets

_FRAME_KEYS = {f.name for f in fields(FrameConfig)}
_TOP_KEYS = {f.name for f in fields(ExperimentConfig)}
_PROFILE_KEYS = {"delays_us", "delays_samples", "powers_db"}


def _parse_snr(value) -> float:
    if isinstance(value, str):
        if value.lower() in ("inf", "+inf", "infinity"):
            return float("inf")
        raise ValueError(f"bad SNR value: {value!r}")
    return float(value)


def _json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer; floats and booleans are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _parse_profile(raw: dict, sample_rate: float) -> chan.TapProfile:
    if not isinstance(raw, dict):
        raise ValueError("profile must be a JSON object")
    unknown = set(raw) - _PROFILE_KEYS
    if unknown:
        raise ValueError(f"unknown profile keys: {sorted(unknown)}")
    if "powers_db" not in raw:
        raise ValueError("profile needs powers_db")
    has_us = "delays_us" in raw
    has_samples = "delays_samples" in raw
    if has_us == has_samples:
        raise ValueError("profile needs exactly one of delays_us, delays_samples")
    if has_us:
        return chan.TapProfile.from_microseconds(
            raw["delays_us"], raw["powers_db"], sample_rate
        )
    delays = [_json_int(d, "delays_samples entry") for d in raw["delays_samples"]]
    return chan.TapProfile.from_powers_db(delays, raw["powers_db"])


def load_experiment_config(source: "str | dict") -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a JSON file path or dict.

    Unknown keys anywhere in the document are rejected.
    """
    if isinstance(source, dict):
        raw = source
    else:
        with open(source, encoding="utf-8") as fh:
            raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("experiment config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "frame" not in raw or "profile" not in raw:
        raise ValueError("experiment config needs frame and profile sections")

    frame_raw = raw["frame"]
    if not isinstance(frame_raw, dict):
        raise ValueError("frame must be a JSON object")
    unknown = set(frame_raw) - _FRAME_KEYS
    if unknown:
        raise ValueError(f"unknown frame keys: {sorted(unknown)}")
    frame = FrameConfig(**frame_raw)

    kwargs: dict = {
        "frame": frame,
        "profile": _parse_profile(raw["profile"], frame.sample_rate),
    }
    if "snr_db_list" in raw:
        kwargs["snr_db_list"] = tuple(_parse_snr(v) for v in raw["snr_db_list"])
    if "doppler_hz_list" in raw:
        kwargs["doppler_hz_list"] = tuple(float(v) for v in raw["doppler_hz_list"])
    if "equalizers" in raw:
        kwargs["equalizers"] = tuple(str(v) for v in raw["equalizers"])
    for key in ("n_trials", "base_seed", "dde_iterations"):
        if key in raw:
            kwargs[key] = _json_int(raw[key], key)
    if "fde_mode" in raw:
        kwargs["fde_mode"] = str(raw["fde_mode"])
    if "clip_threshold" in raw:
        kwargs["clip_threshold"] = float(raw["clip_threshold"])
    if "fading" in raw:
        if not isinstance(raw["fading"], bool):
            raise ValueError("fading must be true or false")
        kwargs["fading"] = raw["fading"]
    return ExperimentConfig(**kwargs)


def desk_preset() -> ExperimentConfig:
    """Small frame that runs interactively: 64 subcarriers, 16 symbols,
    a six-tap urban-style profile compressed to an 8-sample channel."""
    frame = FrameConfig(
        n_subcarriers=64,
        n_doppler_bins=16,
        max_delay_taps=8,
        cp_len=8,
        sample_rate=1.024e6,
        carrier_freq=5.8e9,
    )
    profile = chan.TapProfile.from_powers_db([0, 1, 2, 3, 5, 7], chan.TU6_POWERS_DB)
    return ExperimentConfig(
        frame=frame,
        profile=profile,
        snr_db_list=(0.0, 5.0, 10.0, 15.0, 20.0),
        doppler_hz_list=(0.0, 1280.0),
        n_trials=100,
        base_seed=2024,
    )


def table2_preset() -> ExperimentConfig:
    """Full-scale 40 MHz configuration: 512 subcarriers, 16 symbols,
    urban six-tap profile with a 5 us delay spread.

    Every receiver runs at this scale, since none forms an 8192-square
    matrix: one trial with all five took about 0.9 s and 0.5 GB peak RSS on
    a 2-core Xeon with two BLAS threads.  The default list keeps the two
    full-MMSE references out.
    """
    frame = FrameConfig(
        n_subcarriers=512,
        n_doppler_bins=16,
        max_delay_taps=201,
        cp_len=256,
        sample_rate=40e6,
        carrier_freq=5.8e9,
    )
    return ExperimentConfig(
        frame=frame,
        profile=chan.tu6_profile(frame.sample_rate),
        snr_db_list=(10.0, 15.0, 20.0, 25.0, 30.0),
        doppler_hz_list=(0.0, 6000.0),
        n_trials=5000,
        base_seed=2024,
        equalizers=("ofdm_single_tap", "otfs_fde", "otfs_fde_dde"),
    )


def toy_preset() -> ExperimentConfig:
    """Tiny frame (8 x 4, three equal-power taps) for channel-structure
    inspection; the sample rate is low so kHz-scale Doppler moves the
    channel visibly within one frame."""
    frame = FrameConfig(
        n_subcarriers=8,
        n_doppler_bins=4,
        max_delay_taps=3,
        cp_len=2,
        sample_rate=64e3,
        carrier_freq=5.8e9,
    )
    profile = chan.TapProfile.from_powers_db([0, 1, 2], [0.0, 0.0, 0.0])
    return ExperimentConfig(
        frame=frame,
        profile=profile,
        snr_db_list=(0.0, 10.0, 20.0),
        doppler_hz_list=(0.0, 1000.0, 3000.0, 6000.0),
        n_trials=10,
        base_seed=2024,
    )


PRESETS = {
    "desk": desk_preset,
    "table2": table2_preset,
    "toy": toy_preset,
}


def with_overrides(
    config: ExperimentConfig,
    seed: "int | None" = None,
    trials: "int | None" = None,
    equalizers: "tuple[str, ...] | None" = None,
) -> ExperimentConfig:
    """CLI-style overrides on top of a loaded config."""
    if seed is not None:
        config = replace(config, base_seed=seed)
    if trials is not None:
        config = replace(config, n_trials=trials)
    if equalizers is not None:
        config = replace(config, equalizers=equalizers)
    return config


def inspect_channel(
    config: ExperimentConfig, doppler_hz: float, path: str, seed: "int | None" = None
) -> None:
    """Write the magnitude of one equivalent-channel realization as a dense
    CSV (one row per delay-Doppler output index)."""
    cir = chan.generate_cir(
        config.profile,
        doppler_hz,
        config.frame,
        config.base_seed if seed is None else seed,
    )
    h_tl = chan.build_time_channel_matrix(cir, config.frame)
    h_eq = chan.build_equivalent_channel(h_tl, config.frame)
    mags = np.abs(h_eq)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in mags:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
