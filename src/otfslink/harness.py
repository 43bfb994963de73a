"""Monte-Carlo BER experiments: configuration, trial loop, sweep, CSV output.

Every trial draws one payload, one channel realization, and one noise
frame, then runs every enabled equalizer against the identical
observation, so equalizer comparisons are paired.  Trial seeds derive from
``(base_seed, global trial index)`` alone; results are reproducible bit for
bit regardless of worker count or sweep-point order.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, fields, replace
from typing import get_type_hints

import numpy as np

from . import channel as chan
from . import equalizers as eq
from .frame import FrameConfig, _check_field_types, qpsk_map, qpsk_slice, random_bits
from .transforms import (
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
    fading: bool = True

    def __post_init__(self) -> None:
        _check_field_types(self)
        if not self.snr_db_list or not self.doppler_hz_list:
            raise ValueError("snr_db_list and doppler_hz_list must be non-empty")
        for snr_db in self.snr_db_list:
            chan.noise_variance(snr_db)  # raises for NaN, -inf and an overflowing variance
        for doppler_hz in self.doppler_hz_list:
            chan._check_doppler(doppler_hz, self.frame)
        if self.n_trials < 1:
            raise ValueError("n_trials must be at least 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")
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
        if not self.fading and any(f > 0 for f in self.doppler_hz_list):
            raise ValueError("a non-fading channel cannot carry Doppler")
        chan._check_profile_fits(self.profile, self.frame)


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


CSV_HEADER = ",".join(f.name for f in fields(BerRecord))


def sweep_trial_index(
    config: ExperimentConfig, snr_index: int, doppler_index: int, trial: int
) -> int:
    """Global trial index of one sweep point, the seed-determining quantity."""
    n_dop = len(config.doppler_hz_list)
    return (snr_index * n_dop + doppler_index) * config.n_trials + trial


def _trial_streams(base_seed: int, trial_index: int) -> list[np.random.SeedSequence]:
    """The payload, channel and noise seed streams of one trial, spawned
    from ``(base_seed, trial_index)`` alone."""
    return np.random.SeedSequence(entropy=(base_seed, trial_index)).spawn(3)


def _draw_channel(
    config: ExperimentConfig, doppler_hz: float, seed: np.random.SeedSequence
) -> chan.TimeVaryingCir:
    """The channel realization of one trial, from its channel stream
    ``seed``: a fresh Rayleigh draw, or the fixed taps of a non-fading
    config."""
    if config.fading:
        return chan.generate_cir(config.profile, doppler_hz, config.frame, seed)
    if doppler_hz != 0:
        raise ValueError("a non-fading channel cannot carry Doppler")
    return chan.fixed_cir(config.profile, config.frame)


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
    bits_seed, channel_seed, noise_seed = _trial_streams(config.base_seed, trial_index)

    bits = random_bits(frame.bits_per_frame, np.random.default_rng(bits_seed))
    symbols = qpsk_map(bits, frame)
    # payload symbol i sits at Doppler row i % N, delay column i // N of the
    # OTFS grid and at symbol row i // M, subcarrier column i % M of the OFDM
    # grid; error counts read each link's estimate back in that order
    shape = (frame.n_doppler_bins, frame.n_subcarriers)
    x_dd = symbols.reshape(frame.n_subcarriers, frame.n_doppler_bins).T

    cir = _draw_channel(config, doppler_hz, channel_seed)
    var = chan.noise_variance(snr_db)
    noise = chan.awgn(shape, var, np.random.default_rng(noise_seed))

    enabled = set(config.equalizers)
    errors: dict[str, int] = {}
    # one single-tap gain grid serves the OTFS first stage and plain OFDM
    if enabled & {"otfs_fde", "otfs_fde_dde", "ofdm_single_tap"}:
        fde_gains = eq.fde_build(chan.cfr_from_cir(cir), var, mode=config.fde_mode)

    y_otfs = chan.apply_time_channel(cir, otfs_modulate_fast(x_dd)) + noise

    if enabled & {"otfs_fde", "otfs_fde_dde"}:
        stage_one = dsft_inverse(fde_gains * tf_stage(y_otfs))
        hat, decided = qpsk_slice(stage_one.T)
        if "otfs_fde" in enabled:
            errors["otfs_fde"] = int(np.count_nonzero(hat != bits))

    # the per-symbol receivers share the Grams' taps
    if enabled & {"otfs_fde_dde", "otfs_full_mmse", "ofdm_full_mmse"}:
        grams = chan.symbol_grams(cir)
    # full-MMSE receiver -> (its matched filter, the read-out of its solution)
    full_mmse = {}

    if enabled & {"otfs_fde_dde", "otfs_full_mmse"}:
        matched = chan.matched_filter(cir, y_otfs)
        if "otfs_fde_dde" in enabled:
            taps, diag = eq.dde_build_circulant(grams, config.clip_threshold)
            # the decisions come in payload order, laid out on the grid like x_dd
            decided_dd = decided.reshape(frame.n_subcarriers, frame.n_doppler_bins).T
            estimate = eq.dde_equalize_circulant(matched, decided_dd, taps, diag)
            errors["otfs_fde_dde"] = _count_errors(estimate.T, bits)
        if "otfs_full_mmse" in enabled:
            full_mmse["otfs_full_mmse"] = (matched, lambda x: otfs_demodulate(x).T)

    if enabled & {"ofdm_single_tap", "ofdm_full_mmse"}:
        x_tf = symbols.reshape(shape)
        y_ofdm = chan.apply_time_channel(cir, ofdm_modulate(x_tf)) + noise
        if "ofdm_single_tap" in enabled:
            equalized = fde_gains * tf_stage(y_ofdm)
            errors["ofdm_single_tap"] = _count_errors(equalized, bits)
        if "ofdm_full_mmse" in enabled:
            full_mmse["ofdm_full_mmse"] = (chan.matched_filter(cir, y_ofdm), tf_stage)

    # the full-MMSE references share one batched solve, one column each
    if full_mmse:
        rhs = np.stack([column for column, _ in full_mmse.values()], axis=-1)
        solved = eq.mmse_solve(grams, var, rhs)
        for k, (name, (_, read_out)) in enumerate(full_mmse.items()):
            errors[name] = _count_errors(read_out(solved[..., k]), bits)

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

    ``workers`` is the number of processes that run trials.  Above one,
    the calling process runs every ``workers``-th chunk of trials itself
    and a pool of ``workers - 1`` processes runs the rest; a failure in
    either share ends the sweep without starting the other share's queued
    chunks.  Aggregation is a sum of per-trial error counts, so the result
    is identical at any parallelism level.
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
    # a fork-context pool starts every worker up front, so start no more
    # than there are chunks
    workers = min(workers, len(tasks))
    totals: dict[tuple[int, int], dict[str, int]] = {}
    if workers == 1:
        results = map(_run_chunk, tasks)
    else:
        executor = ProcessPoolExecutor(max_workers=workers - 1)
        try:
            forked = [
                executor.submit(_run_chunk, task)
                for i, task in enumerate(tasks)
                if i % workers
            ]
            results = []
            for task in tasks[::workers]:
                # re-raise a forked chunk's failure before running another
                for future in forked:
                    if future.done():
                        future.result()
                results.append(_run_chunk(task))
            results += [future.result() for future in forked]
        finally:
            executor.shutdown(cancel_futures=True)
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
        lines.append(",".join(str(getattr(r, f.name)) for f in fields(BerRecord)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path: str) -> list[BerRecord]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header in {path}")
    types = get_type_hints(BerRecord).values()
    records = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(types):
            raise ValueError(f"malformed CSV row: {line!r}")
        records.append(BerRecord(*(kind(cell) for kind, cell in zip(types, cells))))
    return records


# ---------------------------------------------------------------------------
# configuration files and presets

_PROFILE_KEYS = {"delays_us", "delays_samples", "powers_db"}
_INF_SNRS = ("inf", "+inf", "infinity")


def _json_object(value, what: str, keys: set[str]) -> None:
    """Raise unless ``value`` is a JSON object whose keys all lie in ``keys``."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = set(value) - keys
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")


def _json_array(value, what: str) -> tuple:
    """``value`` as a tuple if it is a JSON array."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array, got {value!r}")
    return tuple(value)


def _json_fields(cls, raw, what: str) -> dict:
    """The fields of the dataclass ``cls`` that the JSON object ``raw``
    sets, with its arrays as tuples.

    Keys that name no field and missing fields without a default are
    rejected; the values' types are left to ``cls`` itself.
    """
    _json_object(raw, what, {f.name for f in fields(cls)})
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in raw]
    if missing:
        raise ValueError(f"{what} needs {', '.join(missing)}")
    return {key: tuple(v) if isinstance(v, list) else v for key, v in raw.items()}


def _parse_profile(raw, sample_rate: float) -> chan.TapProfile:
    _json_object(raw, "profile", _PROFILE_KEYS)
    if "powers_db" not in raw:
        raise ValueError("profile needs powers_db")
    has_us = "delays_us" in raw
    if has_us == ("delays_samples" in raw):
        raise ValueError("profile needs exactly one of delays_us, delays_samples")
    powers_db = _json_array(raw["powers_db"], "powers_db")
    if has_us:
        delays_us = _json_array(raw["delays_us"], "delays_us")
        return chan.TapProfile.from_microseconds(delays_us, powers_db, sample_rate)
    delays = _json_array(raw["delays_samples"], "delays_samples")
    return chan.TapProfile.from_powers_db(delays, powers_db)


def load_experiment_config(source: "str | dict") -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a JSON file path or dict.

    Each key sets the field of its name, and JSON arrays become tuples;
    unknown keys anywhere in the document are rejected.  Numbers reach
    the config classes as written, and those classes check every type,
    as they do for any caller.  What is JSON's own: the profile section's
    units (``delays_us`` or ``delays_samples``, with ``powers_db``), and
    the string ``"inf"`` as an SNR.
    """
    if isinstance(source, dict):
        raw = source
    else:
        with open(source, encoding="utf-8") as fh:
            raw = json.load(fh)
    values = _json_fields(ExperimentConfig, raw, "config")
    frame = FrameConfig(**_json_fields(FrameConfig, values.pop("frame"), "frame"))
    profile = _parse_profile(values.pop("profile"), frame.sample_rate)
    if isinstance(values.get("snr_db_list"), tuple):
        values["snr_db_list"] = tuple(
            float("inf") if isinstance(s, str) and s.lower() in _INF_SNRS else s
            for s in values["snr_db_list"]
        )
    return ExperimentConfig(frame, profile, **values)


def desk_preset() -> ExperimentConfig:
    """Small frame that runs interactively: 64 subcarriers, 16 symbols,
    a six-tap urban-style profile compressed to an 8-sample channel."""
    frame = FrameConfig(
        n_subcarriers=64,
        n_doppler_bins=16,
        cp_len=8,
        sample_rate=1.024e6,
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
    matrix; the README gives measured frame times.  The default list keeps
    the two full-MMSE references out.
    """
    frame = FrameConfig(
        n_subcarriers=512,
        n_doppler_bins=16,
        cp_len=256,
        sample_rate=40e6,
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
        cp_len=2,
        sample_rate=64e3,
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
    """``config`` with each override that is not ``None`` in place:
    ``seed`` sets ``base_seed``, ``trials`` ``n_trials`` and ``equalizers``
    its namesake.  The result is checked like any new config."""
    overrides = {"base_seed": seed, "n_trials": trials, "equalizers": equalizers}
    return replace(config, **{key: v for key, v in overrides.items() if v is not None})


def inspect_channel(config: ExperimentConfig, doppler_hz: float, path: str) -> int:
    """Write the magnitudes of one equivalent delay-Doppler channel's taps
    as CSV and return the number of rows, ``N * P * M``.

    The realization is the channel that trial 0 of a sweep with
    ``config.base_seed`` draws; a non-fading config gives its fixed taps.
    Row ``delay,doppler,bin,magnitude`` with tap delay ``q``, Doppler
    shift ``k`` and delay bin ``l`` is the magnitude of entry ``[(l, k'),
    ((l - q) mod M, (k' - k) mod N)]`` of the equivalent channel (vector
    index ``l * N + k'``) for every ``k'``: the realization's
    :func:`~otfslink.channel.doppler_coupling`.  Every other entry is zero.
    """
    _, channel_seed, _ = _trial_streams(config.base_seed, 0)
    cir = _draw_channel(config, doppler_hz, channel_seed)
    coupling = chan.doppler_coupling(cir)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("delay,doppler,bin,magnitude\n")
        for delay, mags in zip(coupling.delays, np.abs(coupling.gains).tolist()):
            for k, row in enumerate(mags):
                fh.writelines(f"{delay},{k},{l},{v!r}\n" for l, v in enumerate(row))
    return coupling.gains.size
