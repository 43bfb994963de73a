"""Link-level simulator for delay-Doppler (OTFS) modulation over rapidly
time-varying multipath channels, with a two-stage equalizer and reference
baselines."""

from .channel import (
    TapProfile,
    TimeVaryingCir,
    apply_time_channel,
    cfr_from_cir,
    cir_from_gains,
    fixed_cir,
    generate_cir,
    noise_variance,
    single_tap_profile,
    tu6_profile,
)
from .equalizers import fde_build
from .frame import FrameConfig, qpsk_map, qpsk_slice
from .harness import (
    EQUALIZER_NAMES,
    BerRecord,
    ExperimentConfig,
    desk_preset,
    emit_csv,
    inspect_channel,
    load_experiment_config,
    read_csv,
    run_sweep,
    run_trial,
    sweep_trial_index,
    table2_preset,
    toy_preset,
)
from .transforms import (
    dsft_inverse,
    ofdm_modulate,
    otfs_demodulate,
    otfs_modulate_fast,
    tf_stage,
)

__version__ = "0.1.0"

__all__ = [
    "BerRecord",
    "EQUALIZER_NAMES",
    "ExperimentConfig",
    "FrameConfig",
    "TapProfile",
    "TimeVaryingCir",
    "apply_time_channel",
    "cfr_from_cir",
    "cir_from_gains",
    "desk_preset",
    "dsft_inverse",
    "emit_csv",
    "fde_build",
    "fixed_cir",
    "generate_cir",
    "inspect_channel",
    "load_experiment_config",
    "noise_variance",
    "ofdm_modulate",
    "otfs_demodulate",
    "otfs_modulate_fast",
    "qpsk_map",
    "qpsk_slice",
    "read_csv",
    "run_sweep",
    "run_trial",
    "single_tap_profile",
    "sweep_trial_index",
    "table2_preset",
    "tf_stage",
    "toy_preset",
    "tu6_profile",
]
