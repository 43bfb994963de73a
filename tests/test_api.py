"""The package exports what a sweep, the CLI or a user-level analysis runs.

Dense reference implementations live in ``tests/oracles.py``; pinning the
exported names keeps them from drifting back into the package.
"""

from __future__ import annotations

import otfslink

RUNTIME_NAMES = [
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


def test_exports_exactly_the_runtime_names():
    assert sorted(otfslink.__all__) == RUNTIME_NAMES
    assert all(hasattr(otfslink, name) for name in otfslink.__all__)
