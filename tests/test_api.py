"""The package exports what a sweep, the CLI or a user-level analysis runs.

Dense reference implementations live in ``tests/oracles.py``; pinning the
exported names keeps them from drifting back into the package.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

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


def test_runtime_imports_no_scipy():
    # a fresh process, since the test suite itself imports scipy; numpy's
    # lazily loaded FFT and random submodules come with the package
    script = (
        "import sys, warnings\n"
        "from dataclasses import replace\n"
        "import otfslink\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not scipy_modules(), scipy_modules()\n"
        "assert 'numpy.fft' in sys.modules and 'numpy.random' in sys.modules\n"
        "warnings.simplefilter('ignore', RuntimeWarning)\n"
        "from otfslink import harness\n"
        "desk = harness.desk_preset()\n"
        "assert len(harness.run_trial(desk, 20.0, 1280.0, 0)) == 5\n"
        "table2 = harness.table2_preset()\n"
        "assert len(harness.run_trial(table2, 20.0, 6000.0, 0)) == 3\n"
        "assert not scipy_modules(), scipy_modules()\n"
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
