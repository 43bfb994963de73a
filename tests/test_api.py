"""The package exports what a sweep, the CLI or a user-level analysis runs.

Dense reference implementations live in ``tests/oracles.py``; pinning the
exported names keeps them from drifting back into the package.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
        "import sys\n"
        "from dataclasses import replace\n"
        "import otfslink\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not scipy_modules(), scipy_modules()\n"
        "assert 'numpy.fft' in sys.modules and 'numpy.random' in sys.modules\n"
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
        [sys.executable, "-W", "error::RuntimeWarning", "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr



def unknown_name(name):
    raise ValueError("unrecognized configuration name")


# os.confstr on macOS, on a C library that leaves the name undefined, on musl,
# and on Windows, which has no confstr
NOT_GLIBC = {
    "unknown-name": unknown_name,
    "undefined": lambda name: None,
    "musl": lambda name: "musl 1.2.4",
    "no-confstr": None,
}


def fake_cdll(monkeypatch) -> list:
    import ctypes

    calls = []

    class Libc:
        def mallopt(self, param, value):
            calls.append((param, value))
            return 1

    def cdll(name):
        calls.append(name)
        return Libc()

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    return calls


@pytest.mark.parametrize("confstr", NOT_GLIBC.values(), ids=NOT_GLIBC.keys())
def test_allocator_policy_is_a_no_op_off_glibc(monkeypatch, confstr):
    calls = fake_cdll(monkeypatch)
    if confstr is None:
        monkeypatch.delattr(os, "confstr")
    else:
        monkeypatch.setattr(os, "confstr", confstr)
    otfslink._keep_freed_heap()
    assert calls == []
    reloaded = importlib.reload(otfslink)
    assert calls == []
    assert sorted(reloaded.__all__) == RUNTIME_NAMES


def test_allocator_policy_sets_the_top_pad_on_glibc(monkeypatch):
    calls = fake_cdll(monkeypatch)
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    otfslink._keep_freed_heap()
    # M_TOP_PAD is -2 in malloc.h
    assert calls == [None, (-2, 32 << 20)]
