"""Workload table, memory guard, package import and provenance.

Shared by the driver (``run.py``), the in-process worker (``worker.py``)
and the CLI entry (``cli_entry.py``).  Importing this module imports
neither numpy nor ``otfslink``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
REFERENCE_SEED = 2024

ALL_RECEIVERS = (
    "ofdm_full_mmse",
    "ofdm_single_tap",
    "otfs_fde",
    "otfs_fde_dde",
    "otfs_full_mmse",
)
# receivers that build n x n delay-Doppler matrices (n = frame size)
DENSE_RECEIVERS = frozenset({"otfs_fde_dde", "otfs_full_mmse"})

# In-process workloads cycle over trial indices 0..frames-1 of the seed, so
# every timed frame has a reference and the reference costs ``frames`` frames.
WORKLOADS = {
    "desk_dense": {
        "kind": "trial",
        "preset": "desk",
        "equalizers": ALL_RECEIVERS,
        "snr_db": 20.0,
        "doppler_hz": 1280.0,
        "frames": 8,
    },
    "table2_fast": {
        "kind": "trial",
        "preset": "table2",
        "equalizers": ("otfs_fde", "ofdm_single_tap"),
        "snr_db": 20.0,
        "doppler_hz": 6000.0,
        "frames": 8,
    },
    "desk_sweep_cli": {
        "kind": "cli",
        "preset": "desk",
        "equalizers": ALL_RECEIVERS,
        "trials": 1,
        "workers": 2,
        # At the library default (two OpenBLAS threads in each of two
        # workers on two cores) the sweep measures oversubscription: over
        # five seeds frames_per_s spread 22% and frame_ms_tail 48% between
        # runs.  One thread per worker is the configuration a user of
        # --workers 2 is told to run.
        "blas_threads": 1,
    },
}

# Variables that pin BLAS/OpenMP threads.  Workloads run without them, so
# the library default applies, unless the workload sets ``blas_threads``.
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def check_memory(name: str, spec: dict) -> None:
    """Refuse a workload that would run a dense receiver on the table2
    frame: its 8192 x 8192 complex matrices take 1.07 GB each, several are
    live at once, and the box has 7 GB."""
    dense = DENSE_RECEIVERS & set(spec["equalizers"])
    if spec["preset"] == "table2" and dense:
        raise SystemExit(
            f"workload {name}: refusing to run {sorted(dense)} on the table2 "
            "frame (dense 8192 x 8192 matrices need several GB); a table2 "
            "workload with every receiver waits for per-symbol receivers"
        )


def child_env(spec: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    if spec.get("blas_threads"):
        env.update({k: str(spec["blas_threads"]) for k in THREAD_VARIABLES})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def import_harness():
    """Import ``otfslink.harness`` from this checkout's ``src``, never from
    an installed copy."""
    src = ROOT / "src"
    if not (src / "otfslink" / "__init__.py").is_file():
        raise SystemExit(f"no otfslink package under {src}")
    sys.path.insert(0, str(src))
    from otfslink import harness

    if Path(harness.__file__).resolve().parents[1] != src:
        raise SystemExit(f"otfslink imported from {harness.__file__}, not {src}")
    return harness


def trial_config(harness, spec: dict, seed: int):
    config = harness.PRESETS[spec["preset"]]()
    return harness.with_overrides(config, seed=seed, equalizers=spec["equalizers"])


def cli_args(spec: dict, seed: int, out: str) -> list[str]:
    return [
        "run",
        "--preset", spec["preset"],
        "--seed", str(seed),
        "--trials", str(spec["trials"]),
        "--workers", str(spec["workers"]),
        "--out", out,
    ]


def load_reference(workload: str, seed: int):
    """Recorded reference of a workload, or None for an unrecorded seed."""
    if seed != REFERENCE_SEED:
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]


def blas_threads() -> dict:
    """Effective thread count of every OpenBLAS loaded in this process."""
    import ctypes

    threads = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                threads[Path(path).name] = func()
                break
    return threads


def _commit() -> str:
    # only this checkout's own repository; git would otherwise search upwards
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "otfslink").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def provenance() -> dict:
    """Machine and library facts; BLAS threads come from the workload's own
    processes (see ``blas_threads``), not from the caller's."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
