"""Link-level simulator for delay-Doppler (OTFS) modulation over rapidly
time-varying multipath channels, with a two-stage equalizer and reference
baselines."""

import os

# numpy loads its FFT and random submodules lazily; loading them with the
# package spares every forked sweep worker that cost on its first frame
import numpy.fft
import numpy.random

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


def _keep_freed_heap() -> None:
    """Have glibc keep freed heap memory for reuse instead of trimming it.

    By default glibc hands a frame's freed arrays back to the kernel when
    the frame ends, and the next frame faults the same pages in again:
    540 minor faults per ``table2`` frame with the ``otfs_fde`` and
    ``ofdm_single_tap`` receivers, 3,433 with the default list.  A larger
    top pad keeps those pages.  It changes no arithmetic.  Other C
    libraries keep their own policy.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return
    if not libc or not libc.startswith("glibc"):
        return
    import ctypes

    m_top_pad = -2  # from malloc.h
    # a table2 frame with all five receivers frees more than 16 MiB at
    # once, and 16 MiB left it about 1,060 faults; 24 and 32 MiB both leave
    # one per frame on every list except the 64 MiB block stack of the
    # full-MMSE pair, which glibc maps and unmaps at any pad.  32 MiB keeps
    # a margin over 24
    ctypes.CDLL(None).mallopt(m_top_pad, 32 << 20)


_keep_freed_heap()


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
