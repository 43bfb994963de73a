"""One fresh process of an in-process workload, or a serial reference run.

    python3 linkbench/worker.py trial --workload desk_dense --seed 2024 \
        --seconds 30 --trace 0 [--setup-only]
    python3 linkbench/worker.py reference --workload desk_dense --seed 2024
    python3 linkbench/worker.py sweep-reference --seed 2024 --out FILE

``trial`` writes JSON lines to stdout: ``{"event": "ready", "t": ...}``
once imports, the config and one untimed warm-up frame are done (the
wall-clock time, so the driver can subtract the moment it spawned this
process), then, unless ``--setup-only``, ``{"event": "done", ...}`` with
every timed frame, the reference, peak RSS and BLAS threads.  ``reference``
prints the error counts of one workload's frames; ``sweep-reference`` runs
the CLI workload's sweep serially, in process, and writes its CSV.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import warnings

import common

FAST_FADING = r"doppler_hz \* frame_duration"


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _timed_loop(harness, config, spec: dict, seconds: float):
    """Closed loop: the next frame starts when the previous one returns."""
    frames = []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        index = i % spec["frames"]
        counts, error = None, None
        t0 = time.perf_counter()
        try:
            counts = harness.run_trial(config, spec["snr_db"], spec["doppler_hz"], index)
        except Exception as err:  # a failed frame is counted, not fatal
            error = f"{type(err).__name__}: {err}"
        frames.append([index, 1e3 * (time.perf_counter() - t0), counts, error])
        i += 1
    return frames, time.perf_counter() - start


def _reference_counts(harness, config, spec: dict) -> list:
    return [
        harness.run_trial(config, spec["snr_db"], spec["doppler_hz"], i)
        for i in range(spec["frames"])
    ]


def run_trial_workload(args) -> None:
    spec = common.WORKLOADS[args.workload]
    harness = common.import_harness()
    config = common.trial_config(harness, spec, args.seed)
    warnings.filterwarnings("ignore", message=FAST_FADING, category=RuntimeWarning)
    harness.run_trial(config, spec["snr_db"], spec["doppler_hz"], 0)
    _emit({"event": "ready", "t": time.time()})
    if args.setup_only:
        return

    result = {"event": "done"}
    if args.trace:
        from tracer import Tracer, summarize

        half = args.seconds / 2
        result["frames"], result["wall_s"] = _timed_loop(harness, config, spec, half)
        tracer = Tracer()
        tracer.install()
        traced, result["traced_wall_s"] = _timed_loop(harness, config, spec, half)
        tracer.uninstall()
        result["traced_frames"] = traced
        result["trace"] = summarize([tracer.dump()])
    else:
        result["frames"], result["wall_s"] = _timed_loop(
            harness, config, spec, args.seconds
        )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    recorded = common.load_reference(args.workload, args.seed)
    if recorded is None:
        result["reference"] = {
            "source": "computed by an untimed serial run after the timed runs",
            "frames": _reference_counts(harness, config, spec),
        }
    else:
        result["reference"] = {
            "source": f"recorded in {common.REFERENCE_PATH.name}",
            "frames": recorded["frames"],
        }
    result["blas_threads"] = common.blas_threads()
    _emit(result)


def run_reference(args) -> None:
    spec = common.WORKLOADS[args.workload]
    harness = common.import_harness()
    warnings.filterwarnings("ignore", message=FAST_FADING, category=RuntimeWarning)
    config = common.trial_config(harness, spec, args.seed)
    _emit({"frames": _reference_counts(harness, config, spec)})


def run_sweep_reference(args) -> None:
    spec = common.WORKLOADS["desk_sweep_cli"]
    harness = common.import_harness()
    warnings.filterwarnings("ignore", message=FAST_FADING, category=RuntimeWarning)
    config = harness.with_overrides(
        harness.PRESETS[spec["preset"]](), seed=args.seed, trials=spec["trials"]
    )
    harness.emit_csv(harness.run_sweep(config, workers=1), args.out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    trial = sub.add_parser("trial")
    trial.add_argument("--workload", required=True)
    trial.add_argument("--seed", type=int, required=True)
    trial.add_argument("--seconds", type=float, default=30.0)
    trial.add_argument("--trace", type=int, choices=(0, 1), default=0)
    trial.add_argument("--setup-only", action="store_true")
    ref = sub.add_parser("reference")
    ref.add_argument("--workload", required=True)
    ref.add_argument("--seed", type=int, required=True)
    sweep = sub.add_parser("sweep-reference")
    sweep.add_argument("--seed", type=int, required=True)
    sweep.add_argument("--out", required=True)
    args = parser.parse_args()
    {
        "trial": run_trial_workload,
        "reference": run_reference,
        "sweep-reference": run_sweep_reference,
    }[args.command](args)


if __name__ == "__main__":
    main()
