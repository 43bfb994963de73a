"""Run the ``otfs-link`` CLI as its console script does, recording frames.

    python3 linkbench/cli_entry.py --record DIR --trace 0|1 -- run --preset desk ...

Equivalent to ``otfs-link <args>``: it calls ``otfslink.cli.main`` and
exits with its code.  Beforehand it wraps ``harness.run_trial`` with a
timer (``--trace 0``), or installs the full tracer (``--trace 1``).  Pool
workers are forked, so they inherit the wrapper.  Every process of the CLI
keeps what it recorded in memory and writes ``DIR/<pid>.json`` when it
ends: the start time and duration of each frame, its peak RSS, its BLAS
threads and, when tracing, its spans.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import json
import multiprocessing.util
import os
import resource
import sys
import time

import common


class Recorder:
    def __init__(self, directory: str, harness, tracer) -> None:
        self.directory = directory
        self.tracer = tracer
        self.frames: list = []
        if tracer is None:
            harness.run_trial = self._timed(harness.run_trial)
        atexit.register(self.dump)
        multiprocessing.util.register_after_fork(self, Recorder._after_fork)

    def _timed(self, func):
        frames = self.frames

        @functools.wraps(func)
        def timed(*args, **kwargs):
            start = time.time()
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                frames.append((start, 1e3 * (time.perf_counter() - t0)))

        return timed

    def _after_fork(self) -> None:
        # a forked pool worker starts empty and writes its own file when
        # multiprocessing runs its exit finalizers
        self.frames.clear()
        if self.tracer is not None:
            self.tracer.reset()
        multiprocessing.util.Finalize(None, self.dump, exitpriority=100)

    def dump(self) -> None:
        record = {
            "pid": os.getpid(),
            "frames": self.frames,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "blas_threads": common.blas_threads(),
            "trace": self.tracer.dump() if self.tracer is not None else None,
        }
        with open(os.path.join(self.directory, f"{os.getpid()}.json"), "w") as fh:
            json.dump(record, fh)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    harness = common.import_harness()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    Recorder(args.record, harness, tracer)
    from otfslink import cli

    sys.exit(cli.main(cli_args))


if __name__ == "__main__":
    main()
