"""Span tracing of the ``otfslink`` public functions, installed from outside.

``Tracer.install`` replaces every public module-level function of the
package with a wrapper, in every ``otfslink`` namespace that binds it (so
``harness``' ``from .transforms import tf_stage`` and ``equalizers``'
``qpsk_slice`` are traced too).  Calls between traced functions therefore
nest, and a function's self time is its duration minus that of its direct
children.  Spans stay in memory; ``summarize`` turns them into per-function
totals when the run ends.  Nothing in ``src/otfslink`` is modified.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time

import numpy as np

MODULES = ("frame", "transforms", "channel", "equalizers", "harness", "cli")

# the functions the benchmark reports one by one; every other public
# function is traced too and counts towards its module's self time
REPORTED = {
    "frame": ("random_bits", "qpsk_map", "qpsk_slice"),
    "transforms": (
        "otfs_modulate_fast",
        "ofdm_modulate",
        "otfs_demodulate",
        "tf_stage",
        "cp_remove",
    ),
    "channel": (
        "generate_cir",
        "apply_time_channel",
        "cfr_from_cir",
        "build_time_channel_matrix",
        "build_equivalent_channel",
        "symbol_frequency_matrices",
    ),
    "equalizers": (
        "fde_build",
        "fde_apply",
        "fde_to_dd",
        "dde_build",
        "dde_equalize",
        "full_mmse",
        "ofdm_single_tap",
    ),
    "harness": ("run_trial", "run_sweep", "emit_csv"),
    "cli": ("main",),
}


def _nbytes(value) -> int:
    """Computed bytes of the arrays in a value, one container level deep."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(v.nbytes for v in value if isinstance(v, np.ndarray))
    if isinstance(value, dict):
        return sum(v.nbytes for v in value.values() if isinstance(v, np.ndarray))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return sum(
            v.nbytes for v in vars(value).values() if isinstance(v, np.ndarray)
        )
    return 0


class Tracer:
    """Records one span per traced call: (function, parent span, start, end,
    computed bytes of array arguments and results)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self._stack: list[int] = []
        self._replaced: list = []

    def install(self) -> None:
        modules = [importlib.import_module("otfslink")] + [
            importlib.import_module(f"otfslink.{m}") for m in MODULES
        ]
        wrappers = {}
        for module in modules[1:]:
            short = module.__name__.rsplit(".", 1)[1]
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self._wrap(obj, f"{short}.{name}")
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._replaced.append((module, name, obj))
                    setattr(module, name, wrappers[obj])

    def uninstall(self) -> None:
        for module, name, original in self._replaced:
            setattr(module, name, original)
        self._replaced.clear()

    def _wrap(self, func, qualified: str):
        fid = len(self.names)
        self.names.append(qualified)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (fid, parent, start, end, 0)
            size = sum(map(_nbytes, args)) + sum(map(_nbytes, kwargs.values()))
            spans[index] = (fid, parent, start, end, size + _nbytes(result))
            return result

        return traced

    def reset(self) -> None:
        """Forget all spans, including open ones (for a forked child)."""
        self.spans.clear()
        self._stack.clear()

    def dump(self) -> dict:
        return {"names": list(self.names), "spans": list(self.spans)}


def summarize(dumps: "list[dict]") -> dict:
    """Per-function totals over the spans of one or more processes:
    ``{qualified_name: {"ms", "calls", "bytes"}}`` plus, under ``"_roots"``,
    the duration and summed self time of every ``harness.run_trial`` span
    (one per frame)."""
    totals: dict[str, dict] = {}
    roots = []
    for dump in dumps:
        names, spans = dump["names"], dump["spans"]
        child_time = [0.0] * len(spans)
        for _, parent, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        frame_of = [-1] * len(spans)
        frame_self: dict[int, float] = {}
        for i, (fid, parent, start, end, size) in enumerate(spans):
            self_s = (end - start) - child_time[i]
            name = names[fid]
            entry = totals.setdefault(name, {"ms": 0.0, "calls": 0, "bytes": 0})
            entry["ms"] += 1e3 * self_s
            entry["calls"] += 1
            entry["bytes"] += size
            # spans are appended at entry, so a parent precedes its children
            if name == "harness.run_trial":
                frame_of[i] = i
            elif parent >= 0:
                frame_of[i] = frame_of[parent]
            if frame_of[i] >= 0:
                frame_self[frame_of[i]] = frame_self.get(frame_of[i], 0.0) + self_s
        for i, total in frame_self.items():
            _, _, start, end, _ = spans[i]
            roots.append({"wall_ms": 1e3 * (end - start), "self_ms": 1e3 * total})
    totals["_roots"] = roots
    return totals
